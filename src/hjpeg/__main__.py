from hjpeg.cli import main

raise SystemExit(main())
