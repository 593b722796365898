"""Span tracer that wraps hjpeg's module functions from outside the package.

Each wrapped call records its inclusive time and its self time (inclusive
minus the time of the spans it directly caused). Span stacks are kept per
thread because `hjpeg bench` runs `bench_image` in a pool worker. A span that
opens in a worker thread with no open parent of its own is charged as a
child of the innermost open span of the thread that installed the tracer,
which is blocked waiting for the pool meanwhile.

The per-symbol `BitWriter.write` and `BitReader.peek` are deliberately not
wrapped: they run millions of times per round, and a wrapper there would
measure itself. The bitstream layer is reported as counts instead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs that get a span; the key is "module.function".
SPANS = {
    "codec": ("compress_bytes", "decompress_bytes", "compress", "decompress",
              "image_to_symbols"),
    "entropy": ("reduce_symbols", "expand_symbols", "build_frequency_table",
                "build_codebook", "encode", "decode", "serialize_codebook",
                "deserialize_codebook"),
    "container": ("serialize", "deserialize"),
    "transform": ("level_shift", "level_unshift", "fdct", "idct"),
    "quantize": ("quantize", "dequantize", "zigzag", "inverse_zigzag",
                 "dc_differential_encode", "dc_differential_decode"),
    "image": ("read_pgm", "pad_to_blocks"),
    "metrics": ("empirical_entropy", "average_code_length", "compression_ratio",
                "psnr"),
    "cli": ("main", "cmd_bench", "bench_image", "_load_corpus", "_report"),
}


PACKAGE = "hjpeg"


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[float]] = defaultdict(list)
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.incl: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def install(self):
        """Replace every binding of each traced function in the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short, names in SPANS.items():
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            for fname in names:
                original = getattr(mod, fname, None)
                if original is None:  # renamed or removed: its span reads 0
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple[float, float, int]]:
        with self._lock:
            return {k: (self.incl[k], self.self_[k], self.calls[k])
                    for k in set(self.incl) | set(self.calls)}

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks[tid]
            stack.append(0.0)  # time of direct children, filled as they end
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    children = stack.pop()
                    if stack:
                        stack[-1] += dt
                    elif tid != self._home and self._stacks[self._home]:
                        self._stacks[self._home][-1] += dt
                    self.incl[key] += dt
                    self.self_[key] += dt - children
                    self.calls[key] += 1

        return span
