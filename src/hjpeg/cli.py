"""Command-line interface: compress, decompress, inspect, bench. `bench` rebuilds
each image from its quantized levels once and codes the levels four ways."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import codec, container, entropy, metrics
from .codec import CodecConfig
from .image import Image, PgmError, generate_test_image, read_pgm, write_pgm
from .metrics import CompressionReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_INVARIANT = 4

SYNTHETIC_KINDS = ("gradient", "checker", "noise")


class ParityError(ValueError):
    """A container does not decode back to the levels it was coded from."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _error_class(exc: Exception) -> str:
    """Machine-parsable kebab-case class name, e.g. BadMagicError -> bad-magic."""
    name = type(exc).__name__
    name = name.removesuffix("Error")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _run(name: str, img: Image,
         cfgs: list[CodecConfig]) -> list[tuple[bytes, CompressionReport]]:
    """The container and report of `img` under each of `cfgs`. The front end, its
    inverse and the PSNR run once, as every config codes the same levels; each
    container must decode back to exactly those levels."""
    levels = codec.image_to_levels(img)
    q = CodecConfig.quant_table
    psnr_db = metrics.psnr(img, codec.levels_to_image(levels, img.width, img.height, q))
    original_bits = img.width * img.height * 8
    out = []
    for cfg in cfgs:
        file, counts = codec.compress_levels(levels, img.width, img.height, cfg)
        data = container.serialize(file)
        if not np.array_equal(codec.decode_levels(container.deserialize(data)), levels):
            raise ParityError(f"{name}: {cfg} does not decode to its levels")
        out.append((data, CompressionReport(
            image=name,
            group_size=file.group_size,
            dc_diff=file.dc_diff,
            entropy_bits=metrics.empirical_entropy(counts),
            l_avg=file.payload_bit_length / file.symbol_count,
            payload_cr=metrics.compression_ratio(original_bits, file.payload_bit_length),
            file_cr=metrics.compression_ratio(original_bits, len(data) * 8),
            psnr_db=psnr_db,
        )))
    return out


def cmd_compress(args) -> int:
    cfg = CodecConfig("scalar" if args.entropy == "huffman" else "reduced",
                      args.group_size, args.dc_diff)
    img = read_pgm(Path(args.input).read_bytes())
    [(data, report)] = _run(Path(args.input).name, img, [cfg])
    Path(args.output).write_bytes(data)
    print(CompressionReport.CSV_HEADER)
    print(report.csv_row())
    return EXIT_OK


def cmd_decompress(args) -> int:
    file = container.deserialize(Path(args.input).read_bytes())
    img = codec.decompress(file)
    Path(args.output).write_bytes(write_pgm(img))
    return EXIT_OK


def cmd_inspect(args) -> int:
    file = container.deserialize(Path(args.input).read_bytes())
    book = file.codebook
    print(f"mode: {metrics.entropy_mode(file.group_size)}")
    print(f"group_size: {file.group_size}")
    print(f"dc_diff: {int(file.dc_diff)}")
    print(f"original: {file.orig_width}x{file.orig_height}")
    print(f"padded: {file.padded_width}x{file.padded_height}")
    print(f"pad_count: {file.pad_count}")
    print(f"symbol_count: {file.symbol_count}")
    print(f"payload_bits: {file.payload_bit_length}")
    print(f"codebook_symbols: {len(book.rows)}")
    lengths, _, counts = book.length_groups
    for length, count in zip(lengths, counts):
        print(f"code_length[{length}]: {count}")
    print(f"kraft_sum: {float(book.kraft_sum):g}")
    return EXIT_OK


def _load_corpus(corpus: str | None) -> list[tuple[str, Image]]:
    if corpus:
        # iterdir, unlike glob, raises an OSError when the directory is missing
        paths = sorted(p for p in Path(corpus).iterdir() if p.suffix == ".pgm")
        if not paths:
            raise ValueError(f"no .pgm files in {corpus}")
        images = []
        for p in paths:
            data = p.read_bytes()
            try:
                img = read_pgm(data)
                container.padded_size(img.width, img.height)
            except (PgmError, container.ImageTooLargeError) as exc:
                # the same class, so the same error line and exit code, with the file
                raise type(exc)(f"{p.name}: {exc}") from exc
            images.append((p.name, img))
        return images
    return [
        (f"synthetic:{kind}", generate_test_image(kind, 256, 256, seed=1))
        for kind in SYNTHETIC_KINDS
    ]


def bench_image(name: str, img: Image, group_size: int) -> list[CompressionReport]:
    """Scalar then reduced report per DC setting; a reduced report carries its
    payload_cr gain in percent over the scalar one."""
    cfgs = [CodecConfig(mode, group_size, dc)
            for dc in (False, True) for mode in ("scalar", "reduced")]
    reports = [report for _, report in _run(name, img, cfgs)]
    for scalar, reduced in zip(reports[::2], reports[1::2]):
        reduced.improvement_pct = 100.0 * (reduced.payload_cr / scalar.payload_cr - 1.0)
    return reports


def cmd_bench(args) -> int:
    CodecConfig("reduced", args.group_size)  # refuse a bad --group-size first
    corpus = _load_corpus(args.corpus)
    lines = [CompressionReport.CSV_HEADER]
    for name, img in corpus:
        lines += [r.csv_row() for r in bench_image(name, img, args.group_size)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hjpeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--entropy", choices=("huffman", "reduced"), default="reduced")
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--dc-diff", action="store_true")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decompress a container to PGM")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("inspect", help="print container header and codebook stats")
    p.add_argument("input")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="run the compression-ratio benchmark")
    p.add_argument("--corpus", help="directory of .pgm images (default: synthetic)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--group-size", type=int, default=4)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's _ArrayMemoryError says what it could not get
        print(f"error: out-of-memory: {exc or 'not enough memory'}", file=sys.stderr)
        return EXIT_IO
    except (ParityError, container.InvariantError) as exc:
        print(f"error: {_error_class(exc)}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PgmError, container.ContainerError, entropy.EntropyError) as exc:
        print(f"error: {_error_class(exc)}: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
