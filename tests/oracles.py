"""Independent brute-force oracles, and small builders of test inputs, kept
separate from the code they check."""

from __future__ import annotations

import heapq
import math
import struct
from fractions import Fraction

import numpy as np

from hjpeg import entropy, quantize, transform
from hjpeg.container import CompressedFile
from hjpeg.entropy import (
    BitExhaustionError,
    CodeBook,
    CodebookError,
    DanglingBitsError,
    EntropyError,
    InvalidCodeLengthError,
    KraftViolationError,
    TruncatedCodebookError,
    UnknownSymbolError,
)
from hjpeg.image import (
    Image,
    PgmError,
    PgmMagicError,
    PgmMaxvalError,
    PgmTruncatedError,
    _decimal,
)


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def quantize_oracle(coeffs, steps):
    """Elementwise round_half_away(coeff / step) over 8x8 grids."""
    return [
        [round_half_away(coeffs[r][c] / steps[r][c]) for c in range(8)]
        for r in range(8)
    ]


def min_prefix_code_cost(counts: list[int]) -> int:
    """Minimum total bits over all prefix codes for the given counts.

    Exhaustive search over nondecreasing code-length vectors satisfying the
    Kraft inequality, applied to counts sorted descending (an optimal code
    always assigns nondecreasing lengths to nonincreasing counts). Feasible
    for small alphabets only.
    """
    counts = sorted(counts, reverse=True)
    n = len(counts)
    if n == 1:
        return counts[0]  # one symbol, one bit each
    max_len = n - 1
    best = math.inf

    def recurse(i: int, prev_len: int, kraft: Fraction, cost: int):
        nonlocal best
        if cost >= best:
            return
        if i == n:
            if kraft <= 1:
                best = cost
            return
        remaining = n - i
        for length in range(prev_len, max_len + 1):
            k = kraft + Fraction(1, 2**length)
            # even at max length the rest must still fit under Kraft
            if k + (remaining - 1) * Fraction(1, 2**max_len) > 1:
                continue
            recurse(i + 1, length, k, cost + counts[i] * length)

    recurse(0, 1, Fraction(0), 0)
    return int(best)


def huffman_lengths_reference(counts: dict) -> dict:
    """Huffman code lengths by merging {symbol: depth} dicts on a heap.

    Ties between equal counts go to the node holding the smallest symbol.
    """
    if len(counts) == 1:
        return {sym: 1 for sym in counts}
    heap = [(count, sym, {sym: 0}) for sym, count in counts.items()]
    heapq.heapify(heap)
    while len(heap) > 1:
        c1, k1, d1 = heapq.heappop(heap)
        c2, k2, d2 = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in {**d1, **d2}.items()}
        heapq.heappush(heap, (c1 + c2, min(k1, k2), merged))
    return heap[0][2]


def is_prefix_free(codes: dict) -> bool:
    """codes maps symbol -> (code bits as int, length)."""
    strings = sorted(
        format(code, f"0{length}b") for code, length in codes.values()
    )
    return all(
        not b.startswith(a) for a, b in zip(strings, strings[1:])
    )


def kraft_sum_exact(lengths) -> Fraction:
    return sum(Fraction(1, 2**l) for l in lengths)


def pad_to_blocks_reference(img: Image) -> Image:
    """image.pad_to_blocks by np.pad's edge mode."""
    pad = ((0, -img.height % 8), (0, -img.width % 8))
    return Image(np.pad(img.pixels, pad, mode="edge"))


def fdct_reference(block) -> np.ndarray:
    """Direct quadruple-loop evaluation of the forward 8x8 DCT.

    Slow by construction; exists as an independent check on transform.fdct.
    """
    N = 8
    b = np.asarray(block, dtype=np.float64)
    alpha = [math.sqrt(1.0 / N)] + [math.sqrt(2.0 / N)] * (N - 1)
    out = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            acc = 0.0
            for m in range(N):
                for n in range(N):
                    acc += (
                        b[m, n]
                        * np.cos(np.pi * (2 * m + 1) * i / (2 * N))
                        * np.cos(np.pi * (2 * n + 1) * j / (2 * N))
                    )
            out[i, j] = alpha[i] * alpha[j] * acc
    return out


def group_symbols_reference(seq, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(rows, ids, counts, pad_count) of entropy.group_symbols, from one
    np.unique over a biased big-endian void key per row, whose bytewise order
    is the signed lexicographic row order."""
    if g < 1:
        raise ValueError(f"group size must be >= 1, got {g}")
    seq = np.asarray(seq, dtype=np.int64).reshape(-1)
    if not seq.size:
        raise EntropyError("cannot code an empty sequence")
    pad_count = -seq.size % g
    rows = np.concatenate([seq, np.zeros(pad_count, np.int64)]).reshape(-1, g)
    if rows.min() < -0x8000 or rows.max() >= 0x8000:
        raise EntropyError("symbol part outside the signed 16-bit range")
    keys = (rows + 0x8000).astype(">u2").view(f"V{2 * g}").reshape(-1)
    keys, ids, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return keys.view(">u2").astype(np.int64).reshape(-1, g) - 0x8000, ids, counts, pad_count


def huge_payload(bits: int):
    """Stands in for a payload of `bits` bits without allocating it."""
    class Huge:
        def __len__(self):
            return (bits + 7) // 8
    return Huge()


def by_symbol(mapping: dict) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of a {symbol: value} dict whose symbols are ints or
    g-tuples: the symbols as ascending (n, g) int64 rows, and their values in
    that order."""
    symbols = sorted(mapping)
    rows = np.array(symbols, dtype=np.int64).reshape(len(symbols), -1)
    return rows, np.array([mapping[s] for s in symbols], dtype=np.int64)


def book_of(lengths: dict) -> CodeBook:
    """CodeBook from a {symbol: code length} dict, its symbols sorted by
    (length, symbol) as a book holds them."""
    symbols = sorted(lengths, key=lambda s: (lengths[s], s))
    rows = np.array(symbols, dtype=np.int64).reshape(len(symbols), -1)
    return CodeBook(rows, np.array([lengths[s] for s in symbols], dtype=np.int64))


def canonical_codes_reference(lengths) -> list[int]:
    """Canonical code of each id, by the classic running-code loop.

    Ids are visited by length, then id; the running code is incremented
    after each one and shifted left by every step in length.
    """
    codes = [0] * len(lengths)
    code = 0
    prev = 0
    for i in sorted(range(len(lengths)), key=lambda i: (lengths[i], i)):
        code <<= lengths[i] - prev
        prev = lengths[i]
        codes[i] = code
        code += 1
    return codes


def code_strings(book: CodeBook) -> list[str]:
    """Each id's canonical code as a '0'/'1' string, MSB first."""
    lengths = book.code_lengths.tolist()
    return [format(code, f"0{length}b")
            for code, length in zip(canonical_codes_reference(lengths), lengths)]


def encode_reference(ids, book: CodeBook) -> tuple[bytes, int]:
    """Join the ids' code strings and pack them MSB first; (payload, bit length)."""
    codes = code_strings(book)
    ids = list(ids)
    if any(not 0 <= i < len(codes) for i in ids):
        raise UnknownSymbolError("symbol id not in codebook")
    bits = "".join(codes[i] for i in ids)
    pad = -len(bits) % 8
    payload = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    return payload, len(bits)


def decode_reference(data: bytes, book: CodeBook, symbol_count: int,
                     bit_length: int) -> np.ndarray:
    """Decode symbol ids by probing per-length tables of '0'/'1' code strings.

    One symbol at a time, shortest length first; raises the same errors as
    entropy.decode.
    """
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""
    by_len: dict[int, dict] = {}
    for i, code in enumerate(code_strings(book)):
        by_len.setdefault(len(code), {})[code] = i
    tables = sorted(by_len.items())
    out = []
    pos = 0
    for _ in range(symbol_count):
        for length, table in tables:
            # a slice cut short by the end of the data matches no code
            i = table.get(bits[pos : pos + length])
            if i is not None:
                pos += length
                out.append(i)
                break
        else:
            raise BitExhaustionError("no code matches the remaining bits")
        if pos > bit_length:
            raise BitExhaustionError(
                f"code ran past the declared payload bit length {bit_length}"
            )
    if pos != bit_length:
        raise DanglingBitsError(
            f"decoded {pos} bits but payload declares {bit_length}"
        )
    return np.array(out, dtype=np.intp)


def decompress_reference(file: CompressedFile) -> Image:
    """codec.decompress with its inverse front end written out of place: every
    step (dequantize, the level unshift, rounding and clamping) makes a new
    full-size array from the last."""
    ids = entropy.decode(file.payload, file.codebook, file.symbol_count,
                         file.payload_bit_length)
    h, w = file.padded_height, file.padded_width
    seq = file.codebook.rows[ids].reshape(-1)[: h * w]
    if file.dc_diff:
        seq = quantize.dc_differential_decode(seq)
    levels = quantize.inverse_zigzag(seq.reshape(-1, 64))
    coeffs = np.asarray(levels, dtype=np.float64) * file.quant_table
    shifted = transform.idct(coeffs) + 128.0
    blocks = np.clip(np.floor(shifted + 0.5), 0, 255).astype(np.uint8)
    full = blocks.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)
    return Image(full[: file.orig_height, : file.orig_width])


def deserialize_codebook_reference(data: bytes, g: int) -> tuple[list, list, int]:
    """entropy.deserialize_codebook entry by entry with struct: (rows as lists of
    g ints, lengths, bytes consumed), or the same exception class and message,
    the checks made in the same order."""
    if g < 1:
        raise CodebookError(f"group size must be >= 1, got {g}")
    if len(data) < 4:
        raise TruncatedCodebookError("codebook shorter than its count field")
    (n,) = struct.unpack_from(">I", data)
    size = 2 * g + 1
    end = 4 + n * size
    if len(data) < end:
        fit = (len(data) - 4) // size
        raise TruncatedCodebookError(f"codebook declares {n} symbols but only {fit} fit")
    entries = [struct.unpack_from(f">{g}hB", data, 4 + k * size) for k in range(n)]
    rows = [list(entry[:g]) for entry in entries]
    lengths = [entry[g] for entry in entries]
    if n == 0:
        raise CodebookError("codebook needs (n, g) rows and n lengths, n and g >= 1")
    if not all(1 <= length <= 64 for length in lengths):
        raise InvalidCodeLengthError("code length out of range")
    if any(a > b for a, b in zip(lengths, lengths[1:])):
        raise CodebookError("code lengths not in canonical order")
    kraft = sum(Fraction(1, 2**length) for length in lengths)
    if kraft > 1:
        raise KraftViolationError(f"Kraft sum {kraft} > 1")
    # the constructor's check of the signed 16-bit range comes here, but no
    # ">h" part fails it
    if len(set(map(tuple, rows))) < n:
        raise CodebookError("duplicate symbol in codebook")
    for k in range(n - 1):
        if lengths[k] == lengths[k + 1] and rows[k] > rows[k + 1]:
            raise CodebookError("codebook entries not in canonical order")
    if n >= 2 and kraft != 1:
        raise KraftViolationError(f"Kraft sum {kraft} != 1")
    if n == 1 and lengths[0] != 1:
        raise KraftViolationError("single-symbol alphabet must use length 1")
    return rows, lengths, end


def _tokenize_header(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one.
    """
    tokens: list[int] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if i == start:
            raise PgmTruncatedError("header ended before all fields were read")
        tokens.append(_decimal(data[start:i], "header field"))
        i += 1  # consume the single whitespace terminator
    return tokens, i


def read_pgm_reference(data: bytes) -> Image:
    """image.read_pgm as a byte-at-a-time header scanner that scales each sample
    to 0..255 one at a time: the same Image, or the same exception class and
    message."""
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmMagicError(f"bad PGM magic {magic!r}")
    fields, offset = _tokenize_header(data[2:], 3)
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise PgmMaxvalError(f"maxval {maxval} not in [1, 255]")
    count = width * height
    body = data[2 + offset :]
    if magic == b"P5":
        if len(body) < count:
            raise PgmTruncatedError(
                f"expected {count} samples, found {len(body)}"
            )
        samples = np.frombuffer(body[:count], dtype=np.uint8)
    else:
        values = body.split()
        if len(values) < count:
            raise PgmTruncatedError(
                f"expected {count} samples, found {len(values)}"
            )
        samples = np.array([_decimal(v, "sample") for v in values[:count]], np.int64)
    if samples.max() > maxval:
        raise PgmError(f"sample value above maxval {maxval}")
    samples = [(int(s) * 255 + maxval // 2) // maxval for s in samples]
    return Image(np.array(samples, np.uint8).reshape(height, width))
