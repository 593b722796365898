"""Canonical Huffman coding over scalar or composite (grouped) symbols.

Symbols are plain ints (quantized coefficients) or, after grouping, tuples
of ints. Grouping g consecutive symbols into one tuple shrinks the coded
sequence by a factor of g; the codebook is built over observed tuples only.
"""

from __future__ import annotations

import heapq
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

Scalar = int
Composite = tuple[int, ...]

MAX_CODE_LENGTH = 64


class EntropyError(ValueError):
    pass


class UnknownSymbolError(EntropyError):
    """Symbol to encode is absent from the codebook."""


class BitExhaustionError(EntropyError):
    """Payload ran out of bits mid-code."""


class DanglingBitsError(EntropyError):
    """Payload holds bits beyond the last decoded symbol (before byte padding)."""


class CodebookError(EntropyError):
    pass


class InvalidCodeLengthError(CodebookError):
    """Serialized code length is 0 or exceeds MAX_CODE_LENGTH."""


class KraftViolationError(CodebookError):
    """Code lengths do not satisfy the Kraft equality."""


class TruncatedCodebookError(CodebookError):
    """Serialized codebook ends before the declared symbol count."""


@dataclass(frozen=True)
class FrequencyTable:
    counts: dict
    total: int

    def probability(self, symbol) -> float:
        return self.counts[symbol] / self.total


def build_frequency_table(seq) -> FrequencyTable:
    counts = Counter(seq)
    if not counts:
        raise EntropyError("cannot build a frequency table from an empty sequence")
    return FrequencyTable(dict(counts), sum(counts.values()))


def reduce_symbols(seq, g: int) -> tuple[list[Composite], int]:
    """Group g consecutive symbols left-to-right into tuples.

    A short tail is padded with zeros; returns (composites, pad_count) with
    0 <= pad_count < g so the expansion can drop the padding again.
    """
    if g < 2:
        raise ValueError(f"group size must be >= 2, got {g}")
    seq = list(seq)
    if not seq:
        raise EntropyError("cannot group an empty sequence")
    pad_count = (-len(seq)) % g
    seq.extend([0] * pad_count)
    groups = [tuple(seq[i : i + g]) for i in range(0, len(seq), g)]
    return groups, pad_count


def expand_symbols(groups, g: int, pad_count: int) -> list[Scalar]:
    """Inverse of reduce_symbols: concatenate tuples, drop trailing padding."""
    if not 0 <= pad_count < g:
        raise ValueError(f"pad_count {pad_count} not in [0, {g})")
    groups = list(groups)
    if not groups and pad_count > 0:
        raise EntropyError("pad_count > 0 with no composite symbols")
    out: list[Scalar] = []
    for tup in groups:
        if len(tup) != g:
            raise EntropyError(f"composite symbol has {len(tup)} parts, expected {g}")
        out.extend(tup)
    return out[: len(out) - pad_count] if pad_count else out


@dataclass(frozen=True)
class CodeBook:
    """Canonical prefix code: codes are determined by lengths alone.

    group_size is 1 for scalar symbols, else the tuple width.
    """

    lengths: dict = field(repr=False)
    group_size: int = 1

    @cached_property
    def canonical_symbols(self) -> list:
        return sorted(self.lengths, key=lambda s: (self.lengths[s], s))

    @cached_property
    def codes(self) -> dict:
        """Symbol -> canonical code as a '0'/'1' string, MSB first."""
        codes = {}
        code = 0
        prev_len = None
        for sym in self.canonical_symbols:
            length = self.lengths[sym]
            if prev_len is not None:
                code = (code + 1) << (length - prev_len)
            codes[sym] = format(code, f"0{length}b")
            prev_len = length
        return codes

    @cached_property
    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.lengths.values())

    @cached_property
    def _decode_tables(self) -> list[tuple[int, dict]]:
        by_len: dict[int, dict] = {}
        for sym, code in self.codes.items():
            by_len.setdefault(len(code), {})[code] = sym
        return sorted(by_len.items())


def huffman_code_lengths(freqs: FrequencyTable) -> dict:
    """Code lengths from the two-least-frequent merge.

    Ties between equal counts go to the node holding the smallest symbol, so
    the result is deterministic. A single-symbol alphabet gets length 1.
    """
    if not freqs.counts:
        raise EntropyError("empty frequency table")
    if len(freqs.counts) == 1:
        (sym,) = freqs.counts
        return {sym: 1}
    # heap entries: (count, min symbol of node, {symbol: depth})
    heap = [(count, sym, {sym: 0}) for sym, count in freqs.counts.items()]
    heapq.heapify(heap)
    while len(heap) > 1:
        c1, k1, d1 = heapq.heappop(heap)
        c2, k2, d2 = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in d1.items()}
        merged.update((s, d + 1) for s, d in d2.items())
        heapq.heappush(heap, (c1 + c2, min(k1, k2), merged))
    return heap[0][2]


def build_codebook(freqs: FrequencyTable, group_size: int = 1) -> CodeBook:
    lengths = huffman_code_lengths(freqs)
    return CodeBook(lengths, group_size)


def encode(seq, book: CodeBook) -> tuple[bytes, int]:
    """Concatenate MSB-first codes; returns (payload bytes, exact bit length)."""
    codes = book.codes
    try:
        bits = "".join([codes[sym] for sym in seq])
    except KeyError as exc:
        raise UnknownSymbolError(f"symbol {exc.args[0]!r} not in codebook") from None
    pad = -len(bits) % 8
    payload = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    return payload, len(bits)


def decode(data: bytes, book: CodeBook, symbol_count: int,
           bit_length: int | None = None) -> list:
    """Decode exactly symbol_count symbols from an MSB-first payload.

    If bit_length is given, the decoded codes must consume it exactly;
    leftover coded bits raise DanglingBitsError and codes running past it
    raise BitExhaustionError. Byte-boundary padding past bit_length is ignored.
    """
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""
    tables = book._decode_tables
    out = []
    pos = 0
    for _ in range(symbol_count):
        for length, table in tables:
            # a slice cut short by the end of the data matches no code
            sym = table.get(bits[pos : pos + length])
            if sym is not None:
                pos += length
                out.append(sym)
                break
        else:
            raise BitExhaustionError("no code matches the remaining bits")
        if bit_length is not None and pos > bit_length:
            raise BitExhaustionError(
                f"code ran past the declared payload bit length {bit_length}"
            )
    if bit_length is not None and pos != bit_length:
        raise DanglingBitsError(
            f"decoded {pos} bits but payload declares {bit_length}"
        )
    return out


def serialize_codebook(book: CodeBook) -> bytes:
    """Symbol count (u32 BE), then per symbol in canonical order:
    group_size signed 16-bit parts followed by one length byte."""
    g = book.group_size
    parts_fmt = ">" + "h" * g
    out = bytearray(struct.pack(">I", len(book.lengths)))
    for sym in book.canonical_symbols:
        length = book.lengths[sym]
        if not 1 <= length <= MAX_CODE_LENGTH:
            raise InvalidCodeLengthError(f"code length {length} out of range")
        parts = (sym,) if g == 1 else sym
        out += struct.pack(parts_fmt, *parts)
        out.append(length)
    return bytes(out)


def deserialize_codebook(data: bytes, group_size: int) -> tuple[CodeBook, int]:
    """Inverse of serialize_codebook; returns (book, bytes consumed).

    Codes are reassigned canonically from the stored lengths, so the result
    is bit-identical to the encoder's book. Validates length range, canonical
    ordering, and the Kraft equality.
    """
    g = group_size
    if len(data) < 4:
        raise TruncatedCodebookError("codebook shorter than its count field")
    (n,) = struct.unpack_from(">I", data)
    if n == 0:
        raise CodebookError("codebook declares zero symbols")
    entry_size = 2 * g + 1
    end = 4 + n * entry_size
    if len(data) < end:
        raise TruncatedCodebookError(
            f"codebook declares {n} symbols but only {(len(data) - 4) // entry_size} fit"
        )
    parts_fmt = ">" + "h" * g
    lengths = {}
    order = []
    for i in range(n):
        off = 4 + i * entry_size
        parts = struct.unpack_from(parts_fmt, data, off)
        sym = parts[0] if g == 1 else parts
        length = data[off + 2 * g]
        if not 1 <= length <= MAX_CODE_LENGTH:
            raise InvalidCodeLengthError(f"code length {length} out of range")
        if sym in lengths:
            raise CodebookError(f"duplicate symbol {sym!r}")
        lengths[sym] = length
        order.append(sym)
    if order != sorted(order, key=lambda s: (lengths[s], s)):
        raise CodebookError("codebook entries not in canonical order")
    kraft = sum(1 << (MAX_CODE_LENGTH - l) for l in lengths.values())
    if n >= 2 and kraft != 1 << MAX_CODE_LENGTH:
        raise KraftViolationError(f"Kraft sum {kraft} / 2**64 != 1")
    if n == 1 and next(iter(lengths.values())) != 1:
        raise KraftViolationError("single-symbol alphabet must use length 1")
    return CodeBook(lengths, g), end
