"""Canonical Huffman coding of the coefficient stream, cut into g-wide symbols.

Every mode codes the stream the same way: the flat coefficients are padded
with zeros to a multiple of g and cut into rows of g parts, each distinct row
being one symbol (g = 1 is the scalar mode; a larger g shrinks the coded
sequence g-fold). The coder works on ids into the sorted alphabet of the
symbols present: the Huffman code is built over the per-id counts, and the
payload concatenates the codes of the per-row ids.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

MAX_CODE_LENGTH = 64
_BIAS = 0x8000  # maps an int16 part onto 0..0xFFFF, keeping its order


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


def _symbol_keys(rows: np.ndarray) -> list:
    """Codebook keys for alphabet rows: ints when g = 1, else g-tuples."""
    if rows.shape[1] == 1:
        return rows[:, 0].tolist()
    return list(map(tuple, rows.tolist()))


def _check_int16(rows: np.ndarray) -> np.ndarray:
    """rows unchanged, refusing any part that a 16-bit field would wrap."""
    if rows.size and (rows.min() < -_BIAS or rows.max() >= _BIAS):
        raise EntropyError("symbol part outside the signed 16-bit range")
    return rows


def group_symbols(seq, g: int) -> tuple[dict, np.ndarray, int]:
    """Cut a flat coefficient stream into g-wide rows and count the symbols.

    Returns (counts, ids, pad_count): counts maps each distinct row, in
    ascending order, to its number of occurrences; ids[i] is row i's index
    into that order; pad_count < g zeros were appended to fill the last row.
    """
    if g < 1:
        raise ValueError(f"group size must be >= 1, got {g}")
    seq = np.asarray(seq, dtype=np.int64).reshape(-1)
    if not seq.size:
        raise EntropyError("cannot code an empty sequence")
    pad_count = -seq.size % g
    rows = np.concatenate([seq, np.zeros(pad_count, np.int64)]).reshape(-1, g)
    # A biased big-endian row compares bytewise in signed lexicographic order.
    keys = (_check_int16(rows) + _BIAS).astype(">u2").view(f"V{2 * g}").reshape(-1)
    alphabet, ids, counts = np.unique(keys, return_inverse=True, return_counts=True)
    alphabet = alphabet.view(">u2").astype(np.int64).reshape(-1, g) - _BIAS
    return dict(zip(_symbol_keys(alphabet), counts.tolist())), ids, pad_count


@dataclass(frozen=True)
class CodeBook:
    """Canonical prefix code: codes are determined by lengths alone.

    lengths maps each symbol (an int when group_size is 1, else a tuple of
    group_size ints) to its code length. A symbol's id is its index in the
    ascending alphabet `symbols`.
    """

    lengths: dict = field(repr=False)
    group_size: int = 1

    @cached_property
    def symbols(self) -> list:
        return sorted(self.lengths)

    @cached_property
    def rows(self) -> np.ndarray:
        """The alphabet as an int64 array with one row of group_size parts per id."""
        return np.array(self.symbols, dtype=np.int64).reshape(-1, self.group_size)

    @cached_property
    def canonical_ids(self) -> list[int]:
        """Ids in canonical order: by code length, then by symbol."""
        lengths = [self.lengths[s] for s in self.symbols]
        return np.argsort(lengths, kind="stable").tolist()

    @cached_property
    def codes(self) -> dict:
        """Symbol -> canonical code as a '0'/'1' string, MSB first, in id order."""
        codes = dict.fromkeys(self.symbols)
        code, prev_len = -1, min(self.lengths.values(), default=0)
        for i in self.canonical_ids:
            sym = self.symbols[i]
            code = (code + 1) << (self.lengths[sym] - prev_len)
            prev_len = self.lengths[sym]
            codes[sym] = format(code, f"0{prev_len}b")
        return codes

    @cached_property
    def kraft_sum(self) -> Fraction:
        """Exact sum of 2**-length over the alphabet; 1 for a complete code."""
        total = sum(1 << (MAX_CODE_LENGTH - l) for l in self.lengths.values())
        return Fraction(total, 1 << MAX_CODE_LENGTH)


def huffman_code_lengths(counts) -> list[int]:
    """Per-index code lengths from the two-least-frequent merge.

    Ties between equal counts go to the node holding the smallest index, so
    the result is deterministic. A single-symbol alphabet gets length 1.
    """
    n = len(counts)
    if not n:
        raise EntropyError("empty frequency table")
    if n == 1:
        return [1]
    # heap entries: (count, smallest leaf index below the node, node); leaves
    # are nodes 0..n-1 and each merge appends one node
    heap = [(count, i, i) for i, count in enumerate(counts)]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        c1, k1, a = heapq.heappop(heap)
        c2, k2, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (c1 + c2, min(k1, k2), node))
    depth = [0] * (2 * n - 1)
    for v in range(2 * n - 3, -1, -1):  # every parent is numbered after its children
        depth[v] = depth[parent[v]] + 1
    return depth[:n]


def build_codebook(counts: dict, group_size: int = 1) -> CodeBook:
    """Huffman code over {symbol: count}."""
    symbols = sorted(counts)
    lengths = huffman_code_lengths([counts[s] for s in symbols])
    return CodeBook(dict(zip(symbols, lengths)), group_size)


def encode(ids, book: CodeBook) -> tuple[bytes, int]:
    """Concatenate MSB-first codes of symbol ids; returns (payload, bit length)."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= len(book.symbols)):
        raise UnknownSymbolError("symbol id not in codebook")
    codes = np.array(list(book.codes.values()), dtype=object)
    bits = "".join(codes[ids].tolist())
    pad = -len(bits) % 8
    payload = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    return payload, len(bits)


def decode(data: bytes, book: CodeBook, symbol_count: int,
           bit_length: int | None = None) -> np.ndarray:
    """Decode exactly symbol_count symbol ids from an MSB-first payload.

    If bit_length is given, the decoded codes must consume it exactly;
    leftover coded bits raise DanglingBitsError and codes running past it
    raise BitExhaustionError. Byte-boundary padding past bit_length is ignored.
    """
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""
    by_len: dict[int, dict] = {}
    for i, code in enumerate(book.codes.values()):
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
        if bit_length is not None and pos > bit_length:
            raise BitExhaustionError(
                f"code ran past the declared payload bit length {bit_length}"
            )
    if bit_length is not None and pos != bit_length:
        raise DanglingBitsError(
            f"decoded {pos} bits but payload declares {bit_length}"
        )
    return np.array(out, dtype=np.intp)


def _entry_dtype(g: int) -> np.dtype:
    return np.dtype([("parts", ">i2", (g,)), ("length", "u1")])


def serialize_codebook(book: CodeBook) -> bytes:
    """Symbol count (u32 BE), then per symbol in canonical order:
    group_size signed 16-bit parts followed by one length byte."""
    order = book.canonical_ids
    lengths = np.array([book.lengths[book.symbols[i]] for i in order], dtype=np.int64)
    if lengths.size and (lengths.min() < 1 or lengths.max() > MAX_CODE_LENGTH):
        raise InvalidCodeLengthError("code length out of range")
    entries = np.empty(len(order), _entry_dtype(book.group_size))
    entries["parts"] = _check_int16(book.rows[order])
    entries["length"] = lengths
    return struct.pack(">I", len(order)) + entries.tobytes()


def deserialize_codebook(data: bytes, group_size: int) -> tuple[CodeBook, int]:
    """Inverse of serialize_codebook; returns (book, bytes consumed).

    Codes are reassigned canonically from the stored lengths, so the result
    is bit-identical to the encoder's book. Validates length range, canonical
    ordering, and the Kraft equality.
    """
    if len(data) < 4:
        raise TruncatedCodebookError("codebook shorter than its count field")
    (n,) = struct.unpack_from(">I", data)
    if n == 0:
        raise CodebookError("codebook declares zero symbols")
    entry = _entry_dtype(group_size)
    end = 4 + n * entry.itemsize
    if len(data) < end:
        fit = (len(data) - 4) // entry.itemsize
        raise TruncatedCodebookError(
            f"codebook declares {n} symbols but only {fit} fit")
    entries = np.frombuffer(data, entry, count=n, offset=4)
    lengths = entries["length"].tolist()
    if min(lengths) < 1 or max(lengths) > MAX_CODE_LENGTH:
        raise InvalidCodeLengthError("code length out of range")
    order = list(zip(lengths, _symbol_keys(entries["parts"])))
    book = CodeBook({sym: length for length, sym in order}, group_size)
    if len(book.lengths) != n:
        raise CodebookError("duplicate symbol in codebook")
    if order != sorted(order):
        raise CodebookError("codebook entries not in canonical order")
    if n >= 2 and book.kraft_sum != 1:
        raise KraftViolationError(f"Kraft sum {book.kraft_sum} != 1")
    if n == 1 and lengths[0] != 1:
        raise KraftViolationError("single-symbol alphabet must use length 1")
    return book, end
