"""Canonical Huffman coding of the coefficient stream, cut into g-wide symbols.

Every mode codes the stream the same way: the flat coefficients are padded
with zeros to a multiple of g and cut into rows of g parts, each distinct row
being one symbol (g = 1 is the scalar mode). One np.lexsort of the rows'
biased uint16 parts gives, for any g, the sorted alphabet, each row's index
into it and the per-symbol counts. The Huffman code is built over the counts
by two sorted queues, the leaves sorted once and the merged nodes in the order
made, with ties to the smallest index; every count must be at least 1. Past
_ROUND_CUTOFF symbols, as the grouped alphabets of noisy images are, the merges
run first in numpy rounds: a round pops every node below the key of the next
merge, which the one-at-a-time loop would pop before any node the round makes,
and pairs them in key order. The loop makes the last _ROUND_CUTOFF merges, and
all of them for smaller alphabets, where a round's fixed cost is the larger.
The payload concatenates the codes.

build_codebook permutes the sorted alphabet once into canonical order, the
order of JPEG's HUFFVAL (ITU-T T.81, C and B.2.4.2): by code length, then by
symbol. A CodeBook holds the rows and their code lengths in that order, so an
id is its code's index; CodeBook.codes derives the 64-bit left-justified codes
from the lengths. Every codebook rule lives in the CodeBook constructor, which
refuses anything but a complete canonical code over distinct int16 rows, so
serialize_codebook can write only books that deserialize_codebook accepts.
The encoder ORs the shifted codes into 64-bit words; decode's docstring says how
the decoder matches and walks them.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

MAX_CODE_LENGTH = 64
_BIAS = 0x8000  # maps an int16 part onto 0..0xFFFF, keeping its order
_BLOCK = 1 << 14  # symbols, or bit positions, per block of the coder's work
_LOOKAHEAD = 16  # bits of decode's widest lookahead table
_ROUND_CUTOFF = 512  # unmerged Huffman nodes above which merges run in rounds


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


def _sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, differs): the stable order sorting the (n, g) rows ascending, from one
    np.lexsort of their parts as uint16 biased mod 2**16 (a radix pass per part), and
    whether each sorted row differs from the next. Refuses any part that a 16-bit
    field would wrap."""
    if rows.size and (rows.min() < -_BIAS or rows.max() >= _BIAS):
        raise EntropyError("symbol part outside the signed 16-bit range")
    keys = rows.T.astype(np.uint16, order="C") + np.uint16(_BIAS)
    order = np.lexsort(keys[::-1])
    keys = keys.take(order, axis=1)
    return order, (keys[:, 1:] != keys[:, :-1]).any(axis=0)


def group_symbols(seq, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Cut a flat coefficient stream into g-wide rows and count the symbols.

    Returns (rows, ids, counts, pad_count): rows is the (n, g) alphabet of
    distinct rows in ascending order; ids[i] is row i's index into it;
    counts[k] is how often rows[k] occurs; pad_count < g zeros were appended
    to fill the last row. Each run of equal rows in _sort_rows is one symbol.
    """
    if g < 1:
        raise ValueError(f"group size must be >= 1, got {g}")
    seq = np.asarray(seq, dtype=np.int64).reshape(-1)
    if not seq.size:
        raise EntropyError("cannot code an empty sequence")
    pad_count = -seq.size % g
    rows = np.concatenate([seq, np.zeros(pad_count, np.int64)]).reshape(-1, g)
    order, differs = _sort_rows(rows)
    edges = np.concatenate(([True], differs, [True])).nonzero()[0]  # run starts, then n
    counts = edges[1:] - edges[:-1]
    ids = np.empty(len(rows), np.intp)
    ids[order] = np.repeat(np.arange(len(counts)), counts)
    return rows[order[edges[:-1]]], ids, counts, pad_count


@dataclass(frozen=True, eq=False)
class CodeBook:
    """Complete canonical prefix code as two arrays in canonical order: rows is the
    (n, g) int64 alphabet by code length, then by symbol, and code_lengths[k] is
    the length of rows[k]. Id k, the row index, gets the k-th canonical code. The
    constructor is the one home of the codebook rules: it refuses anything but a
    complete canonical code over n >= 1 distinct int16 rows, so a book is exactly
    one that deserialize_codebook accepts and needs no later check."""

    rows: np.ndarray
    code_lengths: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows, lengths = self.rows, self.code_lengths
        if rows.ndim != 2 or not rows.size or lengths.shape != rows.shape[:1]:
            raise CodebookError("codebook needs (n, g) rows and n lengths, n and g >= 1")
        if lengths.min() < 1 or lengths.max() > MAX_CODE_LENGTH:
            raise InvalidCodeLengthError("code length out of range")
        if (lengths[1:] < lengths[:-1]).any():
            raise CodebookError("code lengths not in canonical order")
        if self._kraft_total > 1 << MAX_CODE_LENGTH:
            raise KraftViolationError(f"Kraft sum {self.kraft_sum} > 1")
        by_symbol, differs = _sort_rows(rows)
        if not differs.all():
            raise CodebookError("duplicate symbol in codebook")
        place = np.empty(len(rows), np.intp)  # each row's place in symbol order
        place[by_symbol] = np.arange(len(rows))
        if ((lengths[1:] == lengths[:-1]) & (place[1:] < place[:-1])).any():
            raise CodebookError("codebook entries not in canonical order")
        if len(rows) >= 2 and self._kraft_total != 1 << MAX_CODE_LENGTH:
            raise KraftViolationError(f"Kraft sum {self.kraft_sum} != 1")
        if len(rows) == 1 and lengths[0] != 1:
            raise KraftViolationError("single-symbol alphabet must use length 1")

    @property
    def group_size(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def lengths(self) -> dict:
        """{symbol: length}, symbols being ints if group_size is 1, else tuples;
        only for codecbench, as the codec works on the arrays."""
        rows = self.rows.tolist()
        symbols = [r[0] for r in rows] if self.group_size == 1 else map(tuple, rows)
        return dict(zip(symbols, self.code_lengths.tolist()))

    @cached_property
    def codes(self) -> np.ndarray:
        """codes[k], the code of id k left-justified to 64 bits: the exclusive prefix
        sum of 2**(64 - length): a prefix code, exact in uint64, by the checks above."""
        lengths = self.code_lengths.astype(np.int64)
        span = np.uint64(1) << (MAX_CODE_LENGTH - lengths).astype(np.uint64)
        return np.cumsum(span) - span

    @cached_property
    def length_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lengths, first ids, counts): each code length in use, ascending, the id
        of its first code and how many codes have it; ids of one length are
        contiguous, as the lengths are canonical."""
        return np.unique(self.code_lengths, return_index=True, return_counts=True)

    @cached_property
    def _kraft_total(self) -> int:
        """The Kraft sum in units of 2**-64, exact: count << (64 - length) summed over
        one bincount of the lengths, which the constructor has checked are in 1..64."""
        hist = np.bincount(self.code_lengths).tolist()
        return sum(map(operator.lshift, hist, range(MAX_CODE_LENGTH, -1, -1)))

    @property
    def kraft_sum(self) -> Fraction:
        """Exact sum of 2**-length over the alphabet; 1 for a complete code."""
        return Fraction(self._kraft_total, 1 << MAX_CODE_LENGTH)


def huffman_code_lengths(counts) -> list[int]:
    """Per-index code lengths from the two-least-frequent merge, by van Leeuwen's
    two sorted queues (ICALP 1976): leaves sorted once, merged nodes as made.
    Ties between equal counts go to the node holding the smallest index, so the
    result is deterministic. A single-symbol alphabet gets length 1. Every count
    must be at least 1, which the rounds below rely on; a count below 1 is refused.

    Above _ROUND_CUTOFF symbols, the merges run first in rounds of many at once
    (_merge_rounds), until _ROUND_CUTOFF unmerged nodes remain; the loop below
    then makes the rest, one per step. Below the cutoff a round's fixed numpy cost
    exceeds the loop's cost per symbol, so only the loop runs. The rounds hold keys
    in int64. A node's count is at most sum(counts), so every key is below
    (sum(counts) + 1) * n; a round pairs distinct nodes, whose counts add to at
    most sum(counts), so every sum of two keys is below (sum(counts) + 2) * n.
    Rounds run only where that bound is below 2**63, as it is for any container:
    its symbols, and so sum(counts) and n, number fewer than 2**32. Past the bound
    the loop alone makes every merge, in Python ints. max(counts) * n < 2**63 is
    checked first, so that counts.sum() cannot wrap in int64."""
    counts = np.asarray(counts)
    n = len(counts)
    if not n:
        raise EntropyError("empty frequency table")
    if counts.min() < 1:
        raise EntropyError("symbol count below 1")
    if n == 1:
        return [1]
    # key = count * n + the smallest leaf index below the node: one compare gives
    # the (count, index) order. Pops ascend, so merged counts never fall; if two
    # are equal, so are the four counts popped, and the later pair has the larger
    # least index. Merged keys ascend, so a pop compares only heads (inf: unmade).
    if n > _ROUND_CUTOFF and (int(counts.max()) * n < 1 << 63
                              and (int(counts.sum()) + 2) * n < 1 << 63):
        leaves, merged, parent, j, m, edges = _merge_rounds(counts, n)
    else:  # Python ints, so no key can wrap
        leaves = sorted([c * n + i for i, c in enumerate(counts.tolist())])
        merged = [math.inf] * (n - 1)  # merge k makes node n + k
        parent = [0] * (2 * n - 1)
        j = m = 0
    leaves.append(math.inf)
    i = 0
    for k in range(m, n - 1):
        if leaves[i] < merged[j]:
            x, a, i = leaves[i], leaves[i] % n, i + 1  # leaf a is node a
        else:
            x, a, j = merged[j], n + j, j + 1
        if leaves[i] < merged[j]:
            y, b, i = leaves[i], leaves[i] % n, i + 1
        else:
            y, b, j = merged[j], n + j, j + 1
        parent[a] = parent[b] = n + k
        merged[k] = x + y - max(x % n, y % n)  # counts add, the smaller index stays
    # every parent is numbered after its children; without rounds this pass also
    # takes the leaves, as below _ROUND_CUTOFF it costs less than numpy's gathers
    depth = [0] * (2 * n - 1)
    for v in range(2 * n - 3, n + m - 1 if m else -1, -1):
        depth[v] = depth[parent[v]] + 1
    if not m:
        return depth[:n]
    # then the nodes of each round, latest first, as its parents come from later
    # rounds or the loop, then every leaf: one gather each
    deep = np.empty(2 * n - 1, np.intp)
    deep[n + m :] = depth[n + m :]
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        deep[n + lo : n + hi] = deep[parent[n + lo : n + hi]] + 1
    return (deep[parent[:n]] + 1).tolist()


def _merge_rounds(counts: np.ndarray, n: int) -> tuple[list, list, np.ndarray, int, int, list]:
    """The first merges of huffman_code_lengths over n > _ROUND_CUTOFF counts, made
    in rounds until at most _ROUND_CUTOFF nodes are unmerged. Returns the loop's
    state: (leaves, merged, parent, j, m, edges): the unmerged leaves' keys in
    order, merged[k] the key of node n + k for the unmerged ones j <= k < m (inf
    past m), parent[v] the node made over v, j the merged queue's head, m the
    merges made and edges the merge number at which each round starts, then m.

    Let first be the key of the merge of the two smallest unmerged nodes. Every
    node a round makes has a key of at least first, as merged keys ascend, so the
    one-at-a-time loop pops each unmerged node below first before any of them,
    pairing them in key order. A round makes those pairs at once; an odd one out
    waits for the next round. Those nodes are the leaves below first, found by
    one searchsorted, and every unmerged merged node, as first exceeds each
    earlier merged key. Counts of at least 1 make both children of a merge
    smaller than it, so the two smallest are below first and each round pairs
    them. Keys are int64: the caller runs rounds only where (sum(counts) + 2) * n,
    above any key or sum of two keys a round makes, is below 2**63."""
    keys = counts.astype(np.int64) * n + np.arange(n)
    keys.sort()
    merged = np.empty(n - 1, np.int64)
    parent = np.empty(2 * n - 1, np.intp)
    edges = [0]
    i = j = m = 0
    while n - i + m - j > _ROUND_CUTOFF:
        x, y = sorted(keys[i : i + 2].tolist() + merged[j : min(j + 2, m)].tolist())[:2]
        stop = keys.searchsorted(x + y - max(x % n, y % n))
        pool = np.concatenate([keys[i:stop], merged[j:m]])
        node = np.concatenate([(keys[i:stop] % n).astype(np.intp), np.arange(n + j, n + m)])
        order = pool.argsort(kind="stable")  # a merge of two ascending runs
        pool, node = pool[order], node[order]
        r = len(pool) // 2
        a, b = pool[0 : 2 * r : 2], pool[1 : 2 * r : 2]
        merged[m : m + r] = a + b - np.maximum(a % n, b % n)
        parent[node[: 2 * r]] = np.arange(n + m, n + m + r).repeat(2)
        i, j, m = stop, m, m + r
        if len(pool) % 2:  # the odd one out, the largest, stays unmerged
            if node[-1] < n:
                i -= 1
            else:
                j -= 1
        edges.append(m)
    queue = [math.inf] * (n - 1)
    queue[j:m] = merged[j:m].tolist()
    return keys[i:].tolist(), queue, parent, j, m, edges


def build_codebook(rows: np.ndarray, counts) -> tuple[CodeBook, np.ndarray]:
    """(book, rank): the Huffman code over the ascending alphabet rows, with
    counts[k] occurrences of rows[k], as a book in canonical order; rank[k] is
    the book's id of rows[k]."""
    lengths = np.array(huffman_code_lengths(counts), np.int64)
    order = lengths.argsort(kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return CodeBook(rows[order], lengths[order]), rank


def encode(ids, book: CodeBook) -> tuple[bytes, int]:
    """Concatenate MSB-first codes of symbol ids; returns (payload, bit length).

    Each left-justified code is shifted to its bit offset within a 64-bit
    word and OR-reduced with the codes sharing that word; the bits each code
    runs past its word are OR-reduced the same way into the next word. Blocks
    of _BLOCK symbols.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= len(book.rows)):
        raise UnknownSymbolError("symbol id not in codebook")
    codes, lengths = book.codes, book.code_lengths.astype(np.int64)
    total = int(lengths[ids].sum())
    words = np.zeros(total // 64 + 2, np.uint64)  # a spare word: it takes only 0 spills
    end = 0
    for s0 in range(0, ids.size, _BLOCK):
        block = ids[s0 : s0 + _BLOCK]
        size = lengths[block]
        ends = size.cumsum() + end
        starts = ends - size
        end = int(ends[-1])
        word, shift = starts >> 6, (starts & 63).astype(np.uint64)
        code = codes[block]
        # a code fills at most a word, so word steps by 0 or 1 and each word from
        # the first to the last has a code starting in it
        first, last = int(word[0]), int(word[-1])
        heads = word.searchsorted(np.arange(first, last + 1))  # first code in each word
        words[first : last + 1] |= np.bitwise_or.reduceat(code >> shift, heads)
        # code << (64 - shift), which is 0 for a code that ends in its own word,
        # in two shifts, so that none reaches 64, which C leaves undefined
        spill = code << (63 - shift) << 1
        words[first + 1 : last + 2] |= np.bitwise_or.reduceat(spill, heads)
    return words.astype(">u8").tobytes()[: (total + 7) // 8], total


def decode(data: bytes, book: CodeBook, symbol_count: int, bit_length: int) -> np.ndarray:
    """Decode exactly symbol_count symbol ids from an MSB-first payload.

    The decoded codes must consume the first bit_length bits of data exactly;
    leftover coded bits raise DanglingBitsError and codes running past them
    raise BitExhaustionError. Byte-boundary padding past bit_length is ignored.

    The work is done over bit positions rather than symbols. The code that
    starts at each position is matched once, in blocks, into match[p], the
    entry id << 7 | length of the code that starts at bit p, or 0 where no
    whole code does (7 bits hold any length up to 64). Matching is JPEG's
    lookahead (ITU-T T.81, F.2.2.3): the K bits at the position index a 2**K
    table of entries, K being the longest code length but at most 16. Where
    the table holds 0, a book with codes longer than K matches the position's
    64-bit window with searchsorted against the first code of each longer
    length. succ[p] = p + (match[p] & 127) is the position after that code,
    or p itself where none starts. succ composed 16 times, by four squarings,
    jumps 16 symbols, so a Python loop visits one symbol start in 16 and 15
    gathers on succ fill in the rest; the ids are match >> 7 at those starts.
    These are the positions a one-symbol-at-a-time decoder would reach, so
    the errors are the same too. A position where no code matches, a dead end,
    is its own successor under succ and so under jump: a walk that meets one
    stays on it. So each block checks only its last start: the payload ran out
    of bits iff that start is a dead end.
    """
    end = min(bit_length, 8 * len(data))
    if symbol_count > end:  # every code is at least one bit
        raise BitExhaustionError(f"{symbol_count} symbols cannot fit in {end} bits")
    lengths = book.code_lengths
    longest = int(lengths[-1])  # lengths ascend in canonical order
    k = min(longest, _LOOKAHEAD)
    # the canonical codes of at most k bits, padded to k bits, are 0..span.sum() - 1
    # in id order: code i covers 2**(k - lengths[i]) entries; the rest stay 0
    short = lengths[lengths <= k].astype(np.int64)
    span = 1 << (k - short)
    table = np.zeros(1 << k, np.min_scalar_type((len(book.rows) - 1) << 7 | 64))
    table[: span.sum()] = (np.arange(short.size) << 7 | short).repeat(span)

    n_bytes = end // 8 + 1  # byte offsets of the positions 0..end
    buf = np.frombuffer(data[: n_bytes + 8].ljust(n_bytes + 8, b"\0"), np.uint8)
    # words[b] is the big-endian u64 at byte b; the k bits at position 8b + j
    # are words[b] >> (64 - k - j), masked to k bits, as k + j <= 23, and a
    # 64-bit window starting mid-byte takes its low bits from buf[b + 8]
    words = np.ndarray((n_bytes,), ">u8", buf, strides=(1,))
    match = np.empty(8 * n_bytes, table.dtype)
    succ = np.empty(match.size, np.intp)
    blocks = [slice(p, min(p + _BLOCK, match.size)) for p in range(0, match.size, _BLOCK)]
    drop = 64 - k - np.arange(8)
    for block in blocks:
        # as intp, a word's top bit is a sign, copied by >> into bits the mask clears
        word = words[block.start >> 3 : block.stop >> 3, None].astype(np.intp)
        table.take(((word >> drop) & ((1 << k) - 1)).reshape(-1), out=match[block])
        if longest > k:
            pos = np.flatnonzero(match[block] == 0) + block.start
            match[pos] = _match_long(book, words, buf, pos)
        np.add(np.arange(block.start, block.stop), match[block] & 127, out=succ[block],
               dtype=np.intp)  # intp, as a uint64 entry would make the sum float64
    # a code running past end matches nothing; only the last longest positions
    # (and those past end) can hold one
    tail = succ[max(end + 1 - longest, 0) :]
    np.copyto(tail, np.arange(succ.size - tail.size, succ.size), where=tail > end)
    jump = succ[succ]
    for _ in range(3):
        # in place, block by block in ascending order: jump[p] >= p, so a
        # block reads only entries that this squaring has not yet replaced
        for block in blocks:
            jump[block] = jump[jump[block]]

    out = np.empty(symbol_count, np.intp)
    head = stop = 0
    for s0 in range(0, symbol_count, _BLOCK):
        heads = []
        for _ in range(-(-min(_BLOCK, symbol_count - s0) // 16)):
            heads.append(head)
            head = jump.item(head)
        starts = np.empty((16, len(heads)), np.intp)
        starts[0] = heads
        for j in range(1, 16):
            starts[j] = succ[starts[j - 1]]
        starts = starts.T.reshape(-1)[: symbol_count - s0]
        last = starts.item(-1)
        stop = succ.item(last)
        if stop == last:
            raise BitExhaustionError("no code matches the remaining bits")
        out[s0 : s0 + starts.size] = match[starts] >> 7
    if stop != bit_length:
        raise DanglingBitsError(f"decoded {stop} bits but payload declares {bit_length}")
    return out


def _match_long(book: CodeBook, words: np.ndarray, buf: np.ndarray,
                pos: np.ndarray) -> np.ndarray:
    """The entry id << 7 | length of the code that starts at each bit position
    pos, 0 where no code does, matched by searchsorted of the 64-bit window at
    the position against the first code of each code length (words and buf as
    in decode)."""
    # one entry per code length, ascending: the length, its first code, and
    # its ids, which run from group_index up to (not including) group_end
    group_len, group_index, group_count = book.length_groups
    group_first = book.codes[group_index]
    shift = (MAX_CODE_LENGTH - group_len).astype(np.uint64)
    group_end = (group_index + group_count).astype(np.uint64)
    # a window w at or past group_first[g] holds code group_index[g] + k of
    # that length, k = (w - group_first[g]) >> shift[g], which is
    # (w >> shift[g]) + base[g] as group_first[g] ends in shift[g] zero bits
    base = group_index.astype(np.uint64) - (group_first >> shift)  # wraps mod 2**64
    byte, bit = pos >> 3, (pos & 7).astype(np.uint64)
    w = (words[byte].astype(np.uint64) << bit) | (buf[byte + 8] >> (np.uint64(8) - bit))
    g = np.searchsorted(group_first[1:], w, "right")  # group_first[0] is 0
    ids = (w >> shift[g]) + base[g]
    entry = ids << 7 | group_len.astype(np.uint64)[g]
    return np.where(ids < group_end[g], entry, np.uint64(0))


def _entry_dtype(g: int) -> np.dtype:
    return np.dtype([("parts", ">i2", (g,)), ("length", "u1")])


def serialize_codebook(book: CodeBook) -> bytes:
    """Symbol count (u32 BE), then per symbol in id order, which is canonical:
    group_size signed 16-bit parts followed by one length byte."""
    entries = np.empty(len(book.rows), _entry_dtype(book.group_size))
    entries["parts"] = book.rows
    entries["length"] = book.code_lengths
    return struct.pack(">I", len(entries)) + entries.tobytes()


def deserialize_codebook(data: bytes, group_size: int) -> tuple[CodeBook, int]:
    """Inverse of serialize_codebook; returns (book, bytes consumed).

    Only parses: the entries become the book's rows and lengths as they are, so
    the codes assigned from the stored lengths are the encoder's, and the CodeBook
    constructor makes every check of the entries.
    """
    if group_size < 1:
        raise CodebookError(f"group size must be >= 1, got {group_size}")
    if len(data) < 4:
        raise TruncatedCodebookError("codebook shorter than its count field")
    (n,) = struct.unpack_from(">I", data)
    entry = _entry_dtype(group_size)
    end = 4 + n * entry.itemsize
    if len(data) < end:
        fit = (len(data) - 4) // entry.itemsize
        raise TruncatedCodebookError(
            f"codebook declares {n} symbols but only {fit} fit")
    entries = np.frombuffer(data, entry, count=n, offset=4)
    return CodeBook(entries["parts"].astype(np.int64),
                    entries["length"].astype(np.int64)), end
