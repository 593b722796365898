import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjpeg import codec, entropy
from hjpeg.codec import CodecConfig
from hjpeg.image import generate_test_image
from oracles import (
    book_of,
    by_symbol,
    canonical_codes_reference,
    code_strings,
    decode_reference,
    deserialize_codebook_reference,
    encode_reference,
    group_symbols_reference,
    huffman_lengths_reference,
    is_prefix_free,
    kraft_sum_exact,
    min_prefix_code_cost,
)

# The eight-symbol worked example: grouping by 4 leaves two tuples.
A, B, C, D, E, F, G, H = range(1, 9)


def bits_of(payload, nbits):
    return "".join(
        format(byte, "08b") for byte in payload
    )[:nbits]


def expand(seq, g):
    """Group, build a book and map the ids back to a flat stream, as the codec does."""
    rows, ids, counts, pad = entropy.group_symbols(seq, g)
    book, rank = entropy.build_codebook(rows, counts)
    return book.rows[rank[ids]].reshape(-1)[: len(ids) * g - pad].tolist()


def fibonacci(n):
    counts = [1, 1]
    while len(counts) < n:
        counts.append(counts[-1] + counts[-2])
    return counts[:n]


def lengths_reference(counts):
    """The heap oracle's lengths in index order, its symbols being the indices."""
    lengths = huffman_lengths_reference(dict(enumerate(counts)))
    return [lengths[i] for i in range(len(counts))]


# parts at and around the int16 extremes and zero, where a biased key wraps
# or changes its top bit if it is built wrong
edge_parts = st.one_of(st.sampled_from([-32768, -1, 0, 1, 32767]),
                       st.integers(-32768, 32767))


@st.composite
def grouped_streams(draw):
    """(seq, g) with g in 1..9, rows past 4 and 8 parts included: random rows,
    copies of one row, or copies of one row varied only in its last part."""
    g = draw(st.integers(1, 9))
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["random", "equal", "last-part"]))
    if kind == "random":
        return draw(st.lists(edge_parts, min_size=1, max_size=n * g)), g
    row = draw(st.lists(edge_parts, min_size=g, max_size=g))
    if kind == "equal":
        return row * n, g
    lasts = draw(st.lists(edge_parts, min_size=n, max_size=n))
    return [p for last in lasts for p in row[:-1] + [last]], g


class TestReduceSymbols:
    def test_worked_example(self):
        rows, ids, counts, pad = entropy.group_symbols([A, B, C, D, E, F, G, H], 4)
        assert rows.tolist() == [[A, B, C, D], [E, F, G, H]]
        assert counts.tolist() == [1, 1]
        assert ids.tolist() == [0, 1] and pad == 0

    def test_block_of_64_gives_16(self):
        rows, ids, counts, pad = entropy.group_symbols(list(range(64)), 4)
        assert len(ids) == 16 and rows.shape == (16, 4) and len(counts) == 16 and pad == 0

    def test_padding(self):
        rows, ids, counts, pad = entropy.group_symbols([5, 7], 4)
        assert rows.tolist() == [[5, 7, 0, 0]] and counts.tolist() == [1] and pad == 2

    def test_empty_rejected(self):
        with pytest.raises(entropy.EntropyError):
            entropy.group_symbols([], 4)

    def test_group_size_one_rejected(self):
        # g = 1 is the scalar mode; only the grouped mode needs g >= 2
        with pytest.raises(ValueError):
            CodecConfig(entropy_mode="reduced", group_size=1)
        with pytest.raises(ValueError):
            entropy.group_symbols([1, 2], 0)

    def test_scalar_symbols_are_ints(self):
        rows, ids, counts, pad = entropy.group_symbols([3, -1, 3], 1)
        assert rows.tolist() == [[-1], [3]] and counts.tolist() == [1, 2]
        assert ids.tolist() == [1, 0, 1] and pad == 0

    @settings(max_examples=100)
    @given(
        seq=st.lists(st.integers(-32768, 32767), min_size=1, max_size=300),
        g=st.sampled_from([1, 2, 3, 4, 5, 8, 9]),
    )
    def test_alphabet_in_ascending_symbol_order(self, seq, g):
        alphabet, ids, counts, pad = entropy.group_symbols(seq, g)
        padded = seq + [0] * pad
        rows = [padded[i : i + g] for i in range(0, len(padded), g)]
        expected = sorted(map(list, set(map(tuple, rows))))
        assert alphabet.tolist() == expected
        assert [expected[i] for i in ids.tolist()] == rows
        assert counts.tolist() == [rows.count(s) for s in expected]

    @settings(max_examples=300, deadline=None)
    @given(grouped_streams())
    def test_matches_reference_grouping(self, stream):
        seq, g = stream
        got, want = entropy.group_symbols(seq, g), group_symbols_reference(seq, g)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[3] == want[3]

    @pytest.mark.parametrize("part", [32768, -32769, 1 << 32])
    def test_part_outside_int16_rejected(self, part):
        for g in (1, 4):
            with pytest.raises(entropy.EntropyError):
                entropy.group_symbols([0, part, 5], g)


class TestExpandSymbols:
    def test_worked_example_inverse(self):
        assert expand([A, B, C, D, E, F, G, H], 4) == [A, B, C, D, E, F, G, H]

    def test_padding_dropped(self):
        assert expand([5, 7], 4) == [5, 7]

    def test_bad_pad_count(self):
        img = generate_test_image("noise", 8, 8, 0)
        data = bytearray(codec.compress_bytes(img, CodecConfig()))
        data[15] = data[6]  # pad count = group size
        with pytest.raises(ValueError):
            codec.decompress_bytes(bytes(data))

    @settings(max_examples=100)
    @given(
        seq=st.lists(st.integers(-2047, 2047), min_size=1, max_size=300),
        g=st.sampled_from([1, 2, 3, 4, 8]),
    )
    def test_round_trip(self, seq, g):
        assert expand(seq, g) == seq


class TestSymbolCounts:
    def test_counts(self):
        rows, _, counts, _ = entropy.group_symbols([2, 2, 1], 1)
        assert rows.tolist() == [[1], [2]] and counts.tolist() == [1, 2]

    def test_equiprobable_eighths(self):
        _, _, counts, _ = entropy.group_symbols(list(range(8)), 1)
        assert all(c / 8 == 0.125 for c in counts.tolist()) and len(counts) == 8

    def test_composite_halves(self):
        rows, _, counts, _ = entropy.group_symbols([A, B, C, D, E, F, G, H], 4)
        assert len(counts) == 2 and rows[0].tolist() == [A, B, C, D]
        assert counts[0] / counts.sum() == 0.5

    def test_empty_rejected(self):
        with pytest.raises(entropy.EntropyError):
            entropy.group_symbols([], 1)


class TestBuildCodebook:
    def test_two_symbols(self):
        book, _ = entropy.build_codebook(*by_symbol({(A, B, C, D): 1, (E, F, G, H): 1}))
        assert book.group_size == 4 and book.code_lengths.tolist() == [1, 1]
        assert code_strings(book) == ["0", "1"]

    def test_skewed_counts(self):
        counts = [8, 4, 2, 1, 1]
        book, _ = entropy.build_codebook(np.arange(5).reshape(-1, 1), counts)
        assert book.code_lengths.tolist() == [1, 2, 3, 4, 4]
        assert int(book.code_lengths @ counts) == 30
        assert min_prefix_code_cost(counts) == 30

    def test_single_symbol(self):
        book, _ = entropy.build_codebook(np.array([[9]]), [3])
        assert book.code_lengths.tolist() == [1] and code_strings(book) == ["0"]

    def test_equiprobable_eight_is_uniform(self):
        book, _ = entropy.build_codebook(np.arange(8).reshape(-1, 1), [1] * 8)
        assert book.code_lengths.tolist() == [3] * 8

    def test_deterministic_ties(self):
        seq = [3, 1, 2, 0] * 5
        books = [code_ids(seq)[0] for _ in range(3)]
        assert all(np.array_equal(b.codes, books[0].codes) for b in books)
        assert all(np.array_equal(b.code_lengths, books[0].code_lengths) for b in books)

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 4),
            min_size=1, max_size=49,
        )
    )
    def test_ties_go_to_the_smallest_symbol(self, counts):
        book, _ = entropy.build_codebook(*by_symbol(counts))
        assert book.lengths == huffman_lengths_reference(counts)

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 50),
            min_size=1, max_size=49,
        )
    )
    def test_canonical_order(self, counts):
        rows, values = by_symbol(counts)
        book, rank = entropy.build_codebook(rows, values)
        lengths, by_id = book.code_lengths.tolist(), book.rows.tolist()
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))
        assert all(by_id[k] < by_id[k + 1]  # rows ascend within each length
                   for k in range(len(lengths) - 1) if lengths[k] == lengths[k + 1])
        assert np.array_equal(book.rows[rank], rows)
        assert book.code_lengths[rank].tolist() == entropy.huffman_code_lengths(values.tolist())

    def test_optimal_small_alphabets(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            counts = rng.integers(1, 50, size=n).tolist()
            book, rank = entropy.build_codebook(np.arange(n).reshape(-1, 1), counts)
            assert int(book.code_lengths[rank] @ counts) == min_prefix_code_cost(counts)

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(-2047, 2047), st.integers(1, 10_000),
            min_size=2, max_size=200,
        )
    )
    def test_prefix_free_and_kraft(self, counts):
        book, _ = entropy.build_codebook(*by_symbol(counts))
        assert kraft_sum_exact(book.code_lengths.tolist()) == 1
        assert book.kraft_sum == 1
        assert is_prefix_free(
            {i: (int(code, 2), len(code)) for i, code in enumerate(code_strings(book))}
        )
        shift = (64 - book.code_lengths).astype(np.uint64)
        codes = canonical_codes_reference(book.code_lengths.tolist())
        assert (book.codes >> shift).tolist() == codes

    def test_lengths_view(self):
        # {symbol: length} with int symbols for g = 1 and tuples otherwise
        assert book_of({-3: 1, 7: 1}).lengths == {-3: 1, 7: 1}
        book = book_of({(0, 1): 2, (0, 2): 2, (1, -1): 1})
        assert book.lengths == {(0, 1): 2, (0, 2): 2, (1, -1): 1}

    def test_kraft_sum_is_exact(self):
        # lengths 1..64 sum to 1 - 2**-64, which a float rounds to 1: refused
        # as the book is made, with the exact sum
        message = re.escape(f"Kraft sum {1 - Fraction(1, 2**64)} != 1")
        with pytest.raises(entropy.KraftViolationError, match=message):
            book_of({s: s for s in range(1, 65)})


class TestHuffmanCodeLengths:
    """The two-queue build against the heap oracle, tie-break included."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3000), max_count=st.sampled_from([1, 2, 3, 8, 10**6]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, n, max_count, seed):
        # hypothesis draws only the shape; a seeded generator fills long lists fast
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, max_count, size=n, endpoint=True).tolist()
        assert entropy.huffman_code_lengths(counts) == lengths_reference(counts)

    @pytest.mark.parametrize("counts", [
        [5],
        [3, 9],
        [4] * 1024,
        [4] * 1000,
        np.random.default_rng(1).permutation(np.arange(1, 2001)).tolist(),
        fibonacci(60),
        [2**64 + c for c in np.random.default_rng(2).integers(0, 4, size=300).tolist()],
    ], ids=["n1", "n2", "equal-1024", "equal-1000", "distinct", "fibonacci-60",
            "above-2**64"])
    def test_fixed_vectors(self, counts):
        assert entropy.huffman_code_lengths(counts) == lengths_reference(counts)

    def test_int64_counts_past_2_63_as_keys(self):
        # count * n passes 2**63, where an int64 key would wrap
        counts = 2**62 - np.arange(100, dtype=np.int64) % 3
        assert entropy.huffman_code_lengths(counts) == lengths_reference(counts.tolist())


def pack(bits):
    """A '0'/'1' string as MSB-first bytes, zero-padded to a whole byte."""
    pad = -len(bits) % 8
    return (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")


def book_over(counts):
    return entropy.build_codebook(np.arange(len(counts)).reshape(-1, 1), counts)[0]


def fibonacci_book(n):
    """Huffman book over n Fibonacci counts: a chain n - 1 bits deep."""
    return book_over(fibonacci(n))


def longest(book):
    return int(book.code_lengths[-1])


# books whose longest code is 15 to 18 bits, around decode's 16-bit lookahead
# table: a Fibonacci chain, alone, above a tail of count-1 symbols, or below
# 1,000-4,000 equal counts, which need ids of 16 bits
deep_books = st.one_of(
    st.integers(16, 19).map(fibonacci_book),
    st.builds(lambda n, tail: book_over([tail * c for c in fibonacci(n)] + [1] * tail),
              st.integers(10, 17), st.integers(1, 64)),
    st.builds(lambda flat, n: book_over([2 * fibonacci(n)[-1]] * flat + fibonacci(n)),
              st.integers(1000, 4000), st.integers(5, 10)),
).filter(lambda book: 15 <= longest(book) <= 18)

# every book the constructor accepts is complete; one-row books are among these
books = st.one_of(
    st.lists(st.integers(1, 1000), min_size=1, max_size=40).map(book_over),
    st.integers(1, 65).map(fibonacci_book),
    deep_books,
)


@st.composite
def decoder_inputs(draw):
    """(payload, book, symbol_count, bit_length): valid, truncated, extended
    by junk bits, or random bytes."""
    book = draw(books)
    ids = draw(st.lists(st.integers(0, len(book.rows) - 1), max_size=60))
    bits = bits_of(*entropy.encode(ids, book))
    kind = draw(st.sampled_from(["valid", "truncated", "junk", "random"]))
    if kind == "truncated":
        bits = bits[: draw(st.integers(0, max(len(bits) - 1, 0)))]
    elif kind == "junk":
        bits += draw(st.text("01", min_size=1, max_size=80))
    if kind == "random":
        payload = draw(st.binary(max_size=40))
        nbits = draw(st.integers(0, 8 * len(payload) + 16))
        symbol_count = draw(st.integers(0, 100))
    else:
        payload, nbits = pack(bits), len(bits)
        symbol_count = max(0, len(ids) + draw(st.integers(-2, 2)))
    return payload, book, symbol_count, nbits


@st.composite
def encoder_inputs(draw):
    """(ids, book): a few ids, some that may be out of range, or enough
    ids to span several blocks."""
    book = draw(books)
    n = len(book.rows)
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-1, n), max_size=200)), book
    size = draw(st.sampled_from([entropy._BLOCK - 1, entropy._BLOCK + 1,
                                 2 * entropy._BLOCK + 33]))
    ids = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, n, size)
    return ids, book


def decode_outcome(decoder, *args):
    try:
        return decoder(*args).tolist()
    except entropy.EntropyError as exc:
        return type(exc)


def code_ids(seq, g=1):
    """(book, ids): the book over seq cut g wide, and each row's id in it."""
    rows, ids, counts, _ = entropy.group_symbols(seq, g)
    book, rank = entropy.build_codebook(rows, counts)
    return book, rank[ids]


class TestEncodeDecode:
    def test_two_composites(self):
        book, ids = code_ids([A, B, C, D, E, F, G, H], 4)
        payload, nbits = entropy.encode(ids, book)
        assert nbits == 2
        assert bits_of(payload, nbits) == "01"
        decoded = entropy.decode(payload, book, 2, nbits)
        assert book.rows[decoded].tolist() == [[A, B, C, D], [E, F, G, H]]

    def test_degenerate_alphabet(self):
        book = book_of({9: 1})
        payload, nbits = entropy.encode([0, 0, 0], book)
        assert nbits == 3 and bits_of(payload, nbits) == "000"
        assert entropy.decode(payload, book, 3, nbits).tolist() == [0] * 3
        with pytest.raises(entropy.BitExhaustionError):
            entropy.decode(b"", book, 1, 0)

    def test_manual_book(self):
        book = book_of({10: 1, 20: 2, 30: 2})  # codes 0, 10 and 11
        payload, nbits = entropy.encode([0, 1, 2, 0], book)
        assert nbits == 6 and bits_of(payload, nbits) == "010110"
        assert entropy.decode(payload, book, 4, nbits).tolist() == [0, 1, 2, 0]

    def test_unknown_symbol(self):
        book, _ = code_ids([1, 2])
        for bad in ([2], [-1]):
            with pytest.raises(entropy.UnknownSymbolError):
                entropy.encode(bad, book)

    def test_bit_exhaustion(self):
        book, ids = code_ids(list(range(16)))
        payload, nbits = entropy.encode(ids, book)
        with pytest.raises(entropy.BitExhaustionError):
            entropy.decode(payload, book, 17, nbits)
        assert issubclass(entropy.BitExhaustionError, entropy.EntropyError)

    def test_dangling_bits(self):
        book, ids = code_ids(list(range(16)))
        payload, nbits = entropy.encode(ids, book)
        with pytest.raises(entropy.DanglingBitsError):
            entropy.decode(payload, book, 15, nbits)

    @settings(max_examples=100, deadline=None)
    @given(seq=st.lists(st.integers(-2047, 2047), min_size=1, max_size=500))
    def test_round_trip_scalar(self, seq):
        book, ids = code_ids(seq)
        payload, nbits = entropy.encode(ids, book)
        decoded = entropy.decode(payload, book, len(ids), nbits)
        assert book.rows[decoded].reshape(-1).tolist() == seq

    @settings(max_examples=50, deadline=None)
    @given(
        seq=st.lists(st.integers(-2047, 2047), min_size=1, max_size=500),
        g=st.sampled_from([2, 4, 8]),
    )
    def test_round_trip_reduced(self, seq, g):
        book, ids = code_ids(seq, g)
        payload, nbits = entropy.encode(ids, book)
        decoded = entropy.decode(payload, book, len(ids), nbits)
        assert book.rows[decoded].reshape(-1)[: len(seq)].tolist() == seq

    @settings(max_examples=400, deadline=None)
    @given(decoder_inputs())
    def test_matches_reference_decoder(self, args):
        assert decode_outcome(entropy.decode, *args) == decode_outcome(decode_reference, *args)

    def test_matches_reference_decoder_across_blocks(self):
        book = fibonacci_book(20)
        ids = np.random.default_rng(7).integers(0, 20, 3 * entropy._BLOCK + 5)
        payload, nbits = entropy.encode(ids, book)
        flipped = bytearray(payload)
        flipped[len(payload) // 2] ^= 0x10
        for args in [
            (payload, book, len(ids), nbits),
            (payload, book, len(ids) - 1, nbits),
            (bytes(flipped), book, len(ids), nbits),
            (payload[: len(payload) // 2], book, len(ids), nbits),
        ]:
            assert decode_outcome(entropy.decode, *args) == decode_outcome(decode_reference, *args)
        assert entropy.decode(payload, book, len(ids), nbits).tolist() == ids.tolist()

    @pytest.mark.parametrize("n", [17, 19], ids=["longest-16", "longest-18"])
    def test_last_code_within_the_table_width_of_the_end(self, n):
        # the table is 16 bits wide; at 18 bits, the longer codes go through
        # searchsorted. The payload crosses _BLOCK bit positions several times
        # and ends in short codes, whose table windows read past the end
        book = fibonacci_book(n)
        assert longest(book) == n - 1
        ids = np.random.default_rng(n + 1).integers(0, n, 6000).tolist()
        ids += [n - 1, 0, 1, 0]  # the deepest code, then 1-, 2- and 1-bit codes
        payload, nbits = entropy.encode(ids, book)
        assert nbits > 3 * entropy._BLOCK and nbits % 8
        ones = payload[:-1] + bytes([payload[-1] | (0xFF >> nbits % 8)])
        for args in [
            (payload, book, len(ids), nbits),
            (ones, book, len(ids), nbits),  # the byte padding past the end is all 1s
            (payload, book, len(ids) + 1, nbits),
            (payload, book, len(ids) - 1, nbits),
            (payload, book, len(ids), nbits - 1),
            (payload, book, len(ids), nbits + 1),
            (payload[:-1], book, len(ids), nbits),
        ]:
            assert decode_outcome(entropy.decode, *args) == decode_outcome(decode_reference, *args)
        assert entropy.decode(ones, book, len(ids), nbits).tolist() == ids

    def test_window_in_the_gap_of_an_incomplete_book(self):
        # the one gap a constructible book has: a one-row book's code is 0, so
        # no code matches a window that starts with a 1 bit
        book = book_of({9: 1})
        bits = "000" + "1"
        args = (pack(bits), book, 4, len(bits))
        assert decode_outcome(entropy.decode, *args) is entropy.BitExhaustionError
        assert decode_outcome(decode_reference, *args) is entropy.BitExhaustionError

    @settings(max_examples=200, deadline=None)
    @given(encoder_inputs())
    def test_matches_reference_encoder(self, args):
        def outcome(encoder):
            try:
                return encoder(*args)
            except entropy.EntropyError as exc:
                return type(exc)
        assert outcome(entropy.encode) == outcome(encode_reference)

    def test_64_bit_code_at_every_word_offset(self):
        # a 1-bit code shifts a 64-bit code through every offset in a word
        book = fibonacci_book(65)
        short = int(np.argmin(book.code_lengths))
        deep = int(np.argmax(book.code_lengths))
        for k in range(130):
            ids = [short] * k + [deep, short, deep]
            assert entropy.encode(ids, book) == encode_reference(ids, book)

    def test_64_bit_codes_round_trip(self):
        book = fibonacci_book(65)
        deepest = np.flatnonzero(book.code_lengths == 64).tolist()
        assert len(deepest) == 2
        ids = [0, 1, 2] + deepest  # the 64-bit codes end next to the byte padding
        payload, nbits = entropy.encode(ids, book)
        assert nbits % 8
        data = entropy.serialize_codebook(book)
        restored, _ = entropy.deserialize_codebook(data, 1)
        assert entropy.decode(payload, restored, len(ids), nbits).tolist() == ids

    def test_symbol_count_beyond_the_bits_refused(self):
        # refused before anything sized by the count is allocated
        book = book_of({0: 1, 1: 1})
        for bit_length in (16, 1 << 40):
            with pytest.raises(entropy.BitExhaustionError):
                entropy.decode(b"\x00\x00", book, 2**32 - 1, bit_length)

    @pytest.mark.parametrize("lengths", [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 65}, [2, 1, 2]])
    def test_invalid_book_refused(self, lengths):
        # a dict goes through book_of, which puts it in canonical order; a list
        # is the lengths of ids 0, 1, ... as they stand, here decreasing
        with pytest.raises(entropy.CodebookError):
            if isinstance(lengths, dict):
                book_of(lengths)
            else:
                entropy.CodeBook(np.arange(len(lengths)).reshape(-1, 1), np.array(lengths))

    @pytest.mark.parametrize("rows, lengths", [
        pytest.param(np.zeros((0, 1), np.int64), np.zeros(0, np.int64), id="empty"),
        pytest.param(np.arange(3).reshape(-1, 1), np.array([1, 1]), id="length-mismatch"),
        pytest.param(np.zeros((2, 0), np.int64), np.array([1, 1]), id="zero-parts"),
        pytest.param(np.arange(2), np.array([1, 1]), id="one-dimensional-rows"),
    ])
    def test_malformed_book_shape_refused(self, rows, lengths):
        # refused as the book is made, not later as an IndexError in encode or
        # in a CompressedFile's checks
        with pytest.raises(entropy.CodebookError) as excinfo:
            entropy.CodeBook(rows, lengths)
        assert excinfo.type is entropy.CodebookError


class TestCodebookSerialization:
    def test_two_composite_size(self):
        book, _ = code_ids([A, B, C, D, E, F, G, H], 4)
        data = entropy.serialize_codebook(book)
        assert len(data) == 4 + 2 * (8 + 1)

    def test_scalar_256_size(self):
        book, _ = code_ids(list(range(256)))
        assert len(entropy.serialize_codebook(book)) == 4 + 256 * 3

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for g in (1, 2, 4):
            for _ in range(20):
                n = int(rng.integers(1, 400))
                book, _ = code_ids(rng.integers(-2047, 2048, size=n * g), g)
                data = entropy.serialize_codebook(book)
                restored, consumed = entropy.deserialize_codebook(data, g)
                assert consumed == len(data)
                assert np.array_equal(restored.rows, book.rows)
                assert np.array_equal(restored.code_lengths, book.code_lengths)
                assert np.array_equal(restored.codes, book.codes)

    def test_part_outside_int16_rejected(self):
        with pytest.raises(entropy.EntropyError):
            entropy.serialize_codebook(book_of({40000: 1}))

    def test_truncated(self):
        book, _ = code_ids([1, 2, 3])
        data = entropy.serialize_codebook(book)
        with pytest.raises(entropy.TruncatedCodebookError):
            entropy.deserialize_codebook(data[:-1], 1)

    def test_bad_length_byte(self):
        book, _ = code_ids([1, 2])
        data = bytearray(entropy.serialize_codebook(book))
        data[6] = 0  # first entry's length byte
        with pytest.raises(entropy.InvalidCodeLengthError):
            entropy.deserialize_codebook(bytes(data), 1)

    def test_kraft_violation(self):
        book, _ = code_ids([1, 2, 3])
        data = bytearray(entropy.serialize_codebook(book))
        data[-1] = 5  # lengthen the last code; Kraft sum drops below 1
        with pytest.raises(entropy.KraftViolationError):
            entropy.deserialize_codebook(bytes(data), 1)

    def test_kraft_sum_checked_exactly(self):
        # lengths 1..64 sum to 1 - 2**-64, which rounds to 1.0 as a float
        data = struct.pack(">I", 64) + b"".join(
            struct.pack(">hB", sym, sym) for sym in range(1, 65)
        )
        with pytest.raises(entropy.KraftViolationError):
            entropy.deserialize_codebook(data, 1)

    @pytest.mark.parametrize("entries, g", [
        pytest.param(entries, g, id=name + ("" if g == 1 else f"-g{g}"))
        for g in (1, 5)  # at g = 5 the entries differ only past the first 4 parts
        for name, entries in [
            ("duplicate", [(5, 2), (5, 2), (6, 2), (7, 2)]),
            ("duplicate-across-lengths", [(5, 1), (5, 2), (6, 2)]),
            ("swapped", [(1, 1), (3, 2), (2, 2)]),  # within one length
            ("decreasing-length", [(1, 2), (2, 2), (3, 1)]),
        ]
    ])
    def test_order_and_duplicates_checked(self, entries, g):
        # every case satisfies the Kraft equality, so only these checks refuse it;
        # a symbol s is the row (0, ..., 0, s) of g parts
        data = struct.pack(">I", len(entries)) + b"".join(
            struct.pack(f">{g}hB", *[0] * (g - 1), sym, length) for sym, length in entries
        )
        with pytest.raises(entropy.CodebookError) as excinfo:
            entropy.deserialize_codebook(data, g)
        assert excinfo.type is entropy.CodebookError

    @pytest.mark.parametrize("g", [1, 3])
    def test_zero_symbols_refused(self, g):
        with pytest.raises(entropy.CodebookError) as excinfo:
            entropy.deserialize_codebook(struct.pack(">I", 0), g)
        assert excinfo.type is entropy.CodebookError

    def test_group_size_below_one_refused(self):
        data = struct.pack(">I", 1) + b"\x01"
        with pytest.raises(entropy.CodebookError):
            entropy.deserialize_codebook(data, 0)


def pack_codebook(rows, lengths, g):
    """The bytes of a codebook of these entries, made with struct."""
    return struct.pack(">I", len(lengths)) + b"".join(
        struct.pack(f">{g}hB", *row, length) for row, length in zip(rows, lengths))


def read_codebook(data, g):
    book, consumed = entropy.deserialize_codebook(data, g)
    return book.rows.tolist(), book.code_lengths.tolist(), consumed


def codebook_outcome(reader, data, g):
    """(rows, lengths, bytes consumed), or the class and message of the refusal."""
    try:
        return reader(data, g)
    except entropy.EntropyError as exc:
        return type(exc), str(exc)


@st.composite
def mutated_codebooks(draw):
    """(data, g): a serialized Huffman book, changed by up to two mutations."""
    g = draw(st.sampled_from([1, 2, 5]))
    parts = st.one_of(st.integers(-3, 3), st.integers(-300, 300))
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 30)))  # one and two rows often
    alphabet = sorted(draw(st.lists(st.tuples(*[parts] * g), min_size=n, max_size=n,
                                    unique=True)))
    counts = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    book, _ = entropy.build_codebook(np.array(alphabet, np.int64), counts)
    rows, lengths = list(map(tuple, book.rows.tolist())), book.code_lengths.tolist()
    declared, cut = 0, False
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(
            ["swap", "copy", "near-copy", "length", "drop", "declare", "truncate"]))
        n = len(rows)
        if op in ("swap", "copy", "near-copy") and n > 1:
            i = draw(st.integers(0, n - 1))
            j = (i + draw(st.integers(1, n - 1))) % n  # another entry
            if op == "swap":
                rows[i], rows[j], lengths[i], lengths[j] = rows[j], rows[i], lengths[j], lengths[i]
            else:  # a near copy differs in the last part alone, past part 4 at g = 5
                step = draw(st.sampled_from([-1, 1])) if op == "near-copy" else 0
                rows[j] = rows[i][:-1] + (rows[i][-1] + step,)
        elif op == "length" and n:
            # the first entry shortened, or the last lengthened, keeps the lengths in order
            k = draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
            lengths[k] = draw(st.sampled_from([max(lengths[k] - 1, 0), lengths[k] + 1, 0, 65]))
        elif op == "drop" and n:
            rows.pop()
            lengths.pop()
        elif op == "declare":
            declared += draw(st.sampled_from([-1, 1]))
        elif op == "truncate":
            cut = True
    data = pack_codebook(rows, lengths, g)
    data = struct.pack(">I", max(len(rows) + declared, 0)) + data[4:]
    if cut:
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data, g


@st.composite
def raw_books(draw):
    """(rows, lengths, g): a few small rows and lengths, sorted or not."""
    g = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=g, max_size=g),
                         min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows.sort()
        lengths.sort()
    return rows, lengths, g


class TestCodebookRules:
    """Every codebook rule is the CodeBook constructor's, so a book is exactly
    one that the reader accepts."""

    @settings(max_examples=300, deadline=None)
    @given(mutated_codebooks())
    def test_reader_matches_reference(self, args):
        assert codebook_outcome(read_codebook, *args) == codebook_outcome(
            deserialize_codebook_reference, *args)

    @pytest.mark.parametrize("rows, lengths, error, message", [
        ([[5], [3]], [1, 1], entropy.CodebookError, "codebook entries not in canonical order"),
        ([[3], [3]], [1, 1], entropy.CodebookError, "duplicate symbol in codebook"),
        ([[3], [5]], [1, 2], entropy.KraftViolationError, "Kraft sum 3/4 != 1"),
    ], ids=["out-of-order", "duplicate", "incomplete"])
    def test_book_the_reader_refuses_is_not_made(self, rows, lengths, error, message):
        # refused where it is made, so no writer can serialize it
        with pytest.raises(error) as made:
            entropy.CodeBook(np.array(rows), np.array(lengths))
        with pytest.raises(error) as read:
            entropy.deserialize_codebook(pack_codebook(rows, lengths, 1), 1)
        assert made.type is read.type is error
        assert str(made.value) == str(read.value) == message

    @settings(max_examples=200, deadline=None)
    @given(raw_books())
    def test_made_book_round_trips(self, args):
        rows, lengths, g = args
        try:
            book = entropy.CodeBook(np.array(rows, np.int64).reshape(len(rows), g),
                                    np.array(lengths, np.int64))
        except entropy.CodebookError as exc:
            outcome = type(exc), str(exc)
        else:
            data = entropy.serialize_codebook(book)
            restored, consumed = entropy.deserialize_codebook(data, g)
            assert consumed == len(data)
            assert np.array_equal(restored.rows, book.rows)
            assert np.array_equal(restored.code_lengths, book.code_lengths)
            outcome = rows, lengths, len(data)
        data = pack_codebook(rows, lengths, g)
        assert outcome == codebook_outcome(deserialize_codebook_reference, data, g)
