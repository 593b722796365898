import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjpeg import entropy
from oracles import is_prefix_free, kraft_sum_exact, min_prefix_code_cost

# The eight-symbol worked example: grouping by 4 leaves two tuples.
A, B, C, D, E, F, G, H = range(1, 9)


def bits_of(payload, nbits):
    return "".join(
        format(byte, "08b") for byte in payload
    )[:nbits]


class TestReduceSymbols:
    def test_worked_example(self):
        groups, pad = entropy.reduce_symbols([A, B, C, D, E, F, G, H], 4)
        assert groups == [(A, B, C, D), (E, F, G, H)]
        assert pad == 0

    def test_block_of_64_gives_16(self):
        groups, pad = entropy.reduce_symbols(list(range(64)), 4)
        assert len(groups) == 16 and pad == 0

    def test_padding(self):
        groups, pad = entropy.reduce_symbols([5, 7], 4)
        assert groups == [(5, 7, 0, 0)] and pad == 2

    def test_empty_rejected(self):
        with pytest.raises(entropy.EntropyError):
            entropy.reduce_symbols([], 4)

    def test_group_size_one_rejected(self):
        with pytest.raises(ValueError):
            entropy.reduce_symbols([1, 2], 1)


class TestExpandSymbols:
    def test_worked_example_inverse(self):
        out = entropy.expand_symbols([(A, B, C, D), (E, F, G, H)], 4, 0)
        assert out == [A, B, C, D, E, F, G, H]

    def test_padding_dropped(self):
        assert entropy.expand_symbols([(5, 7, 0, 0)], 4, 2) == [5, 7]

    def test_bad_pad_count(self):
        with pytest.raises(ValueError):
            entropy.expand_symbols([(1, 2)], 2, 2)

    @settings(max_examples=100)
    @given(
        seq=st.lists(st.integers(-2047, 2047), min_size=1, max_size=300),
        g=st.sampled_from([2, 3, 4, 8]),
    )
    def test_round_trip(self, seq, g):
        groups, pad = entropy.reduce_symbols(seq, g)
        assert entropy.expand_symbols(groups, g, pad) == seq


class TestFrequencyTable:
    def test_counts(self):
        t = entropy.build_frequency_table(["a", "a", "b"])
        assert t.counts == {"a": 2, "b": 1} and t.total == 3

    def test_equiprobable_eighths(self):
        t = entropy.build_frequency_table(list(range(8)))
        assert all(t.probability(s) == 0.125 for s in range(8))

    def test_composite_halves(self):
        t = entropy.build_frequency_table([(A, B, C, D), (E, F, G, H)])
        assert len(t.counts) == 2
        assert t.probability((A, B, C, D)) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(entropy.EntropyError):
            entropy.build_frequency_table([])


class TestBuildCodebook:
    def test_two_symbols(self):
        book = entropy.build_codebook(
            entropy.build_frequency_table([(A, B, C, D), (E, F, G, H)])
        )
        assert set(book.lengths.values()) == {1}
        assert sorted(book.codes.values()) == ["0", "1"]

    def test_skewed_counts(self):
        freqs = entropy.FrequencyTable({"a": 8, "b": 4, "c": 2, "d": 1, "e": 1}, 16)
        book = entropy.build_codebook(freqs)
        assert book.lengths == {"a": 1, "b": 2, "c": 3, "d": 4, "e": 4}
        cost = sum(book.lengths[s] * c for s, c in freqs.counts.items())
        assert cost == 30
        assert min_prefix_code_cost(list(freqs.counts.values())) == 30

    def test_single_symbol(self):
        book = entropy.build_codebook(entropy.build_frequency_table([9, 9, 9]))
        assert book.lengths == {9: 1} and book.codes == {9: "0"}

    def test_equiprobable_eight_is_uniform(self):
        book = entropy.build_codebook(entropy.build_frequency_table(list(range(8))))
        assert set(book.lengths.values()) == {3}

    def test_deterministic_ties(self):
        seq = [3, 1, 2, 0] * 5
        books = [
            entropy.build_codebook(entropy.build_frequency_table(seq))
            for _ in range(3)
        ]
        assert books[0].codes == books[1].codes == books[2].codes

    def test_optimal_small_alphabets(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            counts = rng.integers(1, 50, size=n).tolist()
            freqs = entropy.FrequencyTable(dict(enumerate(counts)), sum(counts))
            book = entropy.build_codebook(freqs)
            cost = sum(book.lengths[s] * c for s, c in freqs.counts.items())
            assert cost == min_prefix_code_cost(counts)

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(-2047, 2047), st.integers(1, 10_000),
            min_size=2, max_size=200,
        )
    )
    def test_prefix_free_and_kraft(self, counts):
        freqs = entropy.FrequencyTable(counts, sum(counts.values()))
        book = entropy.build_codebook(freqs)
        assert kraft_sum_exact(book.lengths.values()) == 1
        assert is_prefix_free(
            {s: (int(book.codes[s], 2), book.lengths[s]) for s in book.lengths}
        )


class TestEncodeDecode:
    def test_two_composites(self):
        symbols = [(A, B, C, D), (E, F, G, H)]
        book = entropy.build_codebook(entropy.build_frequency_table(symbols))
        payload, nbits = entropy.encode(symbols, book)
        assert nbits == 2
        assert bits_of(payload, nbits) == "01"
        assert entropy.decode(payload, book, 2, nbits) == symbols

    def test_degenerate_alphabet(self):
        book = entropy.build_codebook(entropy.build_frequency_table(["x"]))
        payload, nbits = entropy.encode(["x", "x", "x"], book)
        assert nbits == 3 and bits_of(payload, nbits) == "000"
        assert entropy.decode(payload, book, 3, nbits) == ["x"] * 3
        with pytest.raises(entropy.BitExhaustionError):
            entropy.decode(b"", book, 1)

    def test_manual_book(self):
        book = entropy.CodeBook({"a": 1, "b": 2}, 1)
        payload, nbits = entropy.encode(["a", "b", "a"], book)
        assert nbits == 4 and bits_of(payload, nbits) == "0100"
        assert entropy.decode(payload, book, 3, nbits) == ["a", "b", "a"]

    def test_unknown_symbol(self):
        book = entropy.build_codebook(entropy.build_frequency_table([1, 2]))
        with pytest.raises(entropy.UnknownSymbolError):
            entropy.encode([3], book)

    def test_bit_exhaustion(self):
        symbols = list(range(16))
        book = entropy.build_codebook(entropy.build_frequency_table(symbols))
        payload, nbits = entropy.encode(symbols, book)
        with pytest.raises(entropy.BitExhaustionError):
            entropy.decode(payload, book, 17)
        assert issubclass(entropy.BitExhaustionError, entropy.EntropyError)

    def test_dangling_bits(self):
        symbols = list(range(16))
        book = entropy.build_codebook(entropy.build_frequency_table(symbols))
        payload, nbits = entropy.encode(symbols, book)
        with pytest.raises(entropy.DanglingBitsError):
            entropy.decode(payload, book, 15, nbits)

    @settings(max_examples=100, deadline=None)
    @given(seq=st.lists(st.integers(-2047, 2047), min_size=1, max_size=500))
    def test_round_trip_scalar(self, seq):
        book = entropy.build_codebook(entropy.build_frequency_table(seq))
        payload, nbits = entropy.encode(seq, book)
        assert entropy.decode(payload, book, len(seq), nbits) == seq

    @settings(max_examples=50, deadline=None)
    @given(
        seq=st.lists(st.integers(-2047, 2047), min_size=1, max_size=500),
        g=st.sampled_from([2, 4, 8]),
    )
    def test_round_trip_reduced(self, seq, g):
        groups, pad = entropy.reduce_symbols(seq, g)
        book = entropy.build_codebook(entropy.build_frequency_table(groups), g)
        payload, nbits = entropy.encode(groups, book)
        decoded = entropy.decode(payload, book, len(groups), nbits)
        assert entropy.expand_symbols(decoded, g, pad) == seq


class TestCodebookSerialization:
    def test_two_composite_size(self):
        book = entropy.build_codebook(
            entropy.build_frequency_table([(A, B, C, D), (E, F, G, H)]), 4
        )
        data = entropy.serialize_codebook(book)
        assert len(data) == 4 + 2 * (8 + 1)

    def test_scalar_256_size(self):
        book = entropy.build_codebook(
            entropy.build_frequency_table(list(range(256)))
        )
        assert len(entropy.serialize_codebook(book)) == 4 + 256 * 3

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for g in (1, 2, 4):
            for _ in range(20):
                n = int(rng.integers(1, 400))
                if g == 1:
                    syms = rng.integers(-2047, 2048, size=n).tolist()
                else:
                    syms = [
                        tuple(row)
                        for row in rng.integers(-2047, 2048, size=(n, g)).tolist()
                    ]
                book = entropy.build_codebook(entropy.build_frequency_table(syms), g)
                data = entropy.serialize_codebook(book)
                restored, consumed = entropy.deserialize_codebook(data, g)
                assert consumed == len(data)
                assert restored.lengths == book.lengths
                assert restored.codes == book.codes

    def test_truncated(self):
        book = entropy.build_codebook(entropy.build_frequency_table([1, 2, 3]))
        data = entropy.serialize_codebook(book)
        with pytest.raises(entropy.TruncatedCodebookError):
            entropy.deserialize_codebook(data[:-1], 1)

    def test_bad_length_byte(self):
        book = entropy.build_codebook(entropy.build_frequency_table([1, 2]))
        data = bytearray(entropy.serialize_codebook(book))
        data[6] = 0  # first entry's length byte
        with pytest.raises(entropy.InvalidCodeLengthError):
            entropy.deserialize_codebook(bytes(data), 1)

    def test_kraft_violation(self):
        book = entropy.build_codebook(entropy.build_frequency_table([1, 2, 3]))
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
