import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjpeg.image import (
    Image,
    PgmError,
    PgmMagicError,
    PgmMaxvalError,
    PgmTruncatedError,
    generate_test_image,
    pad_to_blocks,
    read_pgm,
    write_pgm,
)
from oracles import pad_to_blocks_reference, read_pgm_reference


def _gap(min_size):
    """Whitespace and comment pieces between PGM header fields."""
    pieces = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"# c\n"]
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=3).map(b"".join)


def _field(*valid):
    """A valid header field, or one that a digit check must refuse."""
    junk = [b"0", b"+1", b"-1", b"1_0", "\u0662".encode(), b"2#x", b"\x00", b"\xff", b""]
    return st.one_of(st.sampled_from(valid), st.sampled_from(junk))


def make_image(width, height, values):
    return Image(np.array(values, dtype=np.uint8).reshape(height, width))


class TestImage:
    @pytest.mark.parametrize("value", [256, -1, 3.7])
    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_values_a_uint8_cast_would_change_refused(self, value, wrap):
        with pytest.raises(ValueError, match="integers in 0..255"):
            Image(wrap([[1, value]]))

    @pytest.mark.parametrize("values", [[[1.0, 2]], [[0, 255], [7, 8]]])
    def test_integral_values_accepted(self, values):
        assert Image(values) == Image(np.array(values, dtype=np.uint8))


class TestReadPgm:
    def test_binary_p5(self):
        img = read_pgm(b"P5 2 2 255 " + bytes([0, 128, 255, 7]))
        assert img == make_image(2, 2, [0, 128, 255, 7])

    def test_ascii_p2(self):
        img = read_pgm(b"P2 1 1 255 42")
        assert img == make_image(1, 1, [42])

    @pytest.mark.parametrize("data, samples", [
        pytest.param(b"P2 4 1 15  15 0 7 8", [255, 0, 119, 136], id="p2-maxval-15"),
        pytest.param(b"P5 2 1 1 " + bytes([1, 0]), [255, 0], id="p5-maxval-1"),
        pytest.param(b"P5 3 1 2 " + bytes([0, 1, 2]), [0, 128, 255], id="p5-maxval-2"),
    ])
    def test_samples_scaled_to_255(self, data, samples):
        # (s * 255 + maxval // 2) // maxval: 7 * 17 = 119, and 127.5 rounds up
        assert read_pgm(data) == make_image(len(samples), 1, samples)

    def test_header_comments_and_whitespace(self):
        data = b"P5\n# a comment\n 2 # inline\n1\n255\n" + bytes([9, 10])
        img = read_pgm(data)
        assert img == make_image(2, 1, [9, 10])

    def test_bad_magic(self):
        with pytest.raises(PgmMagicError):
            read_pgm(b"P6 1 1 255 x")

    def test_maxval_too_large(self):
        with pytest.raises(PgmMaxvalError):
            read_pgm(b"P5 1 1 65535 " + bytes([0, 0]))

    def test_truncated_samples(self):
        with pytest.raises(PgmTruncatedError):
            read_pgm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_truncated_ascii(self):
        with pytest.raises(PgmTruncatedError):
            read_pgm(b"P2 2 2 255 1 2 3")

    @pytest.mark.parametrize("data", [
        pytest.param(b"P2 2 1 255 1 x", id="p2-non-numeric-sample"),
        pytest.param(b"P2 2 1 255 1 " + b"9" * 23, id="p2-23-digit-sample"),
        pytest.param(b"P2 2 1 255 1 " + b"9" * 5000, id="p2-5000-digit-sample"),
        pytest.param(b"P2 2 1 255 1 -1", id="p2-negative-sample"),
        pytest.param(b"P2 2 1 255 1 +1", id="p2-signed-sample"),
        pytest.param(b"P5 +2 1 255 " + bytes(2), id="signed-width"),
        pytest.param(b"P5 1_0 1 255 " + bytes(10), id="underscore-width"),
        pytest.param("P5 \u0662 1 255 ".encode() + bytes(2), id="non-ascii-digit"),
        pytest.param(b"P5 2#x 1 255 " + bytes(2), id="hash-inside-field"),
        pytest.param(b"P5 2 1 100 \xc8\xc8", id="p5-sample-above-maxval"),
        pytest.param(b"P2 2 1 100 1 101", id="p2-sample-above-maxval"),
    ])
    def test_malformed_tokens_and_samples(self, data):
        with pytest.raises(PgmError):
            read_pgm(data)

    def test_leading_zeros_accepted(self):
        img = read_pgm(b"P2 02 1 0255 " + b"0" * 5000 + b"7 000")
        assert img == make_image(2, 1, [7, 0])

    def test_no_whitespace_needed_after_magic(self):
        assert read_pgm(b"P52 1 255\n" + bytes([7, 8])) == make_image(2, 1, [7, 8])

    @pytest.mark.parametrize("data, message", [
        pytest.param(b"P5 2 1 # no line end", "header ended", id="comment-to-end-of-data"),
        pytest.param(b"P5 1 1 255", "found 0", id="no-byte-after-maxval"),
    ])
    def test_header_cut_short(self, data, message):
        with pytest.raises(PgmTruncatedError, match=message):
            read_pgm(data)

    @settings(max_examples=200, deadline=None)
    @given(
        magic=st.sampled_from([b"P5", b"P2", b"P6", b""]),
        header=st.tuples(_gap(0), _field(b"1", b"2"), _gap(1), _field(b"1", b"02"),
                         _gap(1), _field(b"255", b"15", b"1"), _gap(1)).map(b"".join),
        tail=st.binary(max_size=8),
    )
    @example(magic=b"P5", header=b"# c\n2\x0b1\r255\x0c", tail=bytes([7, 8]))
    @example(magic=b"P2", header=b"\t2 1\n# c\n255\r", tail=b"\n7 8")
    @example(magic=b"P5", header=b"2\t1 255 ", tail=b"\x00\xff")
    @example(magic=b"P5", header=b" 1 1 255\n", tail=b"\n")
    @example(magic=b"P2", header=b" 2 1 15 ", tail=b"15 7")
    def test_same_outcome_as_byte_scanner(self, magic, header, tail):
        def outcome(read):
            try:
                return read(magic + header + tail)
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(read_pgm) == outcome(read_pgm_reference)


class TestWritePgm:
    def test_minimal(self):
        assert write_pgm(make_image(1, 1, [0])) == b"P5\n1 1\n255\n\x00"

    def test_payload_order(self):
        assert write_pgm(make_image(2, 1, [255, 0])).endswith(bytes([255, 0]))

    @settings(max_examples=50)
    @given(
        width=st.integers(1, 40),
        height=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip(self, width, height, seed):
        img = generate_test_image("noise", width, height, seed)
        assert read_pgm(write_pgm(img)) == img


class TestGenerators:
    def test_gradient_formula(self):
        img = generate_test_image("gradient", 8, 8, 0)
        expected = [255 * x // 7 for x in range(8)]
        for y in range(8):
            assert list(img.pixels[y]) == expected

    def test_checker(self):
        img = generate_test_image("checker", 2, 2, 0)
        assert img == make_image(2, 2, [0, 255, 255, 0])

    def test_noise_deterministic(self):
        a = generate_test_image("noise", 4, 4, 7)
        b = generate_test_image("noise", 4, 4, 7)
        assert a == b

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_test_image("plasma", 4, 4, 0)


class TestPadToBlocks:
    def test_aligned_untouched(self):
        img = generate_test_image("noise", 256, 256, 3)
        assert pad_to_blocks(img) == img

    def test_edge_replication(self):
        img = generate_test_image("noise", 9, 8, 1)
        padded = pad_to_blocks(img)
        assert (padded.width, padded.height) == (16, 8)
        for col in range(9, 16):
            assert np.array_equal(padded.pixels[:, col], img.pixels[:, 8])

    def test_single_pixel(self):
        padded = pad_to_blocks(make_image(1, 1, [42]))
        assert (padded.width, padded.height) == (8, 8)
        assert np.all(padded.pixels == 42)

    @settings(max_examples=50)
    @given(width=st.integers(1, 30), height=st.integers(1, 30))
    def test_dimensions_and_restriction(self, width, height):
        img = generate_test_image("noise", width, height, 5)
        padded = pad_to_blocks(img)
        assert padded.width % 8 == 0 and padded.height % 8 == 0
        assert np.array_equal(padded.pixels[:height, :width], img.pixels)

    @settings(max_examples=200)
    @given(width=st.integers(1, 40), height=st.integers(1, 40), seed=st.integers(0, 3))
    def test_matches_edge_pad_reference(self, width, height, seed):
        img = generate_test_image("noise", width, height, seed)
        assert pad_to_blocks(img) == pad_to_blocks_reference(img)
