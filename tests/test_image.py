import numpy as np
import pytest
from hypothesis import given, settings
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
        pytest.param(b"P5 2 1 100 \xc8\xc8", id="p5-sample-above-maxval"),
        pytest.param(b"P2 2 1 100 1 101", id="p2-sample-above-maxval"),
    ])
    def test_malformed_tokens_and_samples(self, data):
        with pytest.raises(PgmError):
            read_pgm(data)

    def test_leading_zeros_accepted(self):
        img = read_pgm(b"P2 02 1 0255 " + b"0" * 5000 + b"7 000")
        assert img == make_image(2, 1, [7, 0])


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
