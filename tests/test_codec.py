import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import GOLDEN_BLOCK
from hjpeg import codec, container, entropy, quantize, transform
from hjpeg.codec import CodecConfig
from hjpeg.image import Image, generate_test_image
from oracles import decompress_reference, quantize_oracle

CORPUS = [
    ("gradient", 64, 64),
    ("checker", 48, 40),
    ("noise", 64, 64),
    ("gradient", 37, 21),  # forces padding
    ("noise", 1, 1),
]


def corpus_images():
    return [
        (f"{kind}-{w}x{h}", generate_test_image(kind, w, h, seed=11))
        for kind, w, h in CORPUS
    ]


class TestConfig:
    def test_scalar_forces_group_one(self):
        cfg = CodecConfig(entropy_mode="scalar", group_size=4)
        assert cfg.group_size == 1

    def test_reduced_rejects_small_group(self):
        with pytest.raises(ValueError):
            CodecConfig(entropy_mode="reduced", group_size=1)

    def test_reduced_rejects_group_above_255(self):
        # the container stores the group size in one byte
        assert CodecConfig(entropy_mode="reduced", group_size=255).group_size == 255
        with pytest.raises(ValueError):
            CodecConfig(entropy_mode="reduced", group_size=256)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            CodecConfig(entropy_mode="arithmetic")


class TestCompress:
    def test_constant_image(self):
        img = Image(np.full((8, 8), 128, dtype=np.uint8))
        for mode, g, expected_count in (("scalar", 1, 64), ("reduced", 4, 16)):
            file, counts = codec.compress(img, CodecConfig(entropy_mode=mode, group_size=g))
            assert counts.tolist() == [expected_count]
            assert file.symbol_count == expected_count
            assert file.payload_bit_length == expected_count  # 1-bit codes
            sym = 0 if mode == "scalar" else (0, 0, 0, 0)
            assert file.codebook.lengths == {sym: 1}

    def test_deterministic(self):
        img = generate_test_image("noise", 40, 24, 3)
        cfg = CodecConfig()
        assert codec.compress_bytes(img, cfg) == codec.compress_bytes(img, cfg)

    def test_quantized_stage_matches_oracle(self):
        # bare transform of the golden block (no level shift), quantized
        levels = quantize.quantize(
            transform.fdct(GOLDEN_BLOCK), quantize.DEFAULT_QUANT_TABLE
        )
        expected = quantize_oracle(
            transform.fdct(GOLDEN_BLOCK).tolist(),
            quantize.DEFAULT_QUANT_TABLE.tolist(),
        )
        assert levels.tolist() == expected

    def test_symbol_stream_is_lossless_through_entropy(self):
        img = generate_test_image("noise", 32, 32, 4)
        for mode, g in (("scalar", 1), ("reduced", 4)):
            cfg = CodecConfig(entropy_mode=mode, group_size=g)
            file, _ = codec.compress(img, cfg)
            ids = entropy.decode(
                file.payload, file.codebook, file.symbol_count,
                file.payload_bit_length,
            )
            n_coeffs = file.symbol_count * g - file.pad_count
            decoded = file.codebook.rows[ids].reshape(-1)[:n_coeffs]
            assert decoded.tolist() == codec.image_to_symbols(img, cfg).tolist()


class TestDecompress:
    def test_constant_round_trip_exact(self):
        img = Image(np.full((16, 24), 128, dtype=np.uint8))
        restored = codec.decompress(codec.compress(img)[0])
        assert restored == img

    def test_crops_to_original(self):
        img = generate_test_image("gradient", 37, 21, 0)
        restored = codec.decompress(codec.compress(img)[0])
        assert (restored.width, restored.height) == (37, 21)

    @pytest.mark.parametrize("name,img", corpus_images())
    def test_mode_parity(self, name, img):
        for dc in (False, True):
            outputs = [
                codec.decompress(
                    codec.compress(
                        img,
                        CodecConfig(entropy_mode=mode, group_size=g, dc_diff=dc),
                    )[0]
                )
                for mode, g in (("scalar", 1), ("reduced", 4))
            ]
            assert outputs[0] == outputs[1], name

    def test_dc_diff_round_trip(self):
        img = generate_test_image("noise", 40, 40, 6)
        cfg = CodecConfig(dc_diff=True)
        restored = codec.decompress(codec.compress(img, cfg)[0])
        baseline = codec.decompress(codec.compress(img, CodecConfig(dc_diff=False))[0])
        assert restored == baseline

    def test_reconstruction_error_bounded(self):
        # empirical per-pixel error on the corpus; bound fixed once observed
        worst = 0
        for _, img in corpus_images():
            restored = codec.decompress(codec.compress(img)[0])
            err = np.abs(
                restored.pixels.astype(int) - img.pixels.astype(int)
            ).max()
            worst = max(worst, int(err))
        assert worst <= 120  # noise images quantize harshly; stable across runs

    def test_serialized_round_trip(self):
        img = generate_test_image("checker", 24, 16, 0)
        data = codec.compress_bytes(img)
        restored = codec.decompress_bytes(data)
        assert (restored.width, restored.height) == (24, 16)

    @pytest.mark.parametrize("mode,g", [("scalar", 1), ("reduced", 4)])
    def test_coefficient_count_checked_before_decode(self, mode, g, monkeypatch):
        img = generate_test_image("noise", 16, 16, 8)
        cfg = CodecConfig(entropy_mode=mode, group_size=g)
        data = bytearray(codec.compress_bytes(img, cfg))
        count = int.from_bytes(data[16:20], "big")  # symbol count
        data[16:20] = (count - 1).to_bytes(4, "big")  # still within the payload's bits

        def no_decode(*args, **kwargs):
            raise AssertionError("payload decoded under an inconsistent header")

        monkeypatch.setattr(entropy, "decode", no_decode)
        with pytest.raises(container.InvariantError):
            codec.decompress_bytes(bytes(data))

    @pytest.mark.parametrize("mode,g", [("scalar", 1), ("reduced", 4)])
    def test_payload_length_checked_before_decode(self, mode, g, monkeypatch):
        img = generate_test_image("noise", 16, 16, 8)
        file, _ = codec.compress(img, CodecConfig(entropy_mode=mode, group_size=g))
        fill = file.symbol_count * int(file.codebook.code_lengths.max())

        def with_bits(bits):
            payload = file.payload.ljust((bits + 7) // 8, b"\0")
            return dataclasses.replace(file, payload=payload, payload_bit_length=bits)

        with_bits(fill)  # as many bits as the longest codes fill

        def no_decode(*args, **kwargs):
            raise AssertionError("payload decoded under an inconsistent header")

        monkeypatch.setattr(entropy, "decode", no_decode)
        with pytest.raises(container.InvariantError, match="longest codes"):
            codec.decompress(with_bits(fill + 1))  # the file is refused as it is made

    def test_symbol_count_mismatch_detected(self):
        img = generate_test_image("noise", 16, 16, 8)
        data = bytearray(codec.compress_bytes(img, CodecConfig(entropy_mode="scalar")))
        data[11:13] = (32).to_bytes(2, "big")  # padded width: more blocks than coded
        with pytest.raises(
            (container.InvariantError, entropy.EntropyError, ValueError)
        ):
            codec.decompress_bytes(bytes(data))


@st.composite
def small_images(draw):
    """Random pixels, one flat level (a flat block's DC lands on a rounding
    tie for half of the levels) or a fingerprint kind, 1 to 40 px a side."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "flat", "gradient", "checker", "noise"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        return Image(rng.integers(0, 256, (height, width), dtype=np.uint8))
    if kind == "flat":
        return Image(np.full((height, width), draw(st.integers(0, 255)), np.uint8))
    return generate_test_image(kind, width, height, draw(st.integers(0, 99)))


def every_config():
    return [CodecConfig("scalar" if g == 1 else "reduced", g, dc)
            for g in (1, 2, 3, 4, 8) for dc in (False, True)]


class TestInverseFrontEnd:
    """codec.decompress, which rounds and clamps in place, against the same
    steps written out of place, and each half of it against the compress half
    it inverts."""

    @settings(max_examples=100, deadline=None)
    @given(small_images())
    def test_matches_reference(self, img):
        w, h = img.width, img.height
        levels = codec.image_to_levels(img)
        restored = codec.levels_to_image(levels, w, h, CodecConfig.quant_table)
        for cfg in every_config():
            file, _ = codec.compress_levels(levels, w, h, cfg)
            assert np.array_equal(codec.decode_levels(file), levels)
            assert restored == codec.decompress(file) == decompress_reference(file)

    def test_every_flat_level(self):
        # a 128x128 mosaic of 8x8 blocks, one per level 0..255
        img = Image(np.kron(np.arange(256, dtype=np.uint8).reshape(16, 16),
                            np.ones((8, 8), np.uint8)))
        for cfg in every_config():
            file, _ = codec.compress(img, cfg)
            assert codec.decompress(file) == decompress_reference(file)
