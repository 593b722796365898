import math
import sys

import numpy as np
import pytest

from hjpeg import entropy, metrics
from hjpeg.image import Image, generate_test_image


class TestEmpiricalEntropy:
    def test_eight_equiprobable(self):
        assert metrics.empirical_entropy([1] * 8) == pytest.approx(3.0)

    def test_two_equiprobable(self):
        assert metrics.empirical_entropy([5, 5]) == pytest.approx(1.0)

    def test_three_to_one(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert metrics.empirical_entropy([3, 1]) == pytest.approx(
            expected
        )
        assert expected == pytest.approx(0.811278, abs=1e-6)

    def test_single_symbol_zero(self):
        assert metrics.empirical_entropy([10]) == 0.0
        assert math.copysign(1, metrics.empirical_entropy([5])) == 1  # not -0.0

    def test_terms_summed_with_fsum(self):
        # under Python 3.11, plain sum() of these terms differs from fsum in the
        # last bit; fsum rounds the same on every version
        counts = np.random.default_rng(0).integers(1, 50, size=34)
        total = int(counts.sum())
        terms = [(c / total) * math.log2(c / total) for c in counts.tolist()]
        if sys.version_info < (3, 12):
            assert sum(terms) != math.fsum(terms)
        assert metrics.empirical_entropy(counts) == 0.0 - math.fsum(terms)


class TestAverageCodeLength:
    def test_huffman_within_shannon_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            freqs = rng.integers(1, 1000, size=n)
            book, rank = entropy.build_codebook(np.arange(n).reshape(-1, 1), freqs)
            h = metrics.empirical_entropy(freqs)
            l_avg = int(freqs @ book.code_lengths[rank]) / int(freqs.sum())
            assert h - 1e-9 <= l_avg < h + 1


class TestCompressionRatio:
    def test_basic(self):
        assert metrics.compression_ratio(512, 128) == 4.0

    def test_identity(self):
        assert metrics.compression_ratio(100, 100) == 1.0

    def test_block_size_is_512_bits(self):
        assert 8 * 8 * 8 == 512

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            metrics.compression_ratio(512, 0)

    def test_monotone(self):
        assert metrics.compression_ratio(512, 64) > metrics.compression_ratio(512, 65)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = generate_test_image("noise", 16, 16, 0)
        assert metrics.psnr(img, img) == math.inf

    def test_maximal_error_is_zero_db(self):
        a = Image(np.zeros((8, 8), dtype=np.uint8))
        b = Image(np.full((8, 8), 255, dtype=np.uint8))
        assert metrics.psnr(a, b) == pytest.approx(0.0)

    def test_single_pixel_delta(self):
        a = Image(np.zeros((256, 256), dtype=np.uint8))
        px = a.pixels.copy()
        px[0, 0] = 16
        b = Image(px)
        expected = 10 * math.log10(255**2 * 65536 / 256)
        assert metrics.psnr(a, b) == pytest.approx(expected)
        assert expected == pytest.approx(72.2, abs=0.1)

    def test_symmetric(self):
        a = generate_test_image("noise", 32, 32, 1)
        b = generate_test_image("noise", 32, 32, 2)
        assert metrics.psnr(a, b) == metrics.psnr(b, a)

    def test_dimension_mismatch(self):
        a = generate_test_image("noise", 8, 8, 1)
        b = generate_test_image("noise", 8, 16, 1)
        with pytest.raises(ValueError):
            metrics.psnr(a, b)
