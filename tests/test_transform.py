import numpy as np
import pytest

from golden import GOLDEN_BLOCK, GOLDEN_DCT, GOLDEN_DCT_MISPRINTS
from hjpeg import transform
from oracles import fdct_reference, round_half_away


def random_blocks(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-128, 127, size=(n, 8, 8))


class TestLevelShift:
    def test_endpoints(self):
        block = np.array([[0, 128, 255]] * 8)[:, [0, 1, 2, 0, 1, 2, 0, 1]]
        shifted = transform.level_shift(block)
        assert shifted.min() == -128 and shifted.max() == 127
        assert shifted[0, 1] == 0

    def test_mid_gray_is_zero(self):
        assert np.all(transform.level_shift(np.full((8, 8), 128)) == 0)

    def test_unshift_recovers(self):
        rng = np.random.default_rng(1)
        block = rng.integers(0, 256, size=(8, 8))
        assert np.array_equal(
            transform.level_unshift(transform.level_shift(block)), block
        )

    def test_unshift_clamps(self):
        assert np.all(transform.level_unshift(np.full((8, 8), 500.0)) == 255)
        assert np.all(transform.level_unshift(np.full((8, 8), -500.0)) == 0)

    @pytest.mark.parametrize(
        "value", [-128.5, -128.49, -127.5, -0.5, 0.5, 126.5, 127.49, 127.5, 127.51])
    def test_unshift_ties_and_negatives(self, value):
        expected = min(max(round_half_away(value + 128), 0), 255)
        assert np.all(transform.level_unshift(np.full((8, 8), value)) == expected)


    def test_unshift_leaves_its_argument(self):
        block = np.linspace(-300.0, 300.0, 64).reshape(8, 8)
        before = block.copy()
        transform.level_unshift(block)
        assert np.array_equal(block, before)


class TestFdct:
    def test_golden_block(self):
        coeffs = transform.fdct(GOLDEN_BLOCK)
        diff = np.abs(coeffs - GOLDEN_DCT)
        for pos in GOLDEN_DCT_MISPRINTS:
            diff[pos] = 0.0
        assert diff.max() < 0.02

    def test_golden_anchors(self):
        coeffs = transform.fdct(GOLDEN_BLOCK)
        assert coeffs[0, 0] == pytest.approx(421.00, abs=0.02)
        assert coeffs[0, 1] == pytest.approx(203.33, abs=0.02)
        assert coeffs[1, 0] == pytest.approx(-107.82, abs=0.02)
        assert coeffs[7, 7] == pytest.approx(1.93, abs=0.02)

    def test_matches_direct_evaluation(self):
        for block in random_blocks(5, seed=2):
            assert np.abs(
                transform.fdct(block) - fdct_reference(block)
            ).max() < 1e-9

    def test_zero_block(self):
        assert np.all(transform.fdct(np.zeros((8, 8))) == 0)

    def test_constant_block_is_dc_only(self):
        coeffs = transform.fdct(np.full((8, 8), 3.0))
        assert coeffs[0, 0] == pytest.approx(24.0, abs=1e-12)
        coeffs[0, 0] = 0
        assert np.abs(coeffs).max() < 1e-12

    def test_dc_is_mean_times_eight(self):
        for block in random_blocks(20, seed=3):
            assert transform.fdct(block)[0, 0] == pytest.approx(
                block.sum() / 8, abs=1e-9
            )


class TestIdct:
    def test_zero(self):
        assert np.all(transform.idct(np.zeros((8, 8))) == 0)

    def test_dc_only_inverse(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 8.0
        assert np.allclose(transform.idct(coeffs), 1.0, atol=1e-12)

    def test_golden_round_trip(self):
        restored = transform.idct(transform.fdct(GOLDEN_BLOCK))
        assert np.abs(restored - GOLDEN_BLOCK).max() < 1e-9


class TestProperties:
    def test_orthonormal_round_trip(self):
        blocks = random_blocks(1000, seed=4)
        restored = transform.idct(transform.fdct(blocks))
        assert np.abs(restored - blocks).max() < 1e-9

    def test_parseval(self):
        for block in random_blocks(100, seed=5):
            energy_in = np.sum(block**2)
            energy_out = np.sum(transform.fdct(block) ** 2)
            assert abs(energy_in - energy_out) / energy_in < 1e-6

    def test_linearity(self):
        x, y = random_blocks(2, seed=6)
        combined = transform.fdct(2.5 * x - 1.25 * y)
        separate = 2.5 * transform.fdct(x) - 1.25 * transform.fdct(y)
        assert np.abs(combined - separate).max() < 1e-9
