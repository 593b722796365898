import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import GOLDEN_DCT
from hjpeg import quantize
from oracles import quantize_oracle


class TestDefaultTable:
    def test_anchor_entries(self):
        q = quantize.DEFAULT_QUANT_TABLE
        assert q[0, 0] == 16
        assert q[0, 7] == 61
        assert q[7, 0] == 72

    def test_full_first_row(self):
        assert list(quantize.DEFAULT_QUANT_TABLE[0]) == [16, 11, 10, 16, 24, 40, 51, 61]

    def test_valid(self):
        q = quantize.DEFAULT_QUANT_TABLE
        assert q.shape == (8, 8)
        assert q.min() >= 1 and q.max() <= 255


class TestQuantize:
    def test_golden_against_oracle(self):
        q = quantize.DEFAULT_QUANT_TABLE
        levels = quantize.quantize(GOLDEN_DCT, q)
        expected = quantize_oracle(GOLDEN_DCT.tolist(), q.tolist())
        assert levels.tolist() == expected

    def test_dc_example(self):
        q = quantize.DEFAULT_QUANT_TABLE
        levels = quantize.quantize(GOLDEN_DCT, q)
        assert levels[0, 0] == 26  # 421.00 / 16
        assert levels[0, 1] == 18  # 203.33 / 11

    def test_zero_maps_to_zero(self):
        q = quantize.DEFAULT_QUANT_TABLE
        assert np.all(quantize.quantize(np.zeros((8, 8)), q) == 0)

    def test_half_away_from_zero(self):
        q = np.full((8, 8), 2, dtype=np.int64)
        coeffs = np.full((8, 8), 1.0)
        coeffs[0, 0] = -1.0
        levels = quantize.quantize(coeffs, q)
        assert levels[0, 0] == -1 and levels[0, 1] == 1

    def test_dequantize_product(self):
        q = quantize.DEFAULT_QUANT_TABLE
        levels = np.zeros((8, 8), dtype=np.int16)
        levels[0, 0] = 26
        assert quantize.dequantize(levels, q)[0, 0] == 416.0

    def test_dequantize_leaves_its_argument(self):
        levels = np.linspace(-40.0, 40.0, 64).reshape(8, 8)
        before = levels.copy()
        quantize.dequantize(levels, quantize.DEFAULT_QUANT_TABLE)
        assert np.array_equal(levels, before)

    def test_quantization_error_bound(self):
        rng = np.random.default_rng(0)
        q = quantize.DEFAULT_QUANT_TABLE
        coeffs = rng.uniform(-1000, 1000, size=(50, 8, 8))
        restored = quantize.dequantize(quantize.quantize(coeffs, q), q)
        assert np.all(np.abs(restored - coeffs) <= q / 2 + 1e-9)

    def test_requantize_idempotent(self):
        rng = np.random.default_rng(1)
        q = quantize.DEFAULT_QUANT_TABLE
        levels = rng.integers(-2047, 2048, size=(20, 8, 8)).astype(np.int16)
        again = quantize.quantize(quantize.dequantize(levels, q), q)
        assert np.array_equal(again, levels)


class TestZigzag:
    def test_first_ten_positions(self):
        assert quantize.ZIGZAG_POSITIONS[:10] == [
            (0, 0), (0, 1), (1, 0), (2, 0), (1, 1),
            (0, 2), (0, 3), (1, 2), (2, 1), (3, 0),
        ]

    def test_last_position(self):
        assert quantize.ZIGZAG_POSITIONS[-1] == (7, 7)

    def test_scan_identity_block(self):
        block = np.zeros((8, 8), dtype=np.int64)
        for k, (r, c) in enumerate(quantize.ZIGZAG_POSITIONS):
            block[r, c] = k
        assert list(quantize.zigzag(block)) == list(range(64))

    def test_bijection_exhaustive(self):
        assert sorted(quantize.ZIGZAG_INDEX.tolist()) == list(range(64))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            quantize.inverse_zigzag(np.arange(63))

    @settings(max_examples=50)
    @given(st.lists(st.integers(-2047, 2047), min_size=64, max_size=64))
    def test_round_trip(self, values):
        block = np.array(values).reshape(8, 8)
        assert np.array_equal(quantize.inverse_zigzag(quantize.zigzag(block)), block)
        seq = np.array(values)
        assert np.array_equal(quantize.zigzag(quantize.inverse_zigzag(seq)), seq)


class TestDcDifferential:
    def make_seq(self, dcs):
        seq = np.zeros(64 * len(dcs), dtype=np.int64)
        seq[::64] = dcs
        return seq

    def test_encode(self):
        encoded = quantize.dc_differential_encode(self.make_seq([26, 30, 30]))
        assert list(encoded[::64]) == [26, 4, 0]

    def test_decode(self):
        decoded = quantize.dc_differential_decode(self.make_seq([26, 4, 0]))
        assert list(decoded[::64]) == [26, 30, 30]

    def test_single_block_unchanged(self):
        seq = self.make_seq([17])
        assert np.array_equal(quantize.dc_differential_encode(seq), seq)

    def test_round_trip_large(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(1, 10_000))
            dcs = rng.integers(-2047, 2048, size=n)
            seq = self.make_seq(dcs)
            back = quantize.dc_differential_decode(quantize.dc_differential_encode(seq))
            assert np.array_equal(back, seq)

    def test_ac_untouched(self):
        rng = np.random.default_rng(3)
        seq = rng.integers(-100, 100, size=64 * 7)
        encoded = quantize.dc_differential_encode(seq)
        mask = np.ones(len(seq), dtype=bool)
        mask[::64] = False
        assert np.array_equal(encoded[mask], seq[mask])
