"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 7's absolute compression-ratio targets need the four
standard 256x256 test images; drop them as PGM files into tests/data/standard
(cameraman.pgm, rice.pgm, coin.pgm, tree.pgm) to enable that assertion.
Without them the improvement is reported on synthetic images but, as their
statistics differ from natural images, not asserted.
"""

import dataclasses
import time
from functools import wraps
from pathlib import Path

import numpy as np
import pytest

from golden import GOLDEN_BLOCK, GOLDEN_DCT, GOLDEN_DCT_MISPRINTS
from hjpeg import cli, codec, container, entropy, metrics, quantize, transform
from hjpeg.codec import CodecConfig
from hjpeg.image import generate_test_image, read_pgm
from oracles import code_strings, is_prefix_free, kraft_sum_exact, quantize_oracle

STANDARD_CORPUS = Path(__file__).parent / "data" / "standard"


def criterion(number, description):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")

        return wrapper

    return deco


def check_book(book):
    assert kraft_sum_exact(book.code_lengths.tolist()) == 1 or len(book.rows) == 1
    assert is_prefix_free(
        {i: (int(code, 2), len(code)) for i, code in enumerate(code_strings(book))}
    )


@criterion(1, "golden DCT vector, consistent entries")
def test_criterion_1_golden_dct():
    coeffs = transform.fdct(GOLDEN_BLOCK)
    diff = np.abs(coeffs - GOLDEN_DCT)
    for pos in GOLDEN_DCT_MISPRINTS:
        diff[pos] = 0.0
    assert diff.max() < 0.02
    assert coeffs[0, 0] == pytest.approx(421.00, abs=0.02)
    assert coeffs[0, 1] == pytest.approx(203.33, abs=0.02)
    assert coeffs[1, 0] == pytest.approx(-107.82, abs=0.02)
    assert coeffs[7, 7] == pytest.approx(1.93, abs=0.02)
    transform.fdct(GOLDEN_BLOCK)  # warm
    start = time.perf_counter()
    transform.fdct(GOLDEN_BLOCK)
    assert time.perf_counter() - start < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="two printed golden coefficients, (1,4)=27.72 and (5,2)=8.12, "
    "disagree with the defining transform of the golden pixel block "
    "(27.22 and 8.38 by independent direct evaluation); no implementation "
    "of that transform can match all 64 printed values within 0.02",
)
@criterion(1, "golden DCT vector, all 64 printed values")
def test_criterion_1_all_64_printed_values():
    assert np.abs(transform.fdct(GOLDEN_BLOCK) - GOLDEN_DCT).max() < 0.02


@criterion(2, "transform round-trip and Parseval")
def test_criterion_2_round_trip():
    rng = np.random.default_rng(20)
    blocks = rng.uniform(-128, 127, size=(1000, 8, 8))
    start = time.perf_counter()
    coeffs = transform.fdct(blocks)
    restored = transform.idct(coeffs)
    assert np.abs(restored - blocks).max() < 1e-9
    energy_in = np.sum(blocks**2, axis=(1, 2))
    energy_out = np.sum(coeffs**2, axis=(1, 2))
    assert np.max(np.abs(energy_out - energy_in) / energy_in) < 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(3, "quantization matches the independent oracle")
def test_criterion_3_quantization_oracle():
    q = quantize.DEFAULT_QUANT_TABLE
    levels = quantize.quantize(GOLDEN_DCT, q)
    assert levels.tolist() == quantize_oracle(GOLDEN_DCT.tolist(), q.tolist())


@criterion(4, "entropy losslessness fuzz, all modes and group sizes")
def test_criterion_4_entropy_fuzz():
    rng = np.random.default_rng(21)
    exponents = np.concatenate(
        [rng.uniform(0, 3, 948), rng.uniform(3, 4, 40), rng.uniform(4, 5, 10)]
    )
    lengths = [1, 100_000] + [int(10**e) for e in exponents]
    assert len(lengths) == 1000
    for n in lengths:
        seq = rng.integers(-2047, 2048, size=n).tolist()
        for g in (1, 2, 4, 8):
            rows, ids, counts, _ = entropy.group_symbols(seq, g)
            book, rank = entropy.build_codebook(rows, counts)
            check_book(book)
            payload, nbits = entropy.encode(rank[ids], book)
            decoded = entropy.decode(payload, book, len(ids), nbits)
            assert book.rows[decoded].reshape(-1)[:n].tolist() == seq


@criterion(5, "grouping arithmetic and the two-tuple worked example")
def test_criterion_5_reduction_arithmetic():
    _, ids, _, pad = entropy.group_symbols(list(range(64)), 4)
    assert len(ids) == 16 and pad == 0

    rows, _, counts, _ = entropy.group_symbols([1, 2, 3, 4, 5, 6, 7, 8], 4)
    assert rows.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]] and counts.tolist() == [1, 1]
    book, _ = entropy.build_codebook(rows, counts)
    assert book.code_lengths.tolist() == [1, 1]
    assert code_strings(book) == ["0", "1"]
    assert int(counts @ book.code_lengths) / int(counts.sum()) == 1.0


@criterion(6, "mode parity of reconstructions")
def test_criterion_6_mode_parity():
    corpus = [
        generate_test_image(kind, 256, 256, seed=1)
        for kind in ("gradient", "checker", "noise")
    ] + [generate_test_image("noise", 37, 21, 2)]
    for img in corpus:
        for dc in (False, True):
            scalar = codec.decompress(
                codec.compress(img, CodecConfig("scalar", 1, dc_diff=dc))[0]
            )
            reduced = codec.decompress(
                codec.compress(img, CodecConfig("reduced", 4, dc_diff=dc))[0]
            )
            assert scalar == reduced
            assert metrics.psnr(img, scalar) == metrics.psnr(img, reduced)


@criterion(7, "benchmark harness and compression-ratio improvement")
def test_criterion_7_benchmark():
    start = time.perf_counter()
    standard = sorted(STANDARD_CORPUS.glob("*.pgm")) if STANDARD_CORPUS.is_dir() else []
    if standard:
        corpus = [(p.name, read_pgm(p.read_bytes())) for p in standard]
    else:
        corpus = [
            (f"synthetic:{kind}", generate_test_image(kind, 256, 256, seed=1))
            for kind in cli.SYNTHETIC_KINDS
        ]
    improvements = {}
    for name, img in corpus:
        reports = cli.bench_image(name, img, group_size=4)
        by_key = {(r.mode, r.dc_diff): r for r in reports}
        improvements[name] = 100.0 * (
            by_key[("reduced", False)].payload_cr
            / by_key[("scalar", False)].payload_cr
            - 1.0
        )
    elapsed = time.perf_counter() - start
    for name, imp in improvements.items():
        print(f"  payload-CR improvement, grouped vs scalar: {name}: {imp:+.2f}%")
    assert elapsed < 30.0
    if standard:
        in_range = [5.0 <= imp <= 35.0 for imp in improvements.values()]
        assert sum(in_range) >= 3
    else:
        print("  (synthetic corpus: improvement reported, not asserted)")


@criterion(8, "container round-trip and corruption classes")
def test_criterion_8_container_robustness():
    from test_container import random_file

    rng = np.random.default_rng(22)
    sample = None
    for _ in range(200):
        f = random_file(rng)
        data = container.serialize(f)
        assert container.serialize(container.deserialize(data)) == data
        sample = data

    with pytest.raises(container.BadMagicError):
        container.deserialize(b"ABCD" + sample[4:])
    corrupt = bytearray(sample)
    corrupt[4] = 2
    with pytest.raises(container.UnsupportedVersionError):
        container.deserialize(bytes(corrupt))
    with pytest.raises(container.TruncatedFileError):
        container.deserialize(sample[:-1])

    img = generate_test_image("noise", 16, 16, 3)
    packed = codec.compress_bytes(img, CodecConfig("scalar", 1))
    # bad code length: first codebook entry's length byte, at header+table+count+2
    corrupt = bytearray(packed)
    corrupt[20 + 64 + 4 + 2] = 0
    with pytest.raises(entropy.InvalidCodeLengthError):
        container.deserialize(bytes(corrupt))
    corrupt = bytearray(packed)
    n_codes = int.from_bytes(packed[84:88], "big")
    last_length_byte = 84 + 4 + n_codes * 3 - 1
    corrupt[last_length_byte] = 64  # still canonical-ordered, Kraft now < 1
    with pytest.raises(entropy.KraftViolationError):
        container.deserialize(bytes(corrupt))

    file, _ = codec.compress(img, CodecConfig("scalar", 1))
    file = dataclasses.replace(file, payload=file.payload + b"\x00",
                               payload_bit_length=file.payload_bit_length + 8)
    with pytest.raises(entropy.DanglingBitsError):
        codec.decompress(file)


@criterion(9, "Shannon bound on every bench configuration")
def test_criterion_9_shannon_bound():
    for kind in ("gradient", "checker", "noise"):
        img = generate_test_image(kind, 128, 128, seed=1)
        reports = cli.bench_image(kind, img, group_size=4)
        for r in reports:
            assert r.l_avg >= r.entropy_bits - 1e-9
            if r.mode == "scalar":
                assert r.l_avg < r.entropy_bits + 1
