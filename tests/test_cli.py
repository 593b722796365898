import contextlib
import dataclasses
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hjpeg import cli, codec, container, entropy
from hjpeg.codec import CodecConfig
from hjpeg.image import generate_test_image, read_pgm, write_pgm
from oracles import huge_payload


def write_image(path, kind="gradient", w=32, h=24, seed=0):
    path.write_bytes(write_pgm(generate_test_image(kind, w, h, seed)))
    return str(path)


class TestCompressCommand:
    def test_happy_path(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        out = tmp_path / "out.hjpg"
        rc = cli.main(["compress", src, str(out), "--entropy", "reduced"])
        assert rc == 0
        assert out.exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("image,")
        assert ",reduced,4," in lines[1]

    def test_group_size_one_rejected(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        rc = cli.main(
            ["compress", src, str(tmp_path / "o"), "--entropy", "reduced",
             "--group-size", "1"]
        )
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_group_size_above_255_rejected(self, tmp_path, capsys, monkeypatch):
        # the header holds the group size in one byte; refused before any coding
        monkeypatch.setattr(codec, "compress", None)
        src = write_image(tmp_path / "in.pgm")
        out = tmp_path / "o.hjpg"
        rc = cli.main(["compress", src, str(out), "--group-size", "256"])
        assert rc == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage:")
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        rc = cli.main(["compress", str(tmp_path / "nope.pgm"), str(tmp_path / "o")])
        assert rc == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: io:")

    def test_malformed_pgm(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"JUNKJUNK")
        rc = cli.main(["compress", str(bad), str(tmp_path / "o")])
        assert rc == cli.EXIT_FORMAT
        assert capsys.readouterr().err.startswith("error: pgm-magic:")

    @pytest.mark.parametrize("data", [
        b"P2 2 1 255 1 x", b"P2 2 1 255 1 " + b"9" * 23, b"P5 1_0 1 255 " + bytes(10),
        b"P5 2 1 100 \xc8\xc8",
    ], ids=["non-numeric-sample", "23-digit-sample", "underscore-width",
            "p5-sample-above-maxval"])
    def test_malformed_pgm_token(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(data)
        rc = cli.main(["compress", str(bad), str(tmp_path / "o")])
        assert rc == cli.EXIT_FORMAT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: pgm:")

    def test_image_too_large(self, tmp_path, capsys):
        # the padded width 65536 does not fit the header's u16 field
        src = write_image(tmp_path / "wide.pgm", "gradient", 65535, 1)
        out = tmp_path / "o.hjpg"
        rc = cli.main(["compress", src, str(out)])
        assert rc == cli.EXIT_FORMAT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: image-too-large:")
        assert not out.exists()

    def test_payload_too_large(self, tmp_path, capsys, monkeypatch):
        # the payload bit length does not fit the container's u32 field, so the
        # stub's file cannot be made
        compress = codec.compress

        def huge(img, cfg):
            file, counts = compress(img, cfg)
            return dataclasses.replace(file, payload=huge_payload(1 << 32),
                                       payload_bit_length=1 << 32), counts

        monkeypatch.setattr(codec, "compress", huge)
        src = write_image(tmp_path / "in.pgm")
        rc = cli.main(["compress", src, str(tmp_path / "o.hjpg")])
        assert rc == cli.EXIT_FORMAT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: payload-too-large:")


class TestDecompressCommand:
    def test_round_trip(self, tmp_path):
        src = write_image(tmp_path / "in.pgm", "noise", 37, 21, 5)
        packed = tmp_path / "out.hjpg"
        restored = tmp_path / "back.pgm"
        assert cli.main(["compress", src, str(packed)]) == 0
        assert cli.main(["decompress", str(packed), str(restored)]) == 0
        img = read_pgm(restored.read_bytes())
        assert (img.width, img.height) == (37, 21)

    def test_corrupt_magic(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        packed = tmp_path / "out.hjpg"
        cli.main(["compress", src, str(packed)])
        data = bytearray(packed.read_bytes())
        data[:4] = b"WXYZ"
        packed.write_bytes(bytes(data))
        rc = cli.main(["decompress", str(packed), str(tmp_path / "back.pgm")])
        assert rc == cli.EXIT_FORMAT
        assert capsys.readouterr().err.startswith("error: bad-magic:")

    def test_zero_quant_step(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        packed = tmp_path / "out.hjpg"
        cli.main(["compress", src, str(packed)])
        data = bytearray(packed.read_bytes())
        data[20] = 0  # first quantization table entry
        packed.write_bytes(bytes(data))
        capsys.readouterr()
        rc = cli.main(["decompress", str(packed), str(tmp_path / "back.pgm")])
        assert rc == cli.EXIT_FORMAT
        assert capsys.readouterr().err.startswith("error: container:")

    def test_trailing_bytes(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        packed = tmp_path / "out.hjpg"
        cli.main(["compress", src, str(packed)])
        packed.write_bytes(packed.read_bytes() + b"garbage")
        capsys.readouterr()
        rc = cli.main(["decompress", str(packed), str(tmp_path / "back.pgm")])
        assert rc == cli.EXIT_FORMAT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: trailing-data:")

    def test_payload_longer_than_its_symbols_fill(self, tmp_path, capsys, monkeypatch):
        # an 8x8 gradient's 16 symbols, with codes of at most 3 bits, under a
        # payload declared 2 MiB longer
        file, _ = codec.compress(generate_test_image("gradient", 8, 8, 0),
                                 CodecConfig(entropy_mode="reduced", group_size=4))
        head = container.serialize(file)[: -4 - len(file.payload)]
        payload = file.payload + bytes(1 << 18)
        packed = tmp_path / "long.hjpg"
        packed.write_bytes(head + struct.pack(">I", 8 * len(payload)) + payload)
        monkeypatch.setattr(entropy, "decode", None)
        rc = cli.main(["decompress", str(packed), str(tmp_path / "back.pgm")])
        assert rc == cli.EXIT_INVARIANT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invariant:")


# One small container per entropy configuration, for the mutation fuzz.
MUTATION_SAMPLES = [
    codec.compress_bytes(generate_test_image("noise", 13, 11, seed), cfg)
    for seed, cfg in enumerate([
        CodecConfig(entropy_mode="scalar", dc_diff=True),
        CodecConfig(entropy_mode="reduced", group_size=4),
        CodecConfig(entropy_mode="reduced", group_size=8, dc_diff=True),
    ])
]


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def mutated(data, samples) -> bytes:
    """One of samples with one byte changed, as drawn from hypothesis data."""
    sample = data.draw(st.sampled_from(samples))
    pos = data.draw(st.integers(0, len(sample) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != sample[pos]))
    return sample[:pos] + bytes([value]) + sample[pos + 1 :]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_decompress_mutated_container(mutation_dir, data):
    packed = mutation_dir / "mutated.hjpg"
    packed.write_bytes(mutated(data, MUTATION_SAMPLES))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["decompress", str(packed), str(mutation_dir / "back.pgm")])
    assert rc in (cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_INVARIANT), err.getvalue()
    if rc != cli.EXIT_OK:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# One small PGM of each kind, for the mutation fuzz of compress.
PGM_SAMPLES = [
    b"P2\n# c\n5 3\n255\n" + " ".join(
        map(str, generate_test_image("noise", 5, 3, 1).pixels.reshape(-1).tolist())).encode(),
    write_pgm(generate_test_image("noise", 5, 3, 2)),
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_compress_mutated_pgm(mutation_dir, data):
    src = mutation_dir / "mutated.pgm"
    src.write_bytes(mutated(data, PGM_SAMPLES))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["compress", str(src), str(mutation_dir / "out.hjpg")])
    assert rc in (cli.EXIT_OK, cli.EXIT_FORMAT), err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)


class TestInspectCommand:
    def test_reduced_file(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        packed = tmp_path / "out.hjpg"
        cli.main(["compress", src, str(packed)])
        capsys.readouterr()
        assert cli.main(["inspect", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "group_size: 4" in out
        assert "kraft_sum: 1" in out.splitlines()

    def test_scalar_file(self, tmp_path, capsys):
        src = write_image(tmp_path / "in.pgm")
        packed = tmp_path / "out.hjpg"
        cli.main(["compress", src, str(packed), "--entropy", "huffman"])
        capsys.readouterr()
        assert cli.main(["inspect", str(packed)]) == 0
        assert "group_size: 1" in capsys.readouterr().out

    def test_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.hjpg"
        bad.write_bytes(b"HJPG")
        rc = cli.main(["inspect", str(bad)])
        assert rc == cli.EXIT_FORMAT

    @pytest.mark.parametrize("command,pos,size,delta", [
        pytest.param(command, pos, size, delta, id=f"{name}{command}")
        for name, pos, size, delta in [
            ("", 16, 4, -1),  # symbol count, one short
            ("padded-width-", 11, 2, 8),
            ("padded-height-", 13, 2, 8),
            ("pad-count-", 15, 1, 1),
        ]
        for command in ("inspect", "decompress")
    ])
    def test_one_symbol_short(self, tmp_path, capsys, command, pos, size, delta):
        # a valid container with one header field that the original size and g
        # decide moved off its value
        data = bytearray(codec.compress_bytes(generate_test_image("noise", 16, 16, 8)))
        value = int.from_bytes(data[pos : pos + size], "big")
        data[pos : pos + size] = (value + delta).to_bytes(size, "big")
        packed = tmp_path / "short.hjpg"
        packed.write_bytes(bytes(data))
        outputs = [str(tmp_path / "back.pgm")] if command == "decompress" else []
        rc = cli.main([command, str(packed), *outputs])
        assert rc == cli.EXIT_INVARIANT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invariant:")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["inspect", "decompress"])
    @pytest.mark.parametrize("edits,error", [
        ({5: b"\x05"}, "container"), ({5: b"\x81"}, "container"),  # reserved bits 2, 7
        ({7: b"\x00\x00"}, "container"), ({9: b"\x00\x00"}, "container"),
        ({7: b"\xff\xff"}, "image-too-large"), ({9: b"\xff\xff"}, "image-too-large"),
        # a field bad on its own wins over flags bit 0, whether that agrees or not
        ({6: b"\x00"}, "codebook"), ({5: b"\x00\x00"}, "codebook"),  # g = 0
        ({5: b"\x00", 20: b"\x00"}, "container"),  # and a quantization step of 0
    ], ids=["flag-bit-2", "flag-bit-7", "width-0", "height-0", "width-65535", "height-65535",
            "g-0-flag-bit-0-set", "g-0-flag-bit-0-clear", "flag-bit-0-and-step-0"])
    def test_header_field_bad_on_its_own(self, tmp_path, capsys, command, edits, error):
        data = bytearray(codec.compress_bytes(generate_test_image("noise", 16, 16, 8)))
        assert data[5] == container.FLAG_REDUCED
        for pos, value in edits.items():
            data[pos : pos + len(value)] = value
        packed = tmp_path / "bad.hjpg"
        packed.write_bytes(bytes(data))
        outputs = [str(tmp_path / "back.pgm")] if command == "decompress" else []
        rc = cli.main([command, str(packed), *outputs])
        assert rc == cli.EXIT_FORMAT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}:")
        assert captured.out == ""


class TestBenchCommand:
    def test_directory_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, kind in enumerate(("gradient", "noise")):
            write_image(corpus / f"{kind}.pgm", kind, 40, 40, i)
        out = tmp_path / "report.csv"
        rc = cli.main(["bench", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        # 2 images x {scalar, reduced} x {dc off, on}
        assert len(lines) == 1 + 2 * 4
        assert lines[0].startswith("image,mode,group_size,dc_diff")

    def test_synthetic_fallback_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["bench", "--out", str(a)]) == 0
        assert cli.main(["bench", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert "synthetic:gradient" in a.read_text()

    def test_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = cli.main(["bench", "--corpus", str(empty)])
        assert rc == cli.EXIT_USAGE

    def test_missing_corpus(self, tmp_path, capsys):
        rc = cli.main(["bench", "--corpus", str(tmp_path / "missing")])
        assert rc == cli.EXIT_IO
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io:")
        assert captured.out == ""

    def test_group_size_above_255_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(codec, "compress", None)
        monkeypatch.setattr(cli, "_load_corpus", None)
        out = tmp_path / "r.csv"
        rc = cli.main(["bench", "--out", str(out), "--group-size", "256"])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage:")
        assert captured.out == "" and not out.exists()

    def test_improvement_on_reduced_reports(self):
        img = generate_test_image("noise", 24, 16, 3)
        reports = cli.bench_image("noise", img, group_size=4)
        scalar = {r.dc_diff: r for r in reports if r.mode == "scalar"}
        assert len(reports) == 4 and len(scalar) == 2
        for r in reports:
            if r.mode == "scalar":
                assert r.improvement_pct is None
            else:
                assert r.improvement_pct == 100 * (
                    r.payload_cr / scalar[r.dc_diff].payload_cr - 1)

    def test_improvement_column_present(self, tmp_path):
        out = tmp_path / "r.csv"
        cli.main(["bench", "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        for row in rows:
            if row[1] == "reduced":
                assert row[-1] != ""
            else:
                assert row[-1] == ""


def test_one_symbol_pass_per_report_row(tmp_path, monkeypatch, capsys):
    # every CSV row is read from the compress that made its container
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(codec, "image_to_symbols")
    count(entropy, "group_symbols")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, kind in enumerate(("gradient", "noise")):
        write_image(corpus / f"{kind}.pgm", kind, 16, 16, i)
    assert cli.main(["bench", "--corpus", str(corpus)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 8
    assert calls == {"image_to_symbols": 8, "group_symbols": 8}

    calls.clear()
    src = str(corpus / "noise.pgm")
    assert cli.main(["compress", src, str(tmp_path / "o.hjpg")]) == 0
    assert calls == {"image_to_symbols": 1, "group_symbols": 1}


def test_python_m_hjpeg(tmp_path):
    # the package runs as a module from a checkout, without installing it
    packed = tmp_path / "out.hjpg"
    packed.write_bytes(codec.compress_bytes(generate_test_image("gradient", 16, 8)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-m", "hjpeg", "inspect", str(packed)],
                            capture_output=True, text=True, env=env, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("mode: reduced\n")
