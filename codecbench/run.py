"""hjpeg codec benchmark: end-to-end rates, or a traced per-layer run.

Run from the repository root:

    python3 codecbench/run.py --workload photo-512 --seed 1 --seconds 35 --trace 0

One process drives hjpeg from this checkout's `src/` through its public API
as a closed loop with a single client. Every round runs each case of the
workload once (compress_bytes, then decompress_bytes), then one in-process
`hjpeg bench` pass over the workload's PGM corpus, so slow drift of the host
hits every case alike. Rates come from the upper quartile of each case's
CPU seconds. Every op is checked and a failed check counts in `failed`
instead of stopping the run.

The last line of stdout is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A detailed record,
including each container's sha256, goes to `.codecbench/` in the checkout.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported: the host has two
# cores and the benchmark is a single client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".codecbench"

SETUPS = 5  # setup_s is the median of this many full set-ups
MIN_ROUNDS = 3
MAX_FAILURE_NOTES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "compress_mpix_s": "Mpix/s",
    "decompress_mpix_s": "Mpix/s",
    "bench_img_per_s": "img/s",
    "file_cr": "ratio",
    "psnr_db": "dB",
    "peak_rss_mb": "MB",
}

# Per-layer time metrics: (span key, "incl" or "self") pairs summed per round.
LAYER_MS = {
    "codec.compress_ms": [("codec.compress", "incl"), ("container.serialize", "incl")],
    "codec.decompress_ms": [("container.deserialize", "incl"), ("codec.decompress", "incl")],
    "codec.self_ms": [(f"codec.{f}", "self") for f in tracing.SPANS["codec"]],
    "transform.dct_ms": [(f"transform.{f}", "incl") for f in tracing.SPANS["transform"]],
    "quantize.quant_ms": [("quantize.quantize", "incl"), ("quantize.dequantize", "incl")],
    "quantize.zigzag_ms": [(f"quantize.{f}", "incl") for f in
                           ("zigzag", "inverse_zigzag", "dc_differential_encode",
                            "dc_differential_decode")],
    "entropy.group_ms": [("entropy.reduce_symbols", "incl")],
    "entropy.expand_ms": [("entropy.expand_symbols", "incl")],
    "entropy.freq_ms": [("entropy.build_frequency_table", "incl")],
    "entropy.build_ms": [("entropy.build_codebook", "incl")],
    "entropy.encode_ms": [("entropy.encode", "incl")],
    "entropy.decode_ms": [("entropy.decode", "incl")],
    "entropy.codebook_io_ms": [("entropy.serialize_codebook", "incl"),
                               ("entropy.deserialize_codebook", "incl")],
    "container.io_ms": [("container.serialize", "self"), ("container.deserialize", "self")],
    "image.read_pgm_ms": [("image.read_pgm", "incl")],
    "image.pad_ms": [("image.pad_to_blocks", "incl")],
    "metrics.ms": [(f"metrics.{f}", "incl") for f in tracing.SPANS["metrics"]],
    "cli.bench_ms": [("cli.main", "incl")],
    "cli.report_incl_ms": [("cli._report", "incl")],
    "cli.bench_self_ms": [(f"cli.{f}", "self") for f in
                          ("main", "cmd_bench", "bench_image", "_load_corpus")],
}

COUNT_UNITS = {
    "transform.blocks": "count",
    "entropy.symbols": "count",
    "entropy.alphabet": "count",
    "entropy.max_code_length": "bits",
    "entropy.decode_probes_per_symbol": "probes/symbol",
    "bitstream.payload_bits": "bits",
    "container.header_bytes": "bytes",
    "container.quant_bytes": "bytes",
    "container.codebook_bytes": "bytes",
    "container.payload_bytes": "bytes",
}


@dataclass
class Case:
    image: int  # index into Setup.images
    label: str
    cfg: object  # hjpeg.CodecConfig
    pixels: int


@dataclass
class Setup:
    hjpeg: object
    images: list
    cases: list
    corpus: Path
    containers: list  # warm-up container of each case
    decoded: list  # warm-up decode of each case


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, what: str):
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(what)


def pin_to_one_cpu() -> int | None:
    """Run every thread of this process on one CPU; returns that CPU.

    The bench pass runs in a pool worker thread; pinned, it shares the main
    thread's CPU instead of waking the other, idle one, so every op of a
    round meets the same CPU. The code is bound by the interpreter lock, so
    the second CPU would add no speed.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def single_malloc_arena():
    """Make every thread allocate from glibc's main arena.

    `hjpeg bench` allocates in a pool worker; with per-thread arenas, peak RSS
    then depends on which arena that worker lands in, not on the codec.
    A no-op where the C library is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(-8, 1)  # M_ARENA_MAX


def import_hjpeg():
    """Fresh import of hjpeg from this checkout's src/, never from elsewhere."""
    if not (SRC / "hjpeg" / "__init__.py").is_file():
        raise SystemExit(f"error: no hjpeg sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hjpeg" or n.startswith("hjpeg.")]:
        del sys.modules[name]
    hjpeg = importlib.import_module("hjpeg")
    importlib.import_module("hjpeg.cli")
    if Path(hjpeg.__file__).resolve().parent != SRC / "hjpeg":
        raise SystemExit(f"error: imported hjpeg from {hjpeg.__file__}, not {SRC}")
    return hjpeg


def set_up(name: str, seed: int, corpus: Path) -> tuple[Setup, float]:
    """Everything done before the first timed op; returns it and its seconds."""
    t0 = time.perf_counter()
    hjpeg = import_hjpeg()
    wl = workloads.make(name, seed)
    images = [hjpeg.Image(px) for _, px in wl.images]
    corpus.mkdir()
    for (iname, _), img in zip(wl.images, images):
        (corpus / f"{iname}.pgm").write_bytes(hjpeg.write_pgm(img))
    cases = [
        Case(i, f"{iname}/{label}",
             hjpeg.CodecConfig(entropy_mode=mode, group_size=g, dc_diff=dc),
             images[i].width * images[i].height)
        for i, (iname, _) in enumerate(wl.images)
        for label, mode, g, dc in wl.configs
    ]
    containers, decoded = [], []
    for case in cases:
        containers.append(hjpeg.codec.compress_bytes(images[case.image], case.cfg))
        decoded.append(hjpeg.codec.decompress_bytes(containers[-1]))
    st = Setup(hjpeg, images, cases, corpus, containers, decoded)
    return st, time.perf_counter() - t0


def levels_reconstruction(hjpeg, img) -> np.ndarray:
    """Decoded pixels rebuilt from the quantized levels alone, no entropy stage."""
    cfg = hjpeg.CodecConfig(entropy_mode="scalar")
    levels = hjpeg.codec.image_to_symbols(img, cfg).reshape(-1, 64)
    q, t = hjpeg.quantize, hjpeg.transform
    blocks = t.level_unshift(t.idct(q.dequantize(q.inverse_zigzag(levels), cfg.quant_table)))
    padded = hjpeg.pad_to_blocks(img)
    h, w = padded.height, padded.width
    full = blocks.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)
    return full[: img.height, : img.width]


def symbol_counts(hjpeg, img, cfg) -> dict:
    """Occurrences of each coded symbol, from image_to_symbols' return value."""
    seq = hjpeg.codec.image_to_symbols(img, cfg)
    g = cfg.group_size
    if g == 1:
        values, counts = np.unique(seq, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}
    seq = np.concatenate([seq, np.zeros((-seq.size) % g, dtype=seq.dtype)])
    rows, counts = np.unique(seq.reshape(-1, g), axis=0, return_counts=True)
    return {tuple(int(x) for x in r): int(c) for r, c in zip(rows, counts)}


def references(st: Setup, checks: Checks) -> dict:
    """Per-case fingerprints and exact counts from public return values."""
    hjpeg = st.hjpeg
    recon = [levels_reconstruction(hjpeg, img) for img in st.images]
    cases = []
    counts = dict.fromkeys(COUNT_UNITS, 0)
    probes = 0
    psnrs = []
    for case, data, decoded in zip(st.cases, st.containers, st.decoded):
        checks.attempted += 1  # the warm-up round trip, checked here
        img = st.images[case.image]
        file = hjpeg.container.deserialize(data)
        lengths = file.codebook.lengths
        if not np.array_equal(decoded.pixels, recon[case.image]):
            checks.fail(f"set-up: {case.label} decode differs from the levels reconstruction")
        rank = {n: i + 1 for i, n in enumerate(sorted(set(lengths.values())))}
        freq = symbol_counts(hjpeg, img, case.cfg)
        if sum(c * lengths[s] for s, c in freq.items()) != file.payload_bit_length:
            checks.fail(f"set-up: {case.label} code lengths disagree with the payload bits")
        probes += sum(c * rank[lengths[s]] for s, c in freq.items())
        codebook_bytes = len(hjpeg.entropy.serialize_codebook(file.codebook))
        quant_bytes = file.quant_table.size
        counts["transform.blocks"] += file.padded_width * file.padded_height // 64
        counts["entropy.symbols"] += file.symbol_count
        counts["entropy.alphabet"] += len(lengths)
        counts["entropy.max_code_length"] = max(counts["entropy.max_code_length"],
                                                max(lengths.values()))
        counts["bitstream.payload_bits"] += file.payload_bit_length
        counts["container.header_bytes"] += (len(data) - quant_bytes - codebook_bytes
                                             - len(file.payload))
        counts["container.quant_bytes"] += quant_bytes
        counts["container.codebook_bytes"] += codebook_bytes
        counts["container.payload_bytes"] += len(file.payload)
        psnr = hjpeg.metrics.psnr(img, decoded)
        psnrs.append(psnr)
        cases.append({"case": case.label, "bytes": len(data),
                      "sha256": hashlib.sha256(data).hexdigest(), "psnr_db": psnr})
    counts["entropy.decode_probes_per_symbol"] = probes / counts["entropy.symbols"]
    pixels = sum(c.pixels for c in st.cases)
    return {
        "recon": recon,
        "cases": cases,
        "counts": counts,
        "file_cr": pixels / sum(len(d) for d in st.containers),
        "psnr_db": statistics.fmean(psnrs),
    }


def proc_stat_cpu(cpu: int | None) -> list[int] | None:
    """Jiffies of one CPU (all CPUs if None) from /proc/stat, read only;
    None where that file is absent."""
    name = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] == name:
                    return [int(x) for x in fields[1:9]]
    except OSError:
        pass
    return None


def steal_pct(before, after) -> float:
    if before is None or after is None:
        return 0.0
    delta = [a - b for a, b in zip(after, before)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def layer_ms(before: dict, after: dict) -> dict:
    """Per-layer ms between two tracer snapshots."""
    def spent(key, kind):
        i = 0 if kind == "incl" else 1
        return after.get(key, (0.0, 0.0, 0))[i] - before.get(key, (0.0, 0.0, 0))[i]

    return {name: 1e3 * sum(spent(k, kind) for k, kind in spans)
            for name, spans in LAYER_MS.items()}


def calls(before: dict, after: dict, key: str) -> int:
    return after.get(key, (0.0, 0.0, 0))[2] - before.get(key, (0.0, 0.0, 0))[2]


class Loop:
    """The timed closed loop and everything it records."""

    def __init__(self, st: Setup, ref: dict, checks: Checks):
        self.st, self.ref, self.checks = st, ref, checks
        self.compress_s = [[] for _ in st.cases]
        self.decompress_s = [[] for _ in st.cases]
        self.bench_s = []
        self.walls = {True: [], False: []}  # round seconds, keyed by "traced"
        self.layers = []
        self.calibration_s = []
        self.csv_path = st.corpus.parent / "bench.csv"
        self.ref_csv = None
        self.rounds = 0

    def timed(self, what: str, fn):
        """One timed op: (result, CPU seconds), or None if it raised.

        The process's CPU time, not wall time: a KVM guest's kernel leaves
        out the time the hypervisor stole, which reached a fifth of some
        runs. All threads share one CPU and the code holds the interpreter
        lock, so on an unloaded host the two are equal.
        """
        self.checks.attempted += 1
        gc.collect()
        try:
            t0 = time.process_time()
            out = fn()
            return out, time.process_time() - t0
        except Exception as exc:  # counted, not fatal: the loop must go on
            self.checks.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def compress(self, i: int, case: Case):
        img = self.st.images[case.image]
        done = self.timed(f"compress {case.label}",
                          lambda: self.st.hjpeg.codec.compress_bytes(img, case.cfg))
        if done is None:
            return
        data, dt = done
        if data != self.st.containers[i]:
            self.checks.fail(f"compress {case.label}: container differs from warm-up")
        else:
            self.compress_s[i].append(dt)

    def decompress(self, i: int, case: Case, decoded: dict):
        data = self.st.containers[i]
        done = self.timed(f"decompress {case.label}",
                          lambda: self.st.hjpeg.codec.decompress_bytes(data))
        if done is None:
            return
        out, dt = done
        ok = True
        if not np.array_equal(out.pixels, self.ref["recon"][case.image]):
            ok = False
            self.checks.fail(f"decompress {case.label}: differs from the levels reconstruction")
        if not np.array_equal(out.pixels, decoded.setdefault(case.image, out.pixels)):
            ok = False
            self.checks.fail(f"decompress {case.label}: scalar/grouped parity violated")
        if ok:
            self.decompress_s[i].append(dt)

    def bench(self) -> int:
        """One in-process `hjpeg bench` pass; returns the CSV rows written."""
        argv = ["bench", "--corpus", str(self.st.corpus), "--out", str(self.csv_path)]

        def bench_pass():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.st.hjpeg.cli.main(argv)

        done = self.timed("bench", bench_pass)
        if done is None:
            return 0
        rc, dt = done
        if rc != 0:
            self.checks.fail(f"bench: exit code {rc}")
            return 0
        try:
            text = self.csv_path.read_text()
        except OSError as exc:
            self.checks.fail(f"bench: cannot read the CSV: {exc}")
            return 0
        rows = len(text.splitlines()) - 1
        expected = len(self.st.images) * 2 * 2  # (image, mode, dc_diff)
        self.ref_csv = self.ref_csv or text
        if rows != expected:
            self.checks.fail(f"bench: {rows} CSV rows, expected {expected}")
        elif text != self.ref_csv:
            self.checks.fail("bench: CSV differs from the first pass")
        else:
            self.bench_s.append(dt)
        return rows

    def run_round(self, tracer: tracing.Tracer | None) -> float:
        """Every case once, then one bench pass; returns the round's seconds."""
        if tracer:
            tracer.install()
            before = tracer.snapshot()
        r0 = time.perf_counter()
        decoded = {}
        for i, case in enumerate(self.st.cases):
            self.compress(i, case)
            self.decompress(i, case, decoded)
        mid = tracer.snapshot() if tracer else None
        rows = self.bench()
        wall = time.perf_counter() - r0
        self.walls[tracer is not None].append(wall)
        if tracer:
            after = tracer.snapshot()
            tracer.uninstall()
            values = layer_ms(before, after)
            passes = calls(mid, after, "codec.image_to_symbols")
            values["codec.symbol_passes_per_row"] = passes / rows if rows else 0.0
            self.layers.append(values)
        return wall

    def run(self, seconds: float, tracer: tracing.Tracer | None, cpu: int | None):
        """Rounds until --seconds is spent, at least MIN_ROUNDS.

        With a tracer, even rounds are traced and odd ones are not, so the
        tracing overhead is measured under the same drift.
        """
        stat0 = proc_stat_cpu(cpu)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and self.rounds % 2 == 0
            wall = self.run_round(tracer if traced else None)
            self.calibration_s.append(calibration.kernel_seconds())
            self.rounds += 1
            elapsed = time.perf_counter() - start
            # Stop where the run's end lands nearest to --seconds.
            if self.rounds >= MIN_ROUNDS and elapsed + wall / 2 > seconds:
                break
        self.elapsed_s = time.perf_counter() - start
        self.steal_pct = steal_pct(stat0, proc_stat_cpu(cpu))


def upper_quartile(xs) -> float:
    """Upper quartile of one case's samples (inf if it has none).

    The host alternates, for seconds at a time, between its usual speed and
    one nearly twice as fast, in shares that change from run to run. The
    upper quartile reads the usual speed unless three quarters of a run was
    fast; a median flips at half, and a mean moves with the share.
    """
    if len(xs) < 2:
        return xs[0] if xs else float("inf")
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def end_to_end(loop: Loop, setup_s: list[float]) -> dict:
    st = loop.st
    pixels = sum(c.pixels for c in st.cases)
    values = {
        "setup_s": statistics.median(setup_s),
        "compress_mpix_s": pixels / 1e6 / sum(upper_quartile(s) for s in loop.compress_s),
        "decompress_mpix_s": pixels / 1e6 / sum(upper_quartile(s) for s in loop.decompress_s),
        "bench_img_per_s": len(st.images) / upper_quartile(loop.bench_s),
        "file_cr": loop.ref["file_cr"],
        "psnr_db": loop.ref["psnr_db"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(loop: Loop) -> dict:
    out = {name: {"value": statistics.median(r[name] for r in loop.layers), "unit": "ms/round"}
           for name in LAYER_MS}
    out["codec.symbol_passes_per_row"] = {
        "value": statistics.median(r["codec.symbol_passes_per_row"] for r in loop.layers),
        "unit": "passes/row"}
    for name, unit in COUNT_UNITS.items():
        out[name] = {"value": loop.ref["counts"][name], "unit": unit}
    traced, untraced = loop.walls[True], loop.walls[False]
    overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    out.update({
        "ops.attempted": {"value": loop.checks.attempted, "unit": "count"},
        "ops.failed": {"value": loop.checks.failed, "unit": "count"},
        "host.calibration_ms": {"value": 1e3 * statistics.median(loop.calibration_s),
                                "unit": "ms"},
        "host.steal_pct": {"value": loop.steal_pct, "unit": "%"},
        "trace.overhead_pct": {"value": overhead, "unit": "%"},
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    cpu = pin_to_one_cpu()
    single_malloc_arena()

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        checks = Checks()
        setup_s = []
        for k in range(1 if trace else SETUPS):
            st, dt = set_up(args.workload, args.seed, work / f"corpus{k}")
            setup_s.append(dt)
        loop = Loop(st, references(st, checks), checks)
        gc.collect()
        gc.freeze()
        loop.run(args.seconds, tracing.Tracer() if trace else None, cpu)
        metrics = per_layer(loop) if trace else end_to_end(loop, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": loop.rounds, "elapsed_s": loop.elapsed_s,
        "setup_s": setup_s, "cases": loop.ref["cases"], "counts": loop.ref["counts"],
        "bench_csv_sha256": hashlib.sha256((loop.ref_csv or "").encode()).hexdigest(),
        "compress_ms": [[1e3 * t for t in s] for s in loop.compress_s],
        "decompress_ms": [[1e3 * t for t in s] for s in loop.decompress_s],
        "bench_ms": [1e3 * t for t in loop.bench_s],
        "round_ms": {"traced" if k else "untraced": [1e3 * t for t in v]
                     for k, v in loop.walls.items()},
        "calibration_ms": [1e3 * t for t in loop.calibration_s],
        "steal_pct": loop.steal_pct, "failures": checks.notes, "result": result,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"detail: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
