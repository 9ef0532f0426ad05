"""memaudit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-mri --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/`` and every memaudit subcommand runs as
its own child process (``python -m memaudit.cli``), one after another: a
closed loop of one client. Peak RSS and CPU time of each child come from
``os.wait4`` in spawn.py, the small helper that starts the children.
OpenBLAS keeps its default thread count and ``--workers`` its
default of 1; both are printed with the rest of the environment.

``--trace 0`` measures the end-to-end metrics: for ``--seconds`` seconds it
runs the workload's subcommands over and over, with three timed set-ups
(GEMM calibration included) between the first iterations, and reports
medians. ``--trace 1`` sets up once, then alternates an untraced and a
traced iteration (see tracing.py) and reports per-layer metrics; their
spans are written to ``.perfbench-out/``.

Every run checks the outputs (exit codes, byte-identical outputs across
iterations and set-ups, planted copies flagged with their sources, top-1
matches against the brute-force oracle). The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count those checks. Exit code 0 means the run completed; 2 means a
usage problem or no program to measure; 3 means too little free memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_ITERATIONS = 3
CALIBRATION_SHAPE = (128, 8192, 2048)  # same arithmetic intensity as 128x65536x2048
CALIBRATION_REPS = 9
FLOOR_CHUNK_BYTES = 128 << 20
# The calibration shape's dgemm rate on the 2-core machine this benchmark was
# written on. Gated times are rescaled to it: see measure().
REFERENCE_DGEMM_GMAC_S = 45.0


@dataclass(frozen=True)
class Child:
    """One finished child process."""

    wall: float
    cpu: float
    maxrss_mib: float
    code: int


class Checks:
    """Output checks of one run; failures go to stderr as they happen."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"check failed: {name}: {detail}", file=sys.stderr)


class Spawner:
    """Runs child processes through spawn.py, a helper started while this
    process is still small, so each child's peak RSS is its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], env: dict, log: Path) -> Child:
        request = {"cmd": cmd, "env": env, "cwd": str(ROOT), "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return Child(**json.loads(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Runner:
    """Runs memaudit subcommands as child processes, untraced or traced."""

    def __init__(self, spawner: Spawner, env: dict, log: Path, checks: Checks,
                 run_id: str, traced: bool):
        self.spawner, self.env, self.log, self.checks = spawner, env, log, checks
        self.run_id, self.traced = run_id, traced
        self.results: dict[str, Child] = {}
        self.argv: dict[str, list[str]] = {}
        self.spans: list[dict] = []

    def __call__(self, step: str, argv: list[str], expect: int) -> Child:
        run_id = f"{self.run_id}:{step}"
        spans_path = self.log.with_name(f"{run_id.replace(':', '-')}.spans.json")
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path), run_id, "--"]
        else:
            cmd = [sys.executable, "-m", "memaudit.cli"]
        child = self.spawner.run(cmd + argv, self.env, self.log)
        self.checks.add(f"exit:{step}", child.code == expect, f"exit {child.code}, expected {expect}")
        if self.traced and spans_path.exists():
            self.spans.extend(json.loads(spans_path.read_text("utf-8")))
        self.results[step] = child
        self.argv[step] = argv
        return child


# ---------------------------------------------------------------------------
# Environment, calibration, memory guard
# ---------------------------------------------------------------------------


def llc_bytes() -> int:
    """Size of the largest cache level of cpu0, read from /sys (0 if unknown)."""
    best_level, size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        if level > best_level:
            best_level, size = level, int(text.rstrip("KMG")) * scale
    return size


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (default)"),
        "nproc": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "memaudit_workers": 1,
    }


class Calibration:
    """dgemm and sgemm timings of one shape, taken in this process
    throughout a run; rates are medians over every timing so far."""

    def __init__(self):
        import numpy as np

        m, k, n = CALIBRATION_SHAPE
        rng = np.random.default_rng(0)
        self.operands = {
            label: (rng.random((m, k), dtype=dtype), rng.random((k, n), dtype=dtype))
            for label, dtype in (("dgemm", np.float64), ("sgemm", np.float32))
        }
        self.times: dict[str, list[float]] = {label: [] for label in self.operands}

    def run(self, reps: int = CALIBRATION_REPS) -> None:
        for label, (a, b) in self.operands.items():
            a @ b  # warm-up: wakes the BLAS threads
            for _ in range(reps):
                start = time.perf_counter()
                a @ b
                self.times[label].append(time.perf_counter() - start)

    def rates(self) -> dict[str, float]:
        m, k, n = CALIBRATION_SHAPE
        return {
            f"{label}_gmac_s": m * k * n / statistics.median(times) / 1e9
            for label, times in self.times.items()
        }


def gemm_floor():
    """Seconds numpy's dgemm takes for a (n_query x n) . (n x n_reference)
    product, in reference chunks of at most FLOOR_CHUNK_BYTES; each shape
    is timed once per run."""
    import numpy as np

    cache = {}

    def floor(n_query: int, n_reference: int, n: int) -> float:
        key = (n_query, n_reference, n)
        if key not in cache:
            rows = max(1, min(n_reference, FLOOR_CHUNK_BYTES // (8 * (n + n_query))))
            rng = np.random.default_rng(0)
            a = rng.random((n_query, n))
            b = rng.random((rows, n))
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                for r0 in range(0, n_reference, rows):
                    a @ b[: min(rows, n_reference - r0)].T
                runs.append(time.perf_counter() - start)
            cache[key] = statistics.median(runs)
        return cache[key]

    return floor


def mem_available_mib() -> float:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024.0
    return float("inf")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def digests(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 22), b""):
                h.update(block)
        out[Path(path).name] = h.hexdigest()
    return out


def compare_outputs(checks: Checks, label: str, reference: dict, got: dict) -> None:
    for name, digest in reference.items():
        checks.add(f"identical:{label}:{name}", got.get(name) == digest, "bytes differ")


def api(tracer=None) -> SimpleNamespace:
    """The memaudit functions a set-up calls, wrapped by ``tracer`` if given."""
    from memaudit.harness import generate_train_set, plant, save_ground_truth
    from memaudit.ingest import write_embeddings, write_ivc, write_manifest

    funcs = [generate_train_set, plant, save_ground_truth, write_embeddings, write_ivc,
             write_manifest]
    return SimpleNamespace(**{
        f.__name__: tracer.wrap(f) if tracer is not None else f for f in funcs
    })


def audit_macs(report_path: Path) -> int:
    """Multiply-adds of the audit's three comparisons (synth x train,
    test x train, synth x test), from the sizes recorded in its report."""
    from memaudit.correlate import plan_audit

    report = json.loads(report_path.read_text("utf-8"))
    plan = report["plan"]
    n_test = next(s["n"] for s in report["summaries"] if s["label"] == "test-vs-train")
    pairs = [
        (plan["n_query"], plan["n_reference"]),
        (n_test, plan["n_reference"]),
        (plan["n_query"], n_test),
    ]
    return sum(
        plan_audit(q, r, plan["vector_length"]).estimated_multiply_adds for q, r in pairs
    )


def working_set_line(argv: list[str], llc: int) -> str:
    """Computed bytes of the audited training files against the LLC size."""
    from memaudit.ingest import load_manifest

    train = load_manifest(argv[argv.index("--train") + 1])
    size = sum(os.path.getsize(f) for _, f in train.entries)
    ratio = f"{size / llc:.2f}x LLC" if llc else "LLC size unknown"
    return f"working set (computed from file sizes): train {size / 2**20:.1f} MiB = {ratio}"


def median_metric(samples: list[float], unit: str) -> dict:
    return {"value": float(statistics.median(samples)), "unit": unit, "n": len(samples)}


def measure(wl, seed: int, seconds: float, work: Path, runner, checks: Checks, info: list):
    """End-to-end metrics over ``seconds``: SETUP_REPS set-ups interleaved
    with the first iterations, then more iterations until time is up.

    Interleaving spreads the samples of both kinds over the whole run, so
    their medians average over more of the machine's slow and fast spells
    (identical audits here drift by about 15% over 10-20 s).

    The machine's speed also moves between runs, by up to 30% for every
    program alike, and the calibration moves with it. So the times that
    gate a change are normalized: a median wall time times the run's
    calibrated dgemm rate over REFERENCE_DGEMM_GMAC_S, i.e. the seconds the
    same run would take on the reference machine. The raw medians are
    printed beside them.
    """
    setup_s, walls, audits = [], [], []
    calibration = Calibration()
    inputs = setup_digests = it_digests = first_run = None
    start = time.perf_counter()
    i = 0
    while (
        i < max(SETUP_REPS, MIN_ITERATIONS) or time.perf_counter() - start < seconds
    ):
        if i < SETUP_REPS:
            out = work / f"setup{i}"
            t0 = time.perf_counter()
            calibration.run()
            rep_inputs = wl.setup(out, seed, api())
            setup_s.append(time.perf_counter() - t0)
            files = digests(sorted(p for p in out.iterdir() if p.is_file()))
            if i == 0:
                inputs, setup_digests = rep_inputs, files
            else:
                compare_outputs(checks, f"setup{i}", setup_digests, files)
                shutil.rmtree(out)
        else:
            calibration.run(reps=1)  # keeps sampling the GEMM rate all run long
        it = work / f"it{i}"
        run = runner(f"it{i}", traced=False)
        outputs = digests(wl.iterate(run, inputs, it))
        walls.append(sum(c.wall for c in run.results.values()))
        audits.append(run.results["audit"])
        if i == 0:
            it_digests, first_run = outputs, run
        else:
            compare_outputs(checks, f"it{i}", it_digests, outputs)
            shutil.rmtree(it)
        i += 1

    flagged = wl.check(checks, inputs, work / "it0")
    macs = audit_macs(work / "it0" / "report.json")
    calib = calibration.rates()
    dgemm = calib["dgemm_gmac_s"]
    audit_s = median_metric([c.wall for c in audits], "s")
    workflow_s = median_metric(walls, "s")
    gmac_s = macs / audit_s["value"] / 1e9
    speed = dgemm / REFERENCE_DGEMM_GMAC_S
    info.append(working_set_line(first_run.argv["audit"], llc_bytes()))
    info.append(
        f"calibration: dgemm {dgemm:.2f} GMAC/s, sgemm {calib['sgemm_gmac_s']:.2f} GMAC/s; "
        f"audit {macs:,} MAC; flagged per planted kind {flagged}"
    )
    info.append(
        f"raw medians (not normalized): audit_s {audit_s['value']:.4f} s, audit_gmac_s "
        f"{gmac_s:.4f} GMAC/s, workflow_s {workflow_s['value']:.4f} s, "
        f"median of {audit_s['n']}"
    )
    return {
        "setup_s": median_metric(setup_s, "s"),
        "audit_norm_s": {**audit_s, "value": audit_s["value"] * speed},
        "audit_dgemm_frac": {"value": gmac_s / dgemm, "unit": "ratio", "n": audit_s["n"]},
        "workflow_norm_s": {**workflow_s, "value": workflow_s["value"] * speed},
        "audit_peak_rss_mib": median_metric([c.maxrss_mib for c in audits], "MiB"),
    }


def trace(wl, seed: int, seconds: float, work: Path, runner, checks: Checks, info: list):
    """Per-layer metrics: one traced set-up, then untraced/traced pairs."""
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    setup_tracer = Tracer("setup")
    calibration = Calibration()
    calibration.run()
    inputs = wl.setup(work / "setup0", seed, api(setup_tracer))
    floor = gemm_floor()
    per_iteration, spans = [], list(setup_tracer.spans)
    flagged = None
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        plain = runner(f"it{i}", traced=False)
        reference = digests(wl.iterate(plain, inputs, work / f"it{i}"))
        traced = runner(f"trace{i}", traced=True)
        compare_outputs(checks, f"trace{i}", reference, digests(wl.iterate(traced, inputs, work / f"trace{i}")))
        if flagged is None:
            flagged = wl.check(checks, inputs, work / f"it{i}")
        per_iteration.append(layer_metrics(setup_tracer.spans + traced.spans, {
            "audit_run": f"trace{i}:audit",
            "untraced": plain.results,
            "traced": traced.results,
            "gemm_floor_s": floor,
            "flagged": flagged,
            "calib": calibration.rates(),
        }))
        spans.extend(traced.spans)
        if i:
            shutil.rmtree(work / f"it{i}")
        shutil.rmtree(work / f"trace{i}")
        i += 1

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"{wl.name}-seed{seed}-spans.json"
    spans_file.write_text(json.dumps({"spans": spans, "metrics": per_iteration}), encoding="utf-8")
    info.append(f"spans: {spans_file.relative_to(ROOT)} ({len(spans)} spans)")
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        metrics[key] = median_metric([m[key] for m in per_iteration], unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "memaudit" / "__init__.py").is_file():
        print(f"perfbench: no memaudit package under {src}; run inside a checkout",
              file=sys.stderr)
        return 2
    spawner = Spawner()  # started while this process is still small: see spawn.py
    try:
        sys.path.insert(0, str(src))
        from workloads import WORKLOADS

        wl = WORKLOADS.get(args.workload)
        if wl is None:
            print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        available = mem_available_mib()
        if available < wl.need_mib:
            print(f"perfbench: {wl.name} needs about {wl.need_mib} MiB but MemAvailable is "
                  f"{available:.0f} MiB; not running it (the workload is never shrunk)",
                  file=sys.stderr)
            return 3

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env.pop("MEMAUDIT_WORKERS", None)
        work = ROOT / ".perfbench-work" / f"{wl.name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        checks, info = Checks(), [f"env {json.dumps(environment())}"]

        def runner(run_id: str, traced: bool) -> Runner:
            return Runner(spawner, env, work / "children.log", checks, run_id, traced)

        try:
            step = trace if args.trace else measure
            metrics = step(wl, args.seed, args.seconds, work, runner, checks, info)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        spawner.close()

    for line in info:
        print(line)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:8s} median of {m['n']}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
