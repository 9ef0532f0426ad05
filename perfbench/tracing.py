"""Outside-in span tracing of memaudit's public functions.

Run as a script, this is a traced stand-in for ``python -m memaudit.cli``:

    python3 perfbench/tracing.py SPANS.json RUN_ID -- audit --train ...

It wraps every public memaudit function that ``memaudit.cli`` calls (found
in the cli module's namespace, so the traced call order is the CLI's own),
runs ``memaudit.cli.run`` on the given arguments, writes the spans to
SPANS.json and exits with the CLI's exit code. Nothing inside the program
is changed: spans sit only at the boundary between the CLI and the layers.

Each span records name, layer (the memaudit module that defines the
function), start and end (``time.perf_counter``, CLOCK_MONOTONIC on Linux,
so spans of different processes share one time base), the enclosing span,
the run id, and a few counts measured at the boundary. ``layer_metrics``
turns the spans of one traced workload iteration into per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LOAD_FUNCS = ("load_dataset", "load_embedding_set", "load_records", "read_embeddings")
ENGINE_FUNCS = ("max_correlations", "max_correlations_embeddings")
WRITE_FUNCS = ("write_ivc", "write_embeddings", "write_manifest")
EXPORT_FUNCS = ("export_report", "save_matches")
LAYERS = ("ingest", "correlate", "report", "harness", "preprocess", "metrics", "cli")

# Every per-layer metric ``layer_metrics`` returns, with its unit, in the
# order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "ingest.load_s": "s", "ingest.bytes": "bytes", "ingest.mb_s": "MB/s",
    "ingest.records": "count", "ingest.write_s": "s", "ingest.self_s": "s",
    "correlate.pre_tile_s": "s", "correlate.engine_s": "s",
    "correlate.synth_train_s": "s", "correlate.test_train_s": "s",
    "correlate.synth_test_s": "s", "correlate.tiles": "count",
    "correlate.tile_q": "count", "correlate.tile_r": "count",
    "correlate.macs": "count", "correlate.gmac_s": "GMAC/s",
    "correlate.gemm_floor_s": "s", "correlate.overhead_s": "s",
    "correlate.train_passes": "count", "correlate.self_s": "s",
    "report.build_s": "s", "report.export_s": "s", "report.bytes": "bytes",
    "report.fresh_flagged": "count", "report.noisy_flagged": "count",
    "report.shift_flagged": "count", "report.self_s": "s",
    "harness.generate_s": "s", "harness.plant_s": "s", "harness.self_s": "s",
    "preprocess.slice_s": "s", "preprocess.pad_s": "s", "preprocess.rescale_s": "s",
    "preprocess.remap_s": "s", "preprocess.kept_frac": "ratio", "preprocess.self_s": "s",
    "metrics.ssim_s": "s", "metrics.mi_s": "s", "metrics.pairs": "count",
    "metrics.self_s": "s",
    "cli.overhead_s": "s", "cli.audit_s": "s", "cli.preprocess_s": "s", "cli.plant_s": "s",
    "cli.metrics_s": "s", "cli.self_s": "s",
    "proc.cpu_s": "s", "proc.cpu_per_wall": "ratio", "proc.rss_after_load_mib": "MiB",
    "proc.rss_after_engine_mib": "MiB", "trace.overhead_s": "s",
    "calib.dgemm_gmac_s": "GMAC/s", "calib.sgemm_gmac_s": "GMAC/s",
}


def rss_mib() -> float:
    """Current resident set size of this process in MiB (Linux)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._roles: dict[int, str] = {}  # id(loaded object) -> manifest role
        self._pid = os.getpid()

    @contextmanager
    def span(self, layer: str, name: str, **attrs):
        rec = {
            "id": f"{self._pid}.{len(self.spans)}",
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn):
        """``fn`` with a span around every call, plus boundary counts; the
        layer is the memaudit module that defines ``fn``."""
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            attrs = self._before(name, sig, args, kwargs)
            with self.span(layer, name, **attrs) as rec:
                if name in ENGINE_FUNCS:
                    kwargs["progress"] = self._progress_hook(rec, kwargs.get("progress"))
                result = fn(*args, **kwargs)
                self._after(name, rec, sig, args, kwargs, result)
            return result

        traced.__name__ = name
        traced.__wrapped__ = fn
        return traced

    def _before(self, name, sig, args, kwargs) -> dict:
        if name in LOAD_FUNCS:
            from memaudit.ingest import load_manifest

            source = next(iter(sig.bind(*args, **kwargs).arguments.values()))
            if str(source).endswith(".emb"):
                return {"bytes": os.path.getsize(source), "role": None}
            manifest = source if hasattr(source, "entries") else load_manifest(source)
            return {
                "bytes": sum(os.path.getsize(f) for _, f in manifest.entries),
                "role": manifest.role,
            }
        if name in ENGINE_FUNCS:
            query, reference = args[0], args[1]
            return {
                "n_query": len(query),
                "n_reference": len(reference),
                "query_role": self._roles.get(id(query)),
                "reference_role": self._roles.get(id(reference)),
                "tiles": 0,
                "pairs": 0,
                "first_tile": None,
            }
        if name == "slice_volume":
            return {"slices_in": args[0].depth}
        return {}

    def _after(self, name, rec, sig, args, kwargs, result) -> None:
        attrs = rec["attrs"]
        if name in LOAD_FUNCS:
            records = result[1] if isinstance(result, tuple) else result
            attrs["records"] = len(records)
            attrs["rss_mib"] = rss_mib()
            if attrs["role"] is not None:
                self._roles[id(result)] = attrs["role"]
        elif name in ENGINE_FUNCS:
            attrs["rss_mib"] = rss_mib()
        elif name == "plan_audit":
            attrs.update(
                block_query=result.block_query,
                block_reference=result.block_reference,
                vector_length=result.vector_length,
            )
        elif name == "slice_volume":
            attrs["kept"] = len(result)
        elif name in WRITE_FUNCS + EXPORT_FUNCS or name == "save_ground_truth":
            path = sig.bind(*args, **kwargs).arguments.get("path")
            if path is not None and os.path.exists(path):
                attrs["bytes"] = os.path.getsize(path)

    @staticmethod
    def _progress_hook(rec, forward):
        attrs = rec["attrs"]

        def hook(done: int, total: int) -> None:
            if attrs["first_tile"] is None:
                attrs["first_tile"] = time.perf_counter()
            attrs["tiles"] += 1
            attrs["pairs"] = total
            if forward is not None:
                forward(done, total)

        return hook


def install(module, tracer: Tracer) -> None:
    """Replace each public memaudit function in ``module``'s namespace,
    other than the module's own, by a traced wrapper."""
    for name, obj in list(vars(module).items()):
        if (
            inspect.isfunction(obj)
            and not name.startswith("_")
            and obj.__module__.startswith("memaudit.")
            and obj.__module__ != module.__name__
        ):
            setattr(module, name, tracer.wrap(obj))


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span time minus the time its direct child spans cover."""
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + _dur(s) - child_time.get(s["id"], 0.0)
    return out


def _engine_call_name(span: dict) -> str:
    roles = (span["attrs"].get("query_role"), span["attrs"].get("reference_role"))
    short = {"synthetic": "synth", "train": "train", "test": "test"}
    return "_".join(short.get(r, "unknown") for r in roles)


def layer_metrics(spans: list[dict], ctx: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``spans`` holds the set-up spans and every traced subcommand's spans.
    ``ctx`` carries what the spans cannot: ``audit_run`` (run id of the
    traced audit child), ``untraced`` and ``traced`` (step -> child
    measurement), ``gemm_floor_s`` (function of (n_query, n_reference,
    vector_length)), ``flagged`` (kind -> flagged count) and ``calib``.
    """

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(_dur(s) for s in named(*names))

    loads = named(*LOAD_FUNCS)
    load_s = total(*LOAD_FUNCS)
    load_bytes = sum(s["attrs"]["bytes"] for s in loads)
    engines = named(*ENGINE_FUNCS)
    plans = [s for s in named("plan_audit") if s["run"] == ctx["audit_run"]]
    vector_length = plans[0]["attrs"]["vector_length"] if plans else 0
    engine_s = sum(_dur(s) for s in engines)
    pre_tile_s = sum(
        (s["attrs"]["first_tile"] or s["end"]) - s["start"] for s in engines
    )
    macs = sum(s["attrs"]["pairs"] for s in engines) * vector_length
    floor_s = sum(
        ctx["gemm_floor_s"](s["attrs"]["n_query"], s["attrs"]["n_reference"], vector_length)
        for s in engines
    )
    per_call = {}
    for s in engines:
        key = f"correlate.{_engine_call_name(s)}_s"
        per_call[key] = per_call.get(key, 0.0) + _dur(s)
    slices = named("slice_volume")
    slices_in = sum(s["attrs"]["slices_in"] for s in slices)
    selfs = self_times(spans)

    audit_spans = [s for s in spans if s["run"] == ctx["audit_run"]]
    roots = {s["id"] for s in audit_spans if s["parent"] is None}
    audit_top = [s for s in audit_spans if s["parent"] in roots]
    audit_loads = [s for s in audit_spans if s["name"] in LOAD_FUNCS]
    audit_engines = [s for s in audit_spans if s["name"] in ENGINE_FUNCS]
    untraced, traced = ctx["untraced"], ctx["traced"]
    audit = untraced["audit"]

    def step_wall(step):
        return untraced[step].wall if step in untraced else 0.0

    metrics = {
        "ingest.load_s": load_s,
        "ingest.bytes": load_bytes,
        "ingest.mb_s": load_bytes / load_s / 1e6 if load_s else 0.0,
        "ingest.records": sum(s["attrs"]["records"] for s in loads),
        "ingest.write_s": total(*WRITE_FUNCS),
        "correlate.pre_tile_s": pre_tile_s,
        "correlate.engine_s": engine_s,
        "correlate.synth_train_s": per_call.get("correlate.synth_train_s", 0.0),
        "correlate.test_train_s": per_call.get("correlate.test_train_s", 0.0),
        "correlate.synth_test_s": per_call.get("correlate.synth_test_s", 0.0),
        "correlate.tiles": sum(s["attrs"]["tiles"] for s in engines),
        "correlate.tile_q": plans[0]["attrs"]["block_query"] if plans else 0,
        "correlate.tile_r": plans[0]["attrs"]["block_reference"] if plans else 0,
        "correlate.macs": macs,
        "correlate.gmac_s": macs / engine_s / 1e9 if engine_s else 0.0,
        "correlate.gemm_floor_s": floor_s,
        "correlate.overhead_s": engine_s - pre_tile_s - floor_s,
        "correlate.train_passes": sum(
            1 for s in engines if s["attrs"]["reference_role"] == "train"
        ),
        "report.build_s": total("build_audit_report"),
        "report.export_s": total(*EXPORT_FUNCS),
        "report.bytes": sum(s["attrs"].get("bytes", 0) for s in named(*EXPORT_FUNCS)),
        "report.fresh_flagged": ctx["flagged"].get("fresh", 0),
        "report.noisy_flagged": ctx["flagged"].get("noisy", 0),
        "report.shift_flagged": ctx["flagged"].get("shift", 0),
        "harness.generate_s": total("generate_train_set"),
        "harness.plant_s": total("plant"),
        "preprocess.slice_s": total("slice_volume"),
        "preprocess.pad_s": total("zero_pad"),
        "preprocess.rescale_s": total("rescale_intensity"),
        "preprocess.remap_s": total("remap_labels"),
        "preprocess.kept_frac": (
            sum(s["attrs"]["kept"] for s in slices) / slices_in if slices_in else 0.0
        ),
        "metrics.ssim_s": total("ssim"),
        "metrics.mi_s": total("mutual_information"),
        "metrics.pairs": len(named("ssim")),
        "cli.overhead_s": audit.wall - sum(_dur(s) for s in audit_top),
        "cli.audit_s": audit.wall,
        "cli.preprocess_s": step_wall("preprocess-train") + step_wall("preprocess-test"),
        "cli.plant_s": step_wall("plant"),
        "cli.metrics_s": step_wall("metrics"),
        "proc.cpu_s": audit.cpu,
        "proc.cpu_per_wall": audit.cpu / audit.wall,
        "proc.rss_after_load_mib": max((s["attrs"]["rss_mib"] for s in audit_loads), default=0.0),
        "proc.rss_after_engine_mib": max((s["attrs"]["rss_mib"] for s in audit_engines), default=0.0),
        "trace.overhead_s": traced["audit"].wall - audit.wall,
        "calib.dgemm_gmac_s": ctx["calib"]["dgemm_gmac_s"],
        "calib.sgemm_gmac_s": ctx["calib"]["sgemm_gmac_s"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS.json RUN_ID -- <memaudit arguments>", file=sys.stderr)
        return 2
    spans_out, run_id, cli_argv = Path(argv[0]), argv[1], argv[3:]
    import memaudit.cli as cli

    tracer = Tracer(run_id)
    install(cli, tracer)
    with tracer.span("cli", f"run:{cli_argv[0] if cli_argv else ''}"):
        code = cli.run(cli_argv)
    spans_out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
