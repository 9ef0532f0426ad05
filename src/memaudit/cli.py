"""memaudit command line: preprocess, audit, metrics, plant, report.

Exit codes are part of the interface so CI pipelines can gate on them:
0 success, 1 audit completed and flagged memorization, 2 usage error,
3 I/O / format / data error. A command reserves its outputs before its
work, and they commit together or not at all (ingest.OutputSet); an
output at one of its inputs is a usage error (_check_inputs); two runs
with identical inputs and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

# OpenBLAS's idle threads spin for up to 2**28 cycles (about 0.1 s) after
# each product, on the CPUs where the audit's read pool runs next; 2**4
# makes them sleep at once. It takes effect only when set before numpy
# loads OpenBLAS, so here, above the imports that load numpy (the package
# itself loads none); a value the caller set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from ._rng import SplitMix64
from .core import VolumeRecord, pool_map, resolve_channel_mask
from .correlate import DEFAULT_BLOCK_BUDGET_MIB, DEFAULT_K, max_correlations, plan_audit
from .errors import InvalidArgumentError, ManifestError, MemauditError
from .harness import PlantConfig, plant, save_ground_truth
from .ingest import (
    OutputSet,
    atomic_write,
    load_dataset,
    load_manifest,
    load_records,
    open_dataset,
    open_embedding_set,
    read_embeddings,
    write_ivc,
    write_manifest,
)
from .metrics import (
    DEFAULT_IS_SPLITS,
    DEFAULT_MI_BINS,
    SsimParams,
    fid,
    gaussian_stats,
    inception_score,
    mutual_information,
    ssim,
)
from .preprocess import (
    SliceFilterRule,
    remap_labels,
    rescale_intensity,
    resize_bilinear,
    slice_volume,
    zero_pad,
)
from .report import (
    DEFAULT_HISTOGRAM_BINS,
    DEFAULT_RULE,
    build_audit_report,
    export_report,
    format_report,
    load_matches,
    parse_rule,
    save_matches,
)

log = logging.getLogger("memaudit")

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    """Bad flag combination detected before any heavy work."""


class ProgressPrinter:
    """Periodic status lines: comparisons done/total, rate in multiply-adds
    per second (vector_length per comparison), ETA."""

    def __init__(self, label: str, interval: float, vector_length: int, stream=None):
        self.label = label
        self.interval = interval
        self.vector_length = vector_length
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()
        self._last = float("-inf")
        self._finished = False

    def __call__(self, done: int, total: int) -> None:
        now = time.monotonic()
        finished = done >= total
        if not finished and now - self._last < self.interval:
            return
        if finished and self._finished:
            return
        self._last = now
        self._finished = finished
        elapsed = max(now - self._start, 1e-9)
        pct = 100.0 * done / total if total else 100.0
        rate = done / elapsed
        gmac_s = rate * self.vector_length / 1e9
        if finished:
            line = (
                f"[{self.label}] {done:,}/{total:,} (100.0%) "
                f"done in {elapsed:.1f}s ({gmac_s:.2f} GMAC/s)"
            )
        else:
            remaining = (total - done) / rate if rate > 0 else 0.0
            line = (
                f"[{self.label}] {done:,}/{total:,} ({pct:.1f}%) "
                f"{gmac_s:.2f} GMAC/s ETA {remaining:.0f}s"
            )
        print(line, file=self.stream, flush=True)


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_channels(text: Optional[str], flag: str = "--channels"):
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(",") if c.strip() != "")
    except ValueError:
        raise UsageError(f"{flag} expects integers like '0,1,2', got {text!r}")


def _channel_mask(flag: str, channels, count: int) -> tuple[int, ...]:
    """resolve_channel_mask(channels, count), a usage error naming flag
    if it is out of range."""
    try:
        return resolve_channel_mask(channels, count)
    except InvalidArgumentError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _number(kind, ok, wanted: str):
    """An argparse type: a finite number of kind (int or float) for which
    ok(value) holds; wanted describes such a value in the error."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _positive(kind):
    return _number(kind, lambda v: v > 0, "a positive number")


def _non_negative(kind):
    return _number(kind, lambda v: v >= 0, "a non-negative number")


_fraction = _number(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _rule(text: str) -> str:
    """An argparse type: a threshold rule that parse_rule accepts."""
    try:
        parse_rule(text)
    except InvalidArgumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _parse_remap(text: str) -> dict[float, float]:
    mapping = {}
    for piece in text.split(","):
        key, sep, value = piece.partition("=")
        if not sep:
            raise UsageError(f"--remap expects 'old=new' pairs, got {piece!r}")
        try:
            mapping[float(key)] = float(value)
        except ValueError:
            raise UsageError(f"--remap has a non-numeric pair {piece!r}")
    return mapping


def _check_inputs(outputs: OutputSet, flag: str, *files) -> None:
    """A usage error if one of outputs is at one of files, the inputs read
    for flag, or at an EMB1 file's `.ids` sidecar: a command never writes
    over its own input."""
    sidecars = [Path(f).with_suffix(".ids") for f in files if Path(f).suffix.lower() == ".emb"]
    for file in (*files, *sidecars):
        reserved = outputs.reserved(file)
        if reserved is not None:
            raise UsageError(f"{reserved[0]} {reserved[1]} names {file}, an input of {flag}")


def _manifest(outputs: OutputSet, flag: str, path):
    """load_manifest(path), after _check_inputs of the manifest and every
    file it lists."""
    manifest = load_manifest(path)
    _check_inputs(outputs, flag, path, *(file for _, file in manifest.entries))
    return manifest


def _write_set(images, container, manifest_path, name: str, role: str) -> None:
    """Write images to an IVC1 container and a manifest naming it."""
    write_ivc(images, container)
    write_manifest(manifest_path, name, role, [os.path.relpath(container, Path(manifest_path).parent)])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_preprocess(args) -> int:
    rule = SliceFilterRule(
        min_fraction=args.min_fraction,
        intensity_threshold=args.threshold,
        channel=args.filter_channel,
    )
    remap = _parse_remap(args.remap) if args.remap else None
    rescale_channels = _parse_channels(args.rescale_channels, "--rescale-channels")
    remap_channels = _parse_channels(args.remap_channels, "--remap-channels")
    with OutputSet(
        ("--out-container", args.out_container), ("--out-manifest", args.out_manifest)
    ) as outputs:
        manifest = _manifest(outputs, "--manifest", args.manifest)
        records = load_records(manifest)
        counts = sorted({rec.channels for rec in records})
        for flag, channels in (
            ("--filter-channel", (args.filter_channel,)),
            ("--rescale-channels", rescale_channels),
            ("--remap-channels", remap_channels),
        ):
            for count in counts:
                _channel_mask(flag, channels, count)

        images = []
        for rec in records:
            if isinstance(rec, VolumeRecord):
                images.extend(slice_volume(rec, rule))
            else:
                images.append(rec)
        log.info("preprocess: %d record(s) -> %d slice(s)", len(records), len(images))

        out = []
        for img in images:
            if args.pad:
                img = zero_pad(img, args.pad[0], args.pad[1])
            if args.rescale:
                img = rescale_intensity(img, channels=rescale_channels)
            if remap:
                img = remap_labels(img, remap, channels=remap_channels)
            if args.resize:
                img = resize_bilinear(img, args.resize[0], args.resize[1])
            out.append(img)
        if not out:
            raise MemauditError("preprocess produced no images (filter dropped everything)")
        _write_set(out, args.out_container, args.out_manifest, f"{manifest.name}-pre", manifest.role)
    log.info("preprocess: wrote %d image(s) to %s", len(out), args.out_container)
    return EXIT_OK


class _Picked:
    """The picked rows of a set, read one by one through its read_rows;
    like the set's own, disjoint ranges may be read by threads at once.
    It has no read_panels: the engine reads only its reference in panels,
    never picked rows."""

    def __init__(self, rows, picks: list[int]):
        self._rows, self._picks = rows, picks
        self.name, self.role, self.shape = rows.name, rows.role, rows.shape
        self.ids = tuple(rows.ids[i] for i in picks)

    def __len__(self) -> int:
        return len(self._picks)

    def read_rows(self, i0: int, i1: int, out, channels) -> None:
        for row, i in zip(out, self._picks[i0:i1]):
            self._rows.read_rows(i, i + 1, row[None], channels)


def _holds(manifest) -> str:
    """What a manifest's files hold: "embeddings" if all are EMB1."""
    return "embeddings" if all(fmt == "emb" for fmt, _ in manifest.entries) else "images"


def _audit(args, outputs: OutputSet):
    """Compare synthetic with train and, given --test, test with train and
    synthetic with test. Images and embeddings share every step; the
    manifest kind only picks the reader and the engine's options, and
    options of the other kind are usage errors (a --synthetic or --test
    manifest of the other kind, a data error). Every set stays in its
    files and is read once into the engine's float64 buffers (a --sample
    reads only the picked synthetic rows), by one engine call. No input
    may be one of outputs (_check_inputs)."""
    channels = _parse_channels(args.channels)
    manifest = _manifest(outputs, "--train", args.train)
    kind = _holds(manifest)
    embeddings = kind == "embeddings"
    foreign = {"--channels": args.channels, "--channel-mode": args.channel_mode}
    if not embeddings:
        foreign = {"--metric": args.metric}
    for flag, value in foreign.items():
        if value is not None:
            raise UsageError(
                f"{flag} does not apply to --train {args.train}, which holds {kind}"
            )
    open_set = open_embedding_set if embeddings else open_dataset
    train = open_set(manifest)
    mask = None if embeddings else _channel_mask("--channels", channels, train.shape[0])
    mode = args.metric or args.channel_mode  # the other kind's is None
    segments = len(mask) if mask else 1
    row_length = segments * math.prod(train.shape[1:])

    def open_like(flag, path):  # a set of --train's kind
        other = _manifest(outputs, flag, path)
        if _holds(other) != kind:
            raise ManifestError(
                f"{flag} {path} holds {_holds(other)}, but --train {args.train} holds {kind}"
            )
        return open_set(other)

    synthetic = open_like("--synthetic", args.synthetic)
    sample_ids = None
    if args.sample is not None and args.sample < len(synthetic):
        picks = SplitMix64(args.seed).sample_without_replacement(len(synthetic), args.sample)
        synthetic = _Picked(synthetic, picks)
        sample_ids = list(synthetic.ids)
    test = open_like("--test", args.test) if args.test else None
    plan = plan_audit(
        len(synthetic), len(train), row_length, args.block_budget_mib, len(test or ()),
        channels=segments,
    )
    log.info(
        "audit: %d synthetic x %d train = %s comparisons",
        plan.n_query, plan.n_reference, f"{plan.total_comparisons:,}",
    )
    label = "synth-vs-train" if test is None else "synth+test-vs-train"
    progress = None if args.quiet else ProgressPrinter(
        label, args.progress_interval, plan.vector_length
    )
    found = max_correlations(
        synthetic, train, channel_mask=mask, k=args.k, mode=mode, test=test,
        block_budget_mib=args.block_budget_mib, progress=progress,
    )
    if test is None:
        return plan, found, None, None, sample_ids
    synth_vs_train, test_vs_train, synth_vs_test = found
    baseline = [replace(m, matches=m.matches[:1]) for m in test_vs_train]
    return plan, synth_vs_train, baseline, synth_vs_test, sample_ids


def _check_baseline(args, baseline, flag: str) -> None:
    """A percentile --rule takes its threshold from the set flag names."""
    if parse_rule(args.rule)[0] == "percentile" and not baseline:
        raise UsageError(
            f"a percentile --rule needs the baseline set {flag}; "
            f"use --rule fixed:V to {args.command} without one"
        )


def _emit_report(report, args) -> None:
    """Write the report to --out, or print it to stdout in --format."""
    if args.out:
        export_report(report, args.out, args.format)
        log.info("%s: report written to %s", args.command, args.out)
    else:
        print(format_report(report, args.format), end="")


def _cmd_audit(args) -> int:
    if args.sample is not None and args.seed is None:
        raise UsageError("--sample requires an explicit --seed")
    if args.baseline_matches_out and not args.test:
        raise UsageError("--baseline-matches-out needs --test")
    _check_baseline(args, args.test, "--test")
    with OutputSet(
        ("--matches-out", args.matches_out),
        ("--baseline-matches-out", args.baseline_matches_out), ("--out", args.out),
    ) as outputs:
        plan, synth_vs_train, baseline, synth_vs_test, sample_ids = _audit(args, outputs)
        report = build_audit_report(
            plan, synth_vs_train, baseline=baseline, synth_vs_test=synth_vs_test,
            rule=args.rule, histogram_bins=args.histogram_bins, sample_ids=sample_ids,
        )
        if args.matches_out:
            save_matches(synth_vs_train, args.matches_out, "synth-vs-train", plan)
        if args.baseline_matches_out:
            save_matches(baseline, args.baseline_matches_out, "test-vs-train", plan)
        _emit_report(report, args)

    if not args.quiet:
        print(
            f"[audit] {len(report.flagged)} of {report.summaries[0].n} synthetic "
            f"image(s) at or above threshold {report.threshold.value:.6f} "
            f"({report.threshold.provenance})",
            file=sys.stderr,
        )
    return EXIT_FLAGGED if report.flagged else EXIT_OK


def _paired_images(outputs: OutputSet, flag: str, paths, loaded: dict):
    """The images of the two datasets flag, a --*-pairs flag, names.
    ``loaded`` holds every manifest this run has read, by resolved path,
    so each is read once."""
    for path in paths:
        key = Path(path).resolve()
        if key not in loaded:
            _manifest(outputs, flag, path)  # a usage error if an output is at an input
            loaded[key] = load_dataset(path)
    a, b = (loaded[Path(path).resolve()].images for path in paths)
    if len(a) != len(b):
        raise MemauditError(
            f"paired manifests differ in size: {len(a)} vs {len(b)}"
        )
    return a, b


def _cmd_metrics(args) -> int:
    wanted = [args.ssim_pairs, args.mi_pairs, args.fid, args.inception]
    if not any(wanted):
        raise UsageError(
            "nothing to do: pass --ssim-pairs, --mi-pairs, --fid or --is"
        )
    result: dict = {}
    loaded: dict = {}
    params = SsimParams(window=args.ssim_window, sigma=args.ssim_sigma)
    with OutputSet(("--out", args.out)) as outputs:
        _check_inputs(outputs, "--fid", *(args.fid or ()))
        if args.inception:
            _check_inputs(outputs, "--is", args.inception)
        for flag, paths, key, field, score in (
            ("--ssim-pairs", args.ssim_pairs, "ssim", "ssim", lambda x, y: ssim(x, y, params)),
            ("--mi-pairs", args.mi_pairs, "mutual_information", "mi_bits",
             lambda x, y: mutual_information(x, y, args.mi_bins)),
        ):
            if paths:
                a, b = _paired_images(outputs, flag, paths, loaded)
                scores = pool_map(lambda pair: score(*pair), zip(a, b))  # one pair per task
                values = [{"a": x.id, "b": y.id, field: v} for x, y, v in zip(a, b, scores)]
                result[key] = {"pairs": values, "mean": sum(v[field] for v in values) / len(values)}
        if args.fid:
            real, synth = (read_embeddings(p) for p in args.fid)
            result["fid"] = fid(gaussian_stats(real), gaussian_stats(synth))
        if args.inception:
            mean, std = inception_score(read_embeddings(args.inception), args.is_splits)
            result["inception_score"] = {"mean": mean, "std": std}
        text = json.dumps(result, indent=2) + "\n"
        if args.out:
            atomic_write(args.out, text.encode("utf-8"))
        else:
            print(text, end="")
    return EXIT_OK


def _cmd_plant(args) -> int:
    try:
        config = PlantConfig(
            n_output=args.n, p_copy=args.p_copy, p_noisy=args.p_noisy, p_shift=args.p_shift,
            noise_sigma=args.sigma, shift_pixels=args.shift, seed=args.seed,
        )
    except InvalidArgumentError as exc:  # each flag is in range, so their sum is over 1
        raise UsageError(f"--p-copy + --p-noisy + --p-shift: {exc}") from None
    manifest_path = args.out_manifest
    if manifest_path is None:  # the container's path with .mf for its suffix
        manifest_path = Path(args.out).parent / (Path(args.out).stem + ".mf")
    with OutputSet(
        ("--out", args.out), ("--truth", args.truth), ("--out-manifest", manifest_path)
    ) as outputs:
        dataset, truth = plant(load_dataset(_manifest(outputs, "--train", args.train)), config)
        save_ground_truth(truth, args.truth)
        _write_set(list(dataset.images), args.out, manifest_path, dataset.name, "synthetic")
    counts = ", ".join(f"{k}={v}" for k, v in truth.kind_counts().items() if v)
    log.info("plant: wrote %d image(s) (%s) to %s", len(dataset), counts, args.out)
    return EXIT_OK


def _labelled_matches(path, label: str):
    """The plan and matches of a match file that save_matches wrote
    under label: a file of the other label, or with no plan, is a data
    error."""
    found, plan, matches = load_matches(path)
    if found != label:
        raise MemauditError(f"{path} holds {found!r} matches, not {label!r}")
    if plan is None:
        raise MemauditError(
            f"{path} has no comparison plan; regenerate it with 'memaudit audit'"
        )
    return plan, matches


def _check_same_reference(matches_path, plan, baseline_path, baseline_plan) -> None:
    """A baseline counts only against the training set its matches were
    found in: its plan must have the matches' number of reference images
    and vector length."""
    differ = [
        f"{field} {getattr(plan, field)} vs {getattr(baseline_plan, field)}"
        for field in ("n_reference", "vector_length")
        if getattr(plan, field) != getattr(baseline_plan, field)
    ]
    if differ:
        raise MemauditError(
            f"{matches_path} and {baseline_path} were audited against different "
            f"training sets: {', '.join(differ)}"
        )


def _cmd_report(args) -> int:
    _check_baseline(args, args.baseline, "--baseline")
    with OutputSet(("--out", args.out)) as outputs:
        _check_inputs(outputs, "--matches", args.matches)
        if args.baseline:
            _check_inputs(outputs, "--baseline", args.baseline)
        plan, synth_matches = _labelled_matches(args.matches, "synth-vs-train")
        baseline = None
        if args.baseline:
            baseline_plan, baseline = _labelled_matches(args.baseline, "test-vs-train")
            _check_same_reference(args.matches, plan, args.baseline, baseline_plan)
        report = build_audit_report(
            plan, synth_matches, baseline=baseline, rule=args.rule,
            histogram_bins=args.histogram_bins,
        )
        _emit_report(report, args)
    return EXIT_FLAGGED if report.flagged else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress lines")
    common.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
    )
    common.add_argument(
        "--progress-interval", type=_non_negative(float), default=5.0,
        help="seconds between progress lines",
    )

    shown = argparse.ArgumentParser(add_help=False)  # the report that audit and report write
    shown.add_argument("--rule", type=_rule, default=DEFAULT_RULE,
                       help="'percentile:P' of the baseline or 'fixed:V'")
    shown.add_argument("--histogram-bins", type=_positive(int), default=DEFAULT_HISTOGRAM_BINS)
    shown.add_argument("--format", choices=["json", "csv"], default="json")
    shown.add_argument("--out", help="report path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="memaudit",
        description="Audit whether synthetic images memorize their training set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "preprocess", parents=[common],
        help="slice volumes, filter, pad, rescale, remap, resize",
    )
    p.set_defaults(handler=_cmd_preprocess)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-container", required=True)
    p.add_argument("--out-manifest", required=True)
    p.add_argument(
        "--min-fraction", type=_number(float, lambda v: 0 < v <= 1, "in (0, 1]"),
        default=SliceFilterRule.min_fraction,
    )
    p.add_argument("--threshold", type=float, default=SliceFilterRule.intensity_threshold)
    p.add_argument("--filter-channel", type=_non_negative(int), default=SliceFilterRule.channel)
    p.add_argument("--pad", nargs=2, type=_positive(int), metavar=("H", "W"))
    p.add_argument("--resize", nargs=2, type=_positive(int), metavar=("H", "W"))
    p.add_argument("--rescale", action="store_true")
    p.add_argument("--rescale-channels", help="e.g. '0,1,2,3' to skip an annotation channel")
    p.add_argument("--remap", help="e.g. '1=51,2=102,4=204'")
    p.add_argument("--remap-channels", help="e.g. '4' to remap only the annotation channel")

    a = sub.add_parser(
        "audit", parents=[common, shown],
        help="max-correlation audit of a synthetic set against training data",
    )
    a.set_defaults(handler=_cmd_audit)
    a.add_argument("--train", required=True)
    a.add_argument("--synthetic", required=True)
    a.add_argument("--test", help="held-out set for the baseline distribution")
    a.add_argument("--channels", help="channel mask, e.g. '0,1,2,3'")
    a.add_argument("--channel-mode", choices=["concat", "mean"],
                   help="for image manifests (default concat)")
    a.add_argument("--metric", choices=["pearson", "cosine"],
                   help="for embedding manifests (default pearson)")
    a.add_argument("--k", type=_positive(int), default=DEFAULT_K)
    a.add_argument("--sample", type=_positive(int), nargs="?", const=1000, default=None,
                   help="audit a random sample of N synthetic images (default N=1000)")
    a.add_argument("--seed", type=int, help="sampling seed (required with --sample)")
    a.add_argument("--block-budget-mib", type=_positive(float), default=DEFAULT_BLOCK_BUDGET_MIB)
    a.add_argument("--matches-out", help="save synth-vs-train matches as JSON")
    a.add_argument("--baseline-matches-out", help="save test-vs-train matches as JSON")

    m = sub.add_parser("metrics", parents=[common], help="SSIM / MI / FID / IS")
    m.set_defaults(handler=_cmd_metrics)
    m.add_argument("--ssim-pairs", nargs=2, metavar=("A", "B"))
    m.add_argument("--mi-pairs", nargs=2, metavar=("A", "B"))
    m.add_argument("--fid", nargs=2, metavar=("REAL", "SYNTH"))
    m.add_argument("--is", dest="inception", metavar="PROBS")
    m.add_argument("--splits", dest="is_splits", type=_positive(int), default=DEFAULT_IS_SPLITS)
    m.add_argument(
        "--mi-bins", type=_number(int, lambda v: v >= 2, "at least 2"), default=DEFAULT_MI_BINS
    )
    m.add_argument(
        "--ssim-window", type=_number(int, lambda v: v > 0 and v % 2, "odd and positive"),
        default=SsimParams.window,
    )
    m.add_argument("--ssim-sigma", type=_positive(float), default=SsimParams.sigma)
    m.add_argument("--out")

    g = sub.add_parser(
        "plant", parents=[common],
        help="generate a synthetic set with planted copies for validation",
    )
    g.set_defaults(handler=_cmd_plant)
    g.add_argument("--train", required=True)
    g.add_argument("--n", type=_positive(int), required=True)
    g.add_argument("--p-copy", type=_fraction, default=PlantConfig.p_copy)
    g.add_argument("--p-noisy", type=_fraction, default=PlantConfig.p_noisy)
    g.add_argument("--p-shift", type=_fraction, default=PlantConfig.p_shift)
    g.add_argument("--sigma", type=_non_negative(float), default=PlantConfig.noise_sigma)
    g.add_argument("--shift", type=_non_negative(int), default=PlantConfig.shift_pixels)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="output IVC1 container")
    g.add_argument("--truth", required=True, help="ground-truth JSON path")
    g.add_argument("--out-manifest", help="default: container path with .mf suffix")

    r = sub.add_parser(
        "report", parents=[common, shown],
        help="rebuild a report from saved match lists",
    )
    r.set_defaults(handler=_cmd_report)
    r.add_argument("--matches", required=True)
    r.add_argument("--baseline")

    return parser


def run(argv) -> int:
    """Parse argv, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        logging.basicConfig(level=getattr(logging, args.log_level.upper()))
        return args.handler(args)
    except UsageError as exc:
        print(f"memaudit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemauditError, OSError) as exc:
        print(f"memaudit {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
