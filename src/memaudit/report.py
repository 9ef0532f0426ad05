"""Audit deliverables: distributions, thresholds, flags, and export.

The decision flow mirrors how the audit is read off a plot: summarize the
top-1 correlation distribution of the synthetic set, summarize the same
statistic for held-out test images (the baseline: expected similarity
without memorization), put the threshold at a high percentile of that
baseline, and flag every synthetic image above it. Reports serialize to
JSON (full precision, lossless round-trip) and CSV (human-readable, five
decimal places); every threshold carries a provenance string so a report
is self-describing.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .correlate import ComparisonPlan, TopKMatches
from .errors import EmptyInputError, FormatError, InvalidArgumentError
from .ingest import atomic_write

PERCENTILE_POINTS = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.5)
DEFAULT_RULE = "percentile:99.5"
HISTOGRAM_RANGE = (0.0, 1.0)  # every histogram's bins span it
DEFAULT_HISTOGRAM_BINS = 50


def interpolated_percentile(sorted_values: Sequence[float], p: float) -> float:
    """Percentile by linear interpolation between closest order statistics.

    Position convention: rank = (n - 1) * p / 100 (0-based), interpolating
    between floor and ceil ranks; matches numpy's default.
    """
    if not 0.0 <= p <= 100.0:
        raise InvalidArgumentError(f"percentile {p} outside [0, 100]")
    n = len(sorted_values)
    if n == 0:
        raise EmptyInputError("no values to take a percentile of")
    rank = (n - 1) * p / 100.0
    lo = int(np.floor(rank))
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


@dataclass(frozen=True)
class DistributionSummary:
    """Statistics of one max-correlation distribution.

    ``values`` keeps the sorted top-1 correlations themselves so
    thresholds at arbitrary percentiles and histograms can be derived
    later without rerunning the audit.
    """

    label: str
    n: int
    mean: float
    median: float
    min: float
    max: float
    percentiles: dict[str, float]
    values: tuple[float, ...]

    def percentile(self, p: float) -> float:
        return interpolated_percentile(self.values, p)


def top1_values(matches: Iterable[TopKMatches]) -> list[float]:
    """Top-1 correlation per query, skipping invalid/matchless queries."""
    return [
        m.matches[0][1] for m in matches if m.query_valid and m.matches
    ]


def summarize(matches: Sequence[TopKMatches], label: str) -> DistributionSummary:
    """Distribution of top-1 correlations for one match list."""
    values = sorted(top1_values(matches))
    if not values:
        raise EmptyInputError(
            f"{label}: no valid matches to summarize (all queries constant "
            "or reference empty)"
        )
    mid = len(values) // 2  # np.median's value, without its numpy.ma import
    return DistributionSummary(
        label=label,
        n=len(values),
        mean=float(np.asarray(values, dtype=np.float64).mean()),
        median=values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2,
        min=values[0],
        max=values[-1],
        percentiles={
            str(p): interpolated_percentile(values, p) for p in PERCENTILE_POINTS
        },
        values=tuple(values),
    )


@dataclass(frozen=True)
class ThresholdDecision:
    value: float
    provenance: str


def parse_rule(rule: str) -> tuple[str, float]:
    """Parse "percentile:P" or "fixed:V" into (kind, parameter)."""
    kind, _, arg = rule.partition(":")
    try:
        value = float(arg)
    except ValueError:  # no number, or no ":" (arg is "")
        kind = None
    if kind == "percentile":
        if not 0.0 < value < 100.0:
            raise InvalidArgumentError(f"percentile must be in (0, 100), got {value}")
        return "percentile", value
    if kind == "fixed":
        if not math.isfinite(value):
            raise InvalidArgumentError(f"fixed threshold must be finite, got {value}")
        return "fixed", value
    raise InvalidArgumentError(
        f"rule must be 'percentile:P' or 'fixed:V', got {rule!r}"
    )


def derive_threshold(
    baseline: Optional[DistributionSummary], rule: str = DEFAULT_RULE
) -> ThresholdDecision:
    """Turn a baseline distribution plus a rule into a flagging threshold."""
    kind, arg = parse_rule(rule)
    if kind == "fixed":
        return ThresholdDecision(arg, f"fixed:{arg:g}")
    if baseline is None:
        raise InvalidArgumentError(
            "percentile rule needs a baseline distribution"
        )
    value = baseline.percentile(arg)
    return ThresholdDecision(
        value,
        f"percentile:{arg:g} of {baseline.label} (n={baseline.n})",
    )


@dataclass(frozen=True)
class FlaggedPair:
    query_id: str
    reference_id: str
    correlation: float


def flag_memorized(
    matches: Sequence[TopKMatches], threshold: float
) -> tuple[FlaggedPair, ...]:
    """Every (query, top-1 reference) pair at or above the threshold,
    sorted by descending correlation, ties by query_id."""
    hits = [
        FlaggedPair(m.query_id, m.matches[0][0], m.matches[0][1])
        for m in matches
        if m.query_valid and m.matches and m.matches[0][1] >= threshold
    ]
    hits.sort(key=lambda f: (-f.correlation, f.query_id))
    return tuple(hits)


@dataclass(frozen=True)
class HistogramData:
    """Uniform-bin histogram; left-inclusive bins, last bin closed."""

    label: str
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    underflow: int
    overflow: int


def histogram(values: Iterable[float], n_bins: int, label: str = "") -> HistogramData:
    """Bin values into n_bins uniform bins over HISTOGRAM_RANGE [lo, hi].

    Bin i covers [lo + i*w, lo + (i+1)*w), except the last bin which also
    includes the upper limit; out-of-range values land in underflow /
    overflow. counts + underflow + overflow == len(values).
    """
    lo, hi = HISTOGRAM_RANGE
    if n_bins < 1:
        raise InvalidArgumentError("n_bins must be at least 1")
    counts = [0] * n_bins
    under = over = 0
    scale = n_bins / (hi - lo)
    for v in values:
        v = float(v)
        if v < lo:
            under += 1
        elif v > hi:
            over += 1
        elif v == hi:
            counts[n_bins - 1] += 1
        else:
            counts[int((v - lo) * scale)] += 1
    edges = tuple(lo + (hi - lo) * i / n_bins for i in range(n_bins + 1))
    return HistogramData(label, edges, tuple(counts), under, over)


@dataclass(frozen=True)
class AuditReport:
    """Everything one audit run decides, in exportable form."""

    plan: ComparisonPlan
    summaries: tuple[DistributionSummary, ...]
    histograms: tuple[HistogramData, ...]
    threshold: ThresholdDecision
    flagged: tuple[FlaggedPair, ...]
    metrics_table: dict[str, float]
    sample_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        for f in self.flagged:
            if f.correlation < self.threshold.value:
                raise InvalidArgumentError(
                    f"flagged pair {f.query_id}->{f.reference_id} below threshold"
                )
        order = [(-f.correlation, f.query_id) for f in self.flagged]
        if order != sorted(order):
            raise InvalidArgumentError("flagged list must be sorted descending")


def build_audit_report(
    plan: ComparisonPlan,
    synth_vs_train: Sequence[TopKMatches],
    baseline: Optional[Sequence[TopKMatches]] = None,
    synth_vs_test: Optional[Sequence[TopKMatches]] = None,
    rule: str = DEFAULT_RULE,
    histogram_bins: int = DEFAULT_HISTOGRAM_BINS,
    sample_ids: Optional[Sequence[str]] = None,
) -> AuditReport:
    """Assemble the full report from computed match lists.

    ``baseline`` is the test-vs-train match list that defines expected
    similarity without memorization; it is required for percentile rules.
    The metrics table holds the mean top-1 correlation of synth-vs-train.
    """
    summaries = [summarize(synth_vs_train, "synth-vs-train")]
    baseline_summary = None
    if baseline is not None:
        baseline_summary = summarize(baseline, "test-vs-train")
        summaries.append(baseline_summary)
    if synth_vs_test is not None:
        summaries.append(summarize(synth_vs_test, "synth-vs-test"))
    decision = derive_threshold(baseline_summary, rule)
    return AuditReport(
        plan=plan,
        summaries=tuple(summaries),
        histograms=tuple(
            histogram(s.values, histogram_bins, label=s.label)
            for s in summaries
        ),
        threshold=decision,
        flagged=flag_memorized(synth_vs_train, decision.value),
        metrics_table={"mean_highest_correlation": summaries[0].mean},
        sample_ids=tuple(sample_ids) if sample_ids is not None else None,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _f5(x: float) -> str:
    return f"{x:.5f}"


def report_to_csv(report: AuditReport) -> str:
    """CSV rendering: one row per flagged pair, then summary blocks.

    Numbers are shown with five decimal places; the JSON export is the
    full-precision form.
    """
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["query_id", "reference_id", "correlation"])
    for f in report.flagged:
        w.writerow([f.query_id, f.reference_id, _f5(f.correlation)])
    w.writerow([])
    header = ["summary", "label", "n", "mean", "median", "min", "max"]
    header += [f"p{p:g}" for p in PERCENTILE_POINTS]
    w.writerow(header)
    for s in report.summaries:
        row = ["summary", s.label, s.n, _f5(s.mean), _f5(s.median), _f5(s.min), _f5(s.max)]
        row += [_f5(s.percentiles[str(p)]) for p in PERCENTILE_POINTS]
        w.writerow(row)
    w.writerow([])
    w.writerow(["threshold", _f5(report.threshold.value), report.threshold.provenance])
    w.writerow([])
    keys = list(report.metrics_table)
    w.writerow(["metrics"] + keys)
    w.writerow(["metrics"] + [_f5(report.metrics_table[k]) for k in keys])
    w.writerow([])
    w.writerow(["plan", "n_query", "n_reference", "total_comparisons", "vector_length"])
    p = report.plan
    w.writerow(["plan", p.n_query, p.n_reference, p.total_comparisons, p.vector_length])
    return out.getvalue()


def format_report(report: AuditReport, format: str) -> str:
    """A report as JSON (lossless) or CSV (5 decimals) text."""
    if format == "json":
        return json.dumps(asdict(report), indent=2, allow_nan=False) + "\n"
    if format == "csv":
        return report_to_csv(report)
    raise InvalidArgumentError(f"unknown report format {format!r}")


def export_report(report: AuditReport, path, format: str) -> None:
    """Write format_report(report, format) to path atomically."""
    atomic_write(path, format_report(report, format).encode("utf-8"))


# ---------------------------------------------------------------------------
# Match-list files (audit output consumed by `memaudit report`)
# ---------------------------------------------------------------------------


def matches_to_dict(matches: Sequence[TopKMatches], label: str, plan: ComparisonPlan) -> dict:
    return {
        "label": label,
        "plan": asdict(plan),
        "matches": [
            {
                "query_id": m.query_id,
                "query_valid": m.query_valid,
                "skipped_invalid": m.skipped_invalid,
                "matches": [[r, c] for r, c in m.matches],
            }
            for m in matches
        ],
    }


def save_matches(
    matches: Sequence[TopKMatches], path, label: str, plan: ComparisonPlan
) -> None:
    text = json.dumps(matches_to_dict(matches, label, plan), indent=2) + "\n"
    atomic_write(path, text.encode("utf-8"))


def _loaded_match(m: dict) -> TopKMatches:
    """One entry of a match-list file, checked: string ids, an int count,
    a bool flag, and correlations that are finite numbers in [-1, 1]."""
    query_id = m["query_id"]
    skipped, valid = m.get("skipped_invalid", 0), m.get("query_valid", True)
    pairs = tuple((r, c) for r, c in m["matches"])
    if not (isinstance(query_id, str) and type(skipped) is int and type(valid) is bool):
        raise ValueError(f"entry {query_id!r}: mistyped query_id, skipped_invalid or query_valid")
    for r, c in pairs:
        if not (isinstance(r, str) and type(c) in (int, float) and -1.0 <= c <= 1.0):
            raise ValueError(
                f"entry {query_id!r}: match {[r, c]!r} is not [reference id, "
                "correlation in [-1, 1]]"
            )
    return TopKMatches(query_id, pairs, skipped, valid)


def load_matches(path) -> tuple[str, Optional[ComparisonPlan], list[TopKMatches]]:
    """(label, plan, matches) of a file save_matches wrote. Anything else
    (bad JSON, a missing or mistyped key, a bad plan, a correlation that
    is not a finite number in [-1, 1]) raises FormatError naming the file."""
    try:
        data = json.loads(Path(path).read_text("utf-8"))
        matches = [_loaded_match(m) for m in data["matches"]]
        plan = ComparisonPlan(**data["plan"]) if data.get("plan") else None
        if plan is not None and any(type(v) is not int for v in asdict(plan).values()):
            raise ValueError(f"plan {data['plan']!r} holds a count that is not an integer")
    except (ValueError, KeyError, TypeError, InvalidArgumentError) as exc:
        raise FormatError(f"{path}: not a match list: {type(exc).__name__}: {exc}") from None
    return data.get("label", ""), plan, matches
