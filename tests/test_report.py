import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from memaudit.correlate import TopKMatches, plan_audit
from memaudit.errors import EmptyInputError, InvalidArgumentError
from memaudit.report import (
    build_audit_report,
    derive_threshold,
    export_report,
    flag_memorized,
    histogram,
    interpolated_percentile,
    load_matches,
    save_matches,
    summarize,
)


def matches_from_top1(values, prefix="q", ref="r0"):
    return [
        TopKMatches(f"{prefix}{i}", ((ref, float(v)),)) for i, v in enumerate(values)
    ]


class TestSummarize:
    def test_mean_median(self):
        s = summarize(matches_from_top1([0.5, 0.7, 0.9]), "t")
        assert s.mean == pytest.approx(0.7)
        assert s.median == pytest.approx(0.7)
        assert s.n == 3

    def test_single_value(self):
        s = summarize(matches_from_top1([1.0]), "one")
        assert (s.mean, s.median, s.min, s.max) == (1.0, 1.0, 1.0, 1.0)
        assert all(v == 1.0 for v in s.percentiles.values())

    def test_interpolated_95th(self):
        values = [round(0.1 * i, 10) for i in range(1, 11)]
        s = summarize(matches_from_top1(values), "steps")
        assert s.percentiles["95.0"] == pytest.approx(0.955)

    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.random(137)
        s = summarize(matches_from_top1(values), "np")
        for p in (1, 5, 25, 50, 75, 95, 99, 99.5):
            assert s.percentiles[str(float(p))] == pytest.approx(
                np.percentile(values, p), abs=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 137, 1000])
    def test_median_equals_numpy_bit_for_bit(self, n):
        """The median is the middle sorted value, or the mean of the two
        middle ones for even n: np.median's value, to the bit."""
        values = np.random.default_rng(n).uniform(-1, 1, n)
        median = summarize(matches_from_top1(values), "np").median
        assert np.float64(median).tobytes() == np.median(values).tobytes()

    def test_ordering_invariant(self):
        s = summarize(matches_from_top1([0.9, 0.1, 0.5]), "ord")
        ps = [s.percentiles[str(float(p))] for p in (1, 5, 25, 50, 75, 95, 99, 99.5)]
        assert s.min <= ps[0] and ps == sorted(ps) and ps[-1] <= s.max

    def test_invalid_queries_excluded(self):
        matches = matches_from_top1([0.5, 0.7])
        matches.append(TopKMatches("flat", (), query_valid=False))
        s = summarize(matches, "mix")
        assert s.n == 2

    def test_all_invalid_rejected(self):
        matches = [TopKMatches("flat", (), query_valid=False)]
        with pytest.raises(EmptyInputError):
            summarize(matches, "empty")


class TestThreshold:
    def test_fixed_rule(self):
        baseline = summarize(matches_from_top1([0.5, 0.6, 0.9]), "b")
        decision = derive_threshold(baseline, "fixed:0.95")
        assert decision.value == 0.95
        assert decision.provenance == "fixed:0.95"

    def test_percentile_rule_records_provenance(self):
        rng = np.random.default_rng(1)
        values = rng.random(1000)
        baseline = summarize(matches_from_top1(values), "test-vs-train")
        decision = derive_threshold(baseline, "percentile:99.5")
        assert decision.value == pytest.approx(np.percentile(values, 99.5), abs=1e-12)
        assert "percentile:99.5" in decision.provenance
        assert "test-vs-train" in decision.provenance

    def test_degenerate_baseline(self):
        baseline = summarize(matches_from_top1([0.42] * 9), "const")
        assert derive_threshold(baseline, "percentile:99.5").value == pytest.approx(0.42)

    def test_out_of_range_percentile(self):
        baseline = summarize(matches_from_top1([0.1]), "b")
        for bad in ("percentile:0", "percentile:100", "percentile:-3"):
            with pytest.raises(InvalidArgumentError):
                derive_threshold(baseline, bad)

    def test_percentile_needs_baseline(self):
        with pytest.raises(InvalidArgumentError, match="baseline"):
            derive_threshold(None, "percentile:99.5")

    def test_bad_rule_rejected(self):
        for rule in ("median", "percentile:abc", "fixed:", "percentile:", "fixed:0.9x"):
            message = f"^rule must be 'percentile:P' or 'fixed:V', got {re.escape(repr(rule))}$"
            with pytest.raises(InvalidArgumentError, match=message):
                derive_threshold(None, rule)


class TestFlagging:
    def test_planted_copy_flagged(self):
        matches = matches_from_top1([0.3, 0.9999999]) + [
            TopKMatches("copycat", (("r17", 1.0),))
        ]
        flagged = flag_memorized(matches, 0.99)
        assert [f.query_id for f in flagged] == ["copycat", "q1"]
        assert flagged[0].reference_id == "r17"

    def test_empty_matches(self):
        assert flag_memorized([], 0.5) == ()

    def test_threshold_above_one_flags_nothing(self):
        assert flag_memorized(matches_from_top1([1.0, 0.8]), 1.01) == ()

    def test_nested_thresholds(self):
        rng = np.random.default_rng(2)
        matches = matches_from_top1(rng.random(200))
        low = {f.query_id for f in flag_memorized(matches, 0.4)}
        high = {f.query_id for f in flag_memorized(matches, 0.8)}
        assert high <= low

    def test_tie_break_by_query_id(self):
        matches = [
            TopKMatches("zz", (("r", 0.95),)),
            TopKMatches("aa", (("r", 0.95),)),
        ]
        assert [f.query_id for f in flag_memorized(matches, 0.9)] == ["aa", "zz"]


class TestHistogram:
    def test_left_inclusive_bins(self):
        h = histogram([0.0, 0.5, 1.0], n_bins=2)
        assert h.counts == (1, 2)
        assert h.edges == (0.0, 0.5, 1.0)

    def test_empty_values(self):
        h = histogram([], n_bins=4)
        assert h.counts == (0, 0, 0, 0)
        assert h.underflow == h.overflow == 0

    def test_overflow_counted(self):
        h = histogram([1.5, -0.25, 0.5], n_bins=2)
        assert h.overflow == 1 and h.underflow == 1
        assert sum(h.counts) == 1

    def test_conservation(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0.5, 0.5, 500)
        h = histogram(values, n_bins=13)
        assert sum(h.counts) + h.underflow + h.overflow == 500


def json_types(value):
    """value with every tuple a list, as json.loads reads it back."""
    if isinstance(value, dict):
        return {k: json_types(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_types(v) for v in value]
    return value


def sample_report(with_baseline=True):
    rng = np.random.default_rng(4)
    synth = matches_from_top1(np.round(rng.random(40), 6), prefix="s")
    synth.append(TopKMatches("s_copy", (("train_7", 0.999999),)))
    baseline = matches_from_top1(np.round(rng.random(60) * 0.8, 6), prefix="t")
    plan = plan_audit(41, 100, 1024)
    return build_audit_report(
        plan,
        synth,
        baseline=baseline if with_baseline else None,
        rule="percentile:99.5" if with_baseline else "fixed:0.9",
        histogram_bins=20,
        sample_ids=[m.query_id for m in synth],
    )


class TestAuditReport:
    def test_structure(self):
        report = sample_report()
        assert [s.label for s in report.summaries] == ["synth-vs-train", "test-vs-train"]
        assert len(report.histograms) == 2
        assert report.metrics_table == {"mean_highest_correlation": report.summaries[0].mean}
        assert all(f.correlation >= report.threshold.value for f in report.flagged)

    def test_flagged_contains_planted_copy(self):
        report = sample_report()
        assert any(f.query_id == "s_copy" for f in report.flagged)

    def test_json_round_trip(self, tmp_path):
        """Every field reads back from the file equal to the report's own
        value, each float exactly."""
        report = sample_report()
        path = tmp_path / "report.json"
        export_report(report, path, "json")
        assert json.loads(path.read_text("utf-8")) == json_types(asdict(report))

    def test_json_reproducible_bytes(self, tmp_path):
        report = sample_report()
        export_report(report, tmp_path / "a.json", "json")
        export_report(report, tmp_path / "b.json", "json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_verbatim_metrics(self, tmp_path):
        report = replace(sample_report(), metrics_table={"fid": 15.85417, "is_mean": 2.35191})
        path = tmp_path / "report.csv"
        export_report(report, path, "csv")
        text = path.read_text()
        assert "0.98510" not in text  # sanity: not accidentally present
        assert "15.85417" in text and "2.35191" in text
        assert text.startswith("query_id,reference_id,correlation")

    def test_csv_metrics_slot_verbatim_value(self, tmp_path):
        report = sample_report()
        object.__setattr__(report, "metrics_table",
                           {"mean_highest_correlation": 0.98510})
        export_report(report, tmp_path / "m.csv", "csv")
        assert "0.98510" in (tmp_path / "m.csv").read_text()

    def test_csv_empty_flagged_header_only(self, tmp_path):
        plan = plan_audit(2, 3, 16)
        report = build_audit_report(
            plan, matches_from_top1([0.1, 0.2]), rule="fixed:0.9"
        )
        export_report(report, tmp_path / "e.csv", "csv")
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0] == "query_id,reference_id,correlation"
        assert lines[1] == ""  # no flagged rows before the summary block

    def test_atomic_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        report = sample_report()
        target = tmp_path / "out.json"

        import memaudit.report as report_mod

        real_dumps = json.dumps
        monkeypatch.setattr(
            report_mod.json, "dumps",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            export_report(report, target, "json")
        monkeypatch.setattr(report_mod.json, "dumps", real_dumps)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            export_report(sample_report(), tmp_path / "x.xml", "xml")


class TestMatchFiles:
    def test_round_trip(self, tmp_path):
        matches = matches_from_top1([0.25, 0.5]) + [
            TopKMatches("flat", (), skipped_invalid=2, query_valid=False)
        ]
        plan = plan_audit(3, 7, 64)
        path = tmp_path / "m.json"
        save_matches(matches, path, "synth-vs-train", plan)
        label, loaded_plan, loaded = load_matches(path)
        assert label == "synth-vs-train"
        assert loaded_plan == plan
        assert loaded == matches
