"""Unit tests for the analytical models, the env readers and the result table."""

import math

import pytest

from repro.analysis import (
    confidence_halfwidth_95,
    conventional_timeslots,
    cyclic_timeslots,
    mttdl_years,
    ppr_timeslots,
    reduce_metric,
    reduce_summaries,
    repair_pipelining_timeslots,
    repair_rate_from_repair_time,
    sample_mean,
    sample_std,
    t_critical_95,
    timeslot_seconds,
)
from repro.analysis.mttdl import compare_repair_schemes, mttdl_improvement, mttdl_seconds
from repro.analysis.timeslots import block_pipelining_timeslots, repair_time_seconds
from repro.cluster import MiB, gbps
from repro.config import env_float, env_int, env_positive_int
from repro.exp import ExperimentTable


class TestTimeslots:
    def test_conventional(self):
        assert conventional_timeslots(10) == 10
        assert conventional_timeslots(10, 3) == 12

    def test_ppr_matches_paper_examples(self):
        assert ppr_timeslots(4) == 3
        assert ppr_timeslots(10) == 4
        assert ppr_timeslots(12) == 4

    def test_repair_pipelining_approaches_one(self):
        assert repair_pipelining_timeslots(10, 2048) == pytest.approx(1.0044, rel=1e-3)
        assert repair_pipelining_timeslots(10, 1) == 10
        assert repair_pipelining_timeslots(10, 2048, num_failed=2) == pytest.approx(
            2.0088, rel=1e-3
        )

    def test_cyclic_matches_linear(self):
        assert cyclic_timeslots(10, 2048) == pytest.approx(
            repair_pipelining_timeslots(10, 2048)
        )

    def test_block_pipelining(self):
        assert block_pipelining_timeslots(10) == 10
        assert block_pipelining_timeslots(10, 2) == 20

    def test_seconds_conversion(self):
        slot = timeslot_seconds(64 * MiB, gbps(1))
        assert slot == pytest.approx(0.537, rel=0.01)
        assert repair_time_seconds(10, 64 * MiB, gbps(1)) == pytest.approx(5.37, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            conventional_timeslots(0)
        with pytest.raises(ValueError):
            conventional_timeslots(4, 0)
        with pytest.raises(ValueError):
            repair_pipelining_timeslots(4, 0)
        with pytest.raises(ValueError):
            repair_pipelining_timeslots(4, 8, 0)
        with pytest.raises(ValueError):
            timeslot_seconds(0, 1)
        with pytest.raises(ValueError):
            timeslot_seconds(1, 0)
        with pytest.raises(ValueError):
            repair_time_seconds(-1, 1, 1)


class TestMTTDL:
    def test_faster_repair_improves_mttdl(self):
        slow = mttdl_years(14, 10, failure_rate_per_year=0.25, repair_time_seconds=6.0)
        fast = mttdl_years(14, 10, failure_rate_per_year=0.25, repair_time_seconds=0.6)
        assert fast > slow

    def test_improvement_ratio(self):
        ratio = mttdl_improvement(9, 6, 0.25, baseline_repair_seconds=6.0,
                                  improved_repair_seconds=0.6)
        assert ratio > 100  # three tolerated failures -> roughly (mu ratio)^3

    def test_more_parity_increases_mttdl(self):
        weak = mttdl_years(12, 10, 0.25, 1.0)
        strong = mttdl_years(14, 10, 0.25, 1.0)
        assert strong > weak

    def test_compare_repair_schemes(self):
        values = compare_repair_schemes(14, 10, 0.25, [6.0, 2.0, 0.6])
        assert values[0] < values[1] < values[2]

    def test_repair_rate_conversion(self):
        assert repair_rate_from_repair_time(0.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            repair_rate_from_repair_time(0)

    def test_mttdl_validation(self):
        with pytest.raises(ValueError):
            mttdl_seconds(10, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            mttdl_seconds(10, 8, 0.0, 1.0)
        with pytest.raises(ValueError):
            mttdl_seconds(10, 8, 1.0, -1.0)


class TestCrossTrialStats:
    def test_mean_std_known_values(self):
        samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert sample_mean(samples) == pytest.approx(5.0)
        assert sample_std(samples) == pytest.approx(2.138, rel=1e-3)

    def test_ci_uses_student_t(self):
        # Two samples: df=1, t=12.706; halfwidth = t * std / sqrt(2).
        samples = [1.0, 3.0]
        std = sample_std(samples)
        expected = 12.706 * std / math.sqrt(2)
        assert confidence_halfwidth_95(samples) == pytest.approx(expected)

    def test_t_critical_monotone_and_bounded(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(1000) == pytest.approx(1.96)
        for df in range(1, 30):
            assert t_critical_95(df) >= t_critical_95(df + 1)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_single_sample_has_zero_spread(self):
        stats = reduce_metric([3.5])
        assert stats.mean == 3.5
        assert stats.std == 0.0
        assert stats.ci95 == 0.0
        assert stats.samples == 1

    def test_nan_samples_are_excluded(self):
        stats = reduce_metric([1.0, math.nan, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.samples == 2
        all_nan = reduce_metric([math.nan, math.nan])
        assert math.isnan(all_nan.mean)
        assert all_nan.samples == 0
        assert all_nan.format_mean_ci() == "-"

    def test_reduce_summaries_key_by_key(self):
        stats = reduce_summaries(
            [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}]
        )
        assert list(stats) == ["a", "b"]
        assert stats["a"].mean == pytest.approx(2.0)
        assert stats["b"].mean == pytest.approx(20.0)
        with pytest.raises(ValueError):
            reduce_summaries([])
        with pytest.raises(ValueError):
            reduce_summaries([{"a": 1.0}, {"b": 2.0}])

    def test_format_mean_ci_is_fixed_precision(self):
        stats = reduce_metric([1.0, 2.0])
        assert stats.format_mean_ci(3) == "1.500+/-6.353"
        assert reduce_metric([math.inf, math.inf]).format_mean_ci() == "inf"


class TestEnvReadersAndTable:
    def test_env_helpers(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "5")
        monkeypatch.setenv("REPRO_TEST_FLOAT", "2.5")
        assert env_int("REPRO_TEST_INT", 1) == 5
        assert env_float("REPRO_TEST_FLOAT", 1.0) == 2.5
        assert env_int("REPRO_MISSING", 7) == 7
        assert env_float("REPRO_MISSING", 7.5) == 7.5

    def test_env_empty_and_whitespace_fall_back_to_default(self, monkeypatch):
        # `VAR= python ...` and an unset VAR mean the same thing.
        monkeypatch.setenv("REPRO_TEST_INT", "")
        monkeypatch.setenv("REPRO_TEST_FLOAT", "   ")
        assert env_int("REPRO_TEST_INT", 7) == 7
        assert env_float("REPRO_TEST_FLOAT", 7.5) == 7.5

    def test_env_tolerates_surrounding_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "  5 ")
        monkeypatch.setenv("REPRO_TEST_FLOAT", "\t2.5\n")
        assert env_int("REPRO_TEST_INT", 1) == 5
        assert env_float("REPRO_TEST_FLOAT", 1.0) == 2.5

    def test_env_minimum_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "3")
        monkeypatch.setenv("REPRO_TEST_FLOAT", "3.0")
        assert env_int("REPRO_TEST_INT", 1, minimum=3) == 3
        assert env_float("REPRO_TEST_FLOAT", 1.0, minimum=3.0) == 3.0

    def test_env_errors_name_the_offending_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_TEST_INT"):
            env_int("REPRO_TEST_INT", 1)
        monkeypatch.setenv("REPRO_TEST_INT", "2")
        with pytest.raises(ValueError, match="REPRO_TEST_INT"):
            env_int("REPRO_TEST_INT", 1, minimum=3)
        monkeypatch.setenv("REPRO_TEST_FLOAT", "oops")
        with pytest.raises(ValueError, match="REPRO_TEST_FLOAT"):
            env_float("REPRO_TEST_FLOAT", 1.0)
        monkeypatch.setenv("REPRO_TEST_FLOAT", "0.5")
        with pytest.raises(ValueError, match="REPRO_TEST_FLOAT"):
            env_float("REPRO_TEST_FLOAT", 1.0, minimum=1.0)

    def test_env_float_rejects_nan(self, monkeypatch):
        # NaN compares false against any minimum, so it must be rejected
        # explicitly rather than sliding through range validation.
        monkeypatch.setenv("REPRO_TEST_FLOAT", "nan")
        with pytest.raises(ValueError, match="REPRO_TEST_FLOAT"):
            env_float("REPRO_TEST_FLOAT", 1.0, minimum=0.0)
        with pytest.raises(ValueError, match="REPRO_TEST_FLOAT"):
            env_float("REPRO_TEST_FLOAT", 1.0)

    def test_positive_int_rejects_zero_negative_and_non_numeric(self, monkeypatch):
        # block / slice / stripe counts: a zero must fail on read, naming the
        # variable, not later as a division error inside a scheme
        for bad in ("0", "-4", "lots"):
            monkeypatch.setenv("REPRO_TEST_INT", bad)
            with pytest.raises(ValueError, match="REPRO_TEST_INT"):
                env_positive_int("REPRO_TEST_INT", 64)
        monkeypatch.setenv("REPRO_TEST_INT", "8")
        assert env_positive_int("REPRO_TEST_INT", 64) == 8
        assert env_positive_int("REPRO_MISSING", 64) == 64

    def test_experiment_table_rendering(self):
        table = ExperimentTable("Figure X", ["label", "value"])
        table.add_row("conv", 5.967)
        table.add_row("rp", 0.57)
        text = table.render()
        assert "Figure X" in text
        assert "conv" in text and "5.967" in text
        assert table.as_dicts()[1]["label"] == "rp"
        with pytest.raises(ValueError):
            table.add_row("only-one-value")
        with pytest.raises(ValueError):
            ExperimentTable("t", [])
