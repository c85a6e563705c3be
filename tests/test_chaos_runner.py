"""End-to-end chaos runs, in-process, for every scenario in the vocabulary.

Each test boots a real deployment (coordinator, helpers and gateway on
localhost TCP), interposes the fault proxies, replays the scenario's
timeline and asserts the harness's full contract: byte-identical post-repair
data, foreground reads surviving the window, and a measured/predicted
makespan ratio inside the committed band.  Process-mode runs (OS processes,
SIGKILL/SIGSTOP) live in the CI ``chaos-smoke`` job; in-process runs cover
the identical code paths minus the interpreter spawn.
"""

import asyncio
import json
import math

import pytest

from repro.chaos import ChaosConfig, ChaosReport, ChaosRunner, compile_scenario
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.runner import default_bands_path, load_bands, run_scenario
from repro.chaos.scenarios import SCENARIOS

#: Small blocks and a compressed timeline keep each live run ~1 s.
FAST = dict(block_size=256 * 1024, slice_size=32 * 1024, time_scale=0.5)


def run(coro):
    return asyncio.run(coro)


def fast_config(**overrides):
    return ChaosConfig(**{**FAST, **overrides})


class TestCommittedBands:
    def test_bands_file_covers_the_vocabulary(self):
        bands = load_bands()
        assert sorted(bands) == sorted(SCENARIOS)
        for low, high in bands.values():
            assert 0 < low < 1 <= high

    def test_default_path_is_at_the_repo_root(self):
        path = default_bands_path()
        assert path.name == "BENCH_chaos.json"
        assert path.exists()
        assert (path.parent / "BENCHMARK.json").exists()


class TestLiveScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_end_to_end(self, name):
        report = run(run_scenario(name, seed=7, config=fast_config(), mode="inproc"))
        assert report.integrity_ok, report.integrity_detail
        assert report.served_ok
        assert report.calibration_ok, (
            f"{name}: ratio {report.ratio:.2f} outside band {report.band}"
        )
        assert report.ok
        assert report.events_applied == len(
            compile_scenario(name, fast_config(), 7).events
        )
        assert report.measured_seconds > 0
        assert report.predicted_seconds > 0

    def test_replayed_registration_is_the_gateways_placement(self):
        # After a "host"-recovery coordinator restart the runner replays
        # REGISTER_STRIPE; it must name the nodes the gateway stored on.
        config = fast_config()
        runner = ChaosRunner(config, mode="inproc")
        report = run(runner.run(compile_scenario("kill-coordinator-restart", config, 7)))
        assert report.ok
        assert runner.injector.stripe_registration["locations"] == {
            str(i): node for i, node in config.placement().items()
        }

    def test_divergence_fails_the_run(self):
        # Same live run, absurd committed band: the diff must fail loudly.
        report = run(
            run_scenario(
                "slow-helper",
                seed=7,
                config=fast_config(),
                mode="inproc",
                bands={"slow-helper": (1e-9, 1e-8)},
            )
        )
        assert report.integrity_ok
        assert not report.calibration_ok
        assert not report.ok

    def test_runner_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ChaosRunner(fast_config(), mode="container")


class TestReport:
    def _report(self, **overrides):
        fields = dict(
            scenario="slow-helper",
            seed=7,
            mode="inproc",
            baseline_seconds=0.02,
            measured_seconds=0.3,
            predicted_seconds=0.25,
            calibrated_bandwidth=5e7,
            band=(0.2, 5.0),
            integrity_ok=True,
            integrity_detail="object + 5 blocks byte-identical",
            served_ok=True,
            load={"operations": 4, "errors": 0, "degraded_reads": 1},
            events_applied=1,
            expect_serving=True,
        )
        fields.update(overrides)
        return ChaosReport(**fields)

    def test_ratio_and_band(self):
        report = self._report()
        assert report.ratio == pytest.approx(1.2)
        assert report.calibration_ok and report.ok

    def test_zero_prediction_is_infinite_ratio(self):
        report = self._report(predicted_seconds=0.0)
        assert math.isinf(report.ratio)
        assert not report.ok

    def test_any_leg_failing_fails_the_report(self):
        assert not self._report(integrity_ok=False).ok
        assert not self._report(served_ok=False).ok
        assert not self._report(measured_seconds=10.0).ok

    def test_round_trip_and_render(self):
        report = self._report()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] and data["ratio"] == pytest.approx(1.2)
        text = report.render()
        assert "OK" in text and "slow-helper" in text
        failed = self._report(measured_seconds=10.0).render()
        assert "calibration diverged" in failed


class TestCli:
    def test_list_command(self, capsys):
        assert chaos_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_command_json(self, capsys):
        code = chaos_main(
            [
                "run",
                "--scenario",
                "slow-helper",
                "--seed",
                "7",
                "--mode",
                "inproc",
                "--block-size",
                str(FAST["block_size"]),
                "--slice-size",
                str(FAST["slice_size"]),
                "--time-scale",
                str(FAST["time_scale"]),
                "--json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["ok"] and data["scenario"] == "slow-helper"
