"""The end-to-end harness and its ``runner --selfcheck`` entry point."""

import json

import pytest

from repro.check import SelfCheckConfig, SelfCheckReport, Violation, run_selfcheck
from repro.core.ratio_map import RatioMap
from repro.experiments import runner

FAST = SelfCheckConfig(
    clients=8, candidates=6, probe_rounds=4, fuzz_steps=6, fuzz_seeds=(0,)
)


def test_run_selfcheck_passes_on_main():
    report = run_selfcheck(FAST)
    assert report.ok, report.render()
    assert report.invariants_checked > 0
    # scalar/vector + chaos stanza + remap stanza + dense/event
    # + sharded service vs unsharded + ann-vs-exact + ann exact-mode
    assert report.pairs_run == 7
    assert report.fuzz_drivers_run == 4
    assert "self-check: OK" in report.render()


def test_selfcheck_includes_obs_pairs_for_producers():
    calls = []

    def producer(scale):
        calls.append(scale)
        return {"toy": f"report at {scale}"}

    report = run_selfcheck(FAST, producers={"toy": producer, "toy2": producer})
    assert report.ok, report.render()
    assert report.pairs_run == 8  # deduped: one producer serving two keys
    assert calls == ["quick", "quick"]  # once per side


def test_selfcheck_skips_differential_when_disabled():
    config = SelfCheckConfig(
        clients=8, candidates=6, probe_rounds=4,
        fuzz_steps=4, fuzz_seeds=(0,), differential=False,
    )
    report = run_selfcheck(config)
    assert report.ok
    assert report.pairs_run == 0


def test_report_rendering_and_json_with_failures():
    report = SelfCheckReport()
    report.violations.append(Violation("ratio_map", "n1", "sum is off"))
    assert not report.ok
    assert report.failure_count == 1
    rendered = report.render()
    assert "1 FAILURE(S)" in rendered
    assert "sum is off" in rendered
    payload = json.loads(report.to_json())
    assert payload["ok"] is False
    assert payload["violations"] == [
        {"invariant": "ratio_map", "subject": "n1", "detail": "sum is off"}
    ]


# -- runner integration ------------------------------------------------------


def test_runner_selfcheck_exits_zero_on_main(tmp_path, capsys):
    code = runner.main(
        ["overhead", "--selfcheck", "--selfcheck-steps", "6",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "self-check: OK" in out
    assert "check.violation trace events" in out
    assert (tmp_path / "selfcheck.txt").exists()
    assert not (tmp_path / "selfcheck.violations.json").exists()


def test_runner_selfcheck_exits_nonzero_on_injected_bug(tmp_path, capsys, monkeypatch):
    # Skew every cached norm: the ratio-map invariant (cached norm must
    # match a recomputation) fires across the sweep, so the run must
    # fail loudly and leave the violation artifact behind.
    monkeypatch.setattr(
        RatioMap, "norm", property(lambda self: self._norm + 1e-3)
    )
    code = runner.main(
        ["overhead", "--selfcheck", "--selfcheck-steps", "3",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "FAILURE" in out
    artifact = tmp_path / "selfcheck.violations.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["ok"] is False
    assert payload["violations"]
    assert any(v["invariant"] == "ratio_map" for v in payload["violations"])


def test_runner_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        runner.main(["not-an-experiment", "--selfcheck"])
    assert "unknown experiment" in capsys.readouterr().err
