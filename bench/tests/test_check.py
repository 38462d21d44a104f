import json

import run


def _result_set(seed=2008, **overrides):
    spec = run.load_spec()
    results = {}
    for workload in run.WORKLOADS:
        metrics = {
            entry["name"]: {"value": 10.0, "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
        for name, value in overrides.get(workload, {}).items():
            if name in metrics:
                metrics[name]["value"] = value
        results[workload] = {"end_to_end": {
            "metrics": metrics,
            "failed_share": overrides.get(workload, {}).get("failed_share", 0.0),
            "detail": {"answers_fingerprint": overrides.get(workload, {}).get("fp", "x")},
        }}
    return {"seed": seed, "seconds": 10.0, "results": results}


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def test_check_passes_within_the_bounds(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _result_set())
    b = _write(tmp_path, "b.json", _result_set(serve_mixed={"cold_wall_s": 10.9}))
    assert run.main(["--check", str(a), str(b)]) == 0
    assert "check passed" in capsys.readouterr().out


def test_check_names_the_metric_and_the_workload(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _result_set())
    b = _write(tmp_path, "b.json", _result_set(serve_read_wide={"warm_wall_s": 11.5}))
    assert run.main(["--check", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION: warm_wall_s on serve_read_wide is 15.0% worse" in out
    assert out.count("REGRESSION") == 1


def test_an_improvement_is_not_a_regression(tmp_path):
    a = _write(tmp_path, "a.json", _result_set())
    b = _write(tmp_path, "b.json", _result_set(pipeline_quick={"cold_wall_s": 5.0}))
    assert run.main(["--check", str(a), str(b)]) == 0


def test_any_rise_in_failed_share_is_a_regression(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _result_set())
    b = _write(tmp_path, "b.json", _result_set(events_sparse={"failed_share": 1e-6}))
    assert run.main(["--check", str(a), str(b)]) == 1
    assert "failed_share on events_sparse rose" in capsys.readouterr().out


def test_same_seed_must_give_the_same_answers(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _result_set())
    b = _write(tmp_path, "b.json", _result_set(serve_mixed={"fp": "y"}))
    assert run.main(["--check", str(a), str(b)]) == 1
    assert "answers_fingerprint on serve_mixed differs" in capsys.readouterr().out
    other_seed = _write(tmp_path, "c.json", _result_set(seed=2009, serve_mixed={"fp": "y"}))
    assert run.main(["--check", str(a), str(other_seed)]) == 0
