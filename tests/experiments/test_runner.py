import pytest

from repro.experiments import runner


def test_runner_rejects_unknown_scale(capsys):
    with pytest.raises(SystemExit):
        runner.main(["--scale", "enormous"])


def test_runner_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        runner.main(["--only", "fig99"])


def test_runner_quick_single_experiment(capsys, tmp_path):
    code = runner.main(
        ["--scale", "quick", "--only", "overhead", "--out", str(tmp_path)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "overhead" in captured.out
    assert (tmp_path / "overhead.txt").exists()


def test_runner_shared_producer_runs_once(capsys):
    # table1/fig6/fig7 share one clustering study; asking for two of
    # them must not run the study twice (the banner appears per report
    # but the generation time is attached to one producer call).
    code = runner.main(["--scale", "quick", "--only", "detour"])
    assert code == 0
    captured = capsys.readouterr()
    assert "Detouring" in captured.out


def test_runner_writes_manifest_next_to_report(tmp_path):
    from repro.obs import RunManifest

    code = runner.main(
        ["--scale", "quick", "--only", "overhead", "--out", str(tmp_path)]
    )
    assert code == 0
    manifest = RunManifest.load(tmp_path / "overhead.manifest.json")
    assert manifest.run_key == "overhead"
    assert manifest.scale == "quick"
    assert manifest.sim_duration_s > 0.0
    # Internal consistency: every probe attempt is one resolver query;
    # every cache miss goes upstream to an authority; the cache sees at
    # least one lookup per query (one per CNAME-chain step).
    counters = manifest.counters()
    assert counters["crp.probe.attempts"] == counters["dns.resolver.queries"]
    assert counters["dns.authority.queries"] == counters["dns.cache.misses"]
    cache_gets = counters["dns.cache.hits"] + counters["dns.cache.misses"]
    assert cache_gets >= counters["dns.resolver.queries"]


def test_runner_no_manifest_flag_skips_manifest(tmp_path):
    code = runner.main(
        [
            "--scale",
            "quick",
            "--only",
            "overhead",
            "--out",
            str(tmp_path),
            "--no-manifest",
        ]
    )
    assert code == 0
    assert (tmp_path / "overhead.txt").exists()
    assert not (tmp_path / "overhead.manifest.json").exists()


def test_runner_service_fails_on_shard_mismatch(capsys, monkeypatch):
    from repro.experiments import service

    replay = service.replay_unsharded
    monkeypatch.setattr(
        service, "replay_unsharded", lambda params, ops: replay(params, ops)[:-1]
    )
    code = runner.main(["service", "--scale", "quick", "--jobs", "1"])
    assert code != 0
    out = capsys.readouterr().out
    assert "service  FAILED" in out
    assert "ShardMismatchError: 4 shards answered" in out


def test_runner_ann_fails_below_recall_floor(capsys, monkeypatch):
    from repro.experiments import ann

    counts = ann._recall_counts

    def low_recall(population, params, queries, k):
        return {**counts(population, params, queries, k), f"recall_at_{k}": 0.9}

    monkeypatch.setattr(ann, "_recall_counts", low_recall)
    code = runner.main(["ann", "--scale", "quick", "--jobs", "1"])
    assert code != 0
    out = capsys.readouterr().out
    # Only the calibrated width is gated: one failed cell per population.
    assert out.count("RecallFloorError: recall@5 0.9000 < 0.95") == 2
    assert "population 2000" in out
