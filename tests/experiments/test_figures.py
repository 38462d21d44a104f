"""Small-scale runs of every figure/table driver.

These verify the drivers produce well-formed, internally consistent
results; the benches run them at paper scale and check result shape
against the paper's claims.
"""


import pytest

from repro.experiments.clustering import run_clustering_study
from repro.experiments.detour import run_detour
from repro.experiments.fig4_closest import run_fig4
from repro.experiments.fig5_relerr import run_fig5
from repro.experiments.fig6_cdf import run_fig6
from repro.experiments.fig7_buckets import run_fig7
from repro.experiments.fig8_interval import run_fig8
from repro.experiments.fig9_window import run_fig9
from repro.experiments.overhead import run_overhead
from repro.experiments.table1_summary import run_table1
from repro.workloads import ScenarioParams
from tests.conftest import make_scenario


@pytest.fixture(scope="module")
def fig45():
    scenario = make_scenario(
        seed=21, dns_servers=12, planetlab_nodes=14, build_meridian=True
    )
    fig4 = run_fig4(scenario, probe_rounds=10)
    fig5 = run_fig5(scenario, outcome=fig4.outcome)
    return fig4, fig5


@pytest.fixture(scope="module")
def study_scenario():
    scenario = make_scenario(seed=22, dns_servers=24, planetlab_nodes=4)
    study = run_clustering_study(
        scenario,
        probe_rounds=15,
        thresholds=(0.01, 0.1, 0.5),
        use_king_ground_truth=False,
    )
    return scenario, study


def test_fig4_series_lengths(fig45):
    fig4, _ = fig45
    n = len(fig4.outcome.records)
    assert len(fig4.meridian_series) == n
    assert len(fig4.crp_top1_series) == n
    assert len(fig4.crp_top5_series) == n


def test_fig4_report_renders(fig45):
    fig4, _ = fig45
    text = fig4.report()
    assert "Figure 4" in text
    assert "Meridian" in text
    assert "CRP Top5" in text


def test_fig5_errors_relative_to_best(fig45):
    fig4, fig5 = fig45
    for record in fig4.outcome.records:
        assert record.crp_top1_error_ms == pytest.approx(
            record.crp_top1_rtt_ms - record.best_rtt_ms
        )
    assert 0.0 <= fig5.negative_fraction() <= 1.0


def test_fig5_report_renders(fig45):
    _, fig5 = fig45
    assert "Figure 5" in fig5.report()


def test_clustering_study_structure(study_scenario):
    scenario, study = study_scenario
    assert set(study.results) == {"crp-t0.01", "crp-t0.1", "crp-t0.5", "asn"}
    for result in study.results.values():
        assert result.total_nodes == len(scenario.clients)


def test_clustering_threshold_monotonicity(study_scenario):
    _, study = study_scenario
    low = study.crp_result(0.01).clustered_count
    high = study.crp_result(0.5).clustered_count
    assert high <= low


def test_fig6_from_study(study_scenario):
    scenario, study = study_scenario
    fig6 = run_fig6(scenario, study=study)
    assert 0.0 <= fig6.good_fraction <= 1.0
    if fig6.qualities:
        xs = [x for x, _ in fig6.intra_cdf]
        assert xs == sorted(xs)
        assert "Figure 6" in fig6.report()


def test_fig7_from_study(study_scenario):
    scenario, study = study_scenario
    fig7 = run_fig7(scenario, study=study)
    assert set(fig7.crp_buckets) == {(0.0, 25.0), (25.0, 75.0)}
    assert all(v >= 0 for v in fig7.crp_buckets.values())
    assert "Figure 7" in fig7.report()


def test_table1_rows(study_scenario):
    scenario, table1 = study_scenario[0], run_table1(study_scenario[0], study=study_scenario[1])
    rows = table1.rows()
    assert [row[0] for row in rows] == [
        "CRP (t=0.01)",
        "CRP (t=0.1)",
        "CRP (t=0.5)",
        "ASN",
    ]
    assert "Table I" in table1.report()


def test_fig8_interval_sweep():
    params = ScenarioParams(seed=23, dns_servers=10, planetlab_nodes=10, build_meridian=False)
    result = run_fig8(
        params,
        intervals_minutes=(20.0, 100.0),
        duration_minutes=400.0,
        evaluations=2,
    )
    assert set(result.points) == {20.0, 100.0}
    for point in result.points.values():
        assert point.unplottable_clients >= 0
        assert all(r >= 0 for r in point.series)
    assert "Figure 8" in result.report()


def test_fig9_window_sweep():
    scenario = make_scenario(seed=24, dns_servers=10, planetlab_nodes=10)
    result = run_fig9(
        scenario, windows=(5, None), probe_rounds=12, evaluations=2
    )
    assert set(result.points) == {5, None}
    assert 0.0 <= result.fraction_all_beats(5) <= 1.0
    assert "Figure 9" in result.report()


def test_detour_experiment():
    scenario = make_scenario(seed=25, dns_servers=12, planetlab_nodes=4)
    result = run_detour(scenario, pairs=20, probe_rounds=8)
    assert 0.0 <= result.win_fraction <= 1.0
    for record in result.records:
        assert record.direct_ms > 0
        assert record.best_detour_ms > 0
        assert record.saving_ms == pytest.approx(
            record.direct_ms - record.best_detour_ms
        )
    assert "Detouring" in result.report()


def test_detour_validation():
    scenario = make_scenario(seed=25, dns_servers=4, planetlab_nodes=4)
    with pytest.raises(ValueError):
        run_detour(scenario, pairs=0)


def test_overhead_experiment():
    scenario = make_scenario(seed=26, dns_servers=8, planetlab_nodes=4)
    result = run_overhead(scenario, probe_rounds=12)
    # CRP at a 100-minute interval is a small fraction of a web client.
    assert result.load_fraction(100.0) < 0.1
    assert result.crp_lookups_per_day[20.0] > result.crp_lookups_per_day[2000.0]
    assert result.measured_queries_per_client_day > 0
    assert "web client" in result.report()


def test_fig8_store_paths_share_one_report(tmp_path):
    from repro.exec import SnapshotStore
    from repro.experiments.fig8_interval import Fig8Result, run_fig8_point

    params = ScenarioParams(
        seed=23, dns_servers=10, planetlab_nodes=10, build_meridian=False
    )

    def report(store):
        point = run_fig8_point(params, 20.0, 200.0, evaluations=2, store=store)
        return Fig8Result(points={20.0: point}, duration_minutes=200.0).report()

    cold = report(None)
    first = SnapshotStore(directory=tmp_path)
    warm = SnapshotStore(directory=tmp_path)
    assert report(first) == cold  # cold through the store
    assert report(warm) == cold  # warm, restored from disk
    assert warm.full_runs == 0 and warm.rounds_extended == 0
    assert warm.rounds_saved == 10  # 200 // 20 rounds, all restored


def test_fig8_packed_matches_scalar_reference():
    """Figure 8/9's checkpoint evaluation (packed ``k=1``) picks, for
    every client and window, the Top-1 the scalar oracle picks."""
    from repro.core.selection import rank_scalar
    from repro.experiments.fig8_interval import _evaluate_top1, base_orderings_for

    scenario = make_scenario(
        seed=23, dns_servers=10, planetlab_nodes=10, build_meridian=False
    )
    scenario.run_probe_rounds(8, 20.0)
    crp = scenario.crp
    orderings = base_orderings_for(scenario)
    for window in (None, 5):
        ranks = {client: [] for client in scenario.client_names}
        _evaluate_top1(scenario, window, orderings, ranks)
        candidate_maps = crp.ratio_maps(scenario.candidate_names, window_probes=window)
        for client in scenario.client_names:
            client_map = crp.ratio_map(client, window_probes=window)
            top = rank_scalar(client_map, candidate_maps)[:1] if client_map else []
            expected = (
                [orderings[client].index(top[0].name)]
                if top and top[0].has_signal
                else []
            )
            assert ranks[client] == expected
        assert any(ranks.values())


def test_fig8_report_renders_dash_for_unplottable_point():
    from repro.experiments.fig8_interval import Fig8Result, RankSweepPoint

    point = RankSweepPoint(
        label="20min/allp", avg_rank_by_client={}, unplottable_clients=3
    )
    report = Fig8Result(points={20.0: point}, duration_minutes=40.0).report()
    assert "—" in report and "nan" not in report


def test_fig9_report_renders_dash_for_unplottable_point():
    from repro.experiments.fig8_interval import RankSweepPoint
    from repro.experiments.fig9_window import Fig9Result

    point = RankSweepPoint(
        label="5 probes", avg_rank_by_client={}, unplottable_clients=3
    )
    report = Fig9Result(points={5: point}, interval_minutes=10.0).report()
    assert "—" in report and "nan" not in report


def test_base_orderings_cached_under_params_fingerprint():
    from repro import obs as obs_layer
    from repro.experiments import fig8_interval as f8
    from repro.workloads.scenario import Scenario

    params = ScenarioParams(
        seed=25, dns_servers=8, planetlab_nodes=6, build_meridian=False
    )
    f8._ORDERINGS_CACHE.clear()
    with obs_layer.observed() as run:
        first = f8.base_orderings_for(Scenario(params))
        second = f8.base_orderings_for(Scenario(params))
    assert second is first  # same world → same cached object
    counters = run.manifest("t", params=params, seed=25).to_dict()["metrics"][
        "counters"
    ]
    assert counters.get("fig8.orderings.reused") == 1
    assert first == f8._base_orderings(Scenario(params))
