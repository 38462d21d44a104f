"""Extension bench — CRP vs coordinate-embedding systems.

Section II positions CRP against embedding approaches: "while network
embedding ensures scalability by avoiding direct measurements, the
embedding process itself can introduce significant errors (e.g. in the
selection of landmarks)."  This bench puts numbers on that trade for
closest-node selection:

* **CRP** — zero measurements, reuses CDN redirections.
* **GNP** — landmark-based embedding; every client measures RTT to all
  landmarks (15 probes per client here).
* **Vivaldi** — decentralised embedding; nodes continuously exchange
  samples (64 per node here).
* **oracle / random** — the ceiling and the floor.
"""

import numpy as np
import pytest

from benchmarks.bench_config import bench_scale, save_report
from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.baselines import RandomSelector, VivaldiSystem
from repro.baselines.gnp import GnpParams, GnpSystem
from repro.workloads import Scenario, ScenarioParams


def test_bench_coordinate_system_comparison(benchmark):
    scale = bench_scale()
    scenario = Scenario(
        ScenarioParams(
            seed=303,
            dns_servers=min(150, scale.selection_clients),
            planetlab_nodes=min(80, scale.candidates),
            build_meridian=False,
            king_weight_power=1.0,
            king_rural_fraction=0.25,
        )
    )

    def run():
        scenario.run_probe_rounds(48)

        # GNP: 15 well-spread landmarks from the candidate set.
        landmarks = scenario.candidates[::max(1, len(scenario.candidates) // 15)][:15]
        names = [h.name for h in landmarks]
        count = len(landmarks)
        matrix = np.zeros((count, count))
        for i in range(count):
            for j in range(i + 1, count):
                matrix[i, j] = matrix[j, i] = scenario.network.measure_rtt_median_ms(
                    landmarks[i], landmarks[j]
                )
        gnp = GnpSystem(GnpParams(dimensions=5, restarts=2), seed=303)
        gnp.fit_landmarks(names, matrix)
        gnp_probes = count * (count - 1) // 2 * 3
        for host in scenario.candidates + scenario.clients:
            if host.name in names:
                continue
            rtts = [
                scenario.network.measure_rtt_median_ms(host, lm) for lm in landmarks
            ]
            gnp.place_node(host.name, rtts)
            gnp_probes += count * 3

        # Vivaldi: continuous peer sampling, 64 samples per node.
        vivaldi = VivaldiSystem(seed=303)
        everyone = scenario.clients + scenario.candidates
        for host in everyone:
            vivaldi.add_node(host.name)
        rng = np.random.default_rng(303)
        vivaldi_probes = 0
        ordered = sorted(h.name for h in everyone)
        by_name = {h.name: h for h in everyone}
        for name in ordered:
            for _ in range(64):
                peer = ordered[int(rng.integers(0, len(ordered)))]
                if peer == name:
                    continue
                sample = scenario.network.measure_rtt_ms(by_name[name], by_name[peer])
                vivaldi.observe_symmetric(name, peer, sample)
                vivaldi_probes += 1
        return gnp, gnp_probes, vivaldi, vivaldi_probes

    gnp, gnp_probes, vivaldi, vivaldi_probes = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    random_baseline = RandomSelector(seed=303)
    ranks = {"crp": [], "gnp": [], "vivaldi": [], "random": []}
    covered = 0
    for client in scenario.client_names:
        ordering = sorted(
            scenario.candidate_names,
            key=lambda n: scenario.network.base_rtt_ms(
                scenario.host(client), scenario.host(n)
            ),
        )
        picked = scenario.crp.rank_servers(client, scenario.candidate_names)
        if picked and picked[0].has_signal:
            covered += 1
            ranks["crp"].append(ordering.index(picked[0].name))
        ranks["gnp"].append(ordering.index(gnp.closest(client, scenario.candidate_names)))
        ranks["vivaldi"].append(
            ordering.index(vivaldi.closest(client, scenario.candidate_names))
        )
        ranks["random"].append(
            ordering.index(random_baseline.closest(client, scenario.candidate_names))
        )

    total = len(scenario.client_names)
    rows = [
        ["CRP (redirection reuse)", 0, f"{covered}/{total}", f"{mean(ranks['crp']):.2f}"],
        ["GNP (landmarks)", gnp_probes, f"{total}/{total}", f"{mean(ranks['gnp']):.2f}"],
        ["Vivaldi (p2p samples)", vivaldi_probes, f"{total}/{total}", f"{mean(ranks['vivaldi']):.2f}"],
        ["random", 0, f"{total}/{total}", f"{mean(ranks['random']):.2f}"],
    ]
    report = format_table(
        ["system", "RTT probes spent", "clients answered", "mean Top-1 rank"],
        rows,
        title="CRP vs coordinate systems (closest-node selection)",
    )
    save_report("coordinates_comparison", report)
    print("\n" + report)

    # CRP matches or beats both embeddings where it has signal — while
    # spending zero probes.
    assert mean(ranks["crp"]) <= mean(ranks["gnp"]) + 1.0
    assert mean(ranks["crp"]) <= mean(ranks["vivaldi"]) + 1.0
    # Everything beats random decisively.
    assert mean(ranks["random"]) > 3 * mean(ranks["crp"])