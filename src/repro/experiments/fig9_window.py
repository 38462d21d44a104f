"""Figure 9 — average selection rank vs probe-window size.

With the probe interval fixed at 10 minutes, the paper varies how many
recent redirections feed the ratio map (all / 30 / 10 / 5 probes) and
plots per-client average rank, sorted.  Findings tracked:

* a 10-probe window is sufficient (≈100-minute bootstrap at 10-minute
  probing);
* "all probes" is better for about two thirds of clients but *worse*
  for the rest — long histories go stale under dynamic conditions.

The probing loop shares figure 8's shape and machinery: checkpoints
drive through prefix-extended snapshot windows
(:func:`~repro.workloads.scenario.driven_checkpoints`) and every
window size is evaluated through the packed engine at each checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.analysis.stats import mean
from repro.analysis.tables import format_series, format_table
from repro.experiments.fig8_interval import (
    RankSweepPoint,
    _evaluate_top1,
    base_orderings_for,
    format_mean_rank,
)
from repro.workloads.scenario import Scenario, driven_checkpoints

if TYPE_CHECKING:  # pragma: no cover - repro.exec imports this module
    from repro.exec.snapshots import SnapshotStore


def _window_label(window: Optional[int]) -> str:
    return "all probes" if window is None else f"{window} probes"


@dataclass
class Fig9Result:
    """One curve per window size."""

    points: Dict[Optional[int], RankSweepPoint]
    interval_minutes: float

    def fraction_all_beats(self, window: int = 10) -> float:
        """Fraction of clients where the all-probes map outranks the
        ``window``-probe map (paper: about two thirds)."""
        all_ranks = self.points[None].avg_rank_by_client
        win_ranks = self.points[window].avg_rank_by_client
        common = sorted(set(all_ranks) & set(win_ranks))
        if not common:
            return 0.0
        better = sum(1 for c in common if all_ranks[c] < win_ranks[c])
        return better / len(common)

    def report(self) -> str:
        series = format_series(
            {
                f"Top1 {_window_label(window)}": point.series
                for window, point in sorted(
                    self.points.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
                )
            },
            title="Figure 9: average rank per client by window size (sorted; lower is better)",
        )
        rows = [
            [
                _window_label(window),
                len(point.avg_rank_by_client),
                format_mean_rank(point.overall_mean),
            ]
            for window, point in sorted(
                self.points.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
            )
        ]
        stats = format_table(
            ["window", "clients plotted", "mean rank"],
            rows,
            title=f"Window-size sweep at {self.interval_minutes:g}-minute probing",
        )
        extra = (
            f"\nall-probes beats 10-probe window for "
            f"{self.fraction_all_beats(10):.0%} of clients"
            if 10 in self.points and None in self.points
            else ""
        )
        return series + "\n\n" + stats + extra


def run_fig9(
    scenario: Scenario,
    windows: Sequence[Optional[int]] = (5, 10, 30, None),
    probe_rounds: int = 200,
    interval_minutes: float = 10.0,
    evaluations: int = 4,
    store: Optional[SnapshotStore] = None,
) -> Fig9Result:
    """Run the Figure 9 sweep over one scenario.

    All window sizes are evaluated from the *same* probe history (they
    are just different views of the log), so a single probing run
    serves every curve — exactly as in the paper.  With a snapshot
    store the probing reuses and extends cached prefixes; window keys
    describe schedules driven from a fresh world, so the store is only
    used when the passed scenario is virgin (no probes, clock at 0).
    """
    if evaluations < 1:
        raise ValueError("need at least one evaluation")
    if store is not None and (scenario.crp.probes_issued or scenario.clock.now):
        store = None
    orderings = base_orderings_for(scenario, store)
    checkpoints = {
        max(1, round((i + 1) * probe_rounds / evaluations)) for i in range(evaluations)
    }
    client_names = list(scenario.client_names)
    ranks: Dict[Optional[int], Dict[str, List[int]]] = {
        window: {c: [] for c in client_names} for window in windows
    }
    for _, live in driven_checkpoints(
        scenario.params,
        sorted(checkpoints),
        interval_minutes,
        store=store,
        scenario=scenario,
    ):
        for window in windows:
            _evaluate_top1(live, window, orderings, ranks[window])

    points: Dict[Optional[int], RankSweepPoint] = {}
    for window in windows:
        avg = {c: mean(r) for c, r in ranks[window].items() if r}
        points[window] = RankSweepPoint(
            label=_window_label(window),
            avg_rank_by_client=avg,
            unplottable_clients=len(client_names) - len(avg),
        )
    return Fig9Result(points=points, interval_minutes=interval_minutes)
