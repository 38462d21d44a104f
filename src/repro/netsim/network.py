"""The network facade: RTT queries over the full latency model.

:class:`Network` is what every other subsystem talks to.  It composes
the static :class:`~repro.netsim.latency.LatencyModel` with the
:class:`~repro.netsim.dynamics.CongestionField` and the shared clock,
and distinguishes the *true* instantaneous RTT from a *measured* RTT
(which carries per-sample jitter and occasional spikes, as a real ping
or King measurement would).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.netsim.clock import SimClock
from repro.netsim.dynamics import CongestionField, CongestionParams
from repro.netsim.latency import LatencyModel, LatencyParams
from repro.netsim.rng import derive_rng, derive_seed
from repro.netsim.topology import Host, Topology


@dataclass(frozen=True)
class MeasurementParams:
    """How noisy individual RTT measurements are."""

    #: Std-dev of multiplicative jitter (lognormal sigma).
    jitter_sigma: float = 0.06
    #: Probability a sample hits a transient queue spike.
    spike_probability: float = 0.02
    #: Spike magnitude range as a fraction of the true RTT.
    spike_fraction_range: tuple = (0.25, 2.0)


class Network:
    """RTT oracle plus measurement front-end for a topology."""

    def __init__(
        self,
        topology: Topology,
        clock: SimClock,
        seed: int = 0,
        latency_params: LatencyParams = LatencyParams(),
        congestion_params: CongestionParams = CongestionParams(),
        measurement_params: MeasurementParams = MeasurementParams(),
    ) -> None:
        self.topology = topology
        self.clock = clock
        self.latency = LatencyModel(topology.registry, latency_params, seed=derive_seed(seed, "latency"))
        self.congestion = CongestionField(derive_seed(seed, "congestion"), congestion_params)
        self.measurement_params = measurement_params
        self._measure_rng = derive_rng(seed, "measurement")

    # -- true state -----------------------------------------------------

    def base_rtt_ms(self, a: Host, b: Host) -> float:
        """The time-invariant component of RTT(a, b)."""
        return self.latency.base_rtt_ms(a, b)

    def base_rtts_ms(self, a: Host, others: Sequence[Host]) -> List[float]:
        """The time-invariant component from ``a`` to each of ``others``."""
        return self.latency.base_rtts_ms(a, others)

    def nearest(self, a: Host, others: Sequence[Host], k: int) -> List[int]:
        """Positions in ``others`` of the ``k`` hosts with the smallest
        base RTT to ``a``, nearest first (ties in ``others`` order)."""
        return self.latency.nearest(a, others, k)

    def rtt_ms(self, a: Host, b: Host, at: Optional[float] = None) -> float:
        """True instantaneous RTT between two hosts, in milliseconds.

        Deterministic for a given time: no sampling noise.  ``at``
        defaults to the current simulated time.
        """
        if a.host_id == b.host_id:
            return 0.0
        t = self.clock.now if at is None else at
        return self.base_rtt_ms(a, b) + self.congestion.congestion_ms(a, b, t)

    def one_hop_rtt_ms(self, a: Host, via: Host, b: Host, at: Optional[float] = None) -> float:
        """RTT of the detour path a → via → b (used by the detouring bench)."""
        return self.rtt_ms(a, via, at=at) + self.rtt_ms(via, b, at=at)

    # -- measurements ------------------------------------------------------

    def measure_rtt_ms(self, a: Host, b: Host) -> float:
        """One noisy RTT sample, as a ping would see it.

        Adds multiplicative jitter and, with small probability, a
        transient queueing spike.  Never returns less than the model
        floor.
        """
        return self.measure_rtts_ms(a, (b,))[0]

    def measure_rtts_ms(self, a: Host, others: Sequence[Host]) -> List[float]:
        """One noisy sample from ``a`` to each of ``others``, in order.

        The order of draws on the measurement generator is contract
        (DESIGN §6): per host ``lognormal``, ``random`` and, only on a
        spike, ``uniform``.  ``a`` itself measures 0.0 and draws nothing.
        """
        apart = [b for b in others if b.host_id != a.host_id]
        if not apart:
            return [0.0] * len(others)
        congestion = self.congestion.congestion_row_ms(a, apart, self.clock.now)
        params = self.measurement_params
        sigma = params.jitter_sigma
        spike_probability = params.spike_probability
        floor_ms = self.latency.params.floor_ms
        rng = self._measure_rng
        samples = []
        for base, extra in zip(self.base_rtts_ms(a, apart), congestion):
            true_rtt = base + extra
            sample = true_rtt * float(rng.lognormal(0.0, sigma))
            if rng.random() < spike_probability:
                lo, hi = params.spike_fraction_range
                sample += true_rtt * float(rng.uniform(lo, hi))
            samples.append(max(sample, floor_ms))
        if len(apart) < len(others):
            rest = iter(samples)
            samples = [0.0 if b.host_id == a.host_id else next(rest) for b in others]
        return samples

    def measure_rtt_median_ms(self, a: Host, b: Host, samples: int = 3) -> float:
        """Median of several samples — the usual spike-resistant probe."""
        if samples < 1:
            raise ValueError("need at least one sample")
        values = sorted(self.measure_rtt_ms(a, b) for _ in range(samples))
        return values[len(values) // 2]
