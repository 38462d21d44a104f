"""Time-varying latency components.

Wide-area RTTs are not constants: congestion builds and drains on
shared backbone segments, load follows the local day/night cycle, and
individual samples carry queueing jitter.  The paper leans on exactly
these dynamics — CRP windows exist because redirections move with
network conditions, and Figure 5's negative relative errors exist
because "ground truth" itself was measured on a moving target.

Three components are modelled here:

* :class:`OrnsteinUhlenbeck` — a mean-reverting process used for both
  region-pair backbone congestion and per-host load.  OU is the
  standard choice for "noisy but sticky" network state: deviations are
  random, but decay toward a mean with a configurable time constant.
* A **diurnal** term, a sinusoid phased by longitude so that each
  region's congestion peaks in its local evening.
* Per-sample **jitter**, applied only to *measurements* (by
  :class:`repro.netsim.network.Network`), never to the underlying true
  RTT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.netsim.rng import derive_seed
from repro.netsim.topology import Host
from repro.netsim.world import Region

SECONDS_PER_DAY = 86400.0

#: Diurnal load peaks at local ~20:00: shift the cosine so its max
#: lands there.
_DIURNAL_PEAK_SHIFT = 2.0 * math.pi * (20.0 / 24.0)


class OrnsteinUhlenbeck:
    """A mean-reverting Gaussian process sampled at arbitrary times.

    Parameterised by its *stationary* standard deviation (the typical
    magnitude of excursions) and mean-reversion rate ``theta``, which is
    the intuitive pair for modelling congestion ("deviations of roughly
    σ ms with a memory of ~1/θ seconds").

    Sampling uses the exact transition density, so step size does not
    affect the distribution: ``X(t+dt) = mean + (X(t) - mean) e^{-θdt} +
    N(0, σ²(1 - e^{-2θdt}))`` where σ is the stationary sd.  Queries
    must be at non-decreasing times (the simulated clock is monotonic);
    repeated queries at the same time return the same value.
    """

    def __init__(
        self,
        theta: float,
        stationary_sd: float,
        seed: int,
        mean: float = 0.0,
        start_time: float = 0.0,
    ) -> None:
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        if stationary_sd < 0:
            raise ValueError(f"stationary_sd cannot be negative, got {stationary_sd}")
        self.theta = theta
        self.stationary_sd = stationary_sd
        self.mean = mean
        self._rng = np.random.default_rng(seed)
        self._t = float(start_time)
        # Start from the stationary distribution so early samples are
        # not artificially calm.
        self._x = mean + float(self._rng.normal(0.0, stationary_sd))

    @property
    def last_time(self) -> float:
        """Time of the most recent sample."""
        return self._t

    def sample(self, t: float) -> float:
        """Value of the process at time ``t`` (non-decreasing)."""
        if t < self._t:
            raise ValueError(
                f"OU process sampled backwards: t={t} < last={self._t}"
            )
        dt = t - self._t
        if dt > 0:
            decay = math.exp(-self.theta * dt)
            sd = self.stationary_sd * math.sqrt(max(0.0, 1.0 - decay**2))
            noise = float(self._rng.normal(0.0, sd))
            self._x = self.mean + (self._x - self.mean) * decay + noise
            self._t = t
        return self._x


@dataclass(frozen=True)
class RegionalSurge:
    """A bounded episode of extra delay touching one region.

    Models abrupt, non-stationary degradation the OU processes cannot:
    a backbone cut forcing long reroutes, a flash crowd, a de-peering
    event.  Every path with an endpoint in ``region`` pays ``extra_ms``
    while the surge is active; a very large ``extra_ms`` approximates a
    partition (traffic still "arrives", but so late that redirections
    and measurements behave as if the region fell off the map).
    """

    #: :class:`~repro.netsim.world.Region` value string, e.g. ``"eu"``.
    region: str
    extra_ms: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.extra_ms < 0:
            raise ValueError(f"extra_ms cannot be negative, got {self.extra_ms}")
        if self.end <= self.start:
            raise ValueError(f"surge must end after it starts ({self.start}..{self.end})")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class CongestionParams:
    """Tunables for the congestion field."""

    #: Std-dev of region-pair backbone congestion, ms.
    regional_sigma_ms: float = 4.0
    #: Mean-reversion rate of backbone congestion (1/s); ~30 min memory.
    regional_theta: float = 1.0 / 1800.0
    #: Std-dev of per-host load, ms.
    host_sigma_ms: float = 2.0
    #: Mean-reversion rate of per-host load (1/s); ~10 min memory.
    host_theta: float = 1.0 / 600.0
    #: Peak-to-mean amplitude of the diurnal swing, ms.
    diurnal_amplitude_ms: float = 2.5


class CongestionField:
    """Composes regional, per-host and diurnal congestion into one value.

    ``congestion_ms(a, b, t)`` is deterministic for a given seed and a
    monotone query sequence, and is always non-negative.  Processes are
    created lazily per region pair / per host, each seeded independently
    from the field seed, so the set of *other* queries made does not
    change any process's path — only its own query times do (and all
    experiments advance time globally, keeping runs reproducible).
    """

    def __init__(self, seed: int, params: CongestionParams = CongestionParams()) -> None:
        self._seed = seed
        self.params = params
        self._regional: Dict[Tuple[str, str], OrnsteinUhlenbeck] = {}
        self._per_host: Dict[int, OrnsteinUhlenbeck] = {}
        #: Injected degradation episodes (fault layer); empty by default
        #: so the baseline congestion path draws no extra state.
        self._surges: List[RegionalSurge] = []

    # -- fault injection ---------------------------------------------------

    def add_surge(self, surge: RegionalSurge) -> RegionalSurge:
        """Install a degradation episode (kept sorted by start time)."""
        self._surges.append(surge)
        self._surges.sort(key=lambda s: (s.start, s.end, s.region))
        return surge

    @property
    def surges(self) -> Tuple[RegionalSurge, ...]:
        """All installed surges, past and future."""
        return tuple(self._surges)

    def surge_ms(self, host: Host, t: float) -> float:
        """Total surge delay touching a host's region at time ``t``."""
        return sum(
            s.extra_ms
            for s in self._surges
            if s.active(t) and host.region.value == s.region
        )

    def _regional_process(self, ra: Region, rb: Region) -> OrnsteinUhlenbeck:
        key = tuple(sorted((ra.value, rb.value)))
        process = self._regional.get(key)
        if process is None:
            process = OrnsteinUhlenbeck(
                theta=self.params.regional_theta,
                stationary_sd=self.params.regional_sigma_ms,
                seed=derive_seed(self._seed, "regional", key[0], key[1]),
            )
            self._regional[key] = process
        return process

    def _host_process(self, host: Host) -> OrnsteinUhlenbeck:
        process = self._per_host.get(host.host_id)
        if process is None:
            process = OrnsteinUhlenbeck(
                theta=self.params.host_theta,
                stationary_sd=self.params.host_sigma_ms,
                seed=derive_seed(self._seed, "host", host.name),
            )
            self._per_host[host.host_id] = process
        return process

    def _diurnal_ms(self, host: Host, t: float) -> float:
        """Sinusoidal load peaking in the host's local evening."""
        local_phase = (t / SECONDS_PER_DAY + host.location.lon / 360.0) * 2.0 * math.pi
        swing = math.cos(local_phase - _DIURNAL_PEAK_SHIFT)
        return 0.5 * self.params.diurnal_amplitude_ms * (1.0 + swing)

    def congestion_ms(self, a: Host, b: Host, t: float) -> float:
        """Extra RTT from congestion on the (a, b) path at time ``t``."""
        return self.congestion_row_ms(a, (b,), t)[0]

    def congestion_row_ms(self, a: Host, others: Sequence[Host], t: float) -> List[float]:
        """``congestion_ms(a, b, t)`` for every ``b`` in ``others``, in order.

        What depends only on ``(a, t)`` — ``a``'s load, diurnal term and
        surge, the regional process per destination region — is worked
        out once for the row.  Every process keeps its own generator, so
        a row leaves each of them exactly where the same pairs asked one
        by one would.
        """
        host_a = self._host_process(a).sample(t)
        diurnal_a = self._diurnal_ms(a, t)
        surged = bool(self._surges)
        surge_a = self.surge_ms(a, t) if surged else 0.0
        region_a = a.region
        per_host = self._per_host
        diurnal_ms = self._diurnal_ms
        #: destination region -> (regional sample, surge on that region)
        per_region: Dict[Region, Tuple[float, float]] = {}
        row = []
        for b in others:
            region_b = b.metro.region
            shared = per_region.get(region_b)
            if shared is None:
                shared = per_region[region_b] = (
                    self._regional_process(region_a, region_b).sample(t),
                    self.surge_ms(b, t) if surged else 0.0,
                )
            regional, surge_b = shared
            host_b = (per_host.get(b.host_id) or self._host_process(b)).sample(t)
            diurnal = 0.5 * (diurnal_a + diurnal_ms(b, t))
            total = max(0.0, regional + host_a + host_b + diurnal)
            if surged:
                total += surge_a + surge_b
            row.append(total)
        return row
