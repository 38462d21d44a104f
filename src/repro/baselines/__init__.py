"""Baselines CRP is compared against.

* :mod:`repro.baselines.asn_clustering` — the paper's clustering
  baseline: group hosts by origin AS (RouteViews analogue).
* :mod:`repro.baselines.vivaldi` — decentralised network coordinates
  (Dabek et al., SIGCOMM 2004), referenced by the paper as the
  standard of comparison for Meridian.
* :mod:`repro.baselines.gnp` — landmark-based Global Network
  Positioning (Ng & Zhang, INFOCOM 2002).  Not imported here: it needs
  scipy, a ``dev`` extra; import the module itself.
* :mod:`repro.baselines.random_select` — random and oracle selection,
  the floor and ceiling for closest-node accuracy.
"""

from repro.baselines.asn_clustering import asn_cluster
from repro.baselines.vivaldi import VivaldiParams, VivaldiSystem
from repro.baselines.random_select import OracleSelector, RandomSelector

__all__ = [
    "asn_cluster",
    "VivaldiParams",
    "VivaldiSystem",
    "OracleSelector",
    "RandomSelector",
]
