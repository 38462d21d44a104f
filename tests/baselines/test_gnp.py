import numpy as np
import pytest

from repro.baselines.gnp import GnpParams, GnpSystem
from repro.netsim import HostKind, Network, SimClock


def test_params_validation():
    with pytest.raises(ValueError):
        GnpParams(dimensions=1)
    with pytest.raises(ValueError):
        GnpParams(restarts=0)


def test_needs_more_landmarks_than_dimensions():
    system = GnpSystem(GnpParams(dimensions=3))
    with pytest.raises(ValueError):
        system.fit_landmarks(["a", "b", "c"], np.zeros((3, 3)))


def test_matrix_shape_checked():
    system = GnpSystem(GnpParams(dimensions=2))
    with pytest.raises(ValueError):
        system.fit_landmarks(["a", "b", "c"], np.zeros((2, 2)))


def test_place_before_fit_rejected():
    system = GnpSystem()
    with pytest.raises(ValueError):
        system.place_node("x", [1.0])


def test_fit_recovers_planar_geometry():
    """Landmarks on a plane embed with low residual and correct order."""
    points = np.array([[0, 0], [100, 0], [0, 100], [100, 100], [50, 50]], dtype=float)
    names = [f"l{i}" for i in range(len(points))]
    matrix = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    system = GnpSystem(GnpParams(dimensions=2, restarts=4), seed=1)
    residual = system.fit_landmarks(names, matrix)
    assert residual < 1e-3
    assert system.estimate_ms("l0", "l1") == pytest.approx(100.0, rel=0.05)
    assert system.estimate_ms("l0", "l3") == pytest.approx(100 * np.sqrt(2), rel=0.05)


def test_place_node_and_rank():
    points = np.array([[0, 0], [100, 0], [0, 100], [100, 100], [50, 50]], dtype=float)
    names = [f"l{i}" for i in range(len(points))]
    matrix = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    system = GnpSystem(GnpParams(dimensions=2, restarts=4), seed=1)
    system.fit_landmarks(names, matrix)
    # A node at (10, 10).
    node = np.array([10.0, 10.0])
    rtts = [float(np.linalg.norm(node - p)) for p in points]
    system.place_node("x", rtts)
    ranked = system.rank_candidates("x", names)
    assert ranked[0][0] == "l0"  # (0,0) is the nearest landmark
    assert system.closest("x", names) == "l0"


def test_place_node_validates_rtt_count():
    points = np.array([[0, 0], [100, 0], [0, 100], [100, 100], [50, 50]], dtype=float)
    names = [f"l{i}" for i in range(len(points))]
    matrix = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    system = GnpSystem(GnpParams(dimensions=2), seed=1)
    system.fit_landmarks(names, matrix)
    with pytest.raises(ValueError):
        system.place_node("x", [1.0, 2.0])


def test_embedding_on_simulated_network(topology, host_rng):
    network = Network(topology, SimClock(), seed=17)
    metros = ["new-york", "chicago", "london", "frankfurt", "tokyo", "seattle"]
    landmarks = [
        topology.create_host(f"lm-{m}", HostKind.PLANETLAB, topology.world.metro(m), host_rng)
        for m in metros
    ]
    names = [h.name for h in landmarks]
    count = len(landmarks)
    matrix = np.zeros((count, count))
    for i in range(count):
        for j in range(i + 1, count):
            matrix[i, j] = matrix[j, i] = network.measure_rtt_median_ms(
                landmarks[i], landmarks[j]
            )
    system = GnpSystem(GnpParams(dimensions=3, restarts=3), seed=2)
    system.fit_landmarks(names, matrix)

    node = topology.create_host(
        "probe-bos", HostKind.DNS_SERVER, topology.world.metro("boston"), host_rng
    )
    rtts = [network.measure_rtt_median_ms(node, lm) for lm in landmarks]
    system.place_node("probe-bos", rtts)
    ranked = system.rank_candidates("probe-bos", names)
    # Boston's nearest landmark must be New York, not Tokyo.
    assert ranked[0][0] == "lm-new-york"
    assert ranked[-1][0] == "lm-tokyo"
