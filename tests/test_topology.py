import numpy as np
import pytest

from distb.topology import generate_topology
from nodes import euclid


def test_distance_identity():
    assert euclid((0, 0, 0), (0, 0, 0)) == 0


def test_distance_pythagorean():
    assert euclid((0, 0, 0), (3, 4, 0)) == 5


def test_distance_3d():
    assert euclid((1, 2, 2), (0, 0, 0)) == 3


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p, q, r = (tuple(rng.uniform(-100, 100, 3).tolist()) for _ in range(3))
        assert euclid(p, q) == euclid(q, p)
        assert euclid(p, r) <= euclid(p, q) + euclid(q, r) + 1e-9


def same_field(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a[:5], b[:5])) and a[5] == b[5]


def test_generate_topology_deterministic():
    a = generate_topology(50, 2500, seed=42)
    b = generate_topology(50, 2500, seed=42)
    assert same_field(a, b)
    c = generate_topology(50, 2500, seed=43)
    assert not same_field(a, c)


def test_generate_topology_single_node():
    x, y, z, energy, area, bs = generate_topology(1, 1000, seed=5)
    assert len(x) == len(y) == len(z) == len(energy) == len(area) == 1
    assert bs == (500.0, 500.0, 0.0)


def test_generate_topology_bounds():
    x, y, z, energy, area, _ = generate_topology(50, 2500, seed=7)
    assert np.all((0 <= x) & (x <= 2500))
    assert np.all((0 <= y) & (y <= 2500))
    assert np.all((0 <= z) & (z <= 30))
    assert np.all(energy > 0)
    assert np.all(area > 0)


def test_generate_topology_rejects_zero_nodes():
    with pytest.raises(ValueError):
        generate_topology(0, 2500, seed=1)


def test_generate_topology_unique_ids():
    # A node's id is its position in every draw, so each array has one entry per id.
    for draw in generate_topology(80, 2500, seed=3)[:5]:
        assert draw.shape == (80,) and draw.dtype == np.float64


def test_node_carries_no_per_round_state():
    # Five per-node draws (location, energy, radius) and the base station; no role, no head.
    field = generate_topology(10, 2500, seed=3)
    assert len(field) == 6
    assert len(field[5]) == 3
