from dataclasses import fields

import numpy as np
import pytest

from distb.topology import Node, Point3, euclid, generate_topology


def test_distance_identity():
    assert euclid(Point3(0, 0, 0), Point3(0, 0, 0)) == 0


def test_distance_pythagorean():
    assert euclid(Point3(0, 0, 0), Point3(3, 4, 0)) == 5


def test_distance_3d():
    assert euclid(Point3(1, 2, 2), Point3(0, 0, 0)) == 3


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p, q, r = (Point3(*rng.uniform(-100, 100, 3)) for _ in range(3))
        assert euclid(p, q) == euclid(q, p)
        assert euclid(p, r) <= euclid(p, q) + euclid(q, r) + 1e-9


def test_generate_topology_deterministic():
    a = generate_topology(50, 2500, seed=42)
    b = generate_topology(50, 2500, seed=42)
    assert a == b
    c = generate_topology(50, 2500, seed=43)
    assert a != c


def test_generate_topology_single_node():
    ns = generate_topology(1, 1000, seed=5)
    assert len(ns.nodes) == 1
    assert ns.nodes[0].id == 0


def test_generate_topology_bounds():
    ns = generate_topology(50, 2500, seed=7)
    for n in ns.nodes:
        assert 0 <= n.location.x <= 2500
        assert 0 <= n.location.y <= 2500
        assert 0 <= n.location.z <= 30
        assert n.energy > 0
        assert n.area > 0


def test_generate_topology_rejects_zero_nodes():
    with pytest.raises(ValueError):
        generate_topology(0, 2500, seed=1)


def test_generate_topology_unique_ids():
    ns = generate_topology(80, 2500, seed=3)
    ids = [n.id for n in ns.nodes]
    assert len(set(ids)) == len(ids)


def test_node_carries_no_per_round_state():
    assert [f.name for f in fields(Node)] == ["id", "location", "energy", "area"]
