import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distb.clustering import Geometry, elect
from distb.errors import ExhaustedNetworkError
from distb.topology import (
    BaseStation,
    Node,
    NodeSet,
    Point3,
    TopologyParams,
    euclid,
    generate_topology,
)


def make_node(nid, x, y, z, energy, area):
    return Node(id=nid, location=Point3(x, y, z), energy=energy, area=area)


def make_set(nodes, bs=(0.0, 0.0, 0.0)):
    return NodeSet(nodes=nodes, base_station=BaseStation(Point3(*bs)))


# --- independent re-execution oracle (selection sort + greedy scan) ---------


def oracle_clusters(node_set):
    bs = node_set.base_station.location
    arr = [
        {
            "id": n.id,
            "x": n.location.x,
            "y": n.location.y,
            "z": n.location.z,
            "energy": n.energy,
            "area": n.area,
            "head": False,
            "member": False,
        }
        for n in node_set.nodes
    ]
    for n in arr:
        n["dist"] = math.sqrt((n["x"] - bs.x) ** 2 + (n["y"] - bs.y) ** 2 + (n["z"] - bs.z) ** 2)
    key = lambda n: (-n["energy"], n["dist"], n["id"])
    for i in range(len(arr)):  # exhaustive selection sort
        m = i
        for j in range(i + 1, len(arr)):
            if key(arr[j]) < key(arr[m]):
                m = j
        arr[i], arr[m] = arr[m], arr[i]
    clusters = []
    for i, n in enumerate(arr):
        if n["head"] or n["member"]:
            continue
        n["head"] = True
        members = []
        for j in range(i + 1, len(arr)):
            o = arr[j]
            if o["head"] or o["member"]:
                continue
            d = math.sqrt((n["x"] - o["x"]) ** 2 + (n["y"] - o["y"]) ** 2 + (n["z"] - o["z"]) ** 2)
            if d < n["area"]:
                o["member"] = True
                members.append(o["id"])
        clusters.append((n["id"], tuple(members)))
    return clusters


def elect_once(node_set, params=TopologyParams()):
    """`elect` over a fresh Geometry: the (head id, member ids) pairs in election
    order, and the post-charge energies by node list position."""
    geo = Geometry(node_set)
    elected, energy = elect(geo, np.array([n.energy for n in node_set.nodes], dtype=float), params)
    ids = geo.ids.tolist()
    return [(ids[i], tuple(ids[j] for j in members)) for i, members in elected], energy


def library_clusters(node_set):
    return elect_once(node_set)[0]


def election_order(node_set):
    """The order `elect` elects in: with every radius 0, each node heads its own cluster."""
    solo = NodeSet(nodes=[replace(n, area=0.0) for n in node_set.nodes], base_station=node_set.base_station)
    return [head_id for head_id, _ in library_clusters(solo)]


def sort_key(node, node_set):
    return (-node.energy, euclid(node.location, node_set.base_station.location), node.id)


# --- sort ---------------------------------------------------------------


def test_sort_composite_key_forced():
    # energies [5, 9, 9], dist [10, 30, 20] -> expect [c, b, a]
    a = make_node(0, 10, 0, 0, 5.0, 100)
    b = make_node(1, 30, 0, 0, 9.0, 100)
    c = make_node(2, 20, 0, 0, 9.0, 100)
    ns = make_set([a, b, c])
    assert election_order(ns) == [2, 1, 0]


def test_sort_single_node():
    ns = make_set([make_node(0, 1, 1, 1, 5.0, 100)])
    assert election_order(ns) == [0]


def test_sort_matches_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        nodes = [
            make_node(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 0.0,
                      float(rng.choice([3.0, 5.0, 9.0])), 50.0)
            for i in range(10)
        ]
        ns = make_set(nodes)
        # independent comparison sort on the same key
        expect = sorted(ns.nodes, key=lambda n: sort_key(n, ns))
        assert election_order(ns) == [n.id for n in expect]


# --- head selection -------------------------------------------------------


def test_single_node_is_head():
    ns = make_set([make_node(0, 5, 5, 0, 10.0, 100)])
    assert library_clusters(ns) == [(0, ())]


def test_two_distant_nodes_two_singleton_heads():
    ns = make_set([make_node(0, 0, 0, 0, 10.0, 50), make_node(1, 1000, 0, 0, 8.0, 50)])
    clusters = library_clusters(ns)
    assert sorted(head_id for head_id, _ in clusters) == [0, 1]
    assert all(members == () for _, members in clusters)


def test_five_node_fixture_matches_oracle():
    nodes = [
        make_node(0, 0, 0, 0, 9.0, 120),
        make_node(1, 50, 0, 0, 7.0, 200),
        make_node(2, 100, 0, 0, 9.0, 80),
        make_node(3, 300, 0, 0, 6.0, 90),
        make_node(4, 110, 10, 0, 5.0, 60),
    ]
    ns = make_set(nodes)
    assert library_clusters(ns) == oracle_clusters(ns)


def test_selection_matches_oracle_on_seeded_sets():
    for seed in range(60):
        n = 2 + seed % 9
        ns = generate_topology(n, 800, seed=seed)
        assert library_clusters(ns) == oracle_clusters(ns)


def test_empty_set_rejected():
    # no node holds energy, so there is no one to elect
    with pytest.raises(ExhaustedNetworkError):
        elect_once(NodeSet(nodes=[], base_station=BaseStation(Point3(0, 0, 0))))


def test_determinism():
    ns = generate_topology(40, 2500, seed=23)
    a = library_clusters(ns)
    b = library_clusters(ns)
    assert a == b


def test_first_sorted_node_is_head():
    for seed in range(20):
        ns = generate_topology(15, 1000, seed=seed)
        first = min(ns.nodes, key=lambda n: sort_key(n, ns))
        assert library_clusters(ns)[0][0] == first.id


def test_partition_coverage_dominance_invariants():
    for seed in range(40):
        ns = generate_topology(30, 1500, seed=seed)
        by_id = {n.id: n for n in ns.nodes}
        seen = []
        for head_id, members in library_clusters(ns):
            seen.append(head_id)
            seen.extend(members)
            head = by_id[head_id]
            for m in members:
                member = by_id[m]
                d = math.dist(
                    (head.location.x, head.location.y, head.location.z),
                    (member.location.x, member.location.y, member.location.z),
                )
                assert d < head.area
                assert head.energy >= member.energy
        assert sorted(seen) == sorted(n.id for n in ns.nodes)


# --- rounds ---------------------------------------------------------------


def test_round_with_huge_energy_keeps_selection():
    ns = generate_topology(20, 1000, seed=3)
    boosted = NodeSet(
        nodes=[Node(n.id, n.location, 1e6 + n.energy, n.area) for n in ns.nodes],
        base_station=ns.base_station,
    )
    assert library_clusters(boosted) == oracle_clusters(boosted)


def test_total_energy_strictly_decreases_until_exhaustion():
    ns = generate_topology(10, 500, seed=5)
    params = TopologyParams(head_cost_j=2.0, tx_cost_j=0.5)
    geo = Geometry(ns)
    energy = np.array([n.energy for n in ns.nodes], dtype=float)
    prev = sum(energy.tolist())
    for r in range(10_000):
        try:
            _, energy = elect(geo, energy, params)
        except ExhaustedNetworkError:
            break
        total = sum(energy.tolist())
        assert total < prev
        prev = total
    else:
        pytest.fail("network never exhausted")


def test_exhausted_network_raises():
    nodes = [make_node(i, i * 10.0, 0, 0, 0.0, 50) for i in range(4)]
    ns = make_set(nodes)
    with pytest.raises(ExhaustedNetworkError):
        elect_once(ns)


def test_lifetime_matches_independent_energy_ledger():
    # step the library rounds and an independent bookkeeping of the same rules,
    # and require identical rounds-until-first-depletion
    params = TopologyParams(head_cost_j=3.0, tx_cost_j=1.0)
    ns = generate_topology(20, 800, seed=8)

    ledger = {n.id: n.energy for n in ns.nodes}
    expected_lifetime = None
    geo = Geometry(ns)
    energy = np.array([n.energy for n in ns.nodes], dtype=float)
    for r in range(10_000):
        alive = [replace(n, energy=e) for n, e in zip(ns.nodes, energy.tolist()) if e > 0]
        oracle = oracle_clusters(NodeSet(nodes=alive, base_station=ns.base_station))
        for head_id, members in oracle:
            ledger[head_id] = max(0.0, ledger[head_id] - (params.head_cost_j + params.tx_cost_j * len(members)))
            for m in members:
                ledger[m] = max(0.0, ledger[m] - params.tx_cost_j)
        _, energy = elect(geo, energy, params)
        for n, e in zip(ns.nodes, energy.tolist()):
            assert math.isclose(e, ledger[n.id], abs_tol=1e-9)
        if any(v <= 0 for v in ledger.values()):
            expected_lifetime = r + 1
            break
    assert expected_lifetime is not None
    depleted = [n.id for n, e in zip(ns.nodes, energy.tolist()) if e <= 0.0]
    assert depleted, f"lifetime {expected_lifetime} rounds but nothing depleted"


# --- array-backed round against the oracle ----------------------------------

# Few distinct values, so that energy ties and duplicate coordinates are common.
coords = st.sampled_from([0.0, 1.0, 2.5, 40.0]) | st.floats(-3000, 3000)
energies = st.sampled_from([-1.0, 0.0, 2.0, 5.0]) | st.floats(0.0, 100.0)


@st.composite
def node_sets(draw):
    n = draw(st.integers(1, 12))
    nodes = [
        make_node(i, draw(coords), draw(coords), draw(coords), draw(energies), draw(st.floats(0.0, 500.0)))
        for i in range(n)
    ]
    # Put one node exactly on another's radius, or just past it.
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    radius = euclid(nodes[a].location, nodes[b].location)
    nodes[a].area = draw(st.sampled_from([radius, math.nextafter(radius, math.inf)]))
    return make_set(nodes, bs=(draw(coords), draw(coords), 0.0))


@settings(max_examples=300, deadline=None)
@given(node_sets(), st.floats(0.0, 5.0), st.floats(0.0, 2.0))
def test_array_round_matches_oracle_and_energy_ledger(ns, head_cost, tx_cost):
    params = TopologyParams(head_cost_j=head_cost, tx_cost_j=tx_cost)
    alive = [n for n in ns.nodes if n.energy > 0]
    if not alive:
        with pytest.raises(ExhaustedNetworkError):
            elect_once(ns, params)
        return
    oracle = oracle_clusters(NodeSet(nodes=alive, base_station=ns.base_station))
    ledger = {n.id: n.energy for n in ns.nodes}
    for head_id, members in oracle:
        ledger[head_id] = max(0.0, ledger[head_id] - (params.head_cost_j + params.tx_cost_j * len(members)))
        for m in members:
            ledger[m] = max(0.0, ledger[m] - params.tx_cost_j)

    clusters, energy = elect_once(ns, params)
    assert clusters == oracle
    assert energy.tolist() == [ledger[n.id] for n in ns.nodes]


def radius_pairs():
    """(head, other) point pairs on which the vector distance and `euclid`
    disagree (numpy's squares can round one ulp away from libm's pow), then
    20 on which they agree."""
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 2500.0, (20_000, 6))
    vec = np.sqrt(((a[:, 0] - a[:, 3]) ** 2 + (a[:, 1] - a[:, 4]) ** 2) + (a[:, 2] - a[:, 5]) ** 2)
    rows = [
        row for row, v in zip(a.tolist(), vec.tolist()) if v != euclid(Point3(*row[:3]), Point3(*row[3:]))
    ]
    return [(Point3(*row[:3]), Point3(*row[3:])) for row in rows + a[:20].tolist()]


def test_membership_at_the_radius_follows_scalar_distance():
    # On the pairs where the vector distance and `euclid` disagree above
    # all, a candidate exactly on the head's radius must stay out and one just
    # inside must join, in the first round and in every later one that reuses
    # the cover.
    for head, other in radius_pairs():
        r = euclid(head, other)
        for area, members in ((r, ()), (math.nextafter(r, math.inf), (1,))):
            ns = make_set([Node(0, head, 9.0, area), Node(1, other, 1.0, 1.0)])
            assert library_clusters(ns)[0] == (0, members)
            drive_to_exhaustion(ns, TopologyParams())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_rejected(bad):
    nodes = [make_node(0, 0.0, 0.0, 0.0, 5.0, 100.0), make_node(1, 10.0, bad, 0.0, 4.0, 100.0)]
    ns = NodeSet(nodes=nodes, base_station=BaseStation(Point3(0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        Geometry(ns)
    good = NodeSet(nodes=nodes[:1], base_station=BaseStation(Point3(bad, 0.0, 0.0)))
    with pytest.raises(ValueError):
        Geometry(good)


# --- one geometry through a whole run ---------------------------------------


def drive_to_exhaustion(ns, params):
    """Elect with one Geometry and one energy array, as the engine does, until
    the network dies. Every round must be oracle_clusters over the nodes still
    alive, with each energy equal to an independent ledger's. Returns the
    number of rounds."""
    geo = Geometry(ns)
    energy = np.array([n.energy for n in ns.nodes], dtype=float)
    ids = [n.id for n in ns.nodes]
    ledger = dict(zip(ids, energy.tolist()))
    for r in range(10_000):
        alive = [replace(n, energy=ledger[n.id]) for n in ns.nodes if ledger[n.id] > 0]
        if not alive:
            with pytest.raises(ExhaustedNetworkError):
                elect(geo, energy, params)
            return r
        oracle = oracle_clusters(NodeSet(nodes=alive, base_station=ns.base_station))
        elected, energy = elect(geo, energy, params)
        assert [(ids[i], tuple(ids[j] for j in members)) for i, members in elected] == oracle, r
        for head_id, members in oracle:
            ledger[head_id] = max(0.0, ledger[head_id] - (params.head_cost_j + params.tx_cost_j * len(members)))
            for m in members:
                ledger[m] = max(0.0, ledger[m] - params.tx_cost_j)
        assert energy.tolist() == [ledger[i] for i in ids], r
    pytest.fail("network never exhausted")


def test_one_geometry_serves_every_round_of_dense_sets():
    params = TopologyParams(energy_range_j=(5.0, 15.0), head_cost_j=2.0, tx_cost_j=0.5)
    for seed in range(4):
        ns = generate_topology(60, 700.0, seed=seed, params=params)
        assert drive_to_exhaustion(ns, params) > 5


@settings(max_examples=100, deadline=None)
@given(node_sets(), st.floats(1.0, 5.0), st.floats(0.5, 2.0))
def test_one_geometry_serves_every_round_of_tied_and_dead_nodes(ns, head_cost, tx_cost):
    drive_to_exhaustion(ns, TopologyParams(head_cost_j=head_cost, tx_cost_j=tx_cost))
