import random

import pytest

from c4lab import subdivisions
from c4lab.errors import DomainError, InvariantError
from c4lab.graphs import (Graph, bipartition, gen_gnp, half_degree_core,
                          projective_plane_incidence)
from c4lab.named import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    heawood_graph,
    path_graph,
    petersen_graph,
)
from c4lab.pipeline import PipelineParams
from c4lab.subdivisions import (
    SubdivisionWitness,
    find_subdivision,
    induced_subdivision,
    verify_subdivision,
)
from helpers import (near_regular_case_by_set_scans, sampler_by_set_scans,
                     witness_path_edges, witness_vertices)

FAST = PipelineParams(retries=10, attempts=2)


def test_k4_identity_subdivision():
    g = complete_graph(4)
    w = find_subdivision(g, 4, seed=1)
    assert w is not None
    assert verify_subdivision(g, w)
    assert all(len(p) == 2 for p in w.paths.values())
    assert w.induced_flag  # K4 on all four vertices is induced


def test_petersen_k4_subdivision():
    g = petersen_graph()
    w = find_subdivision(g, 4, seed=3)
    assert w is not None
    assert verify_subdivision(g, w)


def test_tree_has_no_k3_subdivision():
    assert find_subdivision(path_graph(7), 3, seed=1) is None
    # a bigger tree: greedy-only regime still returns None
    star = Graph(20, [(0, i) for i in range(1, 20)])
    assert find_subdivision(star, 3, seed=1) is None


def test_find_subdivision_rejects_small_k():
    with pytest.raises(DomainError):
        find_subdivision(complete_graph(3), 1, seed=1)


def test_verify_subdivision_rejects_shared_internals():
    g = cycle_graph(6)
    # branch 0,2,4 on C6: paths 0-1-2, 2-3-4, 4-5-0
    good = SubdivisionWitness(
        (0, 2, 4),
        {(0, 2): (0, 1, 2), (2, 4): (2, 3, 4), (0, 4): (0, 5, 4)},
        induced_flag=True)
    assert verify_subdivision(g, good)
    bad = SubdivisionWitness(
        (0, 2, 4),
        {(0, 2): (0, 1, 2), (2, 4): (2, 1, 4), (0, 4): (0, 5, 4)},
        induced_flag=False)
    assert not verify_subdivision(g, bad)  # vertex 1 reused (and 1-4 no edge)


def test_verify_subdivision_rejects_path_vertices_out_of_range():
    g = cycle_graph(6)
    for internal in (-1, 6, 10 ** 20):
        w = SubdivisionWitness((0, 2), {(0, 2): (0, internal, 2)}, induced_flag=False)
        assert not verify_subdivision(g, w)


def test_verify_subdivision_checks_induced_flag():
    g = complete_graph(4)
    w = SubdivisionWitness(
        (0, 1, 2),
        {(0, 1): (0, 1), (0, 2): (0, 2), (1, 2): (1, 3, 2)},
        induced_flag=True)
    # vertex 3 brings chords 0-3 and edge 1-2 outside the path set
    assert not verify_subdivision(g, w)
    w2 = SubdivisionWitness(w.branch_vertices, w.paths, induced_flag=False)
    assert verify_subdivision(g, w2)


def test_induced_flag_matches_an_edge_scan():
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        g = gen_gnp(9, rng.choice([0.3, 0.5, 0.7]), rng.randrange(2 ** 32))
        w = find_subdivision(g, 3, seed=rng.randrange(100))
        if w is None:
            continue
        inside = witness_vertices(w)
        actual = {(u, v) for u, v in g.edges() if u in inside and v in inside}
        assert w.induced_flag == (actual == witness_path_edges(w))
        checked += 1
    assert checked > 30


def test_find_subdivision_raises_when_its_witness_fails_replay(monkeypatch):
    monkeypatch.setattr(subdivisions, "verify_subdivision", lambda g, w: False)
    with pytest.raises(InvariantError, match="failed its own replay"):
        find_subdivision(complete_graph(4), 3, seed=1)
    # with the greedy routing failing, the exhaustive packing's witness
    # is replayed as well
    monkeypatch.setattr(subdivisions, "_greedy_attempt", lambda g, branch: None)
    with pytest.raises(InvariantError, match="failed its own replay"):
        find_subdivision(complete_graph(4), 3, seed=1)


def test_aux_graph_rejects_connectors_sharing_both_endpoints():
    with pytest.raises(InvariantError, match="share both endpoints"):
        subdivisions._build_aux_graph([0, 1], {5: (0, 1), 6: (0, 1)})


def test_witness_json_roundtrip():
    g = complete_graph(4)
    w = find_subdivision(g, 3, seed=1)
    back = SubdivisionWitness.from_json(w.to_json())
    assert back.branch_vertices == w.branch_vertices
    assert back.paths == w.paths
    assert verify_subdivision(g, back)


def test_induced_subdivision_heawood_k3(monkeypatch):
    monkeypatch.setattr(subdivisions, "SAMPLE_RETRIES", 200)
    g = heawood_graph()
    found = None
    for seed in range(50):
        w = induced_subdivision(g, 2, 3, seed=seed, params=FAST)
        if w is not None:
            found = w
            break
    assert found is not None
    assert found.induced_flag
    assert verify_subdivision(g, found)
    # the lift is a cycle of length >= 6 (girth of the host)
    total = len(witness_vertices(found))
    assert total >= 6


def test_induced_subdivision_k33():
    g = complete_bipartite(3, 3).underlying
    w = induced_subdivision(g, 3, 3, seed=2, params=FAST)
    assert w is not None and w.induced_flag
    assert verify_subdivision(g, w)


def test_induced_subdivision_edgeless():
    assert induced_subdivision(Graph(5), 2, 2, seed=1, params=FAST) is None


def test_induced_subdivision_samples_the_peeled_witness(monkeypatch):
    # PG(2,3) with three pendant vertices is C4-free with average degree
    # 110/29 >= 3, so the whole graph is the witness; its peel at
    # ceil(55/29) = 2 drops the pendants, and the sampler gets the plane's
    # 26 vertices as g's own mask, once for every attempt
    plane = projective_plane_incidence(3).underlying
    g = Graph(29, list(plane.edges()) + [(0, 26), (1, 27), (2, 28)])
    cores, draws = [], []

    def record(nbr, core):
        assert nbr is g.masks
        cores.append(core)
        return draws.append

    monkeypatch.setattr(subdivisions, "_sampler", record)
    monkeypatch.setattr(subdivisions, "SAMPLE_RETRIES", 3)
    assert induced_subdivision(g, 2, 3, seed=1, params=FAST) is None
    assert cores == [(1 << 26) - 1] and len(draws) == 3


def test_induced_subdivision_fuzz_soundness(monkeypatch):
    monkeypatch.setattr(subdivisions, "SAMPLE_RETRIES", 30)
    rng = random.Random(101)
    found = 0
    for trial in range(40):
        n = 4 + rng.randrange(10)
        g = gen_gnp(n, rng.choice([0.2, 0.4]), rng.randrange(2 ** 32))
        k = rng.choice([2, 3])
        w = induced_subdivision(g, 2, k, seed=trial, params=FAST)
        if w is not None:
            found += 1
            assert w.induced_flag
            assert verify_subdivision(g, w)
    assert found > 0


def test_subdivision_determinism(monkeypatch):
    g = petersen_graph()
    w1 = find_subdivision(g, 4, seed=3)
    w2 = find_subdivision(g, 4, seed=3)
    assert w1.to_json() == w2.to_json()
    h = heawood_graph()
    monkeypatch.setattr(subdivisions, "SAMPLE_RETRIES", 100)
    a = induced_subdivision(h, 2, 3, seed=11, params=FAST)
    b = induced_subdivision(h, 2, 3, seed=11, params=FAST)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.to_json() == b.to_json()


def test_find_subdivision_fuzz_soundness():
    rng = random.Random(103)
    for trial in range(60):
        n = 4 + rng.randrange(9)
        g = gen_gnp(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(2 ** 32))
        k = rng.choice([3, 4])
        w = find_subdivision(g, k, seed=trial)
        if w is not None:
            assert verify_subdivision(g, w)


def _random_proper_mask(rng, g):
    """A random mask of about 80% of g's vertices, missing at least one."""
    return sum(1 << v for v in range(g.n) if rng.random() < 0.8) & ~(1 << rng.randrange(g.n))


def test_bipartite_case_matches_the_set_scan():
    # PG(2, q) is what extract-plane samples; the random graphs on hidden
    # sides have two hubs joined to the whole other side, which the
    # big-side degree cap drops when they land on the larger side.  Each
    # graph runs whole and on a random proper vertex mask, against the set
    # scan on the graph the mask induces
    graphs = [projective_plane_incidence(q).underlying for q in (3, 5, 7, 13)]
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randrange(40, 80)
        side = [rng.random() < 0.4 for _ in range(n)]
        hubs = [v for v in range(n) if not side[v]][:2]
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if side[u] != side[v]
                                and (u in hubs or v in hubs or rng.random() < 0.08)]))
    cases = [(kind, g, core) for g in graphs
             for kind, core in (("whole", (1 << g.n) - 1), ("mask", _random_proper_mask(rng, g)))]
    # hub 0 of the larger side sees all six of the smaller side, under the
    # cap 4d = 7.8 in the mask, and four more vertices outside it: the cap
    # counts degrees inside the mask
    hub = Graph(40, [(v, 30 + v % 6) for v in range(1, 30)]
                + [(0, v) for v in range(30, 40)])
    cases.append(("hub", hub, (1 << 36) - 1))
    found = {"whole": 0, "mask": 0, "hub": 0}
    for kind, g, core in cases:
        assert bipartition(g.masks, core) is not None
        sample = subdivisions._sampler(g.masks, core)
        for seed in range(100):
            got = sample(random.Random(seed))
            assert got == sampler_by_set_scans(g, core, random.Random(seed))
            found[kind] += got is not None
    assert found["whole"] >= 150 and found["mask"] >= 100 and found["hub"] > 0


def test_near_regular_case_matches_the_set_scan():
    # the min-degree cores of G(n, 6/(n-1)), and a random proper vertex mask
    # of each graph, 4 graphs x 100 seeds per n, against the set scan on the
    # graph the mask induces
    rng = random.Random(31)
    found = {"core": 0, "mask": 0}
    for n in (40, 100, 200, 400):
        for graph_seed in range(4):
            g = gen_gnp(n, 6 / (n - 1), graph_seed)
            cores = (("core", half_degree_core(g.masks, (1 << n) - 1)),
                     ("mask", _random_proper_mask(rng, g)))
            for kind, core in cores:
                assert core != (1 << n) - 1 and bipartition(g.masks, core) is None
                sample = subdivisions._sampler(g.masks, core)
                for seed in range(100):
                    got = sample(random.Random(seed))
                    assert got == sampler_by_set_scans(g, core, random.Random(seed))
                    found[kind] += got is not None
    assert found["core"] >= 80 and found["mask"] >= 80


def test_sampler_needs_an_edge():
    g = Graph(5, [(0, 1), (2, 3)])
    assert subdivisions._sampler(g.masks, 0b10101) is None
    assert subdivisions._sampler(g.masks, 0) is None
    assert subdivisions._sampler(g.masks, 0b00011) is not None


class _ScriptedDraws:
    """A stand-in for random.Random whose random() samples exactly `picks`
    when the sampler draws once per vertex in ascending order."""

    def __init__(self, picks):
        self.picks, self.v = picks, -1

    def random(self):
        self.v += 1
        return 0.0 if self.v in self.picks else 1.0


def test_near_regular_case_needs_every_sampled_neighbour_in_w():
    # W0 = {0, 1, 2, 3}; the edge 2-3 keeps 2 and 3 out of W = {0, 1}.
    # Vertex 4 sees both of W but also 2 in W0, so only 5 is a connector
    g = Graph(6, [(0, 4), (1, 4), (2, 4), (2, 3), (0, 5), (1, 5)])
    expected = ([0, 1], {5: (0, 1)})
    draws = _ScriptedDraws({0, 1, 2, 3})
    assert subdivisions._near_regular_case(g.masks, list(range(6)), 2.0, draws) == expected
    assert near_regular_case_by_set_scans(g, _ScriptedDraws({0, 1, 2, 3})) == expected


def test_induced_packer_prunes_only_chorded_branches():
    # the first induced packing is the one the unpruned search accepts
    from helpers import exhaustive_pack_by_full_routes

    rng = random.Random(37)
    found = set()
    for _ in range(80):
        n = 5 + rng.randrange(5)
        g = gen_gnp(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(2 ** 32))
        k = 3 + rng.randrange(3)
        got = subdivisions._exhaustive_pack(g, k, True)
        want = exhaustive_pack_by_full_routes(g, k, True)
        assert (got and got.to_json()) == (want and want.to_json()), (n, k, g.masks)
        found.add(got is None)
    assert found == {True, False}
