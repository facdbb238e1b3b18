import random
from fractions import Fraction
from math import ceil

import pytest

from c4lab import graphs
from c4lab.errors import DomainError, GenerationFailure
from c4lab.graphs import (
    Graph,
    bipartition,
    bits,
    degeneracy,
    degrees_within,
    gen_gnp,
    gen_lopsided,
    greedy_coloring,
    half_degree_core,
    induced,
    mask_of,
    min_degree_core,
    mix_seed,
    projective_plane_incidence,
)
from c4lab.named import (
    complete_graph,
    cycle_graph,
    heawood_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from helpers import (
    average_degree,
    bipartition_reference,
    degeneracy_by_min_scan,
    disjoint_union,
    everything,
    gen_lopsided_by_pair_holders,
    girth,
    half_degree_core_on_graph,
    induced_by_edge_walk,
    max_degree,
    min_degree_core_on_graph,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.edge_count == 4
    assert g.degree(0) == 2
    assert g.has_edge(0, 3) and not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_graph_rejects_bad_edges():
    with pytest.raises(DomainError):
        Graph(3, [(0, 3)])
    with pytest.raises(DomainError):
        Graph(3, [(1, 1)])


def test_average_degree_examples():
    # the exact average degree a certificate's stats report for a witness
    from c4lab.pipeline import DELTA, _record

    def avg(g, witness):
        return _record(g, witness, None, 1, DELTA)[1]["avg_degree"]

    assert avg(cycle_graph(4), range(4)) == "2"
    assert avg(heawood_graph(), range(14)) == "3"  # 21 edges on 14 vertices
    assert avg(Graph(1), [0]) == "0"
    assert avg(cycle_graph(5), [0, 1, 2]) == "4/3"
    assert avg(Graph(0), []) == "0"


def test_heawood_statistics():
    h = heawood_graph()
    assert h.n == 14 and h.edge_count == 21
    assert all(h.degree(v) == 3 for v in range(h.n))
    assert girth(h) == 6


def test_min_degree_core_examples():
    assert min_degree_core(star_graph(5).masks, (1 << 6) - 1, 2) == 0
    assert min_degree_core(cycle_graph(5).masks, 0b11111, 2) == 0b11111
    assert min_degree_core(petersen_graph().masks, (1 << 10) - 1, 3) == (1 << 10) - 1
    # inside a vertex mask: the path 0-1-2-3 of C5 has a 1-core, no 2-core
    assert min_degree_core(cycle_graph(5).masks, 0b01111, 1) == 0b01111
    assert min_degree_core(cycle_graph(5).masks, 0b01111, 2) == 0
    with pytest.raises(DomainError):
        min_degree_core(cycle_graph(5).masks, 0b11111, 0)


def test_min_degree_core_is_maximal_and_min_degree_holds():
    rng = random.Random(7)
    for _ in range(200):
        n = 2 + rng.randrange(12)
        g = gen_gnp(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(2 ** 32))
        t = 1 + rng.randrange(4)
        alive = rng.choice([everything(g), rng.getrandbits(n)])
        core = min_degree_core(g.masks, alive, t)
        assert core & ~alive == 0
        sub = induced(g, bits(core))
        if core:
            assert min(map(sub.degree, range(sub.n))) >= t
        # independent replay: rescan-and-remove until stable; each removed
        # vertex has degree < t at its own removal time, and confluence makes
        # the result unique, so it must equal the library's core
        kept = set(bits(alive))
        changed = True
        while changed:
            changed = False
            for v in sorted(kept):
                if len(set(g.neighbors(v)) & kept) < t:
                    kept.discard(v)
                    changed = True
        assert mask_of(kept) == core
        # no single outside vertex of the alive set can be added back
        for v in list(bits(alive & ~core))[:5]:
            gs = induced(g, bits(core | 1 << v))
            assert min(map(gs.degree, range(gs.n))) < t


def test_half_degree_core_is_one_peel_at_half_the_average_degree():
    # nothing to peel: the set itself comes back
    for g in (Graph(5, []), Graph(0, []), petersen_graph(), cycle_graph(6)):
        assert half_degree_core(g.masks, everything(g)) == everything(g)
    rng = random.Random(5)
    for _ in range(200):
        n = 1 + rng.randrange(14)
        g = gen_gnp(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(2 ** 32))
        alive = rng.choice([everything(g), rng.getrandbits(n)])
        core = half_degree_core(g.masks, alive)
        sub = induced(g, bits(alive))
        if sub.edge_count == 0:
            assert core == alive
            continue
        expected = min_degree_core(g.masks, alive, max(1, ceil(average_degree(sub) / 2)))
        assert core == expected and core


def test_peeling_lemma_nonempty_core():
    # d(g) >= 2t-1 forces a nonempty t-core
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        n = 3 + rng.randrange(14)
        g = gen_gnp(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(2 ** 32))
        d = average_degree(g)
        for t in (1, 2, 3, 4):
            if d >= 2 * t - 1:
                assert min_degree_core(g.masks, everything(g), t), \
                    f"empty {t}-core with d={d}"
                checked += 1
    assert checked > 500


def test_degrees_within_matches_a_per_vertex_count():
    # every vertex's count into the set, and 2e summed over its members
    # only, against a plain count on each vertex, from the empty set to all
    rng = random.Random(43)
    for n in (1, 2, 7, 40, 121):
        for p in (0.05, 0.3, 0.8):
            g = gen_gnp(n, p, rng.randrange(2 ** 32))
            members = rng.sample(range(n), n)
            masks = [0, 1 << members[0], mask_of(members[:n // 2]),
                     mask_of(members[:n // 2 + 1]), mask_of(members[1:]), everything(g)]
            for alive in masks:
                want = [(g.masks[v] & alive).bit_count() for v in range(n)]
                two_e = sum(want[v] for v in range(n) if alive >> v & 1)
                assert degrees_within(g.masks, alive) == (want, two_e), (n, p, alive)


def test_mask_peels_match_the_graph_references():
    # the peels on a vertex mask of g against the Graph-based peels on the
    # subgraph it induces, lifted back to g's ids
    rng = random.Random(41)
    cases = set()
    for _ in range(300):
        n = 1 + rng.randrange(40)
        g = gen_gnp(n, rng.choice([0.05, 0.15, 0.3, 0.6]), rng.randrange(2 ** 32))
        independent = 0
        for v in range(n):
            if not g.masks[v] & independent:
                independent |= 1 << v
        alive = rng.choice([0, independent, everything(g), rng.getrandbits(n),
                            rng.getrandbits(n) & rng.getrandbits(n)])
        ids = list(bits(alive))
        sub = induced(g, ids)
        cases.add("empty" if not alive else "edgeless" if not sub.edge_count else "edges")
        for t in (1, 2, 3, max_degree(sub) + 1):
            want = min_degree_core_on_graph(sub, t)
            assert min_degree_core(g.masks, alive, t) == mask_of(ids[v] for v in want)
        _, kept = half_degree_core_on_graph(sub)
        assert half_degree_core(g.masks, alive) == mask_of(ids[v] for v in kept)
    assert cases == {"empty", "edgeless", "edges"}


def test_degeneracy_examples():
    assert degeneracy(path_graph(6))[0] == 1
    assert degeneracy(complete_graph(5))[0] == 4
    assert degeneracy(heawood_graph())[0] == 3


def test_degeneracy_ordering_witnesses_bound():
    rng = random.Random(3)
    for _ in range(100):
        n = 1 + rng.randrange(12)
        g = gen_gnp(n, 0.4, rng.randrange(2 ** 32))
        d, order = degeneracy(g)
        assert sorted(order) == list(range(n))
        # every removal has at most d live neighbors, and the charges sum to e(g)
        alive = set(range(n))
        total = 0
        for v in order:
            live_deg = len(set(g.neighbors(v)) & alive)
            assert live_deg <= d
            total += live_deg
            alive.discard(v)
        assert total == g.edge_count
        # hence degeneracy >= d(g)/2 exactly
        if n:
            assert Fraction(d) >= average_degree(g) / 2


def assert_degeneracy_matches_min_scan(g: Graph):
    assert degeneracy(g) == degeneracy_by_min_scan(g)
    colors = greedy_coloring(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "degeneracy", degeneracy_by_min_scan)
        assert colors == greedy_coloring(g)


def test_degeneracy_matches_min_scan_on_gnp():
    rng = random.Random(8)
    for _ in range(600):
        n = rng.randrange(41)
        p = rng.choice([0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.95])
        assert_degeneracy_matches_min_scan(gen_gnp(n, p, rng.randrange(2 ** 32)))


def test_degeneracy_matches_min_scan_on_ties():
    plane = [projective_plane_incidence(q).underlying for q in (2, 3, 5)]
    cases = [Graph(0), Graph(1), Graph(9)]
    cases += [complete_graph(n) for n in range(1, 9)]
    cases += plane
    cases += [cycle_graph(8), petersen_graph(), star_graph(6)]
    cases += [disjoint_union(complete_graph(4), Graph(3), cycle_graph(5), plane[0]),
              disjoint_union(plane[1], complete_graph(6), plane[0]),
              disjoint_union(*(complete_graph(3) for _ in range(5)))]
    for g in cases:
        assert_degeneracy_matches_min_scan(g)
    assert degeneracy(Graph(0)) == (0, ())
    assert degeneracy(Graph(4)) == (0, (0, 1, 2, 3))


def test_induced_examples():
    c4 = cycle_graph(4)
    p3 = induced(c4, [0, 1, 2])
    assert p3 == path_graph(3)
    g = petersen_graph()
    # keeping every vertex hands back the graph itself
    assert induced(g, range(g.n)) is g
    ring = induced(g, [0, 1, 2, 3, 4])
    assert ring == cycle_graph(5)
    with pytest.raises(DomainError):
        induced(c4, [0, 9])


def test_induced_matches_edge_walk():
    plane = projective_plane_incidence(3).underlying
    rng = random.Random(53)
    graphs = [Graph(0), petersen_graph(), plane, Graph(5, [(0, 4)])]
    graphs += [gen_gnp(1 + rng.randrange(70), p, rng.randrange(2 ** 32))
               for p in (0.05, 0.3, 0.8) for _ in range(10)]
    for g in graphs:
        # full, unsorted full, empty, with duplicates, random subsets
        picks = [list(range(g.n)), list(range(g.n))[::-1], [],
                 [rng.randrange(g.n) for _ in range(g.n)]]
        picks += [rng.sample(range(g.n), rng.randrange(g.n + 1)) for _ in range(6)]
        for keep in picks:
            sub, ref = induced(g, keep), induced_by_edge_walk(g, keep)
            assert sub == ref
            assert sub.edge_count == ref.edge_count
            assert (sub is g) == (len(set(keep)) == g.n)
    # ids are range-checked
    for bad, vertex in (([0, 26], 26), ([-1, 3], -1), ([30, 40], 30)):
        with pytest.raises(DomainError, match=f"vertex {vertex} out of range"):
            induced(plane, bad)


def test_gen_gnp_degenerate_and_determinism():
    assert gen_gnp(5, 0.0, 1).edge_count == 0
    assert gen_gnp(5, 1.0, 1) == complete_graph(5)
    a = gen_gnp(30, 0.3, 12345)
    b = gen_gnp(30, 0.3, 12345)
    assert list(a.edges()) == list(b.edges())
    assert a != gen_gnp(30, 0.3, 12346)


def test_gen_gnp_edge_count_concentration():
    # |e - 2475| < 4*sqrt(C(100,2)*0.25) for every seed in a pinned family
    bound = 4 * (4950 * 0.25) ** 0.5
    bad = 0
    for seed in range(1000):
        e = gen_gnp(100, 0.5, seed).edge_count
        if abs(e - 2475) >= bound:
            bad += 1
    assert bad == 0


def test_projective_plane_examples():
    for q in (2, 3, 5):
        bg = projective_plane_incidence(q)
        n1 = q * q + q + 1
        assert bg.n == 2 * n1
        assert bg.underlying.edge_count == (q + 1) * n1
        assert all(bg.underlying.degree(v) == q + 1 for v in range(bg.n))
        assert girth(bg.underlying) == 6
    with pytest.raises(DomainError, match=r"^q=4 is not prime \(prime powers unsupported\)$"):
        projective_plane_incidence(4)


def test_projective_plane_is_c4_free():
    from c4lab.oracles import find_c4

    assert find_c4(projective_plane_incidence(3).underlying) is None


def test_gen_lopsided_trivial_and_posthoc():
    bg = gen_lopsided(8, 4, 1, 2, seed=5)
    assert all(bg.underlying.degree(a) == 1 for a in bg.side_a)
    # feasible stand-in for the degree-2 family: 30 distinct pairs out of C(10,2)=45
    bg2 = gen_lopsided(30, 10, 2, 2, seed=9)
    assert all(bg2.underlying.degree(a) == 2 for a in bg2.side_a)
    from c4lab.oracles import contains_biclique, find_c4

    assert contains_biclique(bg2.underlying, 2) is None
    assert find_c4(bg2.underlying) is None


def test_gen_lopsided_pigeonhole_failures():
    # only 10 distinct 9-subsets of a 10-set exist, any two sharing 8 >= 2
    with pytest.raises(GenerationFailure):
        gen_lopsided(1000, 10, 9, 2, seed=1)
    # 100 left-vertices of degree 2 into 10 right-vertices cannot avoid a
    # repeated pair (only C(10,2)=45 distinct pairs exist)
    with pytest.raises(GenerationFailure):
        gen_lopsided(100, 10, 2, 2, seed=1)


def test_gen_lopsided_refuses_negative_counts():
    # a negative r would slice the sampled subset from its end and give
    # A-vertices of degree b_count + r
    for args, name in (((2, 6, -2, 3), "r=-2"), ((-1, 6, 2, 3), "a_count=-1"),
                       ((2, -1, 0, 3), "b_count=-1")):
        with pytest.raises(DomainError, match=f"^{name} must be nonnegative$"):
            gen_lopsided(*args, seed=1)
    assert gen_lopsided(2, 6, 0, 3, seed=1).edge_count == 0


@pytest.mark.parametrize("s", [0, 1])
def test_gen_lopsided_refuses_s_below_2(s):
    # the request rule of every other route, even where no edge is drawn
    with pytest.raises(DomainError, match="^s must be >= 2$"):
        gen_lopsided(2, 6, 0, s, seed=1)


def test_gen_lopsided_s3():
    bg = gen_lopsided(60, 12, 4, 3, seed=13)
    g = bg.underlying
    assert all(g.degree(a) == 4 for a in bg.side_a)
    from c4lab.oracles import contains_biclique

    assert contains_biclique(g, 3) is None


def test_gen_lopsided_determinism():
    e1 = list(gen_lopsided(12, 14, 3, 2, seed=77).underlying.edges())
    e2 = list(gen_lopsided(12, 14, 3, 2, seed=77).underlying.edges())
    assert e1 == e2


# (a, b, r, s): the benchmark's two shapes, the extraction route's r = 9
# shape (113 resamples over the six seeds), and dense s = 2 and s = 4
# shapes (29, 168 and 371 resamples)
LOPSIDED_SHAPES = [(200, 25, 3, 3), (300, 30, 3, 3), (400, 150, 9, 3),
                   (40, 60, 3, 2), (200, 14, 5, 4), (400, 16, 5, 4)]


@pytest.mark.parametrize("shape", LOPSIDED_SHAPES,
                         ids=lambda shape: "-".join(map(str, shape)))
def test_gen_lopsided_matches_the_pair_holder_sets(shape):
    for seed in range(6):
        got = gen_lopsided(*shape, seed=seed).underlying
        assert got.masks == gen_lopsided_by_pair_holders(*shape, seed).masks


def test_mix_seed_spread():
    outs = {mix_seed(42, i) for i in range(1000)}
    assert len(outs) == 1000
    assert mix_seed(42, 0) != mix_seed(43, 0)


def _bipartition_cases():
    """Edgeless and tiny graphs, odd and even cycles side by side with
    isolated vertices, projective planes, and random graphs on hidden
    sides, every other one with one edge inside a side."""
    yield from (Graph(0), Graph(1), Graph(6), cycle_graph(5), cycle_graph(6),
                petersen_graph(), heawood_graph(),
                disjoint_union(cycle_graph(4), Graph(1), cycle_graph(7)),
                disjoint_union(Graph(2), path_graph(3), cycle_graph(3), cycle_graph(8)))
    for q in (2, 3, 5, 13):
        yield projective_plane_incidence(q).underlying
    rng = random.Random(19)
    for i in range(300):
        n = rng.randrange(2, 40)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.choice([0.03, 0.08, 0.2, 0.5])
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] != side[v] and rng.random() < p}
        if i % 2:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        yield Graph(n, sorted(edges))


def test_bipartition_matches_the_stack_search_and_networkx():
    # on every vertex, and on a random proper vertex mask against the
    # stack search on the graph that mask induces, lifted back to g's ids
    import networkx as nx

    rng = random.Random(29)
    kinds = set()
    for g in _bipartition_cases():
        got = bipartition(g.masks, everything(g))
        ref = bipartition_reference(g)
        assert got == (None if ref is None else mask_of(ref[0]))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert (got is not None) == nx.is_bipartite(h)
        kinds.add((got is not None, g.n > 0 and nx.is_connected(h)))
        if g.n < 2:
            continue
        alive = everything(g) ^ 1 << rng.randrange(g.n)
        alive &= rng.getrandbits(g.n) | rng.getrandbits(g.n)
        ids = list(bits(alive))
        ref = bipartition_reference(induced(g, ids))
        got = bipartition(g.masks, alive)
        assert got == (None if ref is None else mask_of(ids[v] for v in ref[0]))
        kinds.add(("mask", got is not None))
    # bipartite and not, connected and not, on a mask too
    assert kinds == {(True, True), (True, False), (False, True), (False, False),
                     ("mask", True), ("mask", False)}


def test_bipartition_examples():
    assert bipartition((), 0) == 0
    assert bipartition(Graph(1).masks, 1) == 1
    # each component's least vertex lands on the side returned, isolated
    # vertices too; the other side is the rest of the mask
    g = disjoint_union(Graph(1), path_graph(3), cycle_graph(4))
    assert bipartition(g.masks, everything(g)) == mask_of({0, 1, 3, 4, 6})
    odd = disjoint_union(cycle_graph(4), cycle_graph(5))
    assert bipartition(odd.masks, everything(odd)) is None
    # without vertex 8 the 5-cycle is the path 4-5-6-7
    assert bipartition(odd.masks, everything(odd) ^ 1 << 8) == mask_of({0, 2, 4, 6})
