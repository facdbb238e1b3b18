import random
from fractions import Fraction

import pytest

from c4lab import reductions
from c4lab.errors import (
    C4LabError,
    DomainError,
    ExtractionFailure,
    InvariantError,
)
from c4lab.graphs import (
    BipartiteGraph,
    Graph,
    bits,
    gen_gnp,
    gen_lopsided,
    induced,
    mask_of,
    projective_plane_incidence,
)
from c4lab.named import (
    complete_graph,
    cycle_graph,
    heawood_graph,
    petersen_graph,
)
from c4lab.oracles import find_c3, find_c4
from c4lab.reductions import (
    almost_biregular_reduce,
    biregularity_factor,
    bipartite_regularize,
    extreme_split,
    sparsify_short_cycles,
    split_from_prefix,
    split_prefix,
)
import helpers
from helpers import (
    average_degree,
    girth,
    max_degree,
    run_optimized,
    short_cycle_vertices_by_pair_scan,
)


def heawood_bipartite():
    return projective_plane_incidence(2)


def matching_bipartite(k: int) -> BipartiteGraph:
    g = Graph(2 * k, [(i, k + i) for i in range(k)])
    return BipartiteGraph(g, range(k), range(k, 2 * k))


# -- almost_biregular_reduce ---------------------------------------------------

def reduce_bipartite(bg: BipartiteGraph, seed: int) -> int:
    """`almost_biregular_reduce` on a BipartiteGraph's masks and sides."""
    return almost_biregular_reduce(bg.underlying.masks, mask_of(bg.side_a),
                                   mask_of(bg.side_b), seed)


def factor(bg: BipartiteGraph) -> Fraction:
    return biregularity_factor(bg.underlying.masks, mask_of(bg.side_a),
                               mask_of(bg.side_b))


def test_reduce_empty_edge_set_returns_input():
    bg = BipartiteGraph(Graph(5), range(3), range(3, 5))
    assert reduce_bipartite(bg, seed=1) == mask_of((0, 1, 2, 3, 4))
    assert factor(bg) == 0


def test_reduce_heawood():
    bg = heawood_bipartite()
    ids = list(bits(reduce_bipartite(bg, seed=7)))
    out = induced(bg.underlying, ids)
    d_in = average_degree(bg.underlying)
    d_out = average_degree(out)
    assert d_out >= d_in / 4
    assert factor(bg) == 1
    assert max_degree(out) <= 24 * 1 * d_out
    # both sides have 7 vertices, so p = 1 and every cap is 1 + 2(3 - 1) = 5:
    # the reduction keeps all 14 vertices
    assert ids == list(range(14))


def test_reduce_perfect_matching():
    bg = matching_bipartite(8)
    ids = bits(reduce_bipartite(bg, seed=3))
    assert average_degree(induced(bg.underlying, ids)) >= Fraction(1, 4)


def test_reduce_measures_its_own_factor():
    # one heavy A-vertex: degree 4, |A|=4, e=7, so L = 16/7 > 1
    g = Graph(8, [(0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (2, 5), (3, 6)])
    bg = BipartiteGraph(g, range(4), range(4, 8))
    assert factor(bg) == Fraction(16, 7)
    assert induced(g, bits(reduce_bipartite(bg, seed=1))).edge_count >= 1


def test_reduce_reads_only_the_edges_between_the_sides():
    # the sides' own edges, and a vertex on neither side, change nothing
    bg = heawood_bipartite()
    a, b = sorted(bg.side_a), sorted(bg.side_b)
    extra = [(a[0], a[1]), (a[2], a[5]), (b[0], b[3]), (b[1], b[6])]
    g = Graph(15, list(bg.underlying.edges()) + extra + [(14, a[0]), (14, b[0])])
    for seed in range(12):
        want = reduce_bipartite(bg, seed)
        assert almost_biregular_reduce(g.masks, mask_of(a), mask_of(b), seed) == want


def test_reduce_sides_must_be_disjoint():
    with pytest.raises(DomainError):
        almost_biregular_reduce(heawood_graph().masks, 0b11, 0b110, seed=1)


def test_reduce_deterministic():
    bg = heawood_bipartite()
    assert reduce_bipartite(bg, seed=11) == reduce_bipartite(bg, seed=11)


# -- sparsify_short_cycles -----------------------------------------------------

def test_sparsify_output_always_short_cycle_free():
    g = petersen_graph()
    for seed in range(20):
        out = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed, target=0)
        sub = induced(g, bits(out))
        assert find_c3(sub) is None and find_c4(sub) is None
        gg = girth(sub)
        assert gg is None or gg >= 5


def test_sparsify_c4_never_keeps_whole_cycle():
    # the 4-cycle is itself a K_{2,2}: the sparsifier still cleans it
    g = cycle_graph(4)
    for seed in range(30):
        try:
            out = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed, target=0,
                                        retries=20)
        except ExtractionFailure:
            continue
        assert out.bit_count() < 4


def test_sparsify_on_plane_incidence():
    g = projective_plane_incidence(5).underlying
    out = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed=13, target=0,
                                retries=100)
    sub = induced(g, bits(out))
    assert find_c3(sub) is None and find_c4(sub) is None
    assert average_degree(sub) >= 0


def test_short_cycle_vertices_matches_pair_scan():
    # `_survivors` drops the short-cycle vertices of the pair scan, and the
    # vertices whose degree into the sampled set reaches their cap; a cap of
    # n + 1 is never reached, so then only the short-cycle vertices go
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 36)
        g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2, 0.35, 0.6]), rng.randrange(2 ** 32))
        q = rng.choice([0.0, 0.3, 0.6, 0.9, 1.0])
        sampled = [v for v in range(n) if rng.random() < q]
        mask = sum(1 << v for v in sampled)
        cap = [rng.choice([1, 2, 3, n + 1]) for _ in range(n)]
        bad = short_cycle_vertices_by_pair_scan(g, sampled)
        want = [v for v in sampled if v not in bad
                and (g.masks[v] & mask).bit_count() < cap[v]]
        assert reductions._survivors(g.masks, mask, sampled, cap) == want
        got = reductions._survivors(g.masks, mask, sampled, [n + 1] * n)
        assert set(sampled) - set(got) == bad
    for g in (complete_graph(5), cycle_graph(4), cycle_graph(5), petersen_graph(),
              projective_plane_incidence(3).underlying):
        full = list(range(g.n))
        got = reductions._survivors(g.masks, (1 << g.n) - 1, full, [g.n + 1] * g.n)
        assert set(full) - set(got) == short_cycle_vertices_by_pair_scan(g, full)


def test_sparsify_girth_check_raises_without_assert(monkeypatch):
    # with no deletion at all the survivors of K_6 keep triangles; the
    # explicit check must catch that, also under python -O.  No subgraph of
    # K_6 reaches average degree 6, so the attempts run until a triangle
    monkeypatch.setattr(reductions, "_survivors", lambda nbr, u, sampled, cap: sampled)
    with pytest.raises(InvariantError):
        sparsify_short_cycles(complete_graph(6).masks, 0b111111, 2, seed=1, target=6)


def test_sparsify_girth_check_raises_under_optimize():
    out = run_optimized(
        "from c4lab import reductions\n"
        "from c4lab.errors import InvariantError\n"
        "from c4lab.named import complete_graph\n"
        "reductions._survivors = lambda nbr, u, sampled, cap: sampled\n"
        "try:\n"
        "    reductions.sparsify_short_cycles(complete_graph(6).masks, 0b111111, 2, seed=1,"
        " target=6)\n"
        "except InvariantError as exc:\n"
        "    print('raised', exc)\n")
    assert out == "raised sparsifier survivors contain a triangle or 4-cycle\n"


def test_sparsify_target_failure_carries_best():
    g = petersen_graph()
    with pytest.raises(ExtractionFailure) as exc:
        sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed=1, target=100, retries=10)
    assert exc.value.best is None or exc.value.best.bit_count() > 0


# -- extreme_split ---------------------------------------------------------------

def test_extreme_split_regular_graph_no_high_degree_set():
    g = heawood_graph()
    out = extreme_split(g, 0.1, seed=5)
    assert out is not None
    assert induced(g, bits(out)).edge_count > 0


def test_extreme_split_lopsided_on_hub_graph():
    # hubs of huge degree over a cycle of leaves: only hubs clear the
    # degree threshold and the cut carries exactly half of all edges
    edges = []
    n_hubs, leaves_per = 3, 40
    n_leaves = n_hubs * leaves_per
    next_v = n_hubs
    for h in range(n_hubs):
        for _ in range(leaves_per):
            edges.append((h, next_v))
            next_v += 1
    leaves = list(range(n_hubs, next_v))
    edges += [(leaves[i], leaves[(i + 1) % n_leaves]) for i in range(n_leaves)]
    g = Graph(next_v, edges)
    assert extreme_split(g, 0.1, seed=2) is None
    cut = sum(1 for u, v in g.edges() if (u < n_hubs) != (v < n_hubs))
    assert 2 * cut == g.edge_count  # e(A,B) >= n d / 4, met exactly here


def test_extreme_split_petersen_ratio_stat():
    # seed-dependent; at this pinned seed the sample is an induced 2-regular
    # subgraph, so the achieved max/avg ratio is exactly 1
    g = petersen_graph()
    out = extreme_split(g, 0.1, seed=1)
    assert out is not None
    sub = induced(g, bits(out))
    assert max_degree(sub) == average_degree(sub) == 2
    # other seeds still deliver near-regular outcomes that span an edge
    for seed in (2, 3, 4):
        o = extreme_split(g, 0.1, seed=seed)
        assert o is not None
        assert induced(g, bits(o)).edge_count > 0


def test_extreme_split_requires_degree_two():
    with pytest.raises(DomainError):
        extreme_split(Graph(3, [(0, 1)]), 0.1, seed=1)


def test_extreme_split_deterministic():
    a = extreme_split(heawood_graph(), 0.1, seed=9)
    b = extreme_split(heawood_graph(), 0.1, seed=9)
    assert a == b


def test_split_prefix_refuses_an_edgeless_rest():
    # K_6 among 9 isolated vertices: d = 2, every clique vertex's degree 5
    # clears d 2^{d^0.1} < 4.3, the cut spans no edge, and the isolated
    # rest has no core
    g = Graph(15, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    with pytest.raises(ExtractionFailure,
                       match="^nothing remains outside the high-degree set$"):
        split_prefix(g.masks, (1 << g.n) - 1, 0.1)


def test_heaviest_dyadic_bucket_of_no_pairs_is_empty():
    assert reductions._heaviest_dyadic_bucket((), 1.0) == 0


def test_near_regular_attempt_is_0_when_the_reduction_runs_out(monkeypatch):
    # on the Heawood graph the attempt of seed 1 reaches the reduction, which
    # succeeds within the module's budget and gives up with none
    g = heawood_graph()
    prefix = split_prefix(g.masks, (1 << g.n) - 1, 0.1)
    assert reductions._near_regular_attempt(prefix, random.Random(1), 1)
    monkeypatch.setattr(reductions, "DEFAULT_RETRIES", 0)
    assert reductions._near_regular_attempt(prefix, random.Random(1), 1) == 0


def test_near_regular_attempt_is_0_when_the_rebucketed_side_is_empty(monkeypatch):
    # K_30 among 187 isolated vertices: d = 870/217 < 4.01, and at delta =
    # 0.9 no clique vertex clears d 2^{d^0.9} > 44, so the bucket is the
    # clique.  In each of seed 2's first six attempts the quarter sample
    # keeps every sampled vertex, and the rest of the clique, re-bucketed by
    # its degree into them, has 4d or more neighbours within itself, so no
    # vertex of it stays
    g = Graph(217, [(u, v) for u in range(30) for v in range(u + 1, 30)])
    prefix = split_prefix(g.masks, (1 << g.n) - 1, 0.9)
    assert prefix.bucket == (1 << 30) - 1
    buckets = []
    real = reductions._heaviest_dyadic_bucket

    def recording(degrees, d):
        buckets.append(real(degrees, d))
        return buckets[-1]

    def unreachable(*args):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(reductions, "_heaviest_dyadic_bucket", recording)
    monkeypatch.setattr(reductions, "almost_biregular_reduce", unreachable)
    with pytest.raises(ExtractionFailure, match="^near-regular extraction failed in 6 attempts$"):
        split_from_prefix(prefix, seed=2, retries=6)
    assert len(buckets) == 6 and all(buckets)


# -- bipartite_regularize --------------------------------------------------------

def test_regularize_perfect_matching():
    bg = matching_bipartite(8)
    a_out, b_out = bipartite_regularize(bg.underlying, bg.side_a, bg.side_b,
                                        r=1, seed=3)
    assert a_out
    g = bg.underlying
    for a in a_out:
        assert sum(1 for w in g.neighbors(a) if w in b_out) == 1


def test_regularize_low_degree_vertices_never_enter():
    # degree-1 A-vertices fall below sqrt(d) when d >= 2
    edges = [(0, 5), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]
    edges += [(5, 6)]  # push the degeneracy to 2
    g = Graph(7, edges)
    try:
        a_out, _ = bipartite_regularize(g, range(5), [5, 6], r=1, seed=1,
                                        retries=50)
        assert 0 not in a_out and 4 not in a_out
    except ExtractionFailure:
        pass  # acceptable: sampling may fail; the filter property is structural


def test_regularize_exact_degree_r_on_lopsided():
    bg = gen_lopsided(300, 40, 2, 2, seed=21)
    g = bg.underlying
    a_out, b_out = bipartite_regularize(g, bg.side_a, bg.side_b, r=2,
                                        seed=4, retries=400)
    assert a_out and b_out
    assert len(a_out) >= len(b_out)
    for a in a_out:
        assert sum(1 for w in g.neighbors(a) if w in b_out) == 2
    for u in a_out:
        assert not any(w in a_out for w in g.neighbors(u))
    for u in b_out:
        assert not any(w in b_out for w in g.neighbors(u))


def test_regularize_r_too_large_is_domain_error():
    # neighborhoods are cliques: no independent pair inside any of them
    # A-vertices 0..2 each adjacent to the triangle {3,4,5}
    edges = [(a, v) for a in range(3) for v in (3, 4, 5)]
    edges += [(3, 4), (4, 5), (3, 5)]
    g = Graph(6, edges)
    with pytest.raises(DomainError, match="^A-vertex 0 has no independent 2-subset "
                                          "in its neighborhood$"):
        bipartite_regularize(g, range(3), [3, 4, 5], r=2, seed=1)


def test_assert_regularized_raises_invariant_error():
    # path 0 - 1 - 2: A' = {0, 1} is not independent, B' = {1, 2} is not
    # either, and A' = {0} sees one vertex of B' = {1}, not two
    g = Graph(3, [(0, 1), (1, 2)])
    reductions._assert_regularized(g, frozenset({0}), frozenset({1}), 1)
    for a_out, b_out, r in (({0, 1}, {2}, 1), ({0}, {1, 2}, 1), ({0}, {1}, 2)):
        with pytest.raises(InvariantError):
            reductions._assert_regularized(g, frozenset(a_out), frozenset(b_out), r)


def test_assert_regularized_raises_under_optimize():
    out = run_optimized(
        "from c4lab.errors import InvariantError\n"
        "from c4lab.graphs import Graph\n"
        "from c4lab.reductions import _assert_regularized\n"
        "try:\n"
        "    _assert_regularized(Graph(3, [(0, 1), (1, 2)]), frozenset({0, 1}),"
        " frozenset({2}), 1)\n"
        "except InvariantError as exc:\n"
        "    print('raised', exc)\n")
    assert out == "raised A' must be independent\n"


def test_regularize_partition_checked():
    g = Graph(4, [(0, 2), (1, 3)])
    with pytest.raises(DomainError):
        bipartite_regularize(g, [0, 1], [1, 2, 3], r=1, seed=1)


def test_sparsify_and_regularize_deterministic():
    g = projective_plane_incidence(3).underlying
    s1 = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed=31, target=0)
    s2 = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed=31, target=0)
    assert s1 == s2
    bg = gen_lopsided(300, 40, 2, 2, seed=21)
    out1 = bipartite_regularize(bg.underlying, bg.side_a, bg.side_b, r=2,
                                seed=4, retries=400)
    out2 = bipartite_regularize(bg.underlying, bg.side_a, bg.side_b, r=2,
                                seed=4, retries=400)
    assert out1 == out2


# -- the mask-based near-regular route against the set-scan references ---------

def _outcome(fn, *args, **kwargs):
    """What a call returns, or the type, message and .best of what it raises."""
    try:
        return ("value", fn(*args, **kwargs))
    except C4LabError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "best", None))


def _as_masks(outcome):
    """An `_outcome` whose value or .best is a vertex set, with that set as
    a mask."""
    if outcome[0] == "value":
        return ("value", mask_of(outcome[1]))
    kind, exc_type, message, best = outcome
    return (kind, exc_type, message, None if best is None else mask_of(best))


def test_sparsify_matches_graph_per_retry_reference():
    # on the whole vertex set, and on a vertex set the reference cuts out as
    # a Graph of its own while the sparsifier reads g's masks through it
    rng = random.Random(2024)
    kinds = set()
    for i in range(320):
        n = rng.randrange(1, 61)
        g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2, 0.3, 0.5]), rng.randrange(2 ** 32))
        s = rng.choice([2, 3])
        seed = rng.randrange(2 ** 32)
        retries = rng.choice([0, 1, 6, 12])
        inside = range(n) if i % 2 else [v for v in range(n) if rng.random() < 0.7]
        # no graph on fewer than 61 vertices reaches average degree 100, so
        # the failure carries the densest survivor set of the whole budget
        base = _outcome(helpers.sparsify_by_graph_per_retry, g, inside, s, seed, 100,
                        retries=retries)
        assert _outcome(sparsify_short_cycles, g.masks, mask_of(inside), s, seed, 100,
                        retries=retries) == _as_masks(base)
        assert base[0] == "raised"
        densest = base[3]
        if densest is None:
            kinds.add("no survivors")
            continue
        assert densest <= set(inside)
        # the densest survivor set is reached exactly, then missed by a hair;
        # both as a Fraction, as a float and, where whole, as an int
        best = average_degree(induced(g, densest))
        targets = [best, best + Fraction(1, 97), float(best)]
        if best.denominator == 1:
            targets.append(int(best))
        for target in targets:
            want = _outcome(helpers.sparsify_by_graph_per_retry, g, inside, s, seed,
                            target, retries=retries)
            assert _outcome(sparsify_short_cycles, g.masks, mask_of(inside), s, seed,
                            target, retries=retries) == _as_masks(want)
            assert want[0] == ("value" if target <= best else "raised")
            kinds.add(want[0])
    assert kinds == {"no survivors", "value", "raised"}


def _hub_graph(rng: random.Random) -> Graph:
    """Hubs over a sparse cycle of leaves: extreme_split takes the lopsided cut."""
    hubs, per = rng.randrange(1, 4), rng.randrange(15, 40)
    edges, nxt = [], hubs
    for hub in range(hubs):
        for _ in range(per):
            edges.append((hub, nxt))
            nxt += 1
    leaves = list(range(hubs, nxt))
    edges += [(leaves[i], leaves[(i + 1) % len(leaves)]) for i in range(len(leaves))]
    return Graph(nxt, edges)


def test_extreme_split_matches_set_scan_reference():
    rng = random.Random(77)
    kinds = set()
    for i in range(330):
        if i % 10 == 0:
            g = _hub_graph(rng)
        else:
            n = rng.randrange(1, 71)
            g = gen_gnp(n, rng.choice([0.03, 0.08, 0.15, 0.3, 0.5]), rng.randrange(2 ** 32))
        delta = rng.choice([0.0016, 0.01, 0.1, 0.3])
        kwargs = {"retries": rng.choice([0, 1, 4, 8])}
        # on every other graph the prefix reads g's masks through a random
        # vertex set, and the reference splits the Graph that set induces
        ids = [v for v in range(g.n) if i % 2 == 0 or rng.random() < 0.7]
        sub = induced(g, ids)
        # one prefix serves every seed, as in the pipeline's attempts
        prefix = _outcome(split_prefix, g.masks, mask_of(ids), delta)
        for seed in (rng.randrange(2 ** 63), rng.randrange(2 ** 63), rng.randrange(2 ** 63)):
            want = _outcome(helpers.extreme_split_by_set_scans, sub, delta, seed, **kwargs)
            if want[0] == "value" and want[1] is not None:
                want = ("value", mask_of(ids[v] for v in want[1]))
            if sub is g:
                assert _outcome(extreme_split, g, delta, seed, **kwargs) == want
            if prefix[0] == "value" and prefix[1] is not None:
                assert _outcome(split_from_prefix, prefix[1], seed, **kwargs) == want
            else:
                assert prefix == want
            kinds.add((sub is g, "raised" if want[0] == "raised"
                       else "lopsided" if want[1] is None else "near_regular"))
    assert kinds == {(whole, kind) for whole in (True, False)
                     for kind in ("raised", "near_regular", "lopsided")}


def test_almost_biregular_reduce_matches_set_scan_reference(monkeypatch):
    # the reference gets gamma as a BipartiteGraph of the edges between the
    # sides; the reduction reads a larger graph's masks, with edges inside
    # each side and vertices on neither, through the two side masks.  Its
    # budget is the module's DEFAULT_RETRIES, cut here so that some draws
    # run out of it
    rng = random.Random(5)
    kinds = set()
    for _ in range(300):
        n = rng.randrange(2, 70)
        side = [rng.choice("aabbbn") for _ in range(n)]
        a_side = [v for v in range(n) if side[v] == "a"]
        b_side = [v for v in range(n) if side[v] == "b"]
        p = rng.choice([0.05, 0.15, 0.3, 0.6])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        both = sorted(a_side + b_side)
        index = {v: i for i, v in enumerate(both)}
        gamma = BipartiteGraph(
            Graph(len(both), [(index[u], index[v]) for u, v in edges
                              if {side[u], side[v]} == {"a", "b"}]),
            [index[v] for v in a_side], [index[v] for v in b_side])
        seed = rng.randrange(2 ** 32)
        retries = rng.choice([0, 1, 3, 20])
        want = _outcome(helpers.almost_biregular_reduce_by_set_scans, gamma, seed,
                        retries=retries)
        if want[0] == "value":
            want = ("value", mask_of(both[i] for i in want[1]))
        monkeypatch.setattr(reductions, "DEFAULT_RETRIES", retries)
        got = _outcome(almost_biregular_reduce, g.masks, mask_of(a_side),
                       mask_of(b_side), seed)
        assert got == want
        assert (biregularity_factor(g.masks, mask_of(a_side), mask_of(b_side))
                == helpers.biregularity_factor_by_degree_scan(gamma))
        kinds.add(want[0] if want[0] == "value" else want[1])
    assert kinds == {"value", ExtractionFailure}


@pytest.mark.parametrize("fake, message", [
    # no edges left: the average degree falls below d/4
    (lambda: [0, 0], "reduced average degree fell below d/4"),
    # a star of 60 leaves: average degree 120/61 >= 3/4, max degree 60 > 24 * 120/61
    (lambda: [60] + [1] * 60, "reduced max degree exceeds 24 L d"),
])
def test_reduce_postconditions_raise_invariant_error(monkeypatch, fake, message):
    # the recount of the kept vertices' degrees is faked; the success test
    # still passes on its own sampled degrees
    monkeypatch.setattr(reductions, "_kept_degrees", lambda nbr, small, large: fake())
    with pytest.raises(InvariantError, match=message):
        reduce_bipartite(heawood_bipartite(), seed=7)


def test_reduce_postconditions_raise_under_optimize():
    out = run_optimized(
        "from c4lab import reductions\n"
        "from c4lab.errors import InvariantError\n"
        "from c4lab.graphs import mask_of, projective_plane_incidence\n"
        "bg = projective_plane_incidence(2)\n"
        "for fake in ([0, 0], [60] + [1] * 60):\n"
        "    reductions._kept_degrees = lambda nbr, small, large: fake\n"
        "    try:\n"
        "        reductions.almost_biregular_reduce(bg.underlying.masks,"
        " mask_of(bg.side_a), mask_of(bg.side_b), seed=7)\n"
        "    except InvariantError as exc:\n"
        "        print('raised', exc)\n")
    assert out == ("raised reduced average degree fell below d/4\n"
                   "raised reduced max degree exceeds 24 L d\n")


def test_has_short_cycle_matches_detectors():
    rng = random.Random(31)
    found = set()
    for _ in range(300):
        n = rng.randrange(1, 30)
        g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2, 0.4]), rng.randrange(2 ** 32))
        inside = {v for v in range(n) if rng.random() < rng.choice([0.3, 0.7, 1.0])}
        sub = induced(g, inside)
        want = find_c3(sub) is not None or find_c4(sub) is not None
        assert reductions._has_short_cycle(g.masks, sorted(inside)) == want
        found.add((want, find_c3(sub) is None))
    # triangle-free graphs with a 4-cycle, and graphs with a triangle, both occur
    assert found >= {(False, True), (True, True), (True, False)}


def test_float_above_is_the_least_float_not_below():
    import math

    rng = random.Random(3)
    for _ in range(2000):
        den = rng.randrange(1, 10 ** rng.randrange(1, 20))
        q = Fraction(rng.randrange(0, den + 1), den)
        t = reductions._float_above(q)
        assert Fraction(t) >= q > Fraction(math.nextafter(t, -math.inf))
