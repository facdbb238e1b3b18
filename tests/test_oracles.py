import random
import sys
import types
from fractions import Fraction
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest

from c4lab import oracles
from c4lab.errors import DomainError, InvariantError, OracleLimitError
from c4lab.graphio import read_graph6
from c4lab.graphs import (
    Graph,
    bits,
    gen_gnp,
    gen_lopsided,
    induced,
    projective_plane_incidence,
)
from c4lab.named import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    heawood_graph,
    petersen_graph,
)
from c4lab.oracles import (
    LANE_BITS,
    LANE_MAX_N,
    _has_biclique,
    _kss_core,
    best_c4free_induced,
    closes_c4,
    contains_biclique,
    find_c3,
    find_c4,
    heavy_partners,
    hit_at_least,
    is_c4_free,
    max_independent_set,
)
from helpers import (
    best_c4free_by_byte_table,
    best_c4free_by_fraction_scan,
    brute_force_c4_exists,
    brown_graph,
    brute_force_mis_size,
    degree_scan_biclique,
    disjoint_union,
    everything,
    has_biclique_by_heavy_cliques,
    heavy_partners_by_wedge_count,
    is_c4_free_by_closes_c4,
    kss_core_by_rescans,
    pair_scan_biclique,
)

GOLDEN = Path(__file__).parent / "golden"

PETERSEN = petersen_graph()


def test_find_c4_examples():
    assert find_c4(cycle_graph(4)) == (0, 1, 2, 3)
    assert find_c4(PETERSEN) is None
    k23 = complete_bipartite(2, 3).underlying
    wit = find_c4(k23)
    assert wit is not None
    a, b, c, d = wit
    assert k23.has_edge(a, b) and k23.has_edge(b, c)
    assert k23.has_edge(c, d) and k23.has_edge(d, a)
    assert len({a, b, c, d}) == 4


def test_find_c4_agrees_with_quadruple_scan():
    rng = random.Random(2)
    for _ in range(300):
        n = 4 + rng.randrange(6)
        g = gen_gnp(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(2 ** 32))
        assert (find_c4(g) is not None) == brute_force_c4_exists(g)


def test_find_c4_returns_lex_least_tuple():
    from itertools import permutations

    rng = random.Random(3)
    for _ in range(60):
        n = 4 + rng.randrange(4)
        g = gen_gnp(n, 0.5, rng.randrange(2 ** 32))
        wit = find_c4(g)
        tuples = [
            t for t in permutations(range(n), 4)
            if g.has_edge(t[0], t[1]) and g.has_edge(t[1], t[2])
            and g.has_edge(t[2], t[3]) and g.has_edge(t[3], t[0])]
        assert wit == (min(tuples) if tuples else None)


def test_is_c4_free_agrees_with_find_c4():
    named = [Graph(0), Graph(6), complete_graph(4), cycle_graph(4), heawood_graph(),
             PETERSEN, complete_bipartite(2, 3).underlying]
    named += [projective_plane_incidence(q).underlying for q in (2, 3, 5)]
    for g in named:
        assert is_c4_free(g.masks, everything(g)) == (find_c4(g) is None)
    k4, heawood = complete_graph(4), heawood_graph()
    assert not is_c4_free(k4.masks, 0b1111) and is_c4_free(heawood.masks, everything(heawood))
    assert is_c4_free(k4.masks, 0b0111)   # a triangle
    # on every vertex, and on a random vertex mask against the graph it induces
    rng = random.Random(31)
    outcomes = set()
    for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        for _ in range(150):
            g = gen_gnp(1 + rng.randrange(14), p, rng.randrange(2 ** 32))
            assert is_c4_free(g.masks, everything(g)) == (find_c4(g) is None)
            alive = rng.getrandbits(g.n)
            free = is_c4_free(g.masks, alive)
            assert free == (find_c4(induced(g, bits(alive))) is None)
            outcomes.add(free)
    assert outcomes == {False, True}


def test_is_c4_free_matches_the_closes_c4_reference():
    rng = random.Random(53)
    cases = [heawood_graph(), projective_plane_incidence(13).underlying]
    for p in (0.05, 0.1, 0.2, 0.3, 0.5):
        cases += [gen_gnp(1 + rng.randrange(40), p, rng.randrange(2 ** 32))
                  for _ in range(60)]
    outcomes = set()
    for g in cases:
        # no vertex, one vertex, every vertex, then random vertex masks
        alives = [0, 1 << rng.randrange(g.n), everything(g)]
        alives += [rng.getrandbits(g.n) for _ in range(6)]
        for alive in alives:
            free = is_c4_free(g.masks, alive)
            assert free == is_c4_free_by_closes_c4(g.masks, alive)
            outcomes.add(free)
    assert outcomes == {False, True}


def test_contains_biclique_s2_witness_unchanged():
    rng = random.Random(37)
    with_c4 = 0
    for _ in range(400):
        n = 4 + rng.randrange(11)
        g = gen_gnp(n, rng.choice([0.2, 0.4, 0.6, 0.9]), rng.randrange(2 ** 32))
        with_c4 += find_c4(g) is not None
        assert contains_biclique(g, 2) == pair_scan_biclique(g)
    assert with_c4 > 200


def test_find_c3_examples():
    assert find_c3(complete_graph(3)) == (0, 1, 2)
    assert find_c3(complete_bipartite(3, 4).underlying) is None
    assert find_c3(PETERSEN) is None


def test_contains_biclique_examples():
    k33 = complete_bipartite(3, 3).underlying
    wit = contains_biclique(k33, 2)
    assert wit is not None
    s_side, t_side = wit
    assert len(s_side) == len(t_side) == 2 and not (s_side & t_side)
    assert all(k33.has_edge(u, v) for u in s_side for v in t_side)
    assert contains_biclique(cycle_graph(5), 2) is None
    assert contains_biclique(heawood_graph(), 2) is None
    assert contains_biclique(k33, 3) is not None
    assert contains_biclique(k33, 4) is None  # 2s > n


def test_contains_biclique_s2_scan_that_finds_nothing_raises(monkeypatch):
    # the pair scan runs only after is_c4_free has found a 4-cycle, which it
    # always closes; with that check forced to say "not C4-free" on C5, a
    # scan that comes back empty is a broken invariant, not "no K_{2,2}"
    monkeypatch.setattr(oracles, "is_c4_free", lambda nbr, alive: False)
    with pytest.raises(InvariantError, match="4-cycle"):
        contains_biclique(cycle_graph(5), 2)


def test_contains_biclique_refuses_s_below_2():
    # a K_{1,1} is one edge, which no route asks for: s < 2 is refused even
    # where 2s > n would otherwise give None
    for g in (complete_bipartite(3, 3).underlying, Graph(1)):
        for s in (0, 1):
            with pytest.raises(DomainError, match="s must be >= 2"):
                contains_biclique(g, s)


def test_contains_biclique_s3_on_random():
    rng = random.Random(5)
    for _ in range(50)\
            :
        n = 6 + rng.randrange(5)
        g = gen_gnp(n, 0.7, rng.randrange(2 ** 32))
        wit = contains_biclique(g, 3)
        if wit is not None:
            s_side, t_side = wit
            assert len(s_side) == len(t_side) == 3 and not (s_side & t_side)
            assert all(g.has_edge(u, v) for u in s_side for v in t_side)


def test_contains_biclique_matches_degree_scan_on_gnp():
    rng = random.Random(41)
    found = 0
    for i in range(1200):
        s = 3 + i % 3
        n = 2 * s + rng.randrange(41 - 2 * s)
        p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        g = gen_gnp(n, p, rng.randrange(2 ** 32))
        wit = degree_scan_biclique(g, s)
        found += wit is not None
        # the decision pass alone, since a false positive there would be
        # hidden by the scan that follows it
        assert _has_biclique(g.masks, s) == (wit is not None)
        assert contains_biclique(g, s) == wit
        if wit is None:
            assert _kss_core(g.masks, s) == kss_core_by_rescans(g.masks, s)
    assert found >= 200 and 1200 - found >= 200


def test_contains_biclique_matches_degree_scan_on_planes_and_lopsided():
    for q in (2, 3, 5):
        g = projective_plane_incidence(q).underlying
        for s in (3, 4):
            assert contains_biclique(g, s) is None
            assert degree_scan_biclique(g, s) is None
    # K_{s,s}-free at the generator's s; at s - 1 >= 3 some hold a biclique
    found = 0
    for seed in range(6):
        for a, b, r, s in ((60, 25, 5, 3), (80, 30, 6, 4), (40, 20, 8, 5)):
            g = gen_lopsided(a, b, r, s, seed).underlying
            for t in range(max(3, s - 1), s + 1):
                wit = degree_scan_biclique(g, t)
                found += wit is not None
                assert contains_biclique(g, t) == wit
    assert found >= 6


def test_contains_biclique_matches_degree_scan_on_planted_golden():
    g = read_graph6((GOLDEN / "gnp200_k33.g6").read_text())
    wit = contains_biclique(g, 3)
    assert wit is not None and wit == degree_scan_biclique(g, 3)
    for s in (4, 5):
        assert contains_biclique(g, s) == degree_scan_biclique(g, s)
    assert contains_biclique(read_graph6((GOLDEN / "gnp200.g6").read_text()), 3) is None


def test_heavy_partners_match_wedge_count():
    rng = random.Random(43)
    for i in range(300):
        n = 1 + rng.randrange(30)
        g = gen_gnp(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng.randrange(2 ** 32))
        s = 1 + i % 5
        got = [set(bits(mask)) for mask in heavy_partners(g.masks, s)]
        assert got == heavy_partners_by_wedge_count(g, s)


def test_hit_at_least_counts_every_vertex():
    rng = random.Random(47)
    shapes = set()
    for i in range(600):
        s = 1 + i % 6
        masks = [rng.getrandbits(12) for _ in range(12)]
        members = rng.getrandbits(12) & rng.getrandbits(12)
        got = hit_at_least(masks, members, s)
        chosen = [masks[w] for w in range(12) if members >> w & 1]
        want = sum(1 << u for u in range(12) if sum(m >> u & 1 for m in chosen) >= s)
        assert got == want
        shapes.add((len(chosen) > s) - (len(chosen) < s))
    assert shapes == {-1, 0, 1}   # fewer than s, exactly s and more than s members


def _check_decision_pass(masks, s):
    """`_has_biclique` against the reference pass; on a K_{s,s}-free graph
    the peel's core must also be the rescanning reference's."""
    want = has_biclique_by_heavy_cliques(masks, s)
    assert _has_biclique(masks, s) == want
    if not want:
        assert _kss_core(masks, s) == kss_core_by_rescans(masks, s)
    return want


def test_has_biclique_matches_reference_on_planes_and_brown():
    for q in (2, 3, 5):
        g = projective_plane_incidence(q).underlying
        for s in (2, 3, 4):
            assert _check_decision_pass(g.masks, s) is False
    # K_{3,3}-free exactly when -a is a non-residue: a = 1 at p = 3, and
    # a in {2, 3} at p = 5
    for p, a_free in ((3, {1}), (5, {2, 3})):
        for a in range(1, p):
            g = brown_graph(p, a)
            assert _check_decision_pass(g.masks, 3) == (a not in a_free)
            assert _check_decision_pass(g.masks, 4) == (a not in a_free and p == 5)


def test_peel_empties_lopsided_inputs_and_finds_a_planted_k33():
    for seed in range(4):
        for a, b, r in ((60, 20, 3), (200, 25, 3), (80, 25, 4)):
            g = gen_lopsided(a, b, r, 3, seed).underlying
            assert _check_decision_pass(g.masks, 3) is False
            if r == 3:
                assert _kss_core(g.masks, 3) == 0
            # A-vertices 1 and 2 take A-vertex 0's neighbourhood, which
            # closes a K_{3,3} through vertices of degree r
            nbhd = [list(bits(g.masks[x])) for x in range(a)]
            nbhd[1] = nbhd[2] = nbhd[0]
            planted = Graph(a + b, [(x, y) for x in range(a) for y in nbhd[x]])
            assert _check_decision_pass(planted.masks, 3) is True
            if r == 3:
                assert _kss_core(planted.masks, 3) is None


def test_peel_cascade_exposes_a_k33_behind_pendants():
    # K_{3,3} on 0..5 with a pendant on each of its vertices: they have
    # degree 4 until the pendants are peeled, and then degree 3
    g = Graph(12, [(x, y) for x in range(3) for y in range(3, 6)]
              + [(x, 6 + x) for x in range(6)])
    assert _kss_core(g.masks, 3) is None
    assert _check_decision_pass(g.masks, 3) is True
    assert _check_decision_pass(g.masks, 4) is False


def test_c4_iff_k22():
    rng = random.Random(13)
    for _ in range(1000):
        n = 1 + rng.randrange(12)
        g = gen_gnp(n, rng.choice([0.1, 0.3, 0.5]), rng.randrange(2 ** 32))
        assert (find_c4(g) is None) == (contains_biclique(g, 2) is None)


def naive_best_c4free(g):
    # independent quadratic-per-subset reimplementation for differentials
    from itertools import combinations

    best_key, best = None, None
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            ok = True
            for u, v in combinations(sub, 2):
                common = g.masks[u] & g.masks[v]
                if sum(1 for w in sub if (common >> w) & 1) >= 2:
                    ok = False
                    break
            if not ok:
                continue
            e = sum(1 for u, v in combinations(sub, 2) if g.has_edge(u, v))
            key = (-Fraction(2 * e, size), size, sub)
            if best_key is None or key < best_key:
                best_key, best = key, (frozenset(sub), Fraction(2 * e, size))
    return best


def test_best_c4free_induced_matches_naive_enumeration():
    rng = random.Random(71)
    for _ in range(40):
        n = 1 + rng.randrange(8)
        g = gen_gnp(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(2 ** 32))
        assert best_c4free_induced(g) == naive_best_c4free(g)


def test_best_c4free_induced_matches_fraction_scan():
    rng = random.Random(43)
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for _ in range(60):
            g = gen_gnp(1 + rng.randrange(12), p, rng.randrange(2 ** 32))
            assert best_c4free_induced(g) == best_c4free_by_fraction_scan(g)


def test_best_c4free_induced_matches_fraction_scan_on_ties():
    # inputs where many subsets share the optimal density, so the witness
    # is chosen by the size and lexicographic tie-breaks
    cases = [Graph(n) for n in range(1, 7)]
    cases += [complete_graph(n) for n in range(1, 7)]
    cases += [cycle_graph(n) for n in range(4, 9)]
    cases += [disjoint_union(*(complete_graph(3) for _ in range(4))),
              disjoint_union(*(complete_graph(4) for _ in range(3))),
              disjoint_union(*(cycle_graph(5) for _ in range(3))),
              disjoint_union(*(cycle_graph(4) for _ in range(3))),
              disjoint_union(cycle_graph(6), cycle_graph(5), cycle_graph(5)),
              PETERSEN, projective_plane_incidence(2).underlying]
    for g in cases:
        assert best_c4free_induced(g) == best_c4free_by_fraction_scan(g)


def test_best_c4free_induced_matches_fraction_scan_across_the_lane_split():
    # n = 8 .. 16 puts 0 to 6 vertices above the LANE_BITS lane vertices
    rng = random.Random(53)
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for n in range(8, 17):
            g = gen_gnp(n, p, rng.randrange(2 ** 32))
            assert best_c4free_induced(g) == best_c4free_by_fraction_scan(g)


def test_best_c4free_induced_matches_fraction_scan_on_wide_ties():
    # ties across many blocks of 2^LANE_BITS lanes: the witness comes from
    # the size and lexicographic tie-breaks between blocks
    cases = [Graph(n) for n in range(LANE_BITS + 1, 17)]
    cases += [disjoint_union(*(complete_graph(3) for _ in range(5))),
              disjoint_union(*(cycle_graph(5) for _ in range(3))),
              disjoint_union(cycle_graph(6), cycle_graph(5), cycle_graph(5)),
              disjoint_union(complete_graph(3), cycle_graph(5), complete_graph(3),
                             cycle_graph(5)),
              disjoint_union(*(complete_graph(4) for _ in range(4))),
              disjoint_union(*(cycle_graph(4) for _ in range(4))),
              cycle_graph(16), complete_graph(14),
              complete_bipartite(7, 8).underlying, heawood_graph()]
    assert all(g.n > LANE_BITS for g in cases)
    for g in cases:
        assert best_c4free_induced(g) == best_c4free_by_fraction_scan(g)


def test_best_c4free_induced_rescans_the_next_lane_after_a_new_best():
    # lane 87 = {0, 1, 2, 4, 6} (density 8/5) raises the best, and the next
    # lane, 88 = {3, 4, 6}, is the optimum
    g = Graph(8, [(0, 2), (0, 4), (0, 7), (1, 6), (3, 4), (3, 5), (3, 6),
                  (4, 6), (5, 6)])
    assert best_c4free_induced(g) == (frozenset({3, 4, 6}), 2)
    assert best_c4free_by_fraction_scan(g) == (frozenset({3, 4, 6}), 2)


def test_best_c4free_induced_matches_byte_table_scan_at_18_to_20():
    rng = random.Random(59)
    for n, p in ((18, 0.15), (18, 0.9), (19, 0.3), (19, 0.6), (20, 0.2), (20, 0.9)):
        g = gen_gnp(n, p, rng.randrange(2 ** 32))
        assert best_c4free_induced(g) == best_c4free_by_byte_table(g)
    wide = disjoint_union(*(cycle_graph(5) for _ in range(4)))
    assert best_c4free_induced(wide) == best_c4free_by_byte_table(wide)


@pytest.mark.parametrize("p", [0.2, 0.9])
def test_best_c4free_induced_keeps_no_subset_table(p):
    # the scalar scan's table alone is one byte a subset, 1 MB here
    import tracemalloc

    g = gen_gnp(20, p, 5)
    tracemalloc.start()
    try:
        best_c4free_induced(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lane_cap_is_the_largest_n_no_lane_carries_out_of():
    def peak(n):
        # Reiman's bound on e(H), |H| = n - LANE_BITS, in integers: the floor
        # of h/4 (1 + sqrt(4h - 3)) is (h + floor(h sqrt(4h - 3))) // 4
        h = n - LANE_BITS
        reiman = (h + isqrt(h * h * (4 * h - 3))) // 4
        return reiman + LANE_BITS * (LANE_BITS - 1) // 2 + LANE_BITS * h + 1
    assert peak(LANE_MAX_N) <= 0xFF < peak(LANE_MAX_N + 1)


def test_best_c4free_induced_grows_only_c4free_high_parts():
    # `grow` runs once per high part H, a set of vertices LANE_BITS..n-1,
    # and skips a vertex that closes a 4-cycle inside H with every superset
    # (all lanes dead), so it runs exactly once per C4-free high part.
    # `_has_biclique` nests a `grow` too, so the code object is taken from
    # the oracle's own constants
    grow = next(c for c in best_c4free_induced.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == "grow")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is grow:
            calls += 1

    rng = random.Random(59)
    pruned = 0
    for n in (16, 17, 18):
        for _ in range(2):
            g = gen_gnp(n, 0.6, rng.randrange(2 ** 32))
            calls = 0
            sys.setprofile(count)
            try:
                best_c4free_induced(g)
            finally:
                sys.setprofile(None)
            high = range(LANE_BITS, n)
            free = sum(not brute_force_c4_exists(induced(g, sub))
                       for size in range(len(high) + 1)
                       for sub in combinations(high, size))
            assert calls == free
            pruned += free < 2 ** len(high)
    assert pruned == 6


def test_best_c4free_induced_refuses_more_than_the_lane_cap():
    # no limit lifts the cap: a lane could carry past it
    with pytest.raises(OracleLimitError, match="byte-lane cap"):
        best_c4free_induced(Graph(LANE_MAX_N + 1), limit=30)
    witness, value = best_c4free_induced(Graph(LANE_MAX_N), limit=30)
    assert witness == frozenset({0}) and value == 0


def test_best_c4free_induced_is_exact_at_the_lane_cap():
    # a K_10 on the lanes joined to every vertex of a C4-free F on the other
    # vertices puts the fullest lanes within a few of 255; a set that meets
    # the clique is at most a K3 or a star over an induced matching, of
    # density under 3, so the optimum is F's own, by the byte-table scan
    h = LANE_MAX_N - LANE_BITS
    pairs = list(combinations(range(h), 2))
    random.Random(67).shuffle(pairs)
    f_edges = []
    for e in pairs:
        if is_c4_free(Graph(h, f_edges + [e]).masks, (1 << h) - 1):
            f_edges.append(e)
    f_witness, f_value = best_c4free_by_byte_table(Graph(h, f_edges))
    assert f_value > 3 and len(f_edges) >= 30
    edges = list(combinations(range(LANE_BITS), 2))
    edges += [(l, LANE_BITS + v) for l in range(LANE_BITS) for v in range(h)]
    edges += [(LANE_BITS + u, LANE_BITS + v) for u, v in f_edges]
    g = Graph(LANE_MAX_N, edges)
    witness, value = best_c4free_induced(g, limit=LANE_MAX_N)
    assert witness == frozenset(LANE_BITS + v for v in f_witness) and value == f_value


def test_best_c4free_induced_matches_byte_table_scan_above_the_default_limit():
    g = gen_gnp(23, 0.9, 61)
    assert best_c4free_induced(g, limit=23) == best_c4free_by_byte_table(g, limit=23)


def test_closes_c4_agrees_with_quadruple_scan():
    rng = random.Random(47)
    outcomes = set()
    for _ in range(600):
        n = 2 + rng.randrange(9)
        g = gen_gnp(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(2 ** 32))
        v = rng.randrange(n)
        s = [u for u in range(n) if u != v and rng.random() < 0.6]
        if brute_force_c4_exists(induced(g, s)):
            continue   # closes_c4 assumes g[S] is C4-free
        smask = sum(1 << u for u in s)
        closes = closes_c4(g.masks, v, smask)
        assert closes == brute_force_c4_exists(induced(g, s + [v]))
        outcomes.add(closes)
    assert outcomes == {False, True}


def test_best_c4free_induced_table_is_one_byte_per_subset():
    # one byte a subset is 256 KB here; a list of ints alone would take 2 MB
    import tracemalloc

    g = gen_gnp(18, 0.5, 5)
    tracemalloc.start()
    try:
        best_c4free_induced(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19


def test_best_c4free_induced_on_c4():
    s, val = best_c4free_induced(cycle_graph(4))
    assert val == Fraction(4, 3)
    assert s == frozenset({0, 1, 2})


def test_best_c4free_induced_on_petersen():
    s, val = best_c4free_induced(PETERSEN)
    assert s == frozenset(range(10))
    assert val == 3


def test_best_c4free_induced_on_k33_below_two():
    _, val = best_c4free_induced(complete_bipartite(3, 3).underlying)
    assert val < 2


def test_best_c4free_induced_witness_count_bound():
    # a C4-free graph with average degree >= k has at least (k-1)^2 vertices
    rng = random.Random(17)
    for _ in range(120):
        n = 1 + rng.randrange(9)
        g = gen_gnp(n, rng.choice([0.3, 0.6]), rng.randrange(2 ** 32))
        witness, val = best_c4free_induced(g)
        k = int(val)
        if k >= 1:
            assert len(witness) >= (k - 1) ** 2


def test_best_c4free_induced_independent_set_bound():
    # alpha >= (k-1)^2/(k+2) inside any C4-free witness of value >= k
    rng = random.Random(19)
    for _ in range(80):
        n = 2 + rng.randrange(8)
        g = gen_gnp(n, 0.5, rng.randrange(2 ** 32))
        witness, val = best_c4free_induced(g)
        k = int(val)
        if k >= 1:
            sub = induced(g, witness)
            alpha = len(max_independent_set(sub))
            assert Fraction(alpha) >= Fraction((k - 1) ** 2, k + 2)


def test_best_c4free_witness_obeys_reiman_bound():
    from helpers import reiman_holds

    rng = random.Random(23)
    for _ in range(100):
        n = 1 + rng.randrange(10)
        g = gen_gnp(n, 0.5, rng.randrange(2 ** 32))
        witness, _ = best_c4free_induced(g)
        sub = induced(g, witness)
        assert reiman_holds(sub.n, sub.edge_count)


def test_oracle_limit_errors():
    big = Graph(23)
    with pytest.raises(OracleLimitError):
        best_c4free_induced(big)
    with pytest.raises(OracleLimitError):
        max_independent_set(big)


def test_max_independent_set_examples():
    assert len(max_independent_set(complete_graph(5))) == 1
    assert len(max_independent_set(cycle_graph(5))) == 2
    assert len(max_independent_set(PETERSEN)) == 4
    # 10/(3+sqrt(10)) ~ 1.62 <= 4
    assert 4 >= 10 / (3 + 10 ** 0.5)


def test_max_independent_set_agrees_with_subset_scan():
    rng = random.Random(29)
    for _ in range(150):
        n = 1 + rng.randrange(10)
        g = gen_gnp(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(2 ** 32))
        s = max_independent_set(g)
        assert all(not g.has_edge(u, v) for u in s for v in s if u < v)
        assert len(s) == brute_force_mis_size(g)


def test_max_independent_set_lex_least():
    # path 0-1-2: maximum independent sets {0,2} only; C4: {0,2} beats {1,3}
    assert max_independent_set(cycle_graph(4)) == frozenset({0, 2})
    g = Graph(3, [(0, 1), (1, 2)])
    assert max_independent_set(g) == frozenset({0, 2})
