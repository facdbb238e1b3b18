import random
from itertools import combinations
from math import comb

import pytest

from c4lab import hypergraphs
from c4lab.errors import (
    DomainError,
    InvariantError,
    KernelFailure,
    OracleLimitError,
)
from c4lab.graphs import mask_of
from c4lab.hypergraphs import (
    Hypergraph,
    InducedPair,
    PartiteKernel,
    alpha_exact,
    f_search,
    find_induced_pair,
    furedi_kernel,
    kernel_can_trace,
    verify_induced_pair,
    verify_kernel,
)
from helpers import (
    furedi_kernel_by_buckets,
    relabellings_by_all_permutations,
    run_optimized,
)


def hg(n, *edges):
    return Hypergraph(n, [frozenset(e) for e in edges])


def random_covered_hypergraph(n, ell, rng):
    edges = []
    m = rng.randrange(1, 2 * n + 1)
    for _ in range(m):
        size = 1 + rng.randrange(ell)
        edges.append(frozenset(rng.sample(range(n), min(size, n))))
    covered = set().union(*edges) if edges else set()
    for v in range(n):
        if v not in covered:
            edges.append(frozenset({v}))
    return Hypergraph(n, edges)


# -- model basics ------------------------------------------------------------

def test_hypergraph_basics():
    h = hg(4, {0, 1}, {2}, {3, 0})
    assert h.is_covered()
    assert h.uniform_rank() is None
    assert hg(3, {0, 1}, {1, 2}).uniform_rank() == 2
    with pytest.raises(DomainError):
        hg(2, {0, 5})


def test_hypergraph_incidence_masks():
    # bit i of incidence[v] is set exactly when v lies in edges[i]
    rng = random.Random(83)
    cases = [hg(3), hg(4, {0, 1}, {0, 1}, {2}, {0, 1}), hg(2, set(), {1})]
    for _ in range(40):
        n = 1 + rng.randrange(7)
        edges = [rng.sample(range(n), 1 + rng.randrange(n)) for _ in range(rng.randrange(9))]
        edges += edges[:rng.randrange(3)]  # duplicates
        cases.append(Hypergraph(n, edges))
    for h in cases:
        assert len(h.incidence) == h.vertex_count
        for v in range(h.vertex_count):
            assert [(h.incidence[v] >> i) & 1 for i in range(len(h.edges))] == [
                int(v in e) for e in h.edges]
            assert h.incidence[v] >> len(h.edges) == 0
    for bad in (3, -1):
        with pytest.raises(DomainError, match="out of range"):
            hg(3, {0, 1}, {bad})


# -- kernel ------------------------------------------------------------------

def test_kernel_single_edge():
    f = hg(2, {0, 1})
    kern = furedi_kernel(f, s=1, t=1, seed=3)
    assert kern.surviving_edges == (0,)
    assert kern.trace.edges == ()
    assert verify_kernel(f, kern)


def test_kernel_star_keeps_center_trace():
    # star with enough edges that >= 2tT of them stay rainbow; the center
    # color's singleton must be the whole trace
    m = 40
    f = hg(m + 1, *({0, i} for i in range(1, m + 1)))
    kern = furedi_kernel(f, s=1, t=2, seed=5)
    assert verify_kernel(f, kern)
    assert len(kern.surviving_edges) >= 2
    center_color = kern.coloring[0]
    assert kern.trace.edges == (frozenset({center_color}),)


def test_kernel_matching_has_empty_trace():
    f = hg(12, *({2 * i, 2 * i + 1} for i in range(6)))
    kern = furedi_kernel(f, s=1, t=2, seed=9)
    assert kern.trace.edges == ()
    # all rainbow edges survive: disjoint edges never share a slice
    assert verify_kernel(f, kern)
    assert len(kern.surviving_edges) >= 1


def test_kernel_cleaning_history_bound():
    rng = random.Random(61)
    for trial in range(60):
        n = 4 + rng.randrange(8)
        r = 2 + rng.randrange(3)
        if r > n:
            continue
        m = 5 + rng.randrange(40)
        edges = [frozenset(rng.sample(range(n), r)) for _ in range(m)]
        f = Hypergraph(n, edges)
        s = 1 + rng.randrange(min(2, r))
        t = 1 + rng.randrange(3)
        big_t = sum(comb(r, j) for j in range(s + 1))
        try:
            kern = furedi_kernel(f, s=s, t=t, seed=trial)
        except KernelFailure:
            continue
        assert verify_kernel(f, kern)
        hist = kern.history
        assert len(hist) <= big_t + 2
        for a, b in zip(hist, hist[1:]):
            assert b * 2 * t * big_t * big_t >= a


def sunflower_with_noise(rng):
    """An r-uniform sunflower (r in {2, 3}, a core of 1..r-1 vertices, 60-139
    petals) plus 1-3 edges on fresh vertices, in shuffled order: the noise
    edges' slices on a core color are alone, so the terminal step drops them."""
    r = rng.choice((2, 3))
    core = list(range(1 + rng.randrange(r - 1)))
    n = len(core)
    edges = []
    for _ in range(60 + rng.randrange(80)):
        edges.append(core + list(range(n, n + r - len(core))))
        n += r - len(core)
    for _ in range(1 + rng.randrange(3)):
        edges.append(list(range(n, n + r)))
        n += r
    rng.shuffle(edges)
    return Hypergraph(n, edges)


def test_kernel_matches_bucket_reference():
    # the mask-based kernel returns the reference's kernel, history included
    # (PartiteKernel equality skips it), or raises the same error
    rng = random.Random(89)
    outcomes = {"kernel": 0, "collapsed": 0, "error": 0, "dropped": 0}
    for trial in range(360):
        if trial < 320:
            r = 1 + rng.randrange(4)
            n = r + rng.randrange(7)
            edges = [rng.sample(range(n), r) for _ in range(rng.randrange(45))]
            edges += [rng.choice(edges) for _ in range(rng.randrange(4))] if edges else []
            f = Hypergraph(n, edges)
            s = 1 + rng.randrange(r)
            t = 1 + rng.randrange(3)
        else:
            f = sunflower_with_noise(rng)
            s, t = 1, rng.choice((2, 3))
        retries = 1 + rng.randrange(5)
        seed = rng.randrange(2 ** 32)
        try:
            want = furedi_kernel_by_buckets(f, s, t, seed, retries)
        except (DomainError, KernelFailure) as exc:
            with pytest.raises(type(exc)) as got:
                furedi_kernel(f, s, t, seed, retries)
            assert str(got.value) == str(exc)
            outcomes["error"] += 1
            continue
        got = furedi_kernel(f, s, t, seed, retries)
        assert got == want and got.history == want.history, trial
        outcomes["kernel"] += 1
        outcomes["collapsed"] += len(got.history) > 2
        outcomes["dropped"] += got.history[-1] < got.history[-2]
    # every branch ran: kernels after pigeonhole collapses, terminal steps
    # that dropped edges, and raises
    dropped = outcomes.pop("dropped")
    assert min(outcomes.values()) >= 30 and dropped >= 10, (outcomes, dropped)


def test_kernel_terminal_filter_repeats_until_nothing_drops():
    # 20 petals {0, p}, each written 30 times, plus {0, 21} and {22, 21}.
    # When 0 and 22 share a color and 21 has the other, {22, 21} drops in
    # the first round (22 is alone on its color); that leaves 21 alone on
    # its color, so {0, 21} drops in a second round: two edges fewer
    edges = [[0, p] for p in range(1, 21) for _ in range(30)] + [[0, 21], [22, 21]]
    f = Hypergraph(23, edges)
    cascades = 0
    for seed in range(40):
        got = furedi_kernel(f, 1, 2, seed, retries=1)
        want = furedi_kernel_by_buckets(f, 1, 2, seed, retries=1)
        assert got == want and got.history == want.history, seed
        cascades += got.history[-2] - got.history[-1] == 2
    assert cascades >= 5, cascades


def test_kernel_step_check_raises_invariant_error(monkeypatch):
    # with T = 0 no step can meet the 1/(2tT^2) bound, so the first
    # transition must raise, not assert
    monkeypatch.setattr(hypergraphs, "comb", lambda n, k: 0)
    f = hg(41, *({0, i} for i in range(1, 41)))
    with pytest.raises(InvariantError):
        furedi_kernel(f, s=1, t=1, seed=5)


def test_find_induced_pair_raises_when_its_pair_fails_replay(monkeypatch):
    monkeypatch.setattr(hypergraphs, "verify_induced_pair", lambda h, pair: False)
    with pytest.raises(InvariantError, match="constructed pair failed"):
        find_induced_pair(hg(3, {0, 1}, {1, 2}), 1)


def test_kernel_step_check_raises_under_optimize():
    out = run_optimized(
        "from c4lab import hypergraphs\n"
        "from c4lab.errors import InvariantError\n"
        "hypergraphs.comb = lambda n, k: 0\n"
        "f = hypergraphs.Hypergraph(41, [{0, i} for i in range(1, 41)])\n"
        "try:\n"
        "    hypergraphs.furedi_kernel(f, s=1, t=1, seed=5)\n"
        "except InvariantError as exc:\n"
        "    print('raised', exc)\n")
    assert out == "raised cleaning transition lost too many edges\n"


def test_verify_kernel_reports_out_of_range_colors():
    f = hg(3, {0, 1, 2})
    assert verify_kernel(f, PartiteKernel((0,), (0, 1, 2), Hypergraph(3, []), 1, 1))
    kern = PartiteKernel((0,), (0, 1, 5), Hypergraph(3, []), 1, 1)
    assert verify_kernel(f, kern) is False


def test_verify_kernel_rejects_a_repeated_edge_index():
    # one edge listed twice would pass for a 2-fold kernel
    f = Hypergraph(3, [{0, 1}, {0, 2}])
    trace = Hypergraph(2, [{0}, {1}])
    assert verify_kernel(f, PartiteKernel((0, 0), (0, 1, 1), trace, 2, 1)) is False
    assert verify_kernel(f, PartiteKernel((0, 0), (0, 1, 1), trace, 1, 1)) is False
    assert verify_kernel(f, PartiteKernel((0, 1), (0, 1, 1), trace, 1, 1)) is True


def test_verify_kernel_detects_tampering():
    m = 40
    f = hg(m + 1, *({0, i} for i in range(1, m + 1)))
    kern = furedi_kernel(f, s=1, t=2, seed=5)
    # remove the trace edge: the shared-center element now violates the
    # "no two distinct edges share it" side
    bad = PartiteKernel(kern.surviving_edges, kern.coloring,
                        Hypergraph(kern.rank, []), kern.multiplicity, kern.s_bound)
    assert verify_kernel(f, kern) is True
    assert verify_kernel(f, bad) is False
    # raise t above the star size: the >= t extension check must fail
    bad_t = PartiteKernel(kern.surviving_edges, kern.coloring, kern.trace,
                          multiplicity=m + 1, s_bound=kern.s_bound)
    assert verify_kernel(f, bad_t) is False


def test_kernel_rejects_bad_inputs():
    # kernel_can_trace refuses exactly what the kernel refuses
    for check in (lambda f, s, t: furedi_kernel(f, s, t, seed=1), kernel_can_trace):
        with pytest.raises(DomainError):
            check(hg(3, {0, 1}, {2}), 1, 1)  # not uniform
        with pytest.raises(DomainError):
            check(hg(3, {0, 1}), 3, 1)       # s > r
        with pytest.raises(DomainError):
            check(hg(3, {0, 1}), 1, 0)       # t < 1
        with pytest.raises(DomainError):
            check(Hypergraph(3, []), 1, 1)   # no edges


def kernel_bound(r, s, t):
    # 2tT with T = sum_{j<=s} C(r, j), the kernel's terminal-test factor
    return 2 * t * sum(comb(r, j) for j in range(s + 1))


def test_kernel_trace_needs_a_vertex_in_2tT_edges():
    # seeded uniform families; every other one has a hub in half to four
    # times as many edges as the bound, its petals drawn from a wide pool so
    # that traces occur.  A nonempty trace must come from a family that
    # kernel_can_trace admits
    rng = random.Random(2024)
    traces = 0
    for case in range(240):
        r = rng.randint(2, 4)
        s, t = rng.randint(1, min(r, 2)), rng.randint(1, 2)
        bound = kernel_bound(r, s, t)
        if case % 2:
            hub = rng.randint(bound // 2, 4 * bound)
            n = 1 + rng.randint(2, 4) * (r - 1) * hub
            edges = [{0, *rng.sample(range(1, n), r - 1)} for _ in range(hub)]
            edges += [rng.sample(range(1, n), r) for _ in range(rng.randint(0, 5))]
        else:
            n = rng.randint(r + 2, 3 * r + 6)
            edges = [rng.sample(range(n), r) for _ in range(rng.randint(n, 4 * n))]
        f = hg(n, *edges)
        can_trace = kernel_can_trace(f, s, t)
        assert can_trace == (max(m.bit_count() for m in f.incidence) >= bound)
        for seed in range(6):
            try:
                kern = furedi_kernel(f, s, t, seed=seed, retries=3)
            except KernelFailure:
                continue
            if kern.trace.edges:
                traces += 1
                assert can_trace, (case, seed)
    assert traces >= 50


def test_kernel_trace_bound_is_tight():
    # a sunflower of rank 2: at s = t = 1 the bound is 2 * 1 * 3 = 6 edges
    # on the centre; with 6 petals a lucky coloring keeps all of them rainbow
    # and the centre's color is a trace edge, with 5 no kernel can trace
    def sunflower(petals):
        return hg(petals + 1, *({0, i} for i in range(1, petals + 1)))

    assert kernel_bound(2, 1, 1) == 6
    assert not kernel_can_trace(sunflower(5), 1, 1)
    assert kernel_can_trace(sunflower(6), 1, 1)
    kern = furedi_kernel(sunflower(6), 1, 1, seed=64, retries=1)
    assert kern.trace.edges == (frozenset({kern.coloring[0]}),)


# -- induced pairs -----------------------------------------------------------

def test_find_induced_pair_singletons():
    h = hg(4, {0}, {1}, {2}, {3})
    pair = find_induced_pair(h, 4)
    assert pair.a_set == frozenset() and pair.order == 4


def test_find_induced_pair_single_full_edge():
    h = hg(5, {0, 1, 2, 3, 4})
    pair = find_induced_pair(h, 2)
    assert pair.order == 1  # best possible: one edge covers everything


def test_find_induced_pair_path():
    # 2-uniform path on 4 vertices: the endpoints are non-adjacent
    h = hg(4, {0, 1}, {1, 2}, {2, 3})
    pair = find_induced_pair(h, 2)
    assert pair.order >= 2
    assert verify_induced_pair(h, pair)


def test_find_induced_pair_requires_covered():
    with pytest.raises(DomainError):
        find_induced_pair(hg(3, {0, 1}), 1)


def test_find_induced_pair_guarantee():
    rng = random.Random(71)
    for trial in range(300):
        ell = 1 + rng.randrange(3)
        k = 2 + rng.randrange(3)
        threshold = sum((k - 1) ** l for l in range(ell + 1))
        n = threshold + rng.randrange(4)
        h = random_covered_hypergraph(n, ell, rng)
        pair = find_induced_pair(h, k)
        assert verify_induced_pair(h, pair)
        assert pair.order >= k, (ell, k, n, h.edges)


def test_alpha_exact_examples():
    assert alpha_exact(hg(5, {0, 1, 2, 3, 4})) == 1
    assert alpha_exact(hg(4, {0}, {1}, {2}, {3})) == 4
    c5 = hg(5, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0})
    assert alpha_exact(c5) == 2
    with pytest.raises(OracleLimitError):
        alpha_exact(Hypergraph(13, []))


def test_alpha_exact_dominates_constructive_pair():
    rng = random.Random(73)
    for _ in range(120):
        n = 2 + rng.randrange(8)
        h = random_covered_hypergraph(n, 1 + rng.randrange(3), rng)
        best = alpha_exact(h)
        for k in range(1, 5):
            pair = find_induced_pair(h, k)
            assert pair.order <= best


def test_alpha_invariant_under_nonmaximal_edge_deletion():
    rng = random.Random(79)
    for _ in range(500):
        n = 2 + rng.randrange(6)
        h = random_covered_hypergraph(n, 1 + rng.randrange(3), rng)
        maximal = [e for e in set(h.edges)
                   if not any(e < other for other in h.edges)]
        reduced = Hypergraph(n, maximal)
        assert alpha_exact(h) == alpha_exact(reduced)


# -- F search ----------------------------------------------------------------

def test_f_search_singleton_rank():
    for k in range(1, 6):
        res = f_search(1, k, 8)
        assert res.lower == k and res.upper == k


def test_f_search_rank2_order2():
    res = f_search(2, 2, 4)
    assert (res.lower, res.upper) == (3, 3)
    assert res.counterexample is not None and res.counterexample[0] == 2


def test_f_search_rank3_order2():
    res = f_search(3, 2, 5)
    assert (res.lower, res.upper) == (4, 4)


def test_f_search_open_upper():
    # scanning only up to the last counterexample leaves the value open
    res = f_search(2, 2, 2)
    assert res.lower == 3 and res.upper is None


def test_f_search_scale_guards():
    with pytest.raises(DomainError, match=r"^ell must be in 1\.\.3$"):
        f_search(4, 2, 4)
    with pytest.raises(DomainError, match=r"^k must be in 1\.\.5$"):
        f_search(2, 6, 4)
    with pytest.raises(DomainError, match="^n_max=7 exceeds the exhaustive cap 6 for ell=2$"):
        f_search(2, 2, 7)
    with pytest.raises(DomainError, match="^n_max=6 exceeds the exhaustive cap 5 for ell=3$"):
        f_search(3, 2, 6)


def covering_antichains(n, ell):
    """Every covering antichain of nonempty edges of size <= ell on [n], as masks."""
    masks = [sum(1 << v for v in sub)
             for size in range(1, ell + 1) for sub in combinations(range(n), size)]
    full = (1 << n) - 1
    for pick in range(1, 1 << len(masks)):
        chosen = [m for i, m in enumerate(masks) if (pick >> i) & 1]
        cover = 0
        for m in chosen:
            cover |= m
        if cover == full and not any(
                a != b and a & b == a for a in chosen for b in chosen):
            yield chosen


@pytest.mark.parametrize("ell, n_max", [(2, 5), (3, 4)])
def test_orbit_is_the_isomorphism_class(ell, n_max):
    # the closure under adjacent transpositions is every relabelling
    for n in range(1, n_max + 1):
        for chosen in covering_antichains(n, ell):
            assert (hypergraphs._orbit(n, mask_of(chosen))
                    == set(map(mask_of, relabellings_by_all_permutations(n, chosen))))


def test_find_counterexample_runs_alpha_once_per_class(monkeypatch):
    # k = 1 admits no counterexample, so every class is checked; the counts
    # are the isomorphism classes of covering antichains (for ell = 2, the
    # graphs on n vertices)
    calls = 0
    real_alpha = hypergraphs.alpha_exact

    def counting_alpha(h):
        nonlocal calls
        calls += 1
        return real_alpha(h)

    monkeypatch.setattr(hypergraphs, "alpha_exact", counting_alpha)
    for ell, expected in ((2, [1, 2, 4, 11, 34]), (3, [1, 2, 5, 19])):
        counts = []
        for n in range(1, len(expected) + 1):
            calls = 0
            assert hypergraphs._find_counterexample(n, ell, 1) is None
            counts.append(calls)
        assert counts == expected


def test_f_search_json_roundtrip():
    import json

    res = f_search(2, 2, 4)
    obj = json.loads(res.to_json())
    assert obj["lower"] == 3 and obj["upper"] == 3
    assert obj["counterexample"]["n"] == 2


def test_verify_induced_pair_rejects_bad_pairs():
    h = hg(4, {0, 1}, {1, 2}, {2, 3})
    assert not verify_induced_pair(h, InducedPair(frozenset(), frozenset({0, 1})))
    assert not verify_induced_pair(h, InducedPair(frozenset({0}), frozenset({0})))


def test_verify_induced_pair_rejects_vertices_outside_h():
    # the replay shifts each vertex into a mask, so it range-checks first:
    # a negative id would raise, and an id past the last would miss every edge
    h = hg(4, {0, 1}, {1, 2}, {2, 3})
    for a_set, b_set in (({-1}, ()), ({4}, ()), ((), {-1})):
        assert not verify_induced_pair(h, InducedPair(frozenset(a_set), frozenset(b_set)))
    assert verify_induced_pair(h, InducedPair(frozenset({1}), frozenset({0})))
