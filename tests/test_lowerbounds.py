import math
import random
from itertools import combinations
from math import comb

import pytest

from c4lab.errors import DomainError
from c4lab.graphs import gen_gnp
from c4lab.named import heawood_graph
from c4lab.lowerbounds import (
    _c4free_subsets,
    _count_biclique_pairs,
    _has_c4free_subset,
    _sample_c4free_subsets,
    check_lb_conditions,
    exact_expected_bicliques,
    lb_experiment,
    reiman_max_edges,
)
from helpers import (
    count_biclique_pairs_by_vertex_sets,
    count_c4free_by_combination_scan,
    reiman_holds,
    repair_to_c4_free,
    sample_c4free_by_pair_scan,
)


def test_reiman_examples():
    assert reiman_max_edges(0) == 1
    assert reiman_max_edges(4) == 6  # (1/2)*8 + 1 + 1 exactly
    r14 = reiman_max_edges(14)
    assert r14 >= 21
    # certified over-approximation by strictly less than 1
    exact = 0.5 * 14 ** 1.5 + 14 / 4 + 1
    assert exact <= float(r14) < exact + 1


def test_reiman_holds_is_exact():
    # cross-check the integer rearrangement against floats on a grid
    for n in range(0, 200):
        for e in range(0, 2 * n + 50, 7):
            float_ok = e <= 0.5 * n ** 1.5 + n / 4 + 1 + 1e-9
            assert reiman_holds(n, e) == float_ok or abs(
                e - (0.5 * n ** 1.5 + n / 4 + 1)) < 1e-6


def test_reiman_never_violated_by_c4free_graphs():
    rng = random.Random(31)
    for _ in range(150):
        n = 1 + rng.randrange(20)
        g = repair_to_c4_free(gen_gnp(n, 0.4, rng.randrange(2 ** 32)))
        assert reiman_holds(g.n, g.edge_count)
    h = heawood_graph()
    assert reiman_holds(h.n, h.edge_count)


def test_check_lb_conditions_examples():
    rep = check_lb_conditions(10, 0.5, 2, 4)
    assert not rep.satisfied
    assert rep.q_biclique == 25.0
    rep0 = check_lb_conditions(8, 0.0, 2, 4)
    assert not rep0.satisfied
    assert rep0.q_sparse == 1.0
    with pytest.raises(DomainError):
        check_lb_conditions(10, 0.5, 1, 4)


def test_exact_ey_matches_brute_force_enumeration():
    # full enumeration of labeled pairs times p^{s^2} on n <= 7
    for n, s in ((5, 2), (6, 2), (7, 2), (7, 3)):
        pair_count = 0
        for left in combinations(range(n), s):
            rest = [v for v in range(n) if v not in left]
            pair_count += comb(len(rest), s)
        pair_count //= 2
        for p in (0.3, 0.5, 1.0):
            assert math.isclose(exact_expected_bicliques(n, p, s),
                                pair_count * p ** (s * s))


def test_lb_experiment_degenerate_p():
    rep1 = lb_experiment(8, 1.0, 2, 4, trials=10, seed=3)
    assert rep1.p_y_zero == 0.0          # K8 is full of K_{2,2}
    assert rep1.p_x_zero == 1.0          # every 4-subset of K8 has a C4
    assert rep1.mean_y == rep1.exact_ey  # p=1: deterministic count
    assert rep1.p_edges_ok == 1.0
    rep0 = lb_experiment(8, 0.0, 2, 4, trials=10, seed=3)
    assert rep0.p_y_zero == 1.0
    assert rep0.p_x_zero == 0.0          # the empty graph is all C4-free
    assert rep0.mean_y == 0.0 == rep0.exact_ey
    assert rep0.p_edges_ok == 1.0
    for k in (2, 3):
        # the C4-free-set term's power (k^2 - 3k - 2)/4 is negative and its
        # base 1 - p^4 is 0, so it diverges; n^2 p^s = 64 fails already
        rep = lb_experiment(8, 1.0, 2, k, trials=3, seed=3)
        assert rep.trivial_k and rep.p_x_zero is None
        assert rep.conditions["q_c4free_sets"] == math.inf
        assert rep.conditions["satisfied"] is False
        assert rep.mean_y == rep.exact_ey


@pytest.mark.parametrize("n", [0, 1, 3])
def test_lb_experiment_below_two_disjoint_s_sets(n):
    # n < 2s leaves no two disjoint s-sets, so E[Y] is 0, not C(n - s, s)
    # of a negative n - s
    assert exact_expected_bicliques(n, 0.5, 2) == 0.0
    rep = lb_experiment(n, 0.5, 2, 4, trials=3, seed=1)
    assert rep.exact_ey == 0.0 == rep.mean_y
    assert rep.p_y_zero == 1.0


def test_lb_experiment_ey_calibration():
    rep = lb_experiment(10, 0.5, 2, 4, trials=400, seed=11)
    # exact E[Y] = 630/16 = 39.375
    assert rep.exact_ey == pytest.approx(39.375)
    assert abs(rep.mean_y - rep.exact_ey) <= 3 * rep.stderr_y


def test_lb_experiment_trivial_k():
    rep = lb_experiment(8, 0.5, 2, 2, trials=5, seed=1)
    assert rep.trivial_k and rep.p_x_zero is None


def test_lb_experiment_sampled_mode():
    # beyond the exact budget (C(40,28) > 10^6) X is sampled and flagged
    rep = lb_experiment(40, 0.9, 2, 7, trials=2, seed=1)
    assert not rep.x_exact
    assert rep.p_x_zero == 1.0  # dense graph: no C4-free 28-subset sampled
    rep2 = lb_experiment(40, 0.0, 2, 7, trials=2, seed=1)
    assert not rep2.x_exact and rep2.p_x_zero == 0.0
    # K exceeding n means no subsets at all, so X = 0 exactly
    rep3 = lb_experiment(8, 0.5, 2, 7, trials=3, seed=1)
    assert rep3.p_x_zero == 1.0 and rep3.x_exact


def test_c4free_subset_count_matches_combination_scan():
    rng = random.Random(53)
    for p in (0.2, 0.4, 0.6, 0.8):
        for _ in range(3):
            g = gen_gnp(12, p, rng.randrange(2 ** 32))
            for size in range(g.n + 2):
                assert sum(1 for _ in _c4free_subsets(g, size)) == \
                    count_c4free_by_combination_scan(g, size)


def test_c4free_subset_sampler_matches_pair_scan():
    rng = random.Random(59)
    for p in (0.2, 0.4, 0.6, 0.8):
        g = gen_gnp(12, p, rng.randrange(2 ** 32))
        for size in range(g.n + 1):
            seed = rng.randrange(2 ** 32)
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            assert _sample_c4free_subsets(g, size, 40, new_rng) == \
                sample_c4free_by_pair_scan(g, size, 40, old_rng)
            assert new_rng.getstate() == old_rng.getstate()


def test_lb_experiment_determinism():
    a = lb_experiment(9, 0.4, 2, 4, trials=50, seed=21).as_dict()
    b = lb_experiment(9, 0.4, 2, 4, trials=50, seed=21).as_dict()
    assert a == b


def test_c4free_subset_existence_matches_count():
    rng = random.Random(41)
    both = set()
    for _ in range(60):
        n = rng.randrange(0, 11)
        g = gen_gnp(n, rng.choice([0.2, 0.5, 0.8, 1.0]), rng.randrange(2 ** 32))
        for size in range(n + 2):
            has = _has_c4free_subset(g, size)
            assert has == (sum(1 for _ in _c4free_subsets(g, size)) > 0)
            both.add(has)
    assert both == {True, False}


def test_biclique_pair_count_matches_the_vertex_set_scan():
    # the pruned prefix walk against every s-set of vertex ids, from the
    # empty graph to the complete one
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randrange(0, 13)
        g = gen_gnp(n, rng.choice([0.0, 0.3, 0.5, 0.8, 1.0]), rng.randrange(2 ** 32))
        for s in (2, 3, 4):
            assert _count_biclique_pairs(g, s) == count_biclique_pairs_by_vertex_sets(g, s)
