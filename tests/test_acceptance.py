"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Tolerances are pinned here and nowhere else; every randomized
check uses pinned seeds and is therefore reproducible bit-for-bit.
"""

import random
from fractions import Fraction
from math import comb

from c4lab import subdivisions
from c4lab.errors import ExtractionFailure, KernelFailure
from c4lab.graphs import (
    Graph,
    bits,
    gen_gnp,
    gen_lopsided,
    induced,
    projective_plane_incidence,
)
from c4lab.hypergraphs import (
    Hypergraph,
    f_search,
    find_induced_pair,
    furedi_kernel,
    verify_induced_pair,
    verify_kernel,
)
from c4lab.lowerbounds import lb_experiment
from c4lab.named import heawood_graph, petersen_graph
from c4lab.oracles import best_c4free_induced, find_c3, find_c4
from c4lab.pipeline import (
    PipelineParams,
    extract_induced_c4free,
    model_lopsided,
    verify_certificate,
)
from c4lab.reductions import sparsify_short_cycles
from c4lab.subdivisions import find_subdivision, induced_subdivision, verify_subdivision
from helpers import reiman_holds, repair_to_c4_free

SUBGRAPH_MODES = ("trivial_already_c4free", "case1_near_regular",
                  "case2_lopsided", "oracle_fallback")


def _announce(num: int, slug: str) -> None:
    print(f"ACCEPTANCE {num} {slug}: PASS")


def _check_witness_reiman(g: Graph, cert) -> None:
    if cert.mode in SUBGRAPH_MODES and cert.witness:
        sub = induced(g, cert.witness)
        if cert.verified["induced_c4free"]:
            assert reiman_holds(sub.n, sub.edge_count)


def test_acceptance_1_soundness_fuzz():
    # 10^4 extraction runs over random graphs (n <= 60, mixed p) plus the
    # generator corpus; every non-failure certificate must re-verify.
    params = PipelineParams(retries=4, attempts=2, oracle_limit=12)
    rng = random.Random(20260808)
    runs = 0
    for trial in range(9200):
        n = 1 + rng.randrange(60)
        p = rng.choice([0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7])
        g = gen_gnp(n, p, rng.randrange(2 ** 32))
        s = rng.choice([2, 2, 3])
        k = 1 + rng.randrange(4)
        cert = extract_induced_c4free(g, s, k, params, seed=trial)
        assert verify_certificate(g, cert), (n, p, s, k, trial)
        _check_witness_reiman(g, cert)
        runs += 1
    corpus = [heawood_graph(), petersen_graph(),
              projective_plane_incidence(3).underlying,
              projective_plane_incidence(5).underlying]
    for i in range(200):
        bg = gen_lopsided(80 + (i % 5) * 10, 30, 2, 2, seed=i)
        corpus.append(bg.underlying)
        if len(corpus) >= 40:
            break
    for trial in range(800):
        g = corpus[trial % len(corpus)]
        s = 2 + trial % 2
        k = 1 + trial % 4
        cert = extract_induced_c4free(g, s, k, params, seed=trial)
        assert verify_certificate(g, cert)
        _check_witness_reiman(g, cert)
        runs += 1
    assert runs == 10000
    _announce(1, "soundness-fuzz-10k")


def test_acceptance_2_oracle_agreement():
    # on <= 10 vertices every successful certificate is bounded by the
    # exhaustive optimum, with equality in oracle_fallback mode
    params = PipelineParams(retries=6, attempts=2, oracle_limit=10)
    rng = random.Random(4097)
    checked_fallback = 0
    for trial in range(500):
        n = 1 + rng.randrange(10)
        p = rng.choice([0.15, 0.3, 0.5, 0.75])
        g = gen_gnp(n, p, rng.randrange(2 ** 32))
        k = 1 + rng.randrange(4)
        cert = extract_induced_c4free(g, 2, k, params, seed=trial)
        assert verify_certificate(g, cert)
        if cert.mode in ("failure", "biclique_found"):
            continue
        _, best_val = best_c4free_induced(g)
        achieved = Fraction(cert.stats["avg_degree"])
        assert achieved <= best_val
        if cert.mode == "oracle_fallback":
            assert achieved == best_val
            checked_fallback += 1
        _check_witness_reiman(g, cert)
    assert checked_fallback > 0
    _announce(2, "oracle-agreement-500")


def test_acceptance_3_girth_guarantee():
    # the sparsifier's output is triangle- and 4-cycle-free on all 10^3 runs
    planes = {q: projective_plane_incidence(q).underlying for q in (2, 3, 5)}
    runs = 0
    for q, g in planes.items():
        for seed in range(250):
            keep = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed, target=0,
                                         retries=50)
            sub = induced(g, bits(keep))
            assert find_c3(sub) is None and find_c4(sub) is None
            assert reiman_holds(sub.n, sub.edge_count)
            runs += 1
    rng = random.Random(55)
    while runs < 1000:
        n = 12 + rng.randrange(20)
        g = repair_to_c4_free(gen_gnp(n, 0.3, rng.randrange(2 ** 32)))
        assert reiman_holds(g.n, g.edge_count)
        try:
            keep = sparsify_short_cycles(g.masks, (1 << g.n) - 1, 2, seed=runs, target=0,
                                         retries=50)
        except ExtractionFailure:
            runs += 1
            continue
        sub = induced(g, bits(keep))
        assert find_c3(sub) is None and find_c4(sub) is None
        runs += 1
    _announce(3, "girth-guarantee-1000")


def test_acceptance_4_f_table_exactness():
    for k in range(1, 6):
        res = f_search(1, k, 8)
        assert (res.lower, res.upper) == (k, k)
    for ell, nmax in ((1, 3), (2, 4), (3, 5)):
        res = f_search(ell, 2, nmax)
        assert (res.lower, res.upper) == (ell + 1, ell + 1)
    _announce(4, "f-table-exact")


def test_acceptance_5_induced_pair_guarantee():
    rng = random.Random(2025)
    for trial in range(1000):
        ell = 1 + rng.randrange(3)
        k = 2 + rng.randrange(3)
        threshold = sum((k - 1) ** l for l in range(ell + 1))
        n = threshold + rng.randrange(5)
        edges = []
        for _ in range(rng.randrange(1, 2 * n + 1)):
            size = 1 + rng.randrange(ell)
            edges.append(frozenset(rng.sample(range(n), min(size, n))))
        covered = set().union(*edges) if edges else set()
        edges.extend(frozenset({v}) for v in range(n) if v not in covered)
        h = Hypergraph(n, edges)
        pair = find_induced_pair(h, k)
        assert verify_induced_pair(h, pair)
        assert pair.order >= k, (ell, k, n)
    _announce(5, "induced-pair-guarantee-1000")


def test_acceptance_6_kernel_dichotomy():
    rng = random.Random(31337)
    produced = 0
    trial = 0
    while produced < 1000:
        trial += 1
        r = 2 + rng.randrange(5)          # r <= 6
        n = r + rng.randrange(3 * r)
        m = 1 + rng.randrange(200)
        edges = [frozenset(rng.sample(range(n), r)) for _ in range(m)]
        f = Hypergraph(n, edges)
        s = 1 + rng.randrange(min(2, r))  # s <= 2
        t = 1 + rng.randrange(3)          # t <= 3
        big_t = sum(comb(r, j) for j in range(s + 1))
        try:
            kern = furedi_kernel(f, s=s, t=t, seed=trial, retries=30)
        except KernelFailure:
            continue
        assert verify_kernel(f, kern), (r, n, m, s, t, trial)
        hist = kern.history
        for a, b in zip(hist, hist[1:]):
            assert b * 2 * t * big_t * big_t >= a
        assert len(hist) <= big_t + 2
        produced += 1
    _announce(6, "kernel-dichotomy-1000")


def test_acceptance_7_lower_bound_calibration():
    rep = lb_experiment(10, 0.5, 2, 4, trials=2000, seed=777)
    assert rep.exact_ey == 630 * 0.5 ** 4
    assert abs(rep.mean_y - rep.exact_ey) <= 3 * rep.stderr_y
    # degenerate densities are exact, no Monte-Carlo tolerance
    rep1 = lb_experiment(8, 1.0, 2, 4, trials=20, seed=1)
    assert rep1.p_y_zero == 0.0 and rep1.p_x_zero == 1.0
    assert rep1.mean_y == rep1.exact_ey and rep1.p_edges_ok == 1.0
    rep0 = lb_experiment(8, 0.0, 2, 4, trials=20, seed=1)
    assert rep0.p_y_zero == 1.0 and rep0.p_x_zero == 0.0
    assert rep0.mean_y == 0.0 == rep0.exact_ey and rep0.p_edges_ok == 1.0
    # the extremal edge bound holds for every C4-free graph in sight
    for q in (2, 3, 5):
        g = projective_plane_incidence(q).underlying
        assert reiman_holds(g.n, g.edge_count)
    rng = random.Random(9)
    for _ in range(100):
        g = repair_to_c4_free(gen_gnp(1 + rng.randrange(20), 0.4,
                                      rng.randrange(2 ** 32)))
        assert reiman_holds(g.n, g.edge_count)
    _announce(7, "lower-bound-calibration")


def test_acceptance_8_subdivision_soundness(monkeypatch):
    corpus = [
        Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),  # K4
        petersen_graph(),
        heawood_graph(),
    ]
    rng = random.Random(321)
    runs = 0
    for trial in range(120):
        g = corpus[trial % len(corpus)] if trial % 2 == 0 else \
            gen_gnp(5 + rng.randrange(10), rng.choice([0.3, 0.5]),
                    rng.randrange(2 ** 32))
        k = 3 + trial % 2
        w = find_subdivision(g, k, seed=trial)
        if w is not None:
            assert verify_subdivision(g, w)
        runs += 1
    fast = PipelineParams(retries=10, attempts=2)
    monkeypatch.setattr(subdivisions, "SAMPLE_RETRIES", 40)
    for trial in range(80):
        g = corpus[trial % len(corpus)] if trial % 2 == 0 else \
            gen_gnp(6 + rng.randrange(8), 0.4, rng.randrange(2 ** 32))
        w = induced_subdivision(g, 2, 3, seed=trial, params=fast)
        if w is not None:
            assert w.induced_flag
            assert verify_subdivision(g, w)
        runs += 1
    assert runs == 200
    # the bipartite route must land an induced witness within 50 seeds
    heawood = heawood_graph()
    monkeypatch.setattr(subdivisions, "SAMPLE_RETRIES", 200)
    hit = None
    for seed in range(50):
        w = induced_subdivision(heawood, 2, 3, seed=seed, params=fast)
        if w is not None:
            hit = w
            break
    assert hit is not None and hit.induced_flag
    assert verify_subdivision(heawood, hit)
    _announce(8, "subdivision-soundness-200")


def test_acceptance_9_determinism():
    scenarios = [
        (heawood_graph(), 2, 3, 7),
        (gen_gnp(24, 0.25, seed=123), 2, 2, 42),
        (gen_gnp(30, 0.15, seed=9), 2, 3, 11),
    ]
    for g, s, k, seed in scenarios:
        blobs = []
        params = PipelineParams(retries=10, attempts=4)
        for _ in range(4):
            blobs.append(extract_induced_c4free(g, s, k, params, seed=seed)
                         .to_json().encode())
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    # the kernel-backed model case replays byte-identically as well
    bg = gen_lopsided(3400, 90, 2, 2, seed=5)
    m1 = model_lopsided(bg, 2, 2, seed=11, params=PipelineParams(retries=10))
    m2 = model_lopsided(bg, 2, 2, seed=11, params=PipelineParams(retries=10))
    assert m1.to_json() == m2.to_json()
    _announce(9, "determinism-pinned-scenarios")
