import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from c4lab import pipeline
from c4lab.errors import (
    DomainError,
    ExtractionFailure,
    InvariantError,
    KernelFailure,
    StaleCertificateError,
)
from c4lab.graphio import read_graph6, write_graph6
from c4lab.hypergraphs import Hypergraph, PartiteKernel, kernel_can_trace
from c4lab.graphs import (
    BipartiteGraph,
    Graph,
    gen_gnp,
    gen_lopsided,
    induced,
    mask_of,
    projective_plane_incidence,
)
from c4lab.named import complete_bipartite, heawood_graph, petersen_graph
from c4lab.oracles import best_c4free_induced, contains_biclique, find_c4
from c4lab.pipeline import (
    ExtractionCertificate,
    PipelineParams,
    extract_induced_c4free,
    graph_digest,
    model_lopsided,
    verify_certificate,
)
from c4lab.subdivisions import induced_subdivision

from helpers import (average_degree, graph_digest_reference,
                     model_front_half_by_frozensets, run_optimized)

FAST = PipelineParams(retries=20, attempts=4)
GOLDEN = Path(__file__).parent / "golden"


def star_side_graph(a_count: int, r: int) -> BipartiteGraph:
    # every A-vertex shares one identical r-neighborhood
    edges = [(a, a_count + j) for a in range(a_count) for j in range(r)]
    g = Graph(a_count + r, edges)
    return BipartiteGraph(g, range(a_count), range(a_count, a_count + r))


def test_model_identical_neighborhoods_yield_biclique():
    bg = star_side_graph(4, 3)
    cert = model_lopsided(bg, s=2, k=2, seed=1)
    assert cert.mode == "biclique_found"
    s_side, t_side = cert.biclique
    assert len(s_side) == len(t_side) == 2
    assert verify_certificate(bg.underlying, cert)


def test_model_single_vertex_star():
    bg = star_side_graph(1, 3)
    cert = model_lopsided(bg, s=2, k=1, seed=1)
    assert cert.mode == "case2_lopsided"
    assert cert.witness == (0, 1, 2, 3)  # the whole star
    assert cert.verified["induced_c4free"] and cert.verified["avg_degree_ok"]
    assert verify_certificate(bg.underlying, cert)


def count_kernel_calls(monkeypatch) -> list:
    # one entry per furedi_kernel call that model_lopsided makes
    calls = []
    real = pipeline.furedi_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "furedi_kernel", counting)
    return calls


def test_model_trace_biclique_route(monkeypatch):
    # every A-vertex sees {b0, b1} plus a private third B-vertex: all
    # neighborhoods are distinct (the duplicate shortcut stays silent), yet
    # any two A-vertices close a K_{2,2}; the kernel trace must expose the
    # size-2 color set and unwind it to a verified biclique witness.  b0 is
    # in all 300 edges, far above 2tT = 16, so the kernel runs
    calls = count_kernel_calls(monkeypatch)
    a = 300
    bg = shared_pair_graph(a)
    cert = model_lopsided(bg, s=2, k=2, seed=3, params=PipelineParams(retries=20))
    assert calls
    assert cert.mode == "biclique_found"
    assert cert.stats.get("stage") == "model:trace-biclique"
    assert cert.biclique[1] == (a, a + 1)
    assert verify_certificate(bg.underlying, cert)


def shared_pair_graph(a: int) -> BipartiteGraph:
    # A-vertex i sees b0 = a, b1 = a + 1 and its private a + 2 + i
    edges = [(i, w) for i in range(a) for w in (a, a + 1, a + 2 + i)]
    return BipartiteGraph(Graph(2 * a + 2, edges), range(a), range(a, 2 * a + 2))


# four A-vertices 0..3 on B-vertices 4..9 (B-indices 0..5); the least
# neighbourhood {0, 1, 2} shares its colour-{0, 1} slice {0, 1} with
# {0, 1, 3}, and the greatest, {3, 4, 5}, shares its slice {4, 5} with {2, 4, 5}
STUB_HOODS = ((0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5))
STUB_COLORING = (0, 1, 2, 2, 0, 1)


def stub_kernel_graph() -> BipartiteGraph:
    g = Graph(10, [(a, 4 + b) for a, hood in enumerate(STUB_HOODS) for b in hood])
    return BipartiteGraph(g, range(4), range(4, 10))


def stub_kernel(monkeypatch, *kernels) -> list:
    # model_lopsided's attempts run the stubbed kernels in turn, cycling, and
    # raise any that is an exception; one entry per call
    calls = []

    def stub(*args, **kwargs):
        calls.append(kwargs["seed"])
        kernel = kernels[(len(calls) - 1) % len(kernels)]
        if isinstance(kernel, Exception):
            raise kernel
        return kernel

    monkeypatch.setattr(pipeline, "trace_bound", lambda *args: 0)
    monkeypatch.setattr(pipeline, "furedi_kernel", stub)
    return calls


def test_model_trace_biclique_slices_the_least_surviving_edge(monkeypatch):
    # the family's edges are the neighbourhoods in sorted order, so every
    # edge survives; the trace edge {0, 1} is of size s = 2, and only the
    # least edge's slice gives the biclique ({0, 1}, {4, 5})
    kernel = PartiteKernel(surviving_edges=(0, 1, 2, 3), coloring=STUB_COLORING,
                           trace=Hypergraph(3, [frozenset({0, 1})]), multiplicity=2,
                           s_bound=2)
    calls = stub_kernel(monkeypatch, kernel)
    bg = stub_kernel_graph()
    cert = model_lopsided(bg, s=2, k=2, seed=5, params=PipelineParams(retries=4))
    assert len(calls) == 1
    assert cert.stats["stage"] == "model:trace-biclique"
    assert cert.biclique == ((0, 1), (4, 5))
    assert verify_certificate(bg.underlying, cert)


@pytest.mark.parametrize("k, retries, calls_made, stage", [
    (2, 5, 5, "model:budget-exhausted"), (2, 0, 0, "model:budget-exhausted"),
    (1, 5, 1, "model:star")])
def test_model_kernel_failure_spends_the_budget(monkeypatch, k, retries, calls_made,
                                                stage):
    # a kernel that fails on every seed leaves each attempt without a trace:
    # the star ends the first one at k = 1, else every retry runs a kernel
    calls = stub_kernel(monkeypatch, KernelFailure("stub"))
    bg = stub_kernel_graph()
    cert = model_lopsided(bg, s=2, k=k, seed=5, params=PipelineParams(retries=retries))
    assert len(calls) == calls_made == len(set(calls))
    assert cert.stats["stage"] == stage
    assert verify_certificate(bg.underlying, cert)


def test_model_pair_route_keeps_the_densest_missed_promise(monkeypatch):
    # singleton trace edges have no s = 2 edge, and their pair (X, Y) =
    # ({}, {0, 1}) takes every A-vertex of the surviving edges and their
    # colour-0/1 B-vertices, where 0 and 1 share {4, 5}: a 4-cycle, so each
    # witness misses its promise.  Edges 0..2 give density 12/7 on 7
    # vertices, all four edges 2 on 8, edges 0..1 the same 2 on 4; the
    # record keeps the first strictly densest
    trace = Hypergraph(3, [frozenset({0}), frozenset({1}), frozenset({2})])
    kernels = [PartiteKernel(surviving_edges=edges, coloring=STUB_COLORING, trace=trace,
                             multiplicity=2, s_bound=2)
               for edges in ((0, 1, 2), (0, 1, 2, 3), (0, 1))]
    calls = stub_kernel(monkeypatch, *kernels)
    bg = stub_kernel_graph()
    cert = model_lopsided(bg, s=2, k=2, seed=5, params=PipelineParams(retries=3))
    assert len(calls) == 3
    assert cert.mode == "failure"
    assert cert.stats["stage"] == "model:budget-exhausted"
    assert (cert.stats["best_avg_degree"], cert.stats["best_size"]) == ("2", 8)
    assert verify_certificate(bg.underlying, cert)


def test_model_pair_route_takes_each_edge_least_owner(monkeypatch):
    # A-vertices 0 and 1 share the neighbourhood {5, 6, 7}, B-indices
    # {0, 1, 2}, which s = 3 allows; the family's least edge survives alone,
    # and its pair witness at k = 1 holds the edge's least owner, 0
    hoods = ((0, 1, 2), *STUB_HOODS)
    g = Graph(11, [(a, 5 + b) for a, hood in enumerate(hoods) for b in hood])
    bg = BipartiteGraph(g, range(5), range(5, 11))
    trace = Hypergraph(3, [frozenset({0}), frozenset({1}), frozenset({2})])
    kernel = PartiteKernel(surviving_edges=(0,), coloring=STUB_COLORING, trace=trace,
                           multiplicity=3, s_bound=3)
    stub_kernel(monkeypatch, kernel)
    cert = model_lopsided(bg, s=3, k=1, seed=5, params=PipelineParams(retries=1))
    assert cert.stats["stage"] == "model:pair"
    assert 0 in cert.witness and 1 not in cert.witness
    assert verify_certificate(g, cert)


def test_model_star_that_breaks_its_promise_raises(monkeypatch):
    # {a0} with its neighbourhood induces a star, C4-free with average
    # degree 2r/(r+1) >= 1; flags that deny it are a broken invariant
    monkeypatch.setattr(pipeline, "_keeps_promise", lambda cert: False)
    with pytest.raises(InvariantError, match="star"):
        model_lopsided(star_side_graph(1, 3), s=2, k=1, seed=1)


def test_model_nonuniform_degrees_rejected():
    g = Graph(4, [(0, 2), (0, 3), (1, 2)])
    bg = BipartiteGraph(g, [0, 1], [2, 3])
    with pytest.raises(DomainError):
        model_lopsided(bg, s=2, k=1, seed=1)


def test_model_left_degree_below_s_rejected():
    # every neighbourhood has r = 1 < s = 2 members, so no s of them can
    # share s B-vertices
    with pytest.raises(DomainError, match="^left degree 1 must be at least s=2$"):
        model_lopsided(star_side_graph(2, 1), s=2, k=1, seed=1)


@pytest.mark.parametrize("a_side", [[], [0, 1, 2]], ids=["no-a", "no-b"])
def test_model_empty_side_is_a_failure_record(a_side):
    g = Graph(3)
    bg = BipartiteGraph(g, a_side, sorted({0, 1, 2} - set(a_side)))
    cert = model_lopsided(bg, s=2, k=1, seed=1)
    assert cert.mode == "failure"
    assert cert.stats["stage"] == "model:empty-side"
    assert verify_certificate(g, cert)


@pytest.mark.parametrize("s, k, message", [
    (2, 0, "k must be >= 1"),  # was a case2_lopsided star that from_json refuses
    (1, 2, "s must be >= 2"),  # was a biclique_found record for one edge
    (0, 2, "s must be >= 2"),  # was a ZeroDivisionError
])
def test_both_routes_share_one_request_rule(s, k, message):
    bg = gen_lopsided(30, 30, 3, 2, 1)
    with pytest.raises(DomainError, match=message):
        model_lopsided(bg, s, k, seed=1)
    with pytest.raises(DomainError, match=message):
        extract_induced_c4free(bg.underlying, s, k, seed=1)


def test_model_seed_sweep_soundness():
    bg = gen_lopsided(300, 40, 2, 2, seed=33)
    successes = 0
    for seed in range(6):
        cert = model_lopsided(bg, s=2, k=2, seed=seed,
                              params=PipelineParams(retries=10))
        assert verify_certificate(bg.underlying, cert)
        if cert.mode == "case2_lopsided":
            successes += 1
            assert cert.verified["induced_c4free"]
            assert cert.verified["avg_degree_ok"]
            assert cert.verified["bipartite"]
    # soundness is unconditional; success is seed-dependent


def test_model_dense_reuse_succeeds(monkeypatch):
    # heavily reused B-vertices (high |A|/|B|) let the kernel keep a large
    # family whose trace covers both colors: the pair route then verifies.
    # A B-vertex lies in 75.6 neighbourhoods on average and at most 83, far
    # above 2tT = 16, so the kernel runs
    calls = count_kernel_calls(monkeypatch)
    bg = gen_lopsided(3400, 90, 2, 2, seed=5)
    cert = model_lopsided(bg, s=2, k=2, seed=11,
                          params=PipelineParams(retries=30))
    assert calls
    assert cert.mode == "case2_lopsided", cert.stats
    assert cert.stats["stage"] == "model:pair"
    assert cert.verified["induced_c4free"] and cert.verified["avg_degree_ok"]
    sub = induced(bg.underlying, cert.witness)
    assert average_degree(sub) >= 2
    assert find_c4(sub) is None
    assert verify_certificate(bg.underlying, cert)


# seeded gen_lopsided shapes per (r, s), dense enough to be lopsided and
# sparse enough that the generator stays K_{s,s}-free; the (250, 25) family
# at r = s = 2 has a B-vertex in 22 neighbourhoods, so it runs the kernel at
# t = 2 (2tT = 16) but not at t = 3 (2tT = 24)
SKIP_SHAPES = {(2, 2): ((60, 12, 1), (250, 25, 2)), (3, 2): ((30, 30, 1), (60, 50, 2)),
               (4, 2): ((30, 40, 1), (60, 60, 2)), (3, 3): ((60, 12, 1), (150, 20, 2)),
               (4, 3): ((60, 12, 1), (150, 20, 2))}


def test_model_skip_matches_the_full_loop(monkeypatch):
    # with the trace bound forced to 0 every attempt runs its kernel; the
    # certificates must not change
    real = pipeline.trace_bound
    calls = count_kernel_calls(monkeypatch)
    stages = Counter()
    kernel_runs = 0
    for (r, s), shapes in SKIP_SHAPES.items():
        for a, b, seed in shapes:
            bg = gen_lopsided(a, b, r, s, seed)
            for k in (1, 2, 3):
                for retries in (0, 1, 5, 20):
                    params = PipelineParams(retries=retries)
                    monkeypatch.setattr(pipeline, "trace_bound", real)
                    before = len(calls)
                    guarded = model_lopsided(bg, s, k, seed=seed, params=params)
                    kernel_runs += len(calls) > before
                    monkeypatch.setattr(pipeline, "trace_bound", lambda *args: 0)
                    full = model_lopsided(bg, s, k, seed=seed, params=params)
                    assert guarded.to_json() == full.to_json(), (r, s, a, b, k, retries)
                    stages[guarded.stats["stage"]] += 1
    assert stages == {"model:budget-exhausted": 90, "model:star": 30}
    # only the (250, 25) family at t = 2 (k <= 2) runs a kernel, when retries >= 1
    assert kernel_runs == 6


@pytest.mark.parametrize("a, b", [(200, 25), (300, 30)])
def test_model_runs_no_kernel_on_the_benchmark_shapes(a, b, monkeypatch):
    # gen_lopsided(a, b, 3, 3) at s = k = 3: 2tT = 2 * 3 * 8 = 48, and no
    # B-vertex of these draws lies in that many neighbourhoods
    calls = count_kernel_calls(monkeypatch)
    for seed in (1, 2, 3):
        bg = gen_lopsided(a, b, 3, 3, seed)
        cert = model_lopsided(bg, 3, 3, seed=seed)
        assert cert.stats["stage"] == "model:budget-exhausted"
        assert "best_avg_degree" not in cert.stats
    assert calls == []


def model_draws():
    # (graph, s): the skip shapes, the benchmark's two shapes and the
    # shared-pair graph, whose b0 lies in all 300 neighbourhoods
    for (r, s), shapes in SKIP_SHAPES.items():
        for a, b, seed in shapes:
            yield gen_lopsided(a, b, r, s, seed), s
    for seed in (1, 2, 3):
        yield gen_lopsided(200, 25, 3, 3, seed), 3
        yield gen_lopsided(300, 30, 3, 3, seed), 3
    yield shared_pair_graph(300), 2


def refuse_kernels(monkeypatch) -> list:
    # furedi_kernel raises at once; one entry per call, its family
    families = []

    def refuse(family, **kwargs):
        families.append(family)
        raise KernelFailure("stub")

    monkeypatch.setattr(pipeline, "furedi_kernel", refuse)
    return families


def test_model_decides_from_masks_as_the_family_would(monkeypatch):
    # D, read from the masks, is the most edges of the reference family
    # that one vertex lies in: a kernel runs at the bound D and not at
    # D + 1, and the family it gets is the reference's, edge for edge
    families = refuse_kernels(monkeypatch)
    real = pipeline.trace_bound
    traced = 0
    for bg, s in model_draws():
        family, _ = model_front_half_by_frozensets(bg, s, 2, seed=1)
        most = max(m.bit_count() for m in family.incidence)
        for bound in (most + 1, most):
            monkeypatch.setattr(pipeline, "trace_bound", lambda *args, bound=bound: bound)
            families.clear()
            model_lopsided(bg, s, 2, seed=1, params=PipelineParams(retries=1))
            assert len(families) == (bound == most)
        assert families[0].edges == family.edges
        # at the real bound a kernel runs just when the family can trace
        monkeypatch.setattr(pipeline, "trace_bound", real)
        families.clear()
        model_lopsided(bg, s, 2, seed=1, params=PipelineParams(retries=1))
        assert len(families) == kernel_can_trace(family, s, max(2, s))
        traced += len(families)
    # the (250, 25) skip shape at t = 2 and the shared-pair graph
    assert traced == 2


def test_model_builds_its_family_only_when_a_kernel_can_trace(monkeypatch):
    built = []
    init = Hypergraph.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Hypergraph, "__init__", counted_init)
    families = refuse_kernels(monkeypatch)
    traced = 0
    for bg, s in model_draws():
        for k in (1, 3):
            built.clear()
            families.clear()
            model_lopsided(bg, s, k, seed=1, params=PipelineParams(retries=4))
            # no hypergraph at all without a kernel, else the one family
            # that every attempt's kernel reads
            assert built == ([len(bg.b_list())] if families else [])
            assert all(f is families[0] for f in families)
            traced += bool(families)
    # the (250, 25) skip shape at k = 1 (t = 2), and the shared-pair graph
    # at both
    assert traced == 3


def interleaved_graph(hoods) -> BipartiteGraph:
    # A-vertex i is 2i and B-vertex j is 2j + 1, with as many of each
    # as there are neighbourhoods
    m = len(hoods)
    g = Graph(2 * m, [(2 * i, 2 * j + 1) for i, hood in enumerate(hoods) for j in hood])
    return BipartiteGraph(g, range(0, 2 * m, 2), range(1, 2 * m, 2))


def test_model_on_interleaved_sides_matches_the_reference_front_half():
    rng = random.Random(47)
    m, r, s = 30, 4, 3
    hoods = [rng.sample(range(m), r) for _ in range(m)]
    repeated = list(hoods)
    for i in (4, 9, 17):
        repeated[i] = hoods[2]
    for family, k, stage in ((hoods, 1, "model:star"), (hoods, 3, "model:budget-exhausted"),
                             (repeated, 3, "model:duplicates")):
        bg = interleaved_graph(family)
        _, want = model_front_half_by_frozensets(bg, s, k, seed=5)
        got = model_lopsided(bg, s, k, seed=5)
        assert got.stats["stage"] == stage
        assert got.to_json() == want.to_json()
        assert verify_certificate(bg.underlying, got)
    assert got.biclique[0] == (4, 8, 18)


def test_extract_heawood_trivial():
    cert = extract_induced_c4free(heawood_graph(), 2, 3, FAST, seed=7)
    assert cert.mode == "trivial_already_c4free"
    assert cert.witness == tuple(range(14))
    assert cert.stats["avg_degree"] == "3"
    assert cert.verified["bipartite"]
    assert verify_certificate(heawood_graph(), cert)


def test_extract_k33_biclique():
    g = complete_bipartite(3, 3).underlying
    cert = extract_induced_c4free(g, 3, 2, FAST, seed=1)
    assert cert.mode == "biclique_found"
    assert verify_certificate(g, cert)


def test_extract_scans_for_a_biclique_only_on_an_input_with_a_4_cycle(monkeypatch):
    def scan(g, s):
        raise AssertionError("a C4-free input holds no K_{s,s}")

    monkeypatch.setattr(pipeline, "contains_biclique", scan)
    for g in (projective_plane_incidence(13).underlying, heawood_graph(),
              petersen_graph()):
        for s in (2, 3):
            cert = extract_induced_c4free(g, s, 3, FAST, seed=1)
            assert cert.mode == "trivial_already_c4free"
    # average degree 3 < k: the later routes run, still without a scan
    cert = extract_induced_c4free(heawood_graph(), 2, 4, FAST, seed=1)
    assert cert.mode == "oracle_fallback"

    calls = []

    def counted(g, s):
        calls.append(s)
        return contains_biclique(g, s)

    monkeypatch.setattr(pipeline, "contains_biclique", counted)
    for name, s in (("gnp24.g6", 2), ("gnp200_k33.g6", 3)):
        g = read_graph6((GOLDEN / name).read_text())
        cert = extract_induced_c4free(g, s, 2, FAST, seed=1)
        sides = contains_biclique(g, s)
        assert cert.mode == "biclique_found" and cert.stats["stage"] == "scan"
        assert cert.biclique == (tuple(sorted(sides[0])), tuple(sorted(sides[1])))
    assert calls == [2, 3]


def test_one_whole_graph_c4_pass_per_request(c4_passes):
    # extract, verify and the extraction nested in induced_subdivision each
    # decide the input's C4-freeness at most once, and the graph keeps the
    # answer: a graph built from its edges pays one pass on its first
    # request and none after, and a graph read from graph6 none at all,
    # since the reader decided it while parsing
    plane = projective_plane_incidence(13).underlying

    def whole_passes(call):
        c4_passes.clear()
        out = call()
        return out, c4_passes.count((1 << plane.n) - 1)

    cert = extract_induced_c4free(plane, 2, 3, seed=1)
    assert cert.mode == "trivial_already_c4free"
    requests = (lambda g: extract_induced_c4free(g, 2, 3, seed=1) == cert,
                lambda g: verify_certificate(g, cert),
                lambda g: induced_subdivision(g, 2, 3, seed=1) is not None)
    for request in requests:
        built = Graph(plane.n, plane.edges())
        assert whole_passes(lambda: request(built)) == (True, 1)
        assert whole_passes(lambda: request(built)) == (True, 0)
        parsed = read_graph6(write_graph6(plane))
        assert whole_passes(lambda: request(parsed)) == (True, 0)


def test_extract_petersen_trivial():
    cert = extract_induced_c4free(petersen_graph(), 2, 3, FAST, seed=1)
    assert cert.mode == "trivial_already_c4free"
    assert not cert.verified["bipartite"]
    assert verify_certificate(petersen_graph(), cert)


def test_extract_oracle_fallback_matches_optimum():
    # C5 plus chords has C4s; at k too large every route fails and the
    # exhaustive fallback returns the true optimum
    g = gen_gnp(9, 0.5, seed=4)
    assert find_c4(g) is not None
    cert = extract_induced_c4free(g, 2, 5, FAST, seed=2)
    if cert.mode == "oracle_fallback":
        _, best_val = best_c4free_induced(g)
        assert Fraction(cert.stats["avg_degree"]) == best_val
    assert verify_certificate(g, cert)


def test_extract_empty_and_tiny():
    cert = extract_induced_c4free(Graph(0), 2, 1, FAST, seed=1)
    assert cert.mode == "failure"
    assert verify_certificate(Graph(0), cert)
    cert1 = extract_induced_c4free(Graph(1), 2, 1, FAST, seed=1)
    assert cert1.mode in ("failure", "oracle_fallback")
    assert verify_certificate(Graph(1), cert1)


def test_extract_soundness_fuzz_small():
    rng = random.Random(91)
    modes = set()
    for trial in range(150):
        n = 1 + rng.randrange(14)
        p = rng.choice([0.1, 0.3, 0.6])
        g = gen_gnp(n, p, rng.randrange(2 ** 32))
        s = rng.choice([2, 3])
        k = 1 + rng.randrange(3)
        cert = extract_induced_c4free(g, s, k, PipelineParams(retries=6, attempts=2),
                                      seed=trial)
        modes.add(cert.mode)
        assert verify_certificate(g, cert)
        if cert.mode not in ("failure", "biclique_found"):
            sub = induced(g, cert.witness)
            assert find_c4(sub) is None or cert.mode == "oracle_fallback"
    assert "biclique_found" in modes


def test_oracle_dominance_small_graphs():
    rng = random.Random(97)
    for trial in range(60):
        n = 2 + rng.randrange(9)
        g = gen_gnp(n, 0.4, rng.randrange(2 ** 32))
        cert = extract_induced_c4free(g, 2, 2, PipelineParams(retries=6, attempts=2),
                                      seed=trial)
        if cert.mode in ("failure", "biclique_found"):
            continue
        _, best_val = best_c4free_induced(g)
        assert Fraction(cert.stats["avg_degree"]) <= best_val


def test_certificate_json_roundtrip_and_tamper():
    g = heawood_graph()
    cert = extract_induced_c4free(g, 2, 3, FAST, seed=5)
    text = cert.to_json()
    back = ExtractionCertificate.from_json(text)
    assert back.to_json() == text
    assert verify_certificate(g, back)
    # drop one witness vertex: stats stop reproducing
    tampered = ExtractionCertificate(
        back.input_digest, back.mode, back.witness[:-1], None,
        back.params, back.seed, back.verified, back.stats)
    assert not verify_certificate(g, tampered)
    # verifying against a different graph is a stale-certificate error
    with pytest.raises(StaleCertificateError):
        verify_certificate(petersen_graph(), back)


def test_extract_deterministic_on_repeated_runs():
    g = gen_gnp(24, 0.25, seed=123)
    params = PipelineParams(retries=10, attempts=4)
    certs = [extract_induced_c4free(g, 2, 2, params, seed=42).to_json()
             for _ in range(3)]
    assert certs[0] == certs[1] == certs[2]


def test_failure_diagnostics_keep_the_lowest_attempt_on_ties(monkeypatch):
    # the sparsifier's best in attempts 0 and 1 ties at average degree 1:
    # one edge, then two non-adjacent edges; the record keeps attempt 0's
    g = heawood_graph()
    u, v = next(iter(g.edges()))
    x, y = next((a, b) for a, b in g.edges()
                if len({u, v, a, b}) == 4 and induced(g, {u, v, a, b}).edge_count == 2)
    bests = iter([mask_of({u, v}), mask_of({u, v, x, y})])

    def sparsify_fails(*args, **kwargs):
        raise ExtractionFailure("below target", best=next(bests))

    monkeypatch.setattr(pipeline, "split_prefix",
                        lambda nbr, alive, delta: SimpleNamespace())
    monkeypatch.setattr(pipeline, "split_from_prefix",
                        lambda prefix, seed, retries: (1 << g.n) - 1)
    monkeypatch.setattr(pipeline, "sparsify_short_cycles", sparsify_fails)
    cert = extract_induced_c4free(g, 2, 4, PipelineParams(attempts=2, oracle_limit=0))
    assert cert.mode == "failure"
    assert (cert.stats["best_avg_degree"], cert.stats["best_size"]) == ("1", 2)


def test_digest_changes_with_graph():
    assert graph_digest(heawood_graph()) != graph_digest(petersen_graph())
    assert graph_digest(heawood_graph()) == graph_digest(heawood_graph())


def test_digest_matches_its_formula():
    graphs = [Graph(0), Graph(1), Graph(7), heawood_graph(), petersen_graph(),
              projective_plane_incidence(13).underlying]
    rng = random.Random(31)
    graphs += [gen_gnp(rng.randrange(2, 120), rng.choice([0.02, 0.1, 0.4]),
                       rng.randrange(2 ** 32)) for _ in range(40)]
    for g in graphs:
        assert graph_digest(g) == graph_digest_reference(g)


# sides the scan could never return: overlapping, or not fully joined in
# the Petersen graph
BAD_WITNESSES = [
    ((frozenset({0, 1, 2}), frozenset({2, 3, 4})), "biclique witness sides must be disjoint"),
    ((frozenset({0, 1, 2}), frozenset({3, 4, 5})), "biclique witness must be fully joined"),
]


def test_biclique_certificate_rejects_bad_scan_witness(monkeypatch):
    # the scan runs only on an input with a 4-cycle
    for wit, message in BAD_WITNESSES:
        monkeypatch.setattr(pipeline, "contains_biclique", lambda g, s, wit=wit: wit)
        with pytest.raises(InvariantError, match=message):
            extract_induced_c4free(complete_bipartite(2, 4).underlying, s=3, k=2,
                                   seed=1, params=FAST)


def test_biclique_certificate_rejects_bad_scan_witness_under_optimize():
    for wit, message in BAD_WITNESSES:
        out = run_optimized(
            "from c4lab import pipeline\n"
            "from c4lab.errors import InvariantError\n"
            "from c4lab.named import complete_bipartite\n"
            f"pipeline.contains_biclique = lambda g, s: {wit!r}\n"
            "try:\n"
            "    pipeline.extract_induced_c4free(complete_bipartite(2, 4).underlying,\n"
            "                                    s=3, k=2, seed=1)\n"
            "except InvariantError as exc:\n"
            "    print('raised', exc)\n")
        assert out == f"raised {message}\n"


# each snippet patches `pipeline` so that one soundness check fails, runs
# the call that reaches it, and prints the InvariantError it raises; the
# checks are explicit raises, so they also fire under `python -O`
TRACE_PARTNERS = (
    "import dataclasses\n"
    "from c4lab import pipeline\n"
    "from c4lab.graphs import BipartiteGraph, Graph\n"
    "from c4lab.pipeline import PipelineParams\n"
    "real_kernel = pipeline.furedi_kernel\n"
    "def one_edge_kernel(*args, **kwargs):\n"
    "    kernel = real_kernel(*args, **kwargs)\n"
    "    return dataclasses.replace(kernel,\n"
    "                               surviving_edges=kernel.surviving_edges[:1])\n"
    "pipeline.furedi_kernel = one_edge_kernel\n"
    "a = 300\n"
    "edges = [(i, w) for i in range(a) for w in (a, a + 1, a + 2 + i)]\n"
    "bg = BipartiteGraph(Graph(2 * a + 2, edges), range(a), range(a, 2 * a + 2))\n"
    "call = lambda: pipeline.model_lopsided(bg, s=2, k=2, seed=3,\n"
    "                                       params=PipelineParams(retries=20))\n",
    "trace dichotomy promised >= t >= s partners")
MODEL_DEGREES = (
    "from c4lab import pipeline\n"
    "from c4lab.named import heawood_graph\n"
    "call = lambda: pipeline._assert_model_degrees(\n"
    "    heawood_graph(), {0}, {7, 8, 9, 10}, 3, 3)\n",
    "A'-vertex 0 does not have exactly |Y| = 3 neighbours in B'")
MODEL_B_DEGREES = (
    "from c4lab import pipeline\n"
    "from c4lab.graphs import Graph\n"
    "call = lambda: pipeline._assert_model_degrees(\n"
    "    Graph(4, [(0, 2), (0, 3), (1, 2)]), {0}, {2, 3}, 2, 2)\n",
    "B'-vertex 2 has fewer than 2 neighbours in A'")
FORCED_RAISES = [TRACE_PARTNERS, MODEL_DEGREES, MODEL_B_DEGREES]
FORCED_IDS = ["trace-partners", "model-a-degrees", "model-b-degrees"]
CATCH = ("from c4lab.errors import InvariantError\n"
         "try:\n"
         "    call()\n"
         "except InvariantError as exc:\n"
         "    print('raised', exc)\n")


@pytest.mark.parametrize("snippet, message", FORCED_RAISES, ids=FORCED_IDS)
def test_pipeline_soundness_checks_raise(snippet, message, capsys, monkeypatch):
    # the snippet patches this process's `pipeline`; monkeypatch restores it
    for name in ("furedi_kernel", "split_prefix", "split_from_prefix",
                 "model_lopsided"):
        monkeypatch.setattr(pipeline, name, getattr(pipeline, name))
    exec(snippet + CATCH, {})
    assert capsys.readouterr().out == f"raised {message}\n"


@pytest.mark.parametrize("snippet, message", FORCED_RAISES, ids=FORCED_IDS)
def test_pipeline_soundness_checks_raise_under_optimize(snippet, message):
    assert run_optimized(snippet + CATCH) == f"raised {message}\n"
