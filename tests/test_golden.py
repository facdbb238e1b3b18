"""Pinned CLI scenarios: stored outputs must reproduce byte for byte."""

from pathlib import Path

from c4lab.cli import main

GOLDEN = Path(__file__).parent / "golden"

SCENARIOS = [
    ("heawood.g6", "heawood_cert.json",
     ["--s", "2", "--k", "3", "--seed", "7", "--retries", "10",
      "--attempts", "4"]),
    ("gnp24.g6", "gnp24_cert.json",
     ["--s", "2", "--k", "2", "--seed", "42", "--retries", "10",
      "--attempts", "4"]),
    # a K_{3,3}-free G(15, 21) with no randomized attempt: the certificate
    # is the exhaustive oracle's optimum, in mode oracle_fallback
    ("gnm15.g6", "gnm15_fallback_cert.json",
     ["--s", "3", "--k", "2", "--seed", "11", "--attempts", "0"]),
]


def test_cli_extract_reproduces_golden_certificates(tmp_path, capsys):
    for graph_file, cert_file, flags in SCENARIOS:
        out = tmp_path / cert_file
        code = main(["extract", "--input", str(GOLDEN / graph_file),
                     *flags, "--out", str(out)])
        capsys.readouterr()
        assert code in (0, 2)
        assert out.read_bytes() == (GOLDEN / cert_file).read_bytes()


def test_cli_golden_certificates_verify(capsys):
    for graph_file, cert_file, _ in SCENARIOS:
        code = main(["verify", "--input", str(GOLDEN / graph_file),
                     "--cert", str(GOLDEN / cert_file)])
        out = capsys.readouterr().out
        assert code == 0 and "verified" in out


# oracle inputs: the G(15, 21) above, and a 6-cycle through vertex 0 with
# two 5-cycles under a seeded relabelling, where every union of whole cycles
# ties at average degree 2, so the witness is set by the tie-break alone
# (smaller set first, then the lexicographically smaller sorted tuple)
ORACLE_SCENARIOS = [
    ("gnm15.g6", "gnm15_oracle.json"),
    ("cycles_6_5_5.g6", "cycles_6_5_5_oracle.json"),
]


def test_cli_oracle_reproduces_golden_output(capsys):
    for graph_file, out_file in ORACLE_SCENARIOS:
        code = main(["oracle", "--input", str(GOLDEN / graph_file), "--task", "c4free"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / out_file).read_text()


def test_cli_gen_reproduces_golden_graph(tmp_path, capsys):
    out = tmp_path / "gnp18.g6"
    code = main(["gen", "--kind", "gnp", "--n", "18", "--p", "0.3",
                 "--seed", "99", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "gnp18.g6").read_bytes()


def test_lb_experiment_reproduces_golden_row():
    from c4lab.lowerbounds import lb_experiment

    rep = lb_experiment(9, 0.4, 2, 4, trials=40, seed=21)
    expected = (GOLDEN / "lb_row.csv").read_text().splitlines()[1]
    assert rep.csv_row() == expected


def test_f_search_reproduces_golden_rows():
    # the exhaustive F(l, k) search for every k, scanned up to n = 5 (l = 2)
    # and n = 4 (l = 3)
    from c4lab.hypergraphs import f_search

    rows = [f_search(ell, k, n_max).to_json() + "\n"
            for ell, n_max in ((2, 5), (3, 4)) for k in range(1, 6)]
    assert "".join(rows) == (GOLDEN / "f_search_rows.jsonl").read_text()


def test_f_search_reproduces_golden_rows_at_the_caps():
    # rows at each l's exhaustive cap (n = 8, 6, 5): they pin the DFS
    # order, and so the first counterexample found, at the largest n
    from c4lab.hypergraphs import f_search

    cases = ([(1, k, 8) for k in range(1, 6)] + [(2, k, 6) for k in (3, 4, 5)]
             + [(3, k, 5) for k in (2, 3, 4, 5)])
    rows = [f_search(ell, k, n_max).to_json() + "\n" for ell, k, n_max in cases]
    assert "".join(rows) == (GOLDEN / "f_search_rows_caps.jsonl").read_text()


def test_cli_golden_on_repeated_runs(tmp_path, capsys):
    for run in range(2):
        out = tmp_path / f"cert_{run}.json"
        code = main(["extract", "--input", str(GOLDEN / "gnp24.g6"),
                     "--s", "2", "--k", "2", "--seed", "42", "--retries", "10",
                     "--attempts", "4", "--out", str(out)])
        capsys.readouterr()
        assert code in (0, 2)
        assert out.read_bytes() == (GOLDEN / "gnp24_cert.json").read_bytes()


# kernel inputs: the neighbourhood family of gen_lopsided(400, 150, 9, 3,
# seed=1) on its B side, at the pipeline's shape r = 9, s = t = 3; and a
# 150-petal sunflower on vertex 0 plus 30 random triples, whose kernel keeps
# a nonempty trace and peels an edge in its terminal step
KERNEL_SCENARIOS = [
    ("lopsided_r9.hg", "lopsided_r9_kernel.json", ["--s", "3", "--t", "3", "--seed", "172"]),
    ("sunflower_r3.hg", "sunflower_r3_kernel.json", ["--s", "1", "--t", "2", "--seed", "2"]),
]


def test_cli_kernel_reproduces_golden_output(capsys):
    for hg_file, out_file, flags in KERNEL_SCENARIOS:
        code = main(["kernel", "--input", str(GOLDEN / hg_file), *flags,
                     "--retries", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / out_file).read_text()


def test_kernel_golden_input_is_the_lopsided_family():
    from c4lab.graphio import write_hypergraph
    from c4lab.graphs import gen_lopsided

    bg = gen_lopsided(400, 150, 9, 3, seed=1)
    g, b_list = bg.underlying, bg.b_list()
    b_index = {b: i for i, b in enumerate(b_list)}
    hoods = {frozenset(b_index[w] for w in g.neighbors(a)) for a in bg.a_list()}
    text = write_hypergraph(len(b_list), sorted(hoods, key=sorted))
    assert text == (GOLDEN / "lopsided_r9.hg").read_text()


# a K_{3,3}-free G(200, 6/199) (gen_gnp seed 2) on which every route fails at
# the default budgets: the failure certificate keeps the best sparsifier
# attempt's average degree and size as diagnostics
FAILURE_SCENARIO = ("gnp200.g6", "gnp200_failure_cert.json",
                    ["--s", "3", "--k", "2", "--seed", "2"])


def test_cli_routes_exhausted_failure_golden(tmp_path, capsys):
    import json

    graph_file, cert_file, flags = FAILURE_SCENARIO
    out = tmp_path / cert_file
    code = main(["extract", "--input", str(GOLDEN / graph_file), *flags,
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 2
    assert out.read_bytes() == (GOLDEN / cert_file).read_bytes()
    stats = json.loads(out.read_text())["stats"]
    assert stats["stage"] == "routes-exhausted"
    assert (stats["best_avg_degree"], stats["best_size"]) == ("38/23", 23)
    code = main(["verify", "--input", str(GOLDEN / graph_file),
                 "--cert", str(GOLDEN / cert_file)])
    assert code == 0 and capsys.readouterr().out == "verified\n"


def test_failure_golden_input_is_the_gnp_draw():
    from c4lab.graphio import write_graph6
    from c4lab.graphs import gen_gnp
    from c4lab.oracles import contains_biclique

    g = gen_gnp(200, 6 / 199, 2)
    assert contains_biclique(g, 3) is None
    assert write_graph6(g) + "\n" == (GOLDEN / "gnp200.g6").read_text()


# a K_{3,3}-free G(100, 6/99) (gen_gnp seed 7) where the seventh attempt's
# sparsifier run reaches k = 2: the only golden that pins the near-regular
# route's success, a witness of 8 vertices at average degree 9/4
CASE1_SCENARIO = ("gnp100.g6", "gnp100_case1_cert.json",
                  ["--s", "3", "--k", "2", "--seed", "2"])


def test_cli_near_regular_success_golden(tmp_path, capsys):
    import json

    graph_file, cert_file, flags = CASE1_SCENARIO
    out = tmp_path / cert_file
    code = main(["extract", "--input", str(GOLDEN / graph_file), *flags,
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN / cert_file).read_bytes()
    obj = json.loads(out.read_text())
    assert obj["mode"] == "case1_near_regular"
    assert obj["stats"]["stage"] == "attempt6:near-regular"
    code = main(["verify", "--input", str(GOLDEN / graph_file),
                 "--cert", str(GOLDEN / cert_file)])
    assert code == 0 and capsys.readouterr().out == "verified\n"


def test_attempts_build_no_graph_of_their_own(tmp_path, capsys, monkeypatch):
    # the peel, the split, the reduction, the sparsifier, the certificate's
    # flags and the subdivision sampler all read g's masks through vertex
    # masks: nothing builds a BipartiteGraph, and `induced` never runs in
    # extract, verify or subdivide
    import json
    import sys

    from c4lab import graphs, pipeline

    calls = {"induced": 0, "BipartiteGraph": 0, "flags": 0}
    induced, init = graphs.induced, graphs.BipartiteGraph.__init__
    flags_and_stats = pipeline._flags_and_stats

    def counted_induced(*args, **kwargs):
        calls["induced"] += 1
        return induced(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["BipartiteGraph"] += 1
        init(self, *args, **kwargs)

    def counted_flags(*args, **kwargs):
        calls["flags"] += 1
        return flags_and_stats(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("c4lab") and getattr(module, "induced", None) is induced:
            monkeypatch.setattr(module, "induced", counted_induced)
    monkeypatch.setattr(graphs.BipartiteGraph, "__init__", counted_init)
    monkeypatch.setattr(pipeline, "_flags_and_stats", counted_flags)

    def run(argv):
        calls.update(induced=0, BipartiteGraph=0, flags=0)
        code = main(argv)
        out = capsys.readouterr().out
        assert calls["induced"] == 0 and calls["BipartiteGraph"] == 0
        return code, out

    for graph_file in ("gnp200.g6", "gnp100.g6"):
        flags, modes = {}, {}
        for attempts in ("1", "8"):
            out = tmp_path / f"{graph_file}-{attempts}.json"
            run(["extract", "--input", str(GOLDEN / graph_file), *CASE1_SCENARIO[2],
                 "--attempts", attempts, "--out", str(out)])
            flags[attempts] = calls["flags"]
            modes[attempts] = json.loads(out.read_text())["mode"]
            code, _ = run(["verify", "--input", str(GOLDEN / graph_file),
                           "--cert", str(out)])
            # a failure record has no witness to recompute
            assert code == 0 and calls["flags"] == (modes[attempts] != "failure")
        assert modes["1"] == "failure"
        found = modes["8"] == "case1_near_regular"
        assert found == (graph_file == "gnp100.g6")
        # the whole vertex set's flags, and a witness's that an attempt finds
        assert flags == {"1": 1, "8": 1 + found}
    certificates = [scenario[:2] for scenario in SCENARIOS]
    certificates += [scenario[:2] for scenario in (FAILURE_SCENARIO, CASE1_SCENARIO,
                                                   BICLIQUE_SCENARIO, LOPSIDED_SCENARIO)]
    certificates.append(("lopsided200.g6", "lopsided200_model_cert.json"))
    for graph_file, cert_file in certificates:
        code, out = run(["verify", "--input", str(GOLDEN / graph_file),
                         "--cert", str(GOLDEN / cert_file)])
        assert code == 0 and out == "verified\n"
    for q, out_file in SUBDIVIDE_SCENARIOS:
        graph = tmp_path / f"plane{q}.g6"
        main(["gen", "--kind", "plane", "--q", q, "--out", str(graph)])
        code, out = run(["subdivide", "--input", str(graph), "--k", "3", "--s", "2",
                         "--seed", "1"])
        assert code == 0 and out == (GOLDEN / out_file).read_text()
        code, out = run(["verify", "--subdivision", "--input", str(graph),
                         "--cert", str(GOLDEN / out_file)])
        assert code == 0 and out == "verified\n"


def test_near_regular_golden_input_is_the_gnp_draw():
    from c4lab.graphio import write_graph6
    from c4lab.graphs import gen_gnp
    from c4lab.oracles import contains_biclique

    g = gen_gnp(100, 6 / 99, 7)
    assert contains_biclique(g, 3) is None
    assert write_graph6(g) + "\n" == (GOLDEN / "gnp100.g6").read_text()


def test_sparsify_reproduces_golden_outcomes():
    # every sparsify_short_cycles call that extract makes at s = 3 on
    # K_{3,3}-free G(n, 6/(n-1)) draws: (n, gen_gnp seed, k, extract seed)
    # in (100, 7, 2, 2), (100, 2, 3, 1), (200, 0, 2, 0), (200, 1, 3, 1),
    # (100, 29, 2, 0), (200, 3, 2, 2) and (100, 4, 3, 3).  Each line holds
    # the call's input, the split's vertex set as graph6, and its outcome:
    # the returned set, or the failure message and the sorted `best`
    import json

    from c4lab.errors import ExtractionFailure
    from c4lab.graphio import read_graph6
    from c4lab.graphs import bits
    from c4lab.reductions import sparsify_short_cycles

    lines = (GOLDEN / "sparsify_outcomes.jsonl").read_text().splitlines()
    kinds = set()
    for line in lines:
        call = json.loads(line)
        got = {key: call[key] for key in ("graph6", "s", "seed", "target", "retries")}
        try:
            g = read_graph6(call["graph6"])
            got["kept"] = sorted(bits(sparsify_short_cycles(
                g.masks, (1 << g.n) - 1, call["s"], call["seed"], call["target"],
                retries=call["retries"])))
        except ExtractionFailure as exc:
            got["error"] = str(exc)
            got["best"] = None if exc.best is None else sorted(bits(exc.best))
        assert json.dumps(got, sort_keys=True, separators=(",", ":")) == line
        kinds.add("kept" in got)
    assert len(lines) == 50 and kinds == {True, False}


# the extraction corpus: one line per `extract_induced_c4free` call, with
# its inputs (graph recipe, s, k, attempts, seed), then the certificate's
# mode, its stage and the sha256 of its JSON.  The recipes are
# ["gnp", n, c, seed] for gen_gnp(n, c/(n-1), seed), ["plane", q] for
# PG(2, q)'s incidence graph and ["lopsided", a, b, r, s, seed] for
# gen_lopsided(a, b, r, s, seed).  `_corpus_line` writes a line from its
# inputs.  Most lines are K_{3,3}-free G(n, 6/(n-1)) draws at
# n in {40, 60, 100}, s = 3 and k = 2, whose near-regular attempts both
# succeed and fail with a best
def _corpus_graph(recipe):
    from c4lab.graphs import gen_gnp, gen_lopsided, projective_plane_incidence

    kind, *args = recipe
    if kind == "gnp":
        n, c, seed = args
        return gen_gnp(n, c / (n - 1), seed)
    if kind == "plane":
        return projective_plane_incidence(*args).underlying
    if kind == "lopsided":
        return gen_lopsided(*args).underlying
    raise ValueError(f"unknown graph recipe {recipe!r}")


def _corpus_line(case: dict):
    """The corpus line of one case, and its certificate."""
    import hashlib
    import json

    from c4lab.pipeline import PipelineParams, extract_induced_c4free

    cert = extract_induced_c4free(_corpus_graph(case["graph"]), case["s"], case["k"],
                                  PipelineParams(attempts=case["attempts"]),
                                  seed=case["seed"])
    line = {key: case[key] for key in ("graph", "s", "k", "attempts", "seed")}
    line.update(mode=cert.mode, stage=cert.stats["stage"],
                sha256=hashlib.sha256(cert.to_json().encode()).hexdigest())
    return json.dumps(line, sort_keys=True, separators=(",", ":")), cert


def test_extract_corpus_reproduces_line_by_line():
    import json

    kinds = set()
    for line in (GOLDEN / "extract_corpus.jsonl").read_text().splitlines():
        got, cert = _corpus_line(json.loads(line))
        assert got == line, f"corpus case {line}"
        stage = cert.stats["stage"]
        kinds.add("attemptN:near-regular" if stage.startswith("attempt") else stage)
        if stage == "routes-exhausted":
            kinds.add(("routes-exhausted", "best_size" in cert.stats))
    # every stage of the driver but the empty input's
    assert kinds >= {"trivial", "scan", "oracle", "attemptN:near-regular",
                     ("routes-exhausted", True), ("routes-exhausted", False)}


# the G(200, 6/199) above with a K_{3,3} planted on the seeded 6-set
# sample_subset(Random(0), range(200), 6), its sides alternating in sorted
# order: extract at s = 3 stops at the hypothesis check, and the pinned
# witness is the degree-ordered scan's first biclique
BICLIQUE_SCENARIO = ("gnp200_k33.g6", "gnp200_k33_cert.json",
                     ["--s", "3", "--k", "2", "--seed", "2"])


def test_cli_s3_biclique_golden(tmp_path, capsys):
    import json

    graph_file, cert_file, flags = BICLIQUE_SCENARIO
    out = tmp_path / cert_file
    code = main(["extract", "--input", str(GOLDEN / graph_file), *flags,
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN / cert_file).read_bytes()
    obj = json.loads(out.read_text())
    assert obj["mode"] == "biclique_found" and obj["stats"]["stage"] == "scan"
    code = main(["verify", "--input", str(GOLDEN / graph_file),
                 "--cert", str(GOLDEN / cert_file)])
    assert code == 0 and capsys.readouterr().out == "verified\n"


def test_biclique_golden_input_is_the_planted_draw():
    import random

    from c4lab.graphio import write_graph6
    from c4lab.graphs import Graph, gen_gnp, sample_subset

    g = gen_gnp(200, 6 / 199, 2)
    picks = sample_subset(random.Random(0), range(200), 6)
    planted = {(min(u, v), max(u, v)) for u in picks[0::2] for v in picks[1::2]}
    h = Graph(200, sorted(set(g.edges()) | planted))
    assert write_graph6(h) + "\n" == (GOLDEN / "gnp200_k33.g6").read_text()


# gen_lopsided(200, 25, 3, 3, seed=1): the split certifies a lopsided cut,
# which ends the attempts, and n = 225 is above the oracle limit, so the
# certificate is the routes-exhausted failure record
LOPSIDED_SCENARIO = ("lopsided200.g6", "lopsided200_failure_cert.json",
                     ["--s", "3", "--k", "3", "--seed", "1"])


def _extract_lopsided_golden(tmp_path, capsys) -> bytes:
    graph_file, cert_file, flags = LOPSIDED_SCENARIO
    out = tmp_path / cert_file
    code = main(["extract", "--input", str(GOLDEN / graph_file), *flags,
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 2
    return out.read_bytes()


def test_cli_lopsided_cut_golden(tmp_path, capsys):
    graph_file, cert_file, _ = LOPSIDED_SCENARIO
    assert _extract_lopsided_golden(tmp_path, capsys) == (GOLDEN / cert_file).read_bytes()
    code = main(["verify", "--input", str(GOLDEN / graph_file),
                 "--cert", str(GOLDEN / cert_file)])
    assert code == 0 and capsys.readouterr().out == "verified\n"


def test_lopsided_cut_runs_neither_regularize_nor_model(tmp_path, capsys, monkeypatch):
    from c4lab import pipeline, reductions

    def never(*args, **kwargs):
        raise AssertionError("extract must not run the lopsided model route")

    def no_attempt(*args, **kwargs):
        raise AssertionError("a lopsided prefix must run no attempt")

    monkeypatch.setattr(reductions, "bipartite_regularize", never)
    monkeypatch.setattr(pipeline, "model_lopsided", never)
    # the prefix certifies the cut once, and no attempt runs after it
    monkeypatch.setattr(pipeline, "split_from_prefix", no_attempt)
    got = _extract_lopsided_golden(tmp_path, capsys)
    assert got == (GOLDEN / LOPSIDED_SCENARIO[1]).read_bytes()


def test_lopsided_golden_input_is_the_generator_draw():
    from c4lab.graphio import write_graph6
    from c4lab.graphs import gen_lopsided

    g = gen_lopsided(200, 25, 3, 3, seed=1).underlying
    assert write_graph6(g) + "\n" == (GOLDEN / "lopsided200.g6").read_text()


# the model case on the same draw, with its generator's bipartition: no two
# neighbourhoods coincide and no kernel yields a trace edge, and k = 3 rules
# out the star, so the record is the model's budget-exhausted failure
def test_model_lopsided_reproduces_golden_certificate():
    from c4lab.graphs import gen_lopsided
    from c4lab.pipeline import model_lopsided, verify_certificate

    bg = gen_lopsided(200, 25, 3, 3, seed=1)
    cert = model_lopsided(bg, 3, 3, seed=1)
    assert cert.to_json() == (GOLDEN / "lopsided200_model_cert.json").read_text()
    assert verify_certificate(bg.underlying, cert)


# the induced K_3 subdivision that `subdivide` finds on PG(2, q) at seed 1:
# the plane is C4-free, so its nested extraction is trivial, the core is
# bipartite, and each witness comes from the bipartite-case sampler
SUBDIVIDE_SCENARIOS = [("5", "plane5_subdivide.json"), ("7", "plane7_subdivide.json")]


def test_cli_subdivide_reproduces_golden_output(tmp_path, capsys):
    for q, out_file in SUBDIVIDE_SCENARIOS:
        graph = tmp_path / f"plane{q}.g6"
        assert main(["gen", "--kind", "plane", "--q", q, "--out", str(graph)]) == 0
        capsys.readouterr()
        code = main(["subdivide", "--input", str(graph), "--k", "3", "--s", "2",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / out_file).read_text()


# the subdivision corpus: one line per call, with its inputs (graph recipe as
# in the extraction corpus, route, k, seed, and s for `induced_subdivision`)
# and the sha256 of the witness JSON, or null when the search fails.  The
# routes are "plain" and "induced" (`find_subdivision` without and with
# require_induced) and "induced_subdivision" at its default budgets.  A line with a "mutation" key
# holds instead the verdict of `verify_subdivision` on that seeded edit of
# its call's witness, with the sha256 of the edited witness's JSON
def _subdivide_call(case: dict):
    from c4lab.subdivisions import find_subdivision, induced_subdivision

    g = _corpus_graph(case["graph"])
    if case["route"] == "induced_subdivision":
        return g, induced_subdivision(g, case["s"], case["k"], seed=case["seed"])
    return g, find_subdivision(g, case["k"], seed=case["seed"],
                               require_induced=case["route"] == "induced")


def _shortest_path(g, u: int, v: int, rng):
    """A u-v path of g through any vertices, or None: BFS with each
    vertex's neighbours in a seeded order."""
    parent = {u: u}
    queue = [u]
    for x in queue:
        nbrs = list(g.neighbors(x))
        rng.shuffle(nbrs)
        for y in nbrs:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if v not in parent:
        return None
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


def _mutated_witness(g, w, rng):
    """One seeded edit of witness w: a flipped flag, a vertex in or out of
    range, a path rerouted through any vertices or through a detour, a
    path dropped, added, reversed, shortened or emptied, a branch vertex
    repeated or replaced, a key reversed, or no edit at all."""
    from c4lab.subdivisions import SubdivisionWitness

    branch = list(w.branch_vertices)
    paths = {key: list(path) for key, path in w.paths.items()}
    flag = w.induced_flag
    key = rng.choice(sorted(paths))
    path = paths[key]
    kind = rng.randrange(12)
    if kind == 0:
        flag = not flag
    elif kind == 1:
        path[rng.randrange(len(path))] = rng.choice([-1, g.n, 10 ** 20, rng.randrange(g.n)])
    elif kind == 2:
        paths[key] = _shortest_path(g, *key, rng) or path
    elif kind == 3:
        # through a random vertex, so the path may repeat one
        x = rng.randrange(g.n)
        first, second = _shortest_path(g, key[0], x, rng), _shortest_path(g, x, key[1], rng)
        if first and second:
            paths[key] = first + second[1:]
    elif kind == 4:
        del paths[key]
    elif kind == 5:
        paths[(key[0], rng.randrange(g.n))] = list(path)
    elif kind == 6:
        path.reverse()
    elif kind == 7:
        del path[rng.randrange(len(path))]
    elif kind == 8:
        paths[key] = []
    elif kind == 9:
        branch.append(branch[0])
    elif kind == 10:
        branch[rng.randrange(len(branch))] = rng.choice([-1, g.n, rng.randrange(g.n)])
    elif kind == 11 and rng.random() < 0.5:
        paths[key[::-1]] = paths.pop(key)[::-1]
    return SubdivisionWitness(tuple(branch), {k: tuple(p) for k, p in paths.items()}, flag)


def _subdivide_line(case: dict, witnesses: dict):
    """The corpus line of one case; `witnesses` caches each call's graph
    and witness by its inputs."""
    import hashlib
    import json
    import random

    from c4lab.subdivisions import verify_subdivision
    from helpers import verify_subdivision_by_sets

    inputs = {key: case[key] for key in ("graph", "route", "k", "s", "seed") if key in case}
    call = json.dumps(inputs, sort_keys=True)
    if call not in witnesses:
        witnesses[call] = _subdivide_call(inputs)
    g, w = witnesses[call]
    line = dict(inputs)
    if "mutation" in case:
        w = _mutated_witness(g, w, random.Random(case["mutation"]))
        verdict = verify_subdivision(g, w)
        assert verdict == verify_subdivision_by_sets(g, w), f"corpus case {case}"
        line.update(mutation=case["mutation"], verified=verdict)
    line["sha256"] = None if w is None else hashlib.sha256(w.to_json().encode()).hexdigest()
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def test_subdivide_corpus_reproduces_line_by_line(monkeypatch):
    import json

    from c4lab import subdivisions

    # each finder and sampler returns a witness somewhere in the corpus
    found = dict.fromkeys(("_exhaustive_pack", "_bipartite_case", "_near_regular_case"), 0)

    def counted(name, real):
        def wrapper(*args):
            out = real(*args)
            found[name] += out is not None
            return out
        return wrapper

    for name in found:
        monkeypatch.setattr(subdivisions, name, counted(name, getattr(subdivisions, name)))
    witnesses: dict = {}
    outcomes = set()
    for line in (GOLDEN / "subdivide_corpus.jsonl").read_text().splitlines():
        case = json.loads(line)
        assert _subdivide_line(case, witnesses) == line, f"corpus case {line}"
        outcomes.add(("mutation", case["verified"]) if "mutation" in case
                     else (case["route"], case["sha256"] is not None))
    # every route both finds and fails, and some edits keep a witness valid
    assert outcomes == {(route, hit) for route in ("plain", "induced", "induced_subdivision",
                                                   "mutation") for hit in (True, False)}
    assert all(found.values()), found


# the pair corpus: one line per seeded covered hypergraph, then one per
# `model_lopsided` call.  A hypergraph line holds its recipe [n, m, ell, seed]
# (`_pair_hypergraph`), `alpha_exact`, the sorted (A, B) of
# `find_induced_pair` at k = 1..4, and for each pair the verdicts of
# `verify_induced_pair` on three seeded edits: a vertex added to B, one
# dropped from B and one moved from B to A (null when B is empty).  A model
# line holds the bipartite graph's recipe, s, k, the seed, retries, whether
# `kernel_can_trace` is forced true, the stage and the sha256 of the
# certificate's JSON.  The recipes are ["lopsided", a, b, r, s, seed] for
# gen_lopsided(a, b, r, s, seed) and ["shared-pair", a]: every A-vertex i
# sees b0, b1 and a private B-vertex, the planted family whose kernel trace
# exposes a K_{2,2}
def _pair_hypergraph(n: int, m: int, ell: int, seed: int):
    """m seeded edges of 1..ell vertices on [n]; each vertex no edge holds
    joins a seeded one, so the hypergraph is covered."""
    import random

    from c4lab.graphs import mix_seed, rand_below, sample_subset
    from c4lab.hypergraphs import Hypergraph

    rng = random.Random(mix_seed(seed, 0))
    edges = [set(sample_subset(rng, range(n), 1 + rand_below(rng, min(ell, n))))
             for _ in range(m)]
    for v in range(n):
        if not any(v in e for e in edges):
            edges[rand_below(rng, m)].add(v)
    return Hypergraph(n, edges)


def _pair_edits(n: int, pair, rng):
    """The three seeded edits of a pair, each None when it needs a B-vertex
    that the pair lacks."""
    from c4lab.graphs import rand_below
    from c4lab.hypergraphs import InducedPair

    a, b = pair.a_set, pair.b_set
    outside = [v for v in range(n) if v not in b]
    inside = sorted(b)
    added = None
    if outside:
        added = InducedPair(a, b | {outside[rand_below(rng, len(outside))]})
    if not inside:
        return [added, None, None]
    dropped = inside[rand_below(rng, len(inside))]
    moved = inside[rand_below(rng, len(inside))]
    return [added, InducedPair(a, b - {dropped}), InducedPair(a | {moved}, b - {moved})]


def _pair_line(case: dict) -> str:
    import json
    import random

    from c4lab.graphs import mix_seed
    from c4lab.hypergraphs import alpha_exact, find_induced_pair, verify_induced_pair
    from helpers import (alpha_by_conflict_graphs, find_induced_pair_by_sets,
                         verify_induced_pair_by_sets)

    recipe = case["hypergraph"]
    h = _pair_hypergraph(*recipe)
    alpha = alpha_exact(h)
    assert alpha == alpha_by_conflict_graphs(h), f"pair corpus {recipe}"
    pairs, edits = [], []
    for k in range(1, 5):
        pair = find_induced_pair(h, k)
        assert pair == find_induced_pair_by_sets(h, k), f"pair corpus {recipe} k={k}"
        pairs.append([sorted(pair.a_set), sorted(pair.b_set)])
        verdicts = []
        for edit in _pair_edits(h.vertex_count, pair, random.Random(mix_seed(recipe[3], k))):
            verdict = None if edit is None else verify_induced_pair(h, edit)
            assert edit is None or verdict == verify_induced_pair_by_sets(h, edit), \
                f"pair corpus {recipe} k={k}"
            verdicts.append(verdict)
        edits.append(verdicts)
    line = {"hypergraph": recipe, "alpha": alpha, "pairs": pairs, "edits": edits}
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def _model_graph(recipe):
    from c4lab.graphs import BipartiteGraph, Graph, gen_lopsided

    kind, *args = recipe
    if kind == "lopsided":
        return gen_lopsided(*args)
    if kind == "shared-pair":
        (a,) = args
        edges = [(i, w) for i in range(a) for w in (a, a + 1, a + 2 + i)]
        return BipartiteGraph(Graph(2 * a + 2, edges), range(a), range(a, 2 * a + 2))
    raise ValueError(f"unknown model recipe {recipe!r}")


def _model_line(case: dict, monkeypatch) -> str:
    import hashlib
    import json

    from c4lab import pipeline

    with monkeypatch.context() as patch:
        if case["forced"]:
            patch.setattr(pipeline, "kernel_can_trace", lambda *args: True)
        cert = pipeline.model_lopsided(
            _model_graph(case["model"]), case["s"], case["k"], seed=case["seed"],
            params=pipeline.PipelineParams(retries=case["retries"]))
    line = {key: case[key] for key in ("model", "s", "k", "seed", "retries", "forced")}
    line.update(stage=cert.stats["stage"],
                sha256=hashlib.sha256(cert.to_json().encode()).hexdigest())
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def test_pair_corpus_reproduces_line_by_line(monkeypatch):
    import json

    stages, verdicts, lifted = set(), set(), False
    lines = (GOLDEN / "pair_corpus.jsonl").read_text().splitlines()
    for number, line in enumerate(lines, 1):
        case = json.loads(line)
        if "hypergraph" in case:
            got = _pair_line(case)
            verdicts.update(v for edit in case["edits"] for v in edit)
            lifted |= any(a for a, _ in case["pairs"])
        else:
            got = _model_line(case, monkeypatch)
            stages.add(case["stage"])
        assert got == line, f"pair corpus line {number}: {line}"
    # some pair comes from a link, edits both keep and break pairs, and
    # the model lines reach every stage of the model case
    assert lifted and verdicts == {True, False, None}
    assert stages == {f"model:{stage}" for stage in (
        "pair", "trace-biclique", "duplicates", "star", "budget-exhausted")}


# the lower-bound corpus: one line per `lb_experiment` call, then one per
# `gen_gnp` draw.  An experiment line holds its arguments [n, p, s, k,
# trials, seed] and the report's `as_dict()`; the sweep is every s in
# {2, 3, 4}, k in 2..6, p in {0, 0.3, 0.5, 1} and n in {0, 1, 3, 8, 10, 12}
# at 8 trials, plus one line whose X statistic is sampled.  A draw line
# holds [n, p, seed], the edge count and the sha256 of the neighbour masks
LB_SWEEP = [(n, p, s, k) for s in (2, 3, 4) for k in range(2, 7)
            for p in (0.0, 0.3, 0.5, 1.0) for n in (0, 1, 3, 8, 10, 12)]


def _lowerbound_line(case: dict) -> str:
    import hashlib
    import json

    from c4lab.graphs import gen_gnp
    from c4lab.lowerbounds import lb_experiment

    if "lb" in case:
        line = {"lb": case["lb"], "report": lb_experiment(*case["lb"]).as_dict()}
    else:
        g = gen_gnp(*case["gnp"])
        text = ",".join(map(str, g.masks))
        line = {"gnp": case["gnp"], "edges": g.edge_count,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def test_lowerbound_corpus_reproduces_line_by_line():
    import json

    swept, sampled, largest = set(), False, 0
    lines = (GOLDEN / "lowerbound_corpus.jsonl").read_text().splitlines()
    for number, line in enumerate(lines, 1):
        case = json.loads(line)
        assert _lowerbound_line(case) == line, f"lowerbound corpus line {number}: {line}"
        if "lb" in case:
            swept.add(tuple(case["lb"][:4]))
            sampled |= not case["report"]["x_exact"]
        else:
            largest = max(largest, case["gnp"][0])
    assert swept >= set(LB_SWEEP) and sampled and largest == 400
