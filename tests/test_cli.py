import copy
import json
import math
import random
from pathlib import Path

import pytest

from c4lab.cli import main
from c4lab.errors import C4LabError
from c4lab.graphio import read_graph6, write_graph6, write_hypergraph
from c4lab.graphs import Graph
from c4lab.named import complete_bipartite, heawood_graph
from c4lab.pipeline import ExtractionCertificate

from helpers import verify_certificate_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_plane_pipe_extract(tmp_path, capsys):
    g6 = tmp_path / "plane.g6"
    code, _, err = run_cli(capsys, "gen", "--kind", "plane", "--q", "2",
                           "--seed", "7", "--out", str(g6))
    assert code == 0 and "seed: 7" in err
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                           "--k", "3", "--seed", "7", "--out", str(cert_path))
    assert code == 0 and "seed: 7" in err
    obj = json.loads(cert_path.read_text())
    assert obj["mode"] == "trivial_already_c4free"
    # verification round-trip through the CLI
    code, out, _ = run_cli(capsys, "verify", "--input", str(g6),
                           "--cert", str(cert_path))
    assert code == 0 and "verified" in out


def test_verify_tampered_cert_exits_2(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                         "--k", "3", "--seed", "1", "--out", str(cert_path))
    assert code == 0
    obj = json.loads(cert_path.read_text())
    obj["witness"] = obj["witness"][:-1]
    cert_path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "verify", "--input", str(g6),
                           "--cert", str(cert_path))
    assert code == 2 and "REJECTED" in out


def test_ftable_prints_value(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "ftable", "--ell", "2", "--k", "2",
                           "--nmax", "4")
    assert code == 0
    assert out.strip().splitlines()[0] == "F(2,2) = 3"
    row = tmp_path / "f22.json"
    code, _, _ = run_cli(capsys, "ftable", "--ell", "2", "--k", "2",
                         "--nmax", "4", "--out", str(row))
    assert code == 0
    obj = json.loads(row.read_text())
    assert obj["lower"] == obj["upper"] == 3


def test_oracle_task(tmp_path, capsys):
    g6 = tmp_path / "k33.g6"
    g6.write_text(write_graph6(complete_bipartite(3, 3).underlying) + "\n")
    code, out, _ = run_cli(capsys, "oracle", "--input", str(g6), "--task", "mis")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 3
    code, out, _ = run_cli(capsys, "oracle", "--input", str(g6),
                           "--task", "c4free")
    assert code == 0
    obj = json.loads(out)
    from fractions import Fraction

    assert Fraction(obj["value"]) < 2  # no dense C4-free induced part of K33


def test_kernel_command(tmp_path, capsys):
    text = write_hypergraph(41, [[0, i] for i in range(1, 41)])
    hpath = tmp_path / "star.hg"
    hpath.write_text(text)
    code, out, _ = run_cli(capsys, "kernel", "--input", str(hpath), "--s", "1",
                           "--t", "2", "--seed", "5")
    assert code == 0
    obj = json.loads(out.splitlines()[-1])
    assert obj["ok"] and len(obj["surviving_edges"]) >= 2


def test_kernel_with_no_retry_exits_2(capsys):
    hg = Path(__file__).parent / "golden" / "sunflower_r3.hg"
    code, out, _ = run_cli(capsys, "kernel", "--input", str(hg), "--s", "1",
                           "--t", "2", "--seed", "2", "--retries", "0")
    assert code == 2
    assert json.loads(out) == {
        "ok": False,
        "error": "no verified kernel within 0 colorings (best rainbow family: 0 edges)"}


def test_kernel_refuses_a_repeated_vertex(tmp_path, capsys):
    # read as a set, the edge would be the 2-edge {0, 1} and the kernel would
    # run on a family of the wrong rank
    hpath = tmp_path / "repeat.hg"
    hpath.write_text("4 1\n0 0 1\n")
    code, out, err = run_cli(capsys, "kernel", "--input", str(hpath), "--s", "1",
                             "--t", "1", "--seed", "1")
    _assert_one_line_error(code, out, err)
    assert "line 2 repeats vertex 0" in err


def test_ftable_prints_an_unsettled_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "ftable", "--ell", "2", "--k", "5", "--nmax", "3")
    assert code == 0
    assert out == "F(2,5) >= 4 (not settled up to n=3)\n"


def test_lowerbound_experiment_json(capsys):
    code, out, err = run_cli(capsys, "lowerbound", "--n", "8", "--p", "0.5",
                             "--s", "2", "--k", "4", "--trials", "5", "--seed", "3")
    assert code == 0 and "seed: 3" in err
    obj = json.loads(out)
    assert (obj["n"], obj["trials"], obj["seed"]) == (8, 5, 3)
    assert obj["conditions"]["q_biclique"] == 16.0


def test_gen_lopsided_writes_its_sidecar(tmp_path, capsys):
    g6, side = tmp_path / "lop.g6", tmp_path / "lop.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", "lopsided", "--a", "20", "--b", "60",
                         "--r", "4", "--s", "2", "--seed", "3", "--out", str(g6),
                         "--sidecar", str(side))
    assert code == 0
    assert json.loads(side.read_text()) == {"side_a": list(range(20)),
                                            "side_b": list(range(20, 80))}
    g = read_graph6(g6.read_text())
    assert all(g.degree(a) == 4 for a in range(20))


def test_gen_lopsided_refuses_a_negative_degree(tmp_path, capsys):
    out = tmp_path / "lop.g6"
    code, _, err = run_cli(capsys, "gen", "--kind", "lopsided", "--a", "2", "--b", "6",
                           "--r", "-2", "--s", "3", "--seed", "1", "--out", str(out))
    assert code == 1
    assert err.splitlines()[-1] == "error: r=-2 must be nonnegative"
    assert not out.exists()


def test_gen_gnp_refuses_a_negative_vertex_count(tmp_path, capsys):
    out = tmp_path / "gnp.g6"
    code, _, err = run_cli(capsys, "gen", "--kind", "gnp", "--n", "-5", "--p", "0.5",
                           "--seed", "1", "--out", str(out))
    assert code == 1
    assert err.splitlines()[-1] == "error: n=-5 must be nonnegative"
    assert not out.exists()


def test_extract_refuses_a_negative_declared_vertex_count(tmp_path, capsys):
    # an edge list declaring "# n -4" is malformed, not an empty input
    graph, cert = tmp_path / "g.txt", tmp_path / "cert.json"
    graph.write_text("# n -4\n")
    code, _, err = run_cli(capsys, "extract", "--input", str(graph), "--s", "2",
                           "--k", "2", "--seed", "1", "--out", str(cert))
    assert code == 1
    assert err.splitlines()[-1] == "error: vertex_count=-4 must be nonnegative"
    assert not cert.exists()


def test_gen_lopsided_refuses_s_below_2(tmp_path, capsys):
    out = tmp_path / "lop.g6"
    code, _, err = run_cli(capsys, "gen", "--kind", "lopsided", "--a", "2", "--b", "6",
                           "--r", "0", "--s", "1", "--seed", "1", "--out", str(out))
    assert code == 1
    assert err.splitlines()[-1] == "error: s must be >= 2"
    assert not out.exists()


@pytest.mark.parametrize("argv, unread", [
    (["--kind", "plane", "--q", "2", "--n", "5"], "plane takes no --n"),
    (["--kind", "gnp", "--n", "5", "--p", "0.5", "--s", "4", "--q", "9"],
     "gnp takes no --q, --s"),
    (["--kind", "gnp", "--n", "5", "--p", "0.5", "--sidecar", "side.json"],
     "gnp takes no --sidecar"),
    # a flag counts as given when it is not None, so 0 is given
    (["--kind", "plane", "--q", "2", "--n", "0"], "plane takes no --n"),
])
def test_gen_refuses_a_flag_its_kind_does_not_read(tmp_path, capsys, monkeypatch,
                                                  argv, unread):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", *argv, "--seed", "1", "--out", "g.g6")
    assert code == 1 and out == ""
    assert err.splitlines() == ["seed: 1", f"error: {unread}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, needs", [
    (["--kind", "gnp", "--n", "5"], "gnp needs --n, --p"),
    (["--kind", "plane"], "plane needs --q"),
    (["--kind", "lopsided", "--a", "2", "--r", "2"], "lopsided needs --a, --b, --r"),
])
def test_gen_names_every_flag_its_kind_needs(capsys, argv, needs):
    code, out, err = run_cli(capsys, "gen", *argv, "--seed", "1")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {needs}"


def test_gen_lopsided_takes_s_2_when_unset(tmp_path, capsys):
    paths = [tmp_path / "default.g6", tmp_path / "two.g6"]
    for path, extra in zip(paths, ([], ["--s", "2"])):
        code, _, _ = run_cli(capsys, "gen", "--kind", "lopsided", "--a", "20", "--b", "60",
                             "--r", "4", *extra, "--seed", "3", "--out", str(path))
        assert code == 0
    assert paths[0].read_text() == paths[1].read_text()


def test_gen_formats_read_back_to_one_digest(tmp_path, capsys):
    digests = set()
    for fmt in ("graph6", "sparse6", "edgelist"):
        path, cert = tmp_path / f"g.{fmt}", tmp_path / f"{fmt}.json"
        code, _, _ = run_cli(capsys, "gen", "--kind", "gnp", "--n", "30", "--p", "0.2",
                             "--seed", "4", "--gen-format", fmt, "--out", str(path))
        assert code == 0
        code, _, _ = run_cli(capsys, "extract", "--input", str(path), "--s", "2",
                             "--k", "2", "--seed", "1", "--out", str(cert))
        assert code in (0, 2)
        digests.add(json.loads(cert.read_text())["digest"])
    assert len(digests) == 1


def test_lowerbound_check_only(capsys):
    code, out, _ = run_cli(capsys, "lowerbound", "--n", "10", "--p", "0.5",
                           "--s", "2", "--k", "4", "--check-only")
    assert code == 0
    obj = json.loads(out)
    assert obj["satisfied"] is False and obj["q_biclique"] == 25.0


def test_lowerbound_check_only_states_the_claim_when_satisfied(capsys):
    # n^2 p^5 = 0.306, n (1 - p^4)^{(k^2 - 3k - 2)/4} = 0.475 and
    # exp(-C(n, 2) p / 4) are all at most 1/2
    code, out, _ = run_cli(capsys, "lowerbound", "--n", "50", "--p", "0.165",
                           "--s", "5", "--k", "160", "--check-only")
    assert code == 0
    obj = json.loads(out)
    assert obj["satisfied"] is True and obj["min_avg_degree"] == 49 * 0.165 / 2
    assert obj["claim"] == ("an 50-vertex K_{5,5}-free graph with average degree >= 4.043 "
                            "exists in which every C4-free induced subgraph has average "
                            "degree < 160")


@pytest.mark.parametrize("k", ["2", "3"])
@pytest.mark.parametrize("tail", [["--check-only"], ["--trials", "3", "--seed", "1"]],
                         ids=["check-only", "trials"])
def test_lowerbound_at_p_one_reports_a_divergent_term(capsys, k, tail):
    # (1 - p^4)^((k^2 - 3k - 2)/4) is 0 to a negative power at p = 1
    code, out, _ = run_cli(capsys, "lowerbound", "--n", "5", "--p", "1",
                           "--s", "2", "--k", k, *tail)
    assert code == 0
    obj = json.loads(out)
    conditions = obj if tail == ["--check-only"] else obj["conditions"]
    assert conditions["q_c4free_sets"] == math.inf
    assert conditions["satisfied"] is False


def test_lowerbound_experiment_csv(capsys):
    code, out, _ = run_cli(capsys, "lowerbound", "--n", "8", "--p", "0.0",
                           "--s", "2", "--k", "4", "--trials", "5",
                           "--seed", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,p,s,k,trials")
    assert lines[1].startswith("8,0.0,2,4,5,3")


@pytest.mark.parametrize("p", ["2", "-0.5", "nan"])
@pytest.mark.parametrize("tail", [["--check-only"], ["--trials", "3", "--seed", "1"]],
                         ids=["check-only", "trials"])
def test_lowerbound_rejects_p_outside_unit_interval(capsys, p, tail):
    # p = 2 would make a condition complex and p = -0.5 a negative degree;
    # both paths refuse such a p, and nan, before any trial
    code, out, err = run_cli(capsys, "lowerbound", "--n", "10", "--p", p,
                             "--s", "2", "--k", "5", *tail)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: p must lie in [0,1]"
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", [["--csv"], ["--trials", "0"], ["--seed", "0"]],
                         ids=["csv", "trials", "seed"])
def test_lowerbound_check_only_refuses_trial_flags(capsys, flag):
    # --check-only runs no trials, so each of these would go unread
    code, out, err = run_cli(capsys, "lowerbound", "--n", "10", "--p", "0.5",
                             "--s", "2", "--k", "4", "--check-only", *flag)
    _assert_one_line_error(code, out, err)
    assert err == f"error: --check-only takes no {flag[0]}\n"


def test_subdivide_plain_and_missing(tmp_path, capsys):
    k4 = tmp_path / "k4.g6"
    k4.write_text(write_graph6(Graph(4, [(i, j) for i in range(4)
                                         for j in range(i + 1, 4)])) + "\n")
    code, out, _ = run_cli(capsys, "subdivide", "--input", str(k4), "--k", "4",
                           "--seed", "1", "--plain")
    assert code == 0
    obj = json.loads(out.splitlines()[-1])
    assert obj["branch"] == [0, 1, 2, 3]
    empty = tmp_path / "empty.g6"
    empty.write_text(write_graph6(Graph(5)) + "\n")
    code, out, _ = run_cli(capsys, "subdivide", "--input", str(empty),
                           "--k", "3", "--seed", "1")
    assert code == 2


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "--kind", "gnp")
    assert code == 1 and "error" in err
    code, _, _ = run_cli(capsys, "extract", "--input", str(tmp_path / "nope.g6"),
                         "--s", "2", "--k", "2", "--seed", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


def test_env_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DEGB_RETRIES", "3")
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                         "--k", "3", "--seed", "1", "--out", str(cert_path))
    assert code == 0
    obj = json.loads(cert_path.read_text())
    assert obj["params"]["retries"] == 3
    # explicit flag beats the environment
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                         "--k", "3", "--seed", "1", "--retries", "9",
                         "--out", str(cert_path))
    assert code == 0
    obj = json.loads(cert_path.read_text())
    assert obj["params"]["retries"] == 9


def _assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_env_integer_exits_1(tmp_path, capsys, monkeypatch):
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    monkeypatch.setenv("DEGB_RETRIES", "abc")
    _assert_one_line_error(*run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                                    "--k", "3", "--seed", "1"))


@pytest.mark.parametrize("flag, value", [
    ("--retries", "-1"), ("--attempts", "-1"), ("--oracle-limit", "-1")])
def test_out_of_range_budget_flags_exit_1(tmp_path, capsys, flag, value):
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert_path = tmp_path / "cert.json"
    for command in ("extract", "subdivide"):
        argv = [command, "--input", str(g6), "--s", "2", "--k", "3", "--seed", "1",
                flag, value]
        if command == "extract":
            argv += ["--out", str(cert_path)]
        code, out, err = run_cli(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert flag in err
    assert not cert_path.exists()


@pytest.mark.parametrize("tail, env", [(["--limit", "-1"], None), ([], "-1")],
                         ids=["flag", "variable"])
def test_oracle_limit_has_the_budgets_least_value(capsys, monkeypatch, tail, env):
    # DEGB_ORACLE_LIMIT also feeds --oracle-limit, which must be at least 0
    if env is not None:
        monkeypatch.setenv("DEGB_ORACLE_LIMIT", env)
    code, out, err = run_cli(capsys, "oracle", "--input", str(GOLDEN / "heawood.g6"), *tail)
    _assert_one_line_error(code, out, err)
    assert err == "error: --limit (DEGB_ORACLE_LIMIT) must be at least 0, got -1\n"


def test_threads_flag_is_gone(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                             "--k", "3", "--seed", "1", "--threads", "1",
                             "--out", str(cert_path))
    assert code == 1 and out == "" and "--threads" in err
    assert not cert_path.exists()


def test_zero_budgets_still_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DEGB_ATTEMPTS", "0")
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2", "--k", "3",
                         "--seed", "1", "--retries", "0", "--oracle-limit", "0",
                         "--out", str(cert_path))
    assert code == 0
    params = json.loads(cert_path.read_text())["params"]
    assert (params["attempts"], params["retries"], params["oracle_limit"]) == (0, 0, 0)


def test_env_default_read_on_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; the DEGB_* defaults are not
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    retries = []
    for value in ("3", "5"):
        monkeypatch.setenv("DEGB_RETRIES", value)
        cert_path = tmp_path / f"cert{value}.json"
        code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                             "--k", "3", "--seed", "1", "--out", str(cert_path))
        assert code == 0
        retries.append(json.loads(cert_path.read_text())["params"]["retries"])
    assert retries == [3, 5]
    monkeypatch.delenv("DEGB_RETRIES")
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                         "--k", "3", "--seed", "1", "--out", str(cert_path))
    assert code == 0 and json.loads(cert_path.read_text())["params"]["retries"] == 100


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "gnp", "--n", "5", "--p", "0.5", "--seed", "1"],
    ["oracle", "--task", "mis"],
    ["kernel", "--s", "1", "--t", "2"],
    ["ftable", "--ell", "2", "--k", "2", "--nmax", "4"],
    ["lowerbound", "--n", "8", "--p", "0.5", "--s", "2", "--k", "4", "--check-only"],
    ["subdivide", "--k", "3"],
    ["verify", "--cert", "-"],
    ["extract", "--s", "2", "--k", "3"],
])
def test_bad_env_integer_fails_every_subcommand(capsys, monkeypatch, argv):
    for name in ("RETRIES", "ATTEMPTS", "ORACLE_LIMIT"):
        monkeypatch.setenv(f"DEGB_{name}", "x")
        _assert_one_line_error(*run_cli(capsys, *argv))
        monkeypatch.delenv(f"DEGB_{name}")
    # the same parser serves the next call with a good environment
    code, _, _ = run_cli(capsys, "ftable", "--ell", "2", "--k", "2", "--nmax", "4")
    assert code == 0


def test_env_default_fills_oracle_and_kernel_budgets(tmp_path, capsys, monkeypatch):
    g6 = tmp_path / "k33.g6"
    g6.write_text(write_graph6(complete_bipartite(3, 3).underlying) + "\n")
    monkeypatch.setenv("DEGB_ORACLE_LIMIT", "5")
    code, _, err = run_cli(capsys, "oracle", "--input", str(g6), "--task", "mis")
    assert code == 1 and "limit" in err
    monkeypatch.setenv("DEGB_ORACLE_LIMIT", "6")
    code, out, _ = run_cli(capsys, "oracle", "--input", str(g6), "--task", "mis")
    assert code == 0 and json.loads(out)["value"] == 3


def _heawood_cert(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "2",
                         "--k", "3", "--seed", "1", "--out", str(cert_path))
    assert code == 0
    return g6, cert_path, json.loads(cert_path.read_text())


def _verify_malformed(capsys, g6, cert_path, obj) -> str:
    cert_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", "--input", str(g6),
                             "--cert", str(cert_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


def test_verify_certificate_without_mode_exits_1(tmp_path, capsys):
    g6, cert_path, _ = _heawood_cert(tmp_path, capsys)
    err = _verify_malformed(capsys, g6, cert_path, {"digest": "x"})
    assert err == "error: certificate lacks the key 'mode'\n"


def test_verify_string_witness_exits_1(tmp_path, capsys):
    g6, cert_path, obj = _heawood_cert(tmp_path, capsys)
    err = _verify_malformed(capsys, g6, cert_path, dict(obj, witness="0,1,2"))
    assert err == "error: witness must be a list of vertex ids\n"


def test_verify_null_params_exits_1(tmp_path, capsys):
    g6, cert_path, obj = _heawood_cert(tmp_path, capsys)
    err = _verify_malformed(capsys, g6, cert_path, dict(obj, params=None))
    assert err == "error: certificate key 'params' must be an object\n"


def test_verify_malformed_fields_exit_1(tmp_path, capsys):
    g6, cert_path, obj = _heawood_cert(tmp_path, capsys)
    cases = [
        ([1, 2], "certificate must be a JSON object"),
        (dict(obj, seed=True), "certificate key 'seed' must be an integer"),
        (dict(obj, params=dict(obj["params"], k="3")), "params 'k' must be an integer"),
        (dict(obj, params=dict(obj["params"], delta=None)), "params 'delta' must be a number"),
        (dict(obj, version=1), "certificate key 'version' must be a string"),
        (dict(obj, witness=[0, "1"]), "witness must be a list of vertex ids"),
        (dict(obj, witness={"s_side": [0, 1]}), "t_side must be a list of vertex ids"),
    ]
    for bad, message in cases:
        assert _verify_malformed(capsys, g6, cert_path, bad) == f"error: {message}\n"


def test_verify_out_of_range_delta_exits_1(tmp_path, capsys):
    # a float pow on these would overflow, so they must not reach it
    g6, cert_path, obj = _heawood_cert(tmp_path, capsys)
    for delta in (10 ** 400, -1e308):
        bad = dict(obj, params=dict(obj["params"], delta=delta))
        err = _verify_malformed(capsys, g6, cert_path, bad)
        assert err == "error: params 'delta' must be a finite number in [0, 1]\n"



def test_verify_requires_the_params_it_reads(tmp_path, capsys):
    # an oracle_fallback witness of average degree 28/11 against k = 4: with
    # params.k gone, a k = 1 fallback would recompute avg_degree_ok as true
    g6 = Path(__file__).parent / "golden" / "gnm15.g6"
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "extract", "--input", str(g6), "--s", "3", "--k", "4",
                         "--attempts", "0", "--seed", "1", "--out", str(cert_path))
    obj = json.loads(cert_path.read_text())
    assert code == 0 and obj["mode"] == "oracle_fallback"
    assert obj["stats"]["avg_degree"] == "28/11"
    assert obj["verified"]["avg_degree_ok"] is False
    forged = dict(obj, verified=dict(obj["verified"], avg_degree_ok=True))
    for key in ("k", "s", "delta"):
        params = {name: v for name, v in obj["params"].items() if name != key}
        err = _verify_malformed(capsys, g6, cert_path, dict(forged, params=params))
        assert err == f"error: certificate params lack the key {key!r}\n"
    for key in ("s", "k"):
        for value in (0, -3):
            bad = dict(obj, params=dict(obj["params"], **{key: value}))
            err = _verify_malformed(capsys, g6, cert_path, bad)
            assert err == f"error: params {key!r} must be at least 1\n"


# certificates whose flags and stats recompute honestly but whose mode
# promises more: each breaks one per-mode rule of verify_certificate
K33 = complete_bipartite(3, 3).underlying
FORGED = [
    # a trivial witness is the whole vertex set
    ("trivial-not-whole", heawood_graph(), "trivial_already_c4free", range(13), 2),
    # trivial, case1 and case2 claim induced_c4free and avg_degree_ok
    ("trivial-with-c4", K33, "trivial_already_c4free", range(6), 3),
    ("trivial-low-degree", heawood_graph(), "trivial_already_c4free", range(14), 4),
    ("case1-with-c4", K33, "case1_near_regular", (0, 1, 3, 4), 2),
    ("case1-low-degree", heawood_graph(), "case1_near_regular", range(14), 4),
    ("case2-with-c4", K33, "case2_lopsided", (0, 1, 3, 4), 2),
    ("case2-low-degree", heawood_graph(), "case2_lopsided", range(14), 4),
    # an oracle_fallback claims induced_c4free
    ("oracle-with-c4", K33, "oracle_fallback", (0, 1, 3, 4), 1),
]


@pytest.mark.parametrize("graph, mode, witness, k", [f[1:] for f in FORGED],
                         ids=[f[0] for f in FORGED])
def test_verify_rejects_a_mode_that_overclaims(tmp_path, capsys, graph, mode, witness, k):
    from c4lab.pipeline import ExtractionCertificate, _flags_and_stats, graph_digest

    flags, stats = _flags_and_stats(graph, witness, k, 0.01)
    cert = ExtractionCertificate(
        input_digest=graph_digest(graph), mode=mode, witness=tuple(witness),
        biclique=None, params={"s": 2, "k": k, "delta": 0.01}, seed=0,
        verified=flags, stats=stats)
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(graph) + "\n")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert.to_json())
    code, out, _ = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(cert_path))
    assert (code, out) == (2, "REJECTED\n")


def _verify_subdivision_malformed(capsys, tmp_path, obj) -> str:
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(wit),
                             "--subdivision")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


def test_verify_malformed_subdivision_exits_1(tmp_path, capsys):
    good = {"branch": [0, 1], "paths": {"0-1": [0, 1]}, "induced": False}
    cases = [
        ({"branch": [0]}, "subdivision witness lacks the key 'paths'"),
        (dict(good, paths=[]), "paths must be an object of 'u-v' keys"),
        ([0, 1], "subdivision witness must be a JSON object"),
        (dict(good, branch="0,1"), "branch must be a list of vertex ids"),
        (dict(good, paths={"0_1": [0, 1]}), "path key '0_1' must be 'u-v'"),
        (dict(good, paths={"0-1": [0, "1"]}), "path '0-1' must be a list of vertex ids"),
        (dict(good, induced=1), "induced must be true or false"),
    ]
    for bad, message in cases:
        err = _verify_subdivision_malformed(capsys, tmp_path, bad)
        assert err == f"error: {message}\n"


def test_verify_subdivision_with_path_ids_out_of_range_exits_2(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    wit = tmp_path / "wit.json"
    for internal in (-1, 14):
        wit.write_text(json.dumps({"branch": [0, 1], "paths": {"0-1": [0, internal, 1]},
                                   "induced": False}))
        code, out, err = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(wit),
                                 "--subdivision")
        assert (code, out, err) == (2, "REJECTED\n", "")


@pytest.mark.parametrize("text, problem", [("not json\n", "is not JSON"),
                                           ("[" * 100000, "nests too deeply")],
                         ids=["not-json", "deep"])
@pytest.mark.parametrize("flags, name", [([], "certificate"),
                                         (["--subdivision"], "subdivision witness")],
                         ids=["certificate", "subdivision"])
def test_verify_text_the_json_decoder_refuses_exits_1(tmp_path, capsys, flags, name,
                                                      text, problem):
    # the JSON decoder recurses per nesting level; past the interpreter's
    # limit that must still be a malformed file, not a RecursionError
    g6 = tmp_path / "g.g6"
    g6.write_text(write_graph6(heawood_graph()) + "\n")
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(cert),
                             *flags)
    assert (code, out, err) == (1, "", f"error: {name} {problem}\n")


GOLDEN = Path(__file__).parent / "golden"
# each golden extraction certificate with the graph it was written for
GOLDEN_CERTS = [("gnm15.g6", "gnm15_fallback_cert.json"),
                ("gnp200.g6", "gnp200_failure_cert.json"),
                ("gnp200_k33.g6", "gnp200_k33_cert.json"),
                ("gnp24.g6", "gnp24_cert.json"),
                ("heawood.g6", "heawood_cert.json"),
                ("lopsided200.g6", "lopsided200_failure_cert.json")]
def _golden_cert(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def test_verify_unknown_version_exits_1(tmp_path, capsys):
    # a certificate of another format must not be judged by this one's rules
    g6, cert_path = GOLDEN / "heawood.g6", tmp_path / "cert.json"
    obj = _golden_cert("heawood_cert.json")
    cert_path.write_text(json.dumps(obj))
    assert run_cli(capsys, "verify", "--input", str(g6), "--cert", str(cert_path))[0] == 0
    for version in ("999", "2", "", "1.0"):
        err = _verify_malformed(capsys, g6, cert_path, dict(obj, version=version))
        assert err == f"error: certificate version {version!r} is not supported (only '1')\n"


@pytest.mark.parametrize("cert_file, section, values, message", [
    # every flag written as an int, and one as an int
    ("heawood_cert.json", "verified",
     {"avg_degree_ok": 1, "bipartite": 1, "induced_c4free": 1, "max_degree_bound_ok": 1},
     "verified 'avg_degree_ok' must be a boolean"),
    ("gnp200_failure_cert.json", "verified", {"bipartite": 0},
     "verified 'bipartite' must be a boolean"),
    # whole numbers written as floats or flags, strings written as numbers
    ("heawood_cert.json", "stats", {"size": 14.0}, "stats 'size' must be an integer"),
    ("heawood_cert.json", "stats", {"max_degree": True}, "stats 'max_degree' must be an integer"),
    ("heawood_cert.json", "stats", {"avg_degree": 3}, "stats 'avg_degree' must be a string"),
    ("heawood_cert.json", "stats", {"stage": None}, "stats 'stage' must be a string"),
    ("gnp200_failure_cert.json", "stats", {"best_size": 23.0},
     "stats 'best_size' must be an integer"),
], ids=["int-flags", "int-false", "float-size", "bool-max-degree", "int-avg-degree",
        "null-stage", "float-best-size"])
def test_verify_inexact_value_types_exit_1(tmp_path, capsys, cert_file, section, values,
                                           message):
    # each value has the wrong JSON type; the ints, floats and bools equal the
    # values they replace under ==, so only an exact type check sees them
    obj = _golden_cert(cert_file)
    graph = GOLDEN / {c: g for g, c in GOLDEN_CERTS}[cert_file]
    bad = dict(obj, **{section: dict(obj[section], **values)})
    err = _verify_malformed(capsys, graph, tmp_path / "cert.json", bad)
    assert err == f"error: {message}\n"


def _with_a_repeated_id(obj: dict) -> dict:
    """The certificate with its first vertex id written twice: a biclique's
    S side becomes that id repeated, a witness lists it once more (a failure,
    which has no witness, gets the witness [0, 0])."""
    wit = obj["witness"]
    if isinstance(wit, dict):
        wit = dict(wit, s_side=wit["s_side"][:1] * len(wit["s_side"]))
    else:
        wit = (wit or [0])[:1] + (wit or [0])
    return dict(obj, witness=wit)


# the induced K_3 subdivision that `subdivide --s 2 --k 3 --seed 1` finds on PG(2, 3)
PLANE3_WITNESS = ('{"branch": [15, 19, 22], "induced": true, "paths": {"15-19": [15, 4, 19], '
                  '"15-22": [15, 1, 22], "19-22": [19, 12, 22]}}')


@pytest.mark.parametrize("paths_prefix, message", [
    ('"015-19": [999, 12345], ', "path key '015-19' must be 'u-v'"),
    ('"15-19": [999], ', "subdivision witness repeats the key '15-19'"),
], ids=["leading-zero", "repeated"])
def test_verify_subdivision_refuses_a_second_key_for_a_pair(tmp_path, capsys,
                                                            paths_prefix, message):
    # the decoder kept the last copy of a key and read 015 as 15, so the
    # extra entry vanished and the witness verified
    g6, wit = tmp_path / "plane3.g6", tmp_path / "wit.json"
    assert main(["gen", "--kind", "plane", "--q", "3", "--out", str(g6)]) == 0
    wit.write_text(PLANE3_WITNESS)
    code, out, _ = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(wit),
                           "--subdivision")
    assert (code, out) == (0, "verified\n")
    wit.write_text(PLANE3_WITNESS.replace('"paths": {', '"paths": {' + paths_prefix))
    code, out, err = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(wit),
                             "--subdivision")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("old, new, key", [
    ('{"digest"', '{"mode":"case1_near_regular","digest"', "mode"),
    ('"stats":{', '"stats":{"size":99,', "size"),
], ids=["mode", "stats-size"])
def test_verify_certificate_refuses_a_repeated_key(tmp_path, capsys, old, new, key):
    text = (GOLDEN / "heawood_cert.json").read_text()
    assert text.count(old) == 1
    cert = tmp_path / "cert.json"
    cert.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "verify", "--input", str(GOLDEN / "heawood.g6"),
                             "--cert", str(cert))
    assert (code, out, err) == (1, "", f"error: certificate repeats the key {key!r}\n")


@pytest.mark.parametrize("section, key, value", [
    ("verified", "induced_c4free", True),
    ("verified", "avg_degree_ok", True),
    ("verified", "bipartite", True),
    ("verified", "max_degree_bound_ok", True),
    ("verified", "all", True),
    ("stats", "size", 1000),
    ("stats", "avg_degree", "9"),
    ("stats", "max_degree", 3),
])
@pytest.mark.parametrize("graph_file, cert_file", [("gnp24.g6", "gnp24_cert.json"),
                                                   ("gnp200_k33.g6", "gnp200_k33_cert.json")])
def test_verify_holds_a_biclique_to_the_flags_and_stats_it_writes(
        tmp_path, capsys, graph_file, cert_file, section, key, value):
    obj = _golden_cert(cert_file)
    assert obj["mode"] == "biclique_found"
    if key == "all":
        obj[section] = dict.fromkeys(obj[section], value)
    else:
        obj[section][key] = value
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "verify", "--input", str(GOLDEN / graph_file),
                           "--cert", str(cert))
    assert (code, out) == (2, "REJECTED\n")


@pytest.mark.parametrize("graph_file, cert_file", GOLDEN_CERTS)
def test_verify_rejects_a_repeated_vertex_id(tmp_path, capsys, graph_file, cert_file):
    # a repeated id counts one vertex twice: a biclique side or a witness
    # would claim more vertices than it holds
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_with_a_repeated_id(_golden_cert(cert_file))))
    code, out, _ = run_cli(capsys, "verify", "--input", str(GOLDEN / graph_file),
                           "--cert", str(cert))
    assert (code, out) == (2, "REJECTED\n")


@pytest.mark.parametrize("witness", [{"s_side": [0, 1, 2], "t_side": [3, 4, 5]}, []],
                         ids=["biclique", "empty-list"])
def test_verify_rejects_a_failure_record_that_holds_a_witness(tmp_path, capsys, witness):
    # the writer puts null in every failure record's witness field; any
    # other shape is not a record it wrote
    obj = _golden_cert("gnp200_failure_cert.json")
    assert obj["mode"] == "failure" and obj["witness"] is None
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(dict(obj, witness=witness)))
    code, out, _ = run_cli(capsys, "verify", "--input", str(GOLDEN / "gnp200.g6"),
                           "--cert", str(cert))
    assert (code, out) == (2, "REJECTED\n")


def test_verify_rejects_a_k22_on_a_star_by_a_repeated_id(tmp_path, capsys):
    # K_{1,3} holds no K_{2,2}; S = [0, 0] must not pass for two vertices
    from c4lab.pipeline import ExtractionCertificate, _NO_FLAGS, graph_digest

    star = complete_bipartite(1, 3).underlying
    g6 = tmp_path / "star.g6"
    g6.write_text(write_graph6(star) + "\n")
    cert = ExtractionCertificate(
        input_digest=graph_digest(star), mode="biclique_found", witness=None,
        biclique=((0, 0), (1, 2)), params={"s": 2, "k": 2, "delta": 0.01}, seed=0,
        verified=dict(_NO_FLAGS), stats={"avg_degree": "0", "max_degree": 0, "size": 4})
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert.to_json())
    code, out, _ = run_cli(capsys, "verify", "--input", str(g6), "--cert", str(cert_path))
    assert (code, out) == (2, "REJECTED\n")


# stand-ins of the wrong JSON type or out of range for any certificate value
WRONG_VALUES = (None, True, False, -1, 0, 2, 10 ** 400, -1e308, 0.5, float("nan"),
                float("inf"), "", "x", [], [-1], [0, 0], [10 ** 6], [[0]], {},
                {"s_side": [0]}, {"s_side": [0, 1], "t_side": [1, 2]})


def _value_paths(value, path=()):
    """The key path of every value nested inside a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


def _mutated(rng: random.Random, text: str) -> bytes:
    """One mutation of a certificate: a key or list entry deleted, a value
    swapped for a wrong one, or a few bits flipped in the raw bytes."""
    kind = rng.randrange(3)
    if kind == 2:
        data = bytearray(text.encode())
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    obj = json.loads(text)
    *parents, key = rng.choice(list(_value_paths(obj)))
    holder = obj
    for step in parents:
        holder = holder[step]
    if kind == 0:
        del holder[key]
    else:
        holder[key] = copy.deepcopy(rng.choice(WRONG_VALUES))
    return json.dumps(obj).encode()


def _reference_code(graph_file: str, data: bytes) -> int:
    """The exit code verify owes a certificate's bytes by the reference rule."""
    try:
        cert = ExtractionCertificate.from_json(data.decode())
        graph = read_graph6((GOLDEN / graph_file).read_text())
        return 0 if verify_certificate_reference(graph, cert) else 2
    except (C4LabError, ValueError):
        return 1


def test_verify_mutated_golden_certificates_never_escape(tmp_path, capsys):
    # a seeded fuzz: whatever the mutation, verify answers with an exit code
    # (0 verified, 2 rejected, 1 malformed), no exception escapes main, and
    # the code is the one the reference rule gives
    rng = random.Random(20261018)
    cert = tmp_path / "cert.json"
    codes = set()
    for graph_file, cert_file in GOLDEN_CERTS:
        text = (GOLDEN / cert_file).read_text()
        for _ in range(100):
            data = _mutated(rng, text)
            cert.write_bytes(data)
            code, _, _ = run_cli(capsys, "verify", "--input", str(GOLDEN / graph_file),
                                 "--cert", str(cert))
            assert code == _reference_code(graph_file, data)
            codes.add(code)
    assert codes == {0, 1, 2}


def test_verify_matches_the_reference_on_swapped_witnesses(tmp_path, capsys):
    # every golden certificate with each golden's witness field in place of
    # its own: a vertex list, a biclique pair, null, or an empty list
    witnesses = [_golden_cert(name)["witness"] for _, name in GOLDEN_CERTS] + [[]]
    assert {type(w) for w in witnesses} == {list, dict, type(None)}
    cert = tmp_path / "cert.json"
    codes = set()
    for graph_file, cert_file in GOLDEN_CERTS:
        for witness in witnesses:
            data = json.dumps(dict(_golden_cert(cert_file), witness=witness)).encode()
            cert.write_bytes(data)
            code, _, _ = run_cli(capsys, "verify", "--input", str(GOLDEN / graph_file),
                                 "--cert", str(cert))
            assert code == _reference_code(graph_file, data), (cert_file, witness)
            codes.add(code)
    assert codes == {0, 2}
