"""The four workloads: seeded inputs, one pass of requests, output checks.

A request is what a user does with one input: for example `extract` and
then `verify` of the certificate.  Each of its steps is one CLI or library
call.  CLI steps go through `c4lab.cli.main` in-process, so graph6 parsing
and certificate JSON are part of what is timed.  Every random draw behind
the inputs comes from the workload seed; the program only sees the generated
files and objects.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import c4lab.cli
import c4lab.pipeline
from c4lab.errors import GenerationFailure
from c4lab.graphio import write_graph6
from c4lab.graphs import (Graph, gen_gnp, gen_lopsided, induced,
                          projective_plane_incidence)
from c4lab.lowerbounds import ExperimentReport
from c4lab.oracles import contains_biclique, find_c4
from c4lab.pipeline import MODES, ExtractionCertificate
from c4lab.subdivisions import SubdivisionWitness, verify_subdivision


def derive(seed: int, *parts) -> int:
    """A 63-bit seed from the workload seed and a path of labels."""
    text = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass
class Step:
    """One call.  `call` is timed; `collect` and `check` are not.

    `call` returns (exit code, stdout text).  `collect` turns that into the
    output bytes that are hashed and checked.  `check` returns an error
    message or None.  `k` is set on extraction steps (for yield).
    """

    kind: str
    call: Callable[[], tuple[int, str]]
    collect: Callable[[int, str], bytes]
    check: Callable[[int, bytes], str | None]
    k: int | None = None


@dataclass
class Request:
    kind: str
    label: str
    steps: list[Step]


@dataclass
class Plan:
    requests: list[Request] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)


def _stdout(rc: int, out: str) -> bytes:
    return out.encode()


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            # looked up at call time so a traced run sees the wrapper
            rc = c4lab.cli.main(argv)
        return rc, buf.getvalue()
    return call


def _write_graph(plan: Plan, path: Path, g) -> None:
    path.write_text(write_graph6(g) + "\n", encoding="utf-8")
    plan.files.append(path)


def _check_cert(s: int, k: int, seed: int) -> Callable[[int, bytes], str | None]:
    def check(rc: int, out: bytes) -> str | None:
        try:
            cert = ExtractionCertificate.from_json(out.decode())
        except (ValueError, KeyError) as exc:
            return f"unreadable certificate: {exc}"
        if cert.mode not in MODES:
            return f"unknown mode {cert.mode}"
        if cert.mode == "biclique_found":
            return "biclique found in an input certified biclique-free"
        if (cert.params.get("s"), cert.params.get("k"), cert.seed) != (s, k, seed):
            return "certificate does not echo s, k and seed"
        if rc != (2 if cert.mode == "failure" else 0):
            return f"exit {rc} for mode {cert.mode}"
        return None
    return check


def _check_verified(rc: int, out: bytes) -> str | None:
    if rc != 0 or out.decode().strip() != "verified":
        return f"verify exit {rc}: {out.decode().strip()!r}"
    return None


def _extract_and_verify(path: Path, s: int, k: int, seed: int,
                        extra: tuple[str, ...] = ()) -> list[Step]:
    """CLI `extract` writing a certificate, then CLI `verify` of it."""
    cert_path = path.with_suffix(f".k{k}.cert.json")
    return [
        Step("extract",
             _cli(["extract", "--input", str(path), "--s", str(s), "--k", str(k),
                   "--seed", str(seed), "--out", str(cert_path), *extra]),
             # exit 1 writes no certificate; the error text is the output then
             lambda rc, out: cert_path.read_bytes() if rc in (0, 2) else out.encode(),
             _check_cert(s, k, seed), k=k),
        Step("verify", _cli(["verify", "--input", str(path), "--cert", str(cert_path)]),
             _stdout, _check_verified),
    ]


def warm_up(workdir: Path) -> str | None:
    """Extract and verify on PG(2,2) through the CLI; returns an error or None."""
    path = workdir / "warmup.g6"
    path.write_text(write_graph6(projective_plane_incidence(2).underlying) + "\n",
                    encoding="utf-8")
    for step in _extract_and_verify(path, 2, 3, 0):
        rc, out = step.call()
        err = step.check(rc, step.collect(rc, out))
        if err:
            return f"warm-up {step.kind}: {err}"
    return None


# -- extract-gnp ----------------------------------------------------------------

# Sizes, shapes and n below keep every step near or under 0.25 s on the
# reference machine, so that a run holds ten or more passes to take the
# median over (see README.md)
GNP_SIZES = (100, 200, 400)
# 24 distinct graphs: one draw's cost varies by up to 1.5x at the same n
# (coefficient of variation 0.15 to 0.19, from the graph, not the edge count
# or the extraction seed), and the median request is one of the n=200 graphs
GNP_ROUNDS = 8


def _k33_free(seed: int, tag: str, n: int, draw: Callable[[int], Graph]) -> Graph:
    """First draw in the derived-seed sequence that is K_{3,3}-free."""
    attempt = 0
    while True:
        g = draw(derive(seed, tag, n, attempt))
        if contains_biclique(g, 3) is None:
            return g
        attempt += 1


def setup_gnp(seed: int, workdir: Path) -> Plan:
    plan = Plan()
    # n cycles over the sizes while k alternates; each graph is used once
    for j in range(GNP_ROUNDS * len(GNP_SIZES)):
        n, k = GNP_SIZES[j % len(GNP_SIZES)], 2 + j % 2
        path = workdir / f"gnp{j}-{n}.g6"
        g = _k33_free(seed, f"gnp{j}", n, lambda s: gen_gnp(n, 6 / (n - 1), s))
        _write_graph(plan, path, g)
        plan.requests.append(Request("extract", f"gnp{j} n={n} k={k}",
                                     _extract_and_verify(path, 3, k,
                                                         derive(seed, "extract", j))))
    return plan


# -- extract-plane --------------------------------------------------------------

PLANE_QS = (5, 7, 11, 13)


def _check_subdivision(g) -> Callable[[int, bytes], str | None]:
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"subdivide exit {rc}: {out.decode().strip()!r}"
        try:
            w = SubdivisionWitness.from_json(out.decode())
        except (ValueError, KeyError) as exc:
            return f"unreadable subdivision witness: {exc}"
        if len(w.branch_vertices) != 3 or not w.induced_flag:
            return "subdivision witness is not an induced K_3 subdivision"
        if not verify_subdivision(g, w):
            return "subdivision witness does not verify"
        return None
    return check


def setup_plane(seed: int, workdir: Path) -> Plan:
    plan = Plan()
    for q in PLANE_QS:
        g = projective_plane_incidence(q).underlying
        path = workdir / f"plane{q}.g6"
        _write_graph(plan, path, g)
        subdivide = Step(
            "subdivide",
            _cli(["subdivide", "--input", str(path), "--k", "3", "--s", "2",
                  "--seed", str(derive(seed, "subdivide", q))]),
            _stdout, _check_subdivision(g))
        plan.requests.append(Request(
            "extract", f"q={q}",
            _extract_and_verify(path, 2, 3, derive(seed, "extract", q)) + [subdivide]))
    return plan


# -- extract-lopsided -----------------------------------------------------------

LOPSIDED_SHAPES = ((200, 25), (300, 30))
LOPSIDED_S, LOPSIDED_K = 3, 3


def _model_steps(bg, seed: int) -> list[Step]:
    """Library `model_lopsided` on the generator's bipartition, then
    `verify_certificate` of its certificate."""
    held: dict = {}

    def model() -> tuple[int, str]:
        cert = c4lab.pipeline.model_lopsided(bg, LOPSIDED_S, LOPSIDED_K, seed)
        held["cert"] = cert
        return (2 if cert.mode == "failure" else 0), cert.to_json()

    def verify() -> tuple[int, str]:
        ok = c4lab.pipeline.verify_certificate(bg.underlying, held["cert"])
        return (0, "verified\n") if ok else (2, "REJECTED\n")

    return [Step("model", model, _stdout, _check_cert(LOPSIDED_S, LOPSIDED_K, seed),
                 k=LOPSIDED_K),
            Step("verify", verify, _stdout, _check_verified)]


def setup_lopsided(seed: int, workdir: Path) -> Plan:
    plan = Plan()
    for a, b in LOPSIDED_SHAPES:
        attempt = 0
        while True:
            try:
                bg = gen_lopsided(a, b, 3, LOPSIDED_S, derive(seed, "lopsided", a, b, attempt))
                break
            except GenerationFailure:
                attempt += 1
        tag = f"{a}x{b}"
        path = workdir / f"lopsided{tag}.g6"
        _write_graph(plan, path, bg.underlying)
        plan.requests.append(Request(
            "extract", tag,
            _extract_and_verify(path, LOPSIDED_S, LOPSIDED_K, derive(seed, "extract", a, b))
            + _model_steps(bg, derive(seed, "model", a, b))))
    return plan


# -- exact ----------------------------------------------------------------------

EXACT_SIZES = (14, 15)
EXACT_GRAPHS = 5   # per size: the 2^n enumeration's cost varies from graph to graph
ORACLE_SIZES = (15,)   # the fallback runs the same 2^n enumeration, so one size is enough
EXACT_P = 0.2
FTABLE_ARGS = ["ftable", "--ell", "2", "--k", "2", "--nmax", "5"]
FTABLE_EXPECTED = "F(2,2) = 3"   # settled value, also pinned by the test suite
LB_N, LB_P, LB_S, LB_K, LB_TRIALS = 10, 0.5, 2, 4, 500


def _check_oracle(g) -> Callable[[int, bytes], str | None]:
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"oracle exit {rc}"
        try:
            obj = json.loads(out)
            witness, value = obj["witness"], Fraction(obj["value"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable oracle output: {exc}"
        if not witness:
            return "empty oracle witness"
        sub = induced(g, witness)
        if find_c4(sub) is not None:
            return "oracle witness is not C4-free"
        if Fraction(2 * sub.edge_count, sub.n) != value:
            return "oracle value is not the witness's average degree"
        return None
    return check


def _check_ftable(rc: int, out: bytes) -> str | None:
    if rc != 0 or out.decode().strip() != FTABLE_EXPECTED:
        return f"ftable exit {rc}: {out.decode().strip()!r}"
    return None


def _check_lowerbound(seed: int) -> Callable[[int, bytes], str | None]:
    def check(rc: int, out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if rc != 0 or len(lines) != 2 or lines[0] != ExperimentReport.CSV_HEADER:
            return f"lowerbound exit {rc}: {out.decode()[:80]!r}"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        if (row["n"], row["p"], row["s"], row["k"], row["trials"], row["seed"]) != (
                str(LB_N), str(LB_P), str(LB_S), str(LB_K), str(LB_TRIALS), str(seed)):
            return "lowerbound row does not echo its parameters"
        probs = [float(row[key]) for key in ("p_x_zero", "p_y_zero", "p_edges_ok")]
        if not all(0.0 <= x <= 1.0 for x in probs):
            return "lowerbound probability outside [0, 1]"
        exact = 0.5 * comb(LB_N, LB_S) * comb(LB_N - LB_S, LB_S) * LB_P ** (LB_S * LB_S)
        if float(row["exact_ey"]) != exact:
            return "lowerbound exact E[Y] is wrong"
        if abs(float(row["mean_y"]) - exact) > 6 * float(row["stderr_y"]):
            return "lowerbound mean of Y is over six standard errors from E[Y]"
        return None
    return check


def setup_exact(seed: int, workdir: Path) -> Plan:
    plan = Plan()
    for j in range(EXACT_GRAPHS):
        for n in EXACT_SIZES:
            # G(n, p) conditioned on its expected edge count, drawn directly
            # as G(n, m): the 2^n enumeration's cost follows the edge count,
            # which would otherwise vary with the seed
            pairs = list(combinations(range(n), 2))
            m = round(EXACT_P * len(pairs))
            g = _k33_free(seed, f"exact{j}", n,
                          lambda s: Graph(n, random.Random(s).sample(pairs, m)))
            path = workdir / f"exact{j}-{n}.g6"
            _write_graph(plan, path, g)
            if n in ORACLE_SIZES:
                plan.requests.append(Request("oracle", f"oracle{j} n={n}", [Step(
                    "oracle", _cli(["oracle", "--input", str(path), "--task", "c4free"]),
                    _stdout, _check_oracle(g))]))
            # no randomized attempts: every extraction reaches oracle_fallback,
            # so its cost does not hinge on whether an attempt happens to succeed
            plan.requests.append(Request(
                "extract", f"extract{j} n={n}",
                _extract_and_verify(path, 3, 2, derive(seed, "extract", j, n),
                                    extra=("--attempts", "0"))))
    plan.requests.append(Request("ftable", "ftable", [Step(
        "ftable", _cli(FTABLE_ARGS), _stdout, _check_ftable)]))
    lb_seed = derive(seed, "lowerbound")
    plan.requests.append(Request("lowerbound", "lowerbound", [Step(
        "lowerbound",
        _cli(["lowerbound", "--n", str(LB_N), "--p", str(LB_P), "--s", str(LB_S),
              "--k", str(LB_K), "--trials", str(LB_TRIALS), "--seed", str(lb_seed),
              "--csv"]),
        _stdout, _check_lowerbound(lb_seed))]))
    return plan


WORKLOADS = {
    "extract-gnp": setup_gnp,
    "extract-plane": setup_plane,
    "extract-lopsided": setup_lopsided,
    "exact": setup_exact,
}
