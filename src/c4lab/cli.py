"""Command-line surface: generation, extraction, oracles, experiments, verification.

Exit codes: 0 success or verified, 2 verified-failure outcome (failure
certificate, refuted verification, no witness), 1 usage or I/O error.
Randomized subcommands always echo the seed in use on stderr so every run
can be replayed; configuration precedence is flags > DEGB_* environment
variables > built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields

from .errors import C4LabError, KernelFailure
from .graphio import (
    bipartite_sidecar,
    read_edgelist,
    read_graph6,
    read_hypergraph,
    read_sparse6,
    write_edgelist,
    write_graph6,
    write_sparse6,
)
from .graphs import BipartiteGraph, Graph, gen_gnp, gen_lopsided, projective_plane_incidence
from .hypergraphs import Hypergraph, f_search, furedi_kernel
from .lowerbounds import check_lb_conditions, lb_experiment
from .oracles import DEFAULT_ORACLE_LIMIT, best_c4free_induced, max_independent_set
from .pipeline import (
    ExtractionCertificate,
    PipelineParams,
    extract_induced_c4free,
    verify_certificate,
)
from .subdivisions import (
    SubdivisionWitness,
    find_subdivision,
    induced_subdivision,
    verify_subdivision,
)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(f"DEGB_{name}")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise C4LabError(f"DEGB_{name} must be an integer, got {raw!r}") from None


# every PipelineParams field is a budget: flag --name-with-dashes, default
# from DEGB_NAME
_BUDGETS = tuple(f.name for f in fields(PipelineParams))

# the DEGB_* variable and built-in default behind each budget flag's dest,
# and oracle --limit's own row; they are read on every call, so a changed
# variable takes effect at once, and each flag's least value is 0
_ENV_DEFAULTS = (*((f.name, f.name.upper(), f.default) for f in fields(PipelineParams)),
                 ("limit", "ORACLE_LIMIT", DEFAULT_ORACLE_LIMIT))


def _seed(args) -> int:
    """The run's seed, --seed or else drawn from the clock, echoed on
    stderr so that the run can be replayed."""
    seed = args.seed if args.seed is not None else time.time_ns() % (2 ** 63)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _read_text(path: str) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_READERS = {"graph6": read_graph6, "sparse6": read_sparse6, "edgelist": read_edgelist}
_WRITERS = {"graph6": lambda g: write_graph6(g) + "\n",
            "sparse6": lambda g: write_sparse6(g) + "\n",
            "edgelist": write_edgelist}


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "auto":
        stripped = text.lstrip()
        if stripped.startswith(":") or stripped.startswith(">>sparse6<<"):
            fmt = "sparse6"
        elif any(ln.strip() and (ln.lstrip()[0].isdigit() or ln.startswith("#"))
                 and " " in ln for ln in text.splitlines()):
            fmt = "edgelist"
        else:
            fmt = "graph6"
    return _READERS[fmt](text)


# each gen kind: the flags it needs, the other kind flags it reads, and its
# builder from (args, seed) to a graph, or to a bipartite graph, whose sides
# --sidecar writes
_KINDS = {
    "gnp": (("n", "p"), (), lambda args, seed: gen_gnp(args.n, args.p, seed)),
    "plane": (("q",), ("sidecar",), lambda args, seed: projective_plane_incidence(args.q)),
    "lopsided": (("a", "b", "r"), ("s", "sidecar"),
                 lambda args, seed: gen_lopsided(args.a, args.b, args.r,
                                                 2 if args.s is None else args.s, seed)),
}
_KIND_FLAGS = {flag for needs, reads, _ in _KINDS.values() for flag in needs + reads}


def _refuse_unread(args, flags, owner: str) -> None:
    """Refuse each of `flags` that was given (is not None): `owner` would
    leave it unread."""
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise C4LabError(f"{owner} takes no {', '.join(given)}")


def _params_from(args) -> PipelineParams:
    return PipelineParams(**{name: getattr(args, name) for name in _BUDGETS})


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default="-", help="graph path or - for stdin")
    p.add_argument("--format", default="auto", choices=["auto", *_READERS])


def _add_budgets(p: argparse.ArgumentParser, names=_BUDGETS) -> None:
    # None stands for the DEGB_* default, filled in after parsing
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=int)


def build_parser() -> argparse.ArgumentParser:
    """The c4lab parser.  Budget flags left unset parse to None; `main`
    fills them from the DEGB_* variables or the built-in defaults.  Each
    subcommand's handler is its `handler` default."""
    top = argparse.ArgumentParser(prog="c4lab")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="seeded graph generators")
    g.set_defaults(handler=_cmd_gen)
    g.add_argument("--kind", required=True, choices=list(_KINDS))
    g.add_argument("--n", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--q", type=int)
    g.add_argument("--a", type=int)
    g.add_argument("--b", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--s", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", default="-")
    g.add_argument("--sidecar", help="write bipartite side info to this path")
    g.add_argument("--gen-format", default="graph6", choices=list(_WRITERS))

    e = sub.add_parser("extract", help="induced C4-free extraction certificate")
    e.set_defaults(handler=_cmd_extract)
    _add_graph_input(e)
    e.add_argument("--s", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--seed", type=int)
    _add_budgets(e)
    e.add_argument("--out", default="-", help="certificate JSON destination")

    o = sub.add_parser("oracle", help="exhaustive small-instance baselines")
    o.set_defaults(handler=_cmd_oracle)
    _add_graph_input(o)
    o.add_argument("--task", default="c4free", choices=["c4free", "mis"])
    o.add_argument("--limit", type=int)

    kcmd = sub.add_parser("kernel", help="partite kernel of a uniform hypergraph")
    kcmd.set_defaults(handler=_cmd_kernel)
    kcmd.add_argument("--input", default="-")
    kcmd.add_argument("--s", type=int, required=True)
    kcmd.add_argument("--t", type=int, required=True)
    kcmd.add_argument("--seed", type=int)
    _add_budgets(kcmd, ["retries"])

    f = sub.add_parser("ftable", help="exhaustive pair-forcing threshold search")
    f.set_defaults(handler=_cmd_ftable)
    f.add_argument("--ell", type=int, required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--nmax", type=int, required=True)
    f.add_argument("--out", help="persist the result row as JSON")

    lb = sub.add_parser("lowerbound", help="random-graph lower-bound experiments")
    lb.set_defaults(handler=_cmd_lowerbound)
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--p", type=float, required=True)
    lb.add_argument("--s", type=int, required=True)
    lb.add_argument("--k", type=int, required=True)
    lb.add_argument("--trials", type=int, help="default 100")
    lb.add_argument("--seed", type=int)
    lb.add_argument("--check-only", action="store_true", dest="check_only")
    lb.add_argument("--csv", action="store_true", default=None)

    sd = sub.add_parser("subdivide", help="induced clique-subdivision search")
    sd.set_defaults(handler=_cmd_subdivide)
    _add_graph_input(sd)
    sd.add_argument("--k", type=int, required=True)
    sd.add_argument("--s", type=int, default=2)
    sd.add_argument("--seed", type=int)
    sd.add_argument("--plain", action="store_true",
                    help="plain (not necessarily induced) search")
    _add_budgets(sd)

    v = sub.add_parser("verify", help="re-verify a certificate or witness")
    v.set_defaults(handler=_cmd_verify)
    _add_graph_input(v)
    v.add_argument("--cert", required=True)
    v.add_argument("--subdivision", action="store_true",
                   help="treat the certificate as a subdivision witness")

    return top


def _cmd_gen(args) -> int:
    seed = _seed(args)
    needs, reads, build = _KINDS[args.kind]
    if any(getattr(args, flag) is None for flag in needs):
        raise C4LabError(f"{args.kind} needs {', '.join('--' + flag for flag in needs)}")
    # vars keeps the parser's order
    _refuse_unread(args, [flag for flag in vars(args)
                          if flag in _KIND_FLAGS and flag not in needs + reads], args.kind)
    built = build(args, seed)
    graph = built.underlying if isinstance(built, BipartiteGraph) else built
    _write_text(args.out, _WRITERS[args.gen_format](graph))
    if args.sidecar:
        # only the kinds that build a bipartite graph read --sidecar
        _write_text(args.sidecar, bipartite_sidecar(built) + "\n")
    return 0


def _cmd_extract(args) -> int:
    g = _load_graph(args.input, args.format)
    seed = _seed(args)
    cert = extract_induced_c4free(g, args.s, args.k, _params_from(args), seed=seed)
    _write_text(args.out, cert.to_json())
    return 2 if cert.mode == "failure" else 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.input, args.format)
    if args.task == "c4free":
        witness, value = best_c4free_induced(g, limit=args.limit)
        payload = {"task": "c4free", "witness": sorted(witness),
                   "value": str(value)}
    else:
        witness = max_independent_set(g, limit=args.limit)
        payload = {"task": "mis", "witness": sorted(witness),
                   "value": len(witness)}
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_kernel(args) -> int:
    n, edges = read_hypergraph(_read_text(args.input))
    h = Hypergraph(n, edges)
    seed = _seed(args)
    try:
        kern = furedi_kernel(h, s=args.s, t=args.t, seed=seed,
                             retries=args.retries)
    except KernelFailure as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 2
    # furedi_kernel returns only a kernel that verify_kernel accepted
    payload = {
        "ok": True,
        "surviving_edges": list(kern.surviving_edges),
        "coloring": list(kern.coloring),
        "trace": sorted(sorted(e) for e in kern.trace.edges),
        "history": list(kern.history),
        "multiplicity": kern.multiplicity,
        "s_bound": kern.s_bound,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_ftable(args) -> int:
    res = f_search(args.ell, args.k, args.nmax)
    if res.upper is not None:
        print(f"F({args.ell},{args.k}) = {res.upper}")
    else:
        print(f"F({args.ell},{args.k}) >= {res.lower} (not settled up to n={args.nmax})")
    if args.out:
        _write_text(args.out, res.to_json() + "\n")
    return 0


def _cmd_lowerbound(args) -> int:
    if args.check_only:
        # --check-only runs no trials
        _refuse_unread(args, ("csv", "trials", "seed"), "--check-only")
        rep = check_lb_conditions(args.n, args.p, args.s, args.k)
        print(json.dumps(asdict(rep), sort_keys=True))
        return 0
    seed = _seed(args)
    trials = 100 if args.trials is None else args.trials
    rep = lb_experiment(args.n, args.p, args.s, args.k, trials, seed)
    if args.csv:
        print(rep.CSV_HEADER)
        print(rep.csv_row())
    else:
        print(json.dumps(rep.as_dict(), sort_keys=True))
    return 0


def _cmd_subdivide(args) -> int:
    g = _load_graph(args.input, args.format)
    seed = _seed(args)
    if args.plain:
        w = find_subdivision(g, args.k, seed=seed)
    else:
        w = induced_subdivision(g, args.s, args.k, seed=seed,
                                params=_params_from(args))
    if w is None:
        print(json.dumps({"found": False}))
        return 2
    print(w.to_json())
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.input, args.format)
    text = _read_text(args.cert)
    if args.subdivision:
        ok = verify_subdivision(g, SubdivisionWitness.from_json(text))
    else:
        ok = verify_certificate(g, ExtractionCertificate.from_json(text))
    print("verified" if ok else "REJECTED")
    return 0 if ok else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it takes about 2 ms, and it reads
    nothing from the environment; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        # a bad DEGB_* value fails every subcommand, before parsing
        defaults = {dest: _env_int(name, value) for dest, name, value in _ENV_DEFAULTS}
        args = _parser().parse_args(argv)
        for dest, value in defaults.items():
            if getattr(args, dest, value) is None:
                setattr(args, dest, value)
        for dest, name, _ in _ENV_DEFAULTS:
            value = getattr(args, dest, 0)
            if value < 0:
                raise C4LabError(f"--{dest.replace('_', '-')} (DEGB_{name}) "
                                 f"must be at least 0, got {value}")
        return args.handler(args)
    except SystemExit as exc:
        return 1 if exc.code else 0
    except (C4LabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
