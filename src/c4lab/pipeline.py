"""Certificate-producing extraction of induced C4-free subgraphs.

The driver wires the cleaning reductions into a single extraction with a
replayable, self-verifying certificate: every returned witness is
re-verified from scratch against the original graph, and failed routes
degrade to an exhaustive oracle on small inputs or to an honest failure
record.  The lopsided case's kernel model, `model_lopsided`, is a separate
entry point on a left-regular bipartite graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import (
    DomainError,
    ExtractionFailure,
    InvariantError,
    KernelFailure,
    OracleLimitError,
    StaleCertificateError,
)
from .graphio import load_json, vertex_list
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartition,
    bits,
    edge_digest,
    half_degree_core,
    mask_of,
    mix_seed,
)
from .hypergraphs import Hypergraph, find_induced_pair, furedi_kernel, trace_bound
from .oracles import (DEFAULT_ORACLE_LIMIT, best_c4free_induced, contains_biclique,
                      graph_c4_free, is_c4_free)
from .reductions import (DEFAULT_RETRIES, sparsify_short_cycles, split_from_prefix,
                         split_prefix)

# every certificate mode and the flags it promises; verify_certificate
# rejects a certificate whose honest flags break its mode's promise
_MODE_CLAIMS = {
    "trivial_already_c4free": ("induced_c4free", "avg_degree_ok"),
    "case1_near_regular": ("induced_c4free", "avg_degree_ok"),
    "case2_lopsided": ("induced_c4free", "avg_degree_ok"),
    "biclique_found": (),
    "oracle_fallback": ("induced_c4free",),
    "failure": (),
}
MODES = tuple(_MODE_CLAIMS)

CERT_VERSION = "1"


# the paper's exponents, fixed and recorded in every certificate's params:
# delta in the two-outcome bound and the short-cycle deletion exponent
DELTA = 0.01
SPARSIFY_DELTA = 0.04


@dataclass(frozen=True)
class PipelineParams:
    """The settable budgets; the exponents are fixed (see `as_dict`)."""

    retries: int = DEFAULT_RETRIES             # Las Vegas budget inside each stage
    attempts: int = 8                          # driver-level seed-indexed attempts
    oracle_limit: int = DEFAULT_ORACLE_LIMIT   # exhaustive fallback cap

    def as_dict(self, s: int, k: int) -> dict:
        """The certificate's params: the budgets, the fixed exponents, the
        split exponent 1/(200 s) and the kernel multiplicity t = max(k, s).
        This is the request rule of both routes: s < 2 or k < 1 raises
        DomainError."""
        if s < 2:
            raise DomainError("s must be >= 2")
        if k < 1:
            raise DomainError("k must be >= 1")
        return {
            "s": s, "k": k, "delta": DELTA, "split_delta": 1 / (200 * s),
            "sparsify_delta": SPARSIFY_DELTA,
            # pinned by the certificate format; dropping "r" waits for a version bump
            "r": max(k * k, s + 1), "t": max(k, s),
            "retries": self.retries, "attempts": self.attempts,
            "oracle_limit": self.oracle_limit,
        }


# the required certificate keys and their JSON types
_CERT_FIELDS = (("digest", str), ("mode", str), ("params", dict), ("seed", int),
                ("verified", dict), ("stats", dict))
_STATS_TYPES = (("avg_degree", str), ("max_degree", int), ("size", int),
                ("stage", str), ("best_avg_degree", str), ("best_size", int))
_JSON_TYPE = {str: "a string", dict: "an object", int: "an integer", float: "a number"}


def _is_a(value, kind: type) -> bool:
    """isinstance for JSON values: a bool is no number, and an int is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass
class ExtractionCertificate:
    """Replayable record of one extraction run."""

    input_digest: str
    mode: str
    witness: tuple[int, ...] | None
    biclique: tuple[tuple[int, ...], tuple[int, ...]] | None
    params: dict
    seed: int
    verified: dict
    stats: dict
    version: str = CERT_VERSION

    def to_json(self) -> str:
        payload = {
            "digest": self.input_digest,
            "mode": self.mode,
            "witness": (
                {"s_side": list(self.biclique[0]), "t_side": list(self.biclique[1])}
                if self.biclique is not None
                else (list(self.witness) if self.witness is not None else None)),
            "params": self.params,
            "seed": self.seed,
            "verified": self.verified,
            "stats": self.stats,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExtractionCertificate":
        """Parse a certificate, checking the type of every field that
        `verify_certificate` reads; a malformed one raises DomainError."""
        obj = load_json(text, "certificate")
        if not isinstance(obj, dict):
            raise DomainError("certificate must be a JSON object")
        for key, kind in _CERT_FIELDS:
            if key not in obj:
                raise DomainError(f"certificate lacks the key {key!r}")
            if not _is_a(obj[key], kind):
                raise DomainError(f"certificate key {key!r} must be {_JSON_TYPE[kind]}")
        # the params verify_certificate reads
        for key, kind in (("s", int), ("k", int), ("delta", float)):
            if key not in obj["params"]:
                raise DomainError(f"certificate params lack the key {key!r}")
            if not _is_a(obj["params"][key], kind):
                raise DomainError(f"params {key!r} must be {_JSON_TYPE[kind]}")
            if kind is int and obj["params"][key] < 1:
                raise DomainError(f"params {key!r} must be at least 1")
        # compared, not converted: float() of a huge integer overflows, and a
        # NaN fails every comparison
        if not 0 <= obj["params"]["delta"] <= 1:
            raise DomainError("params 'delta' must be a finite number in [0, 1]")
        version = obj.get("version", CERT_VERSION)
        if not _is_a(version, str):
            raise DomainError("certificate key 'version' must be a string")
        if version != CERT_VERSION:
            raise DomainError(f"certificate version {version!r} is not "
                              f"supported (only {CERT_VERSION!r})")
        # exact types, so that 1 does not pass for true nor 14.0 for 14
        for key, value in obj["verified"].items():
            if type(value) is not bool:
                raise DomainError(f"verified {key!r} must be a boolean")
        for key, kind in _STATS_TYPES:
            if key in obj["stats"] and type(obj["stats"][key]) is not kind:
                raise DomainError(f"stats {key!r} must be {_JSON_TYPE[kind]}")
        wit = obj.get("witness")
        biclique = None
        witness = None
        if isinstance(wit, dict):
            biclique = (tuple(sorted(vertex_list(wit.get("s_side"), "s_side"))),
                        tuple(sorted(vertex_list(wit.get("t_side"), "t_side"))))
        elif wit is not None:
            witness = vertex_list(wit, "witness")
        return ExtractionCertificate(
            input_digest=obj["digest"], mode=obj["mode"], witness=witness,
            biclique=biclique, params=obj["params"], seed=obj["seed"],
            verified=obj["verified"], stats=obj["stats"],
            version=obj.get("version", CERT_VERSION))


def graph_digest(g: Graph) -> str:
    """The `edge_digest` of g: SHA-256 of f"{n}|{m}|" followed by "u,v;"
    for each edge u < v, in ascending order.  It is kept in g, so it is
    computed once per graph: `read_graph6` sets it while parsing, and any
    other graph gets it here on first use, from its masks."""
    if g._digest is None:
        ids = [str(v) for v in range(g.n)]
        rows = []
        for u, mask in enumerate(g.masks):
            higher = mask >> (u + 1)
            row = []
            while higher:
                low = higher & -higher
                row.append(ids[u + low.bit_length()])
                higher ^= low
            rows.append(row)
        g._digest = edge_digest(g.n, g.edge_count, rows)
    return g._digest


def _keeps_promise(cert: ExtractionCertificate) -> bool:
    """Whether the certificate's flags hold every claim of its mode."""
    return all(cert.verified[claim] for claim in _MODE_CLAIMS[cert.mode])


# the flags of a certificate that claims nothing; each one gets a copy
_NO_FLAGS = {"induced_c4free": False, "avg_degree_ok": False,
             "bipartite": False, "max_degree_bound_ok": False}


def _flags_and_stats(g: Graph, witness: tuple[int, ...], k: int,
                     delta: float) -> tuple[dict, dict]:
    """Recompute the verified flags and stats for a witness, a nonempty
    tuple of distinct vertex ids of g, on g's own masks.  The whole vertex
    set's C4-freeness is the one g keeps (`graph_c4_free`)."""
    nbr = g.masks
    whole = len(witness) == g.n
    alive = (1 << g.n) - 1 if whole else mask_of(witness)
    # only the witness's degrees: a small witness costs no pass over g
    deg = [(nbr[v] & alive).bit_count() for v in witness]
    avg = Fraction(sum(deg), len(witness))
    mx = max(deg)
    flags = {
        "induced_c4free": graph_c4_free(g) if whole else is_c4_free(nbr, alive),
        "avg_degree_ok": avg >= k,
        "bipartite": bipartition(nbr, alive) is not None,
        "max_degree_bound_ok": mx <= 1 or float(avg) >= mx ** (1 - delta),
    }
    stats = {"avg_degree": str(avg), "max_degree": mx, "size": len(witness)}
    return flags, stats


def _record(g: Graph, witness, biclique, k: int, delta: float) -> tuple[dict, dict]:
    """The verified flags and stats a certificate holds, by the one rule the
    writer and `verify_certificate` share: a biclique, which comes without
    a witness, or an empty or absent witness claims no subgraph (size 2s
    for a biclique, else 0); any other witness is recomputed on g."""
    if witness:
        return _flags_and_stats(g, witness, k, delta)
    size = 0 if biclique is None else len(biclique[0]) + len(biclique[1])
    return dict(_NO_FLAGS), {"avg_degree": "0", "max_degree": 0, "size": size}


def _certificate(g: Graph, digest: str, pdict: dict, seed: int, mode: str, stage: str,
                 witness=None, biclique=None,
                 best: tuple[Fraction, int] | None = None) -> ExtractionCertificate:
    """The one writer of every outcome: a subgraph witness, a biclique pair
    (s_side, t_side) or, with neither, a record that claims nothing.  A
    failure's best attempt, (average degree, size), only informs the
    diagnostics, so `verify_certificate` stays replayable."""
    if witness is not None:
        witness = tuple(sorted(witness))
    if biclique is not None:
        biclique = tuple(tuple(sorted(side)) for side in biclique)
        s_side, t_side = biclique
        if set(s_side) & set(t_side):
            raise InvariantError("biclique witness sides must be disjoint")
        if not all(g.has_edge(u, v) for u in s_side for v in t_side):
            raise InvariantError("biclique witness must be fully joined")
    flags, stats = _record(g, witness, biclique, pdict["k"], pdict["delta"])
    stats["stage"] = stage
    if best is not None:
        stats["best_avg_degree"] = str(best[0])
        stats["best_size"] = best[1]
    return ExtractionCertificate(
        input_digest=digest, mode=mode, witness=witness, biclique=biclique,
        params=pdict, seed=seed, verified=flags, stats=stats)


# -- the model case -----------------------------------------------------------

def model_lopsided(g: BipartiteGraph, s: int, k: int, seed: int,
                   params: PipelineParams | None = None) -> ExtractionCertificate:
    """Extraction on a left-regular bipartite graph via the kernel route.

    Every A-vertex must have the same degree r >= s.  Neighborhoods become
    an r-uniform hypergraph on B (at most s-1 repeats each; s identical
    neighborhoods are already a biclique).  A kernel with multiplicity
    t = max(k, s) either exposes an s-sized trace edge, which unwinds to a
    K_{s,s} witness, or its trace admits an induced pair (X, Y) of order k;
    then S = (least kernel edge) cap c^{-1}(X), A' = the kernel images
    adjacent to all of S, B' = c^{-1}(Y) cap N(A'), and g[A' u B'] is
    C4-free with average degree >= k.  The claim is verified mechanically;
    kernel seeds retry until verification passes or the budget ends.

    The neighbourhoods are read from the A-vertices' masks.  Whether any
    kernel can trace is decided before the family exists: D, the most
    distinct neighbourhoods one B-vertex lies in, is a popcount against the
    mask of their least owners, and it is held to `trace_bound(r, s, t)`
    as `kernel_can_trace` would hold the family.  The family and its
    least-owner map are built only when a kernel can trace.
    """
    if params is None:
        params = PipelineParams()
    under = g.underlying
    digest = graph_digest(under)
    pdict = params.as_dict(s, k)
    t = pdict["t"]
    a_list = g.a_list()
    b_list = g.b_list()
    if not a_list or not b_list:
        return _certificate(under, digest, pdict, seed, "failure", "model:empty-side")
    nbr = under.masks
    degrees = {nbr[a].bit_count() for a in a_list}
    if len(degrees) != 1:
        raise DomainError("every A-side vertex must have the same degree")
    r_deg = degrees.pop()
    if r_deg < s:
        raise DomainError(f"left degree {r_deg} must be at least s={s}")

    # each distinct neighbourhood, keyed by its mask, with its owners; a_list
    # ascends, so each owner list ascends and the entries come in order of
    # their least owner
    hood_owners: dict[int, list[int]] = {}
    for a in a_list:
        hood_owners.setdefault(nbr[a], []).append(a)
    for hood, owners in hood_owners.items():
        if len(owners) >= s:
            t_side = list(islice(bits(hood), s))
            return _certificate(under, digest, pdict, seed, "biclique_found",
                                "model:duplicates", biclique=(owners[:s], t_side))
    # a B-vertex lies in as many family edges as it has neighbours among
    # the least owners, so the most any vertex lies in, D, needs no family
    first = mask_of(owners[0] for owners in hood_owners.values())
    most = max((nbr[b] & first).bit_count() for b in b_list)
    can_trace = most >= trace_bound(r_deg, s, t)
    if can_trace:
        # the family on B's indices, its edges in sorted order, and phi, the
        # least owner of each edge
        b_index = {b: i for i, b in enumerate(b_list)}
        phi = {frozenset(b_index[w] for w in bits(hood)): owners[0]
               for hood, owners in hood_owners.items()}
        family = Hypergraph(len(b_list), sorted(phi, key=sorted))

    # a single neighborhood is an induced star: C4-free, average degree
    # 2r/(r+1) >= 4/3 >= 1, enough for k = 1; an attempt that ends without
    # a certificate returns it
    star = None
    if k == 1:
        a0 = a_list[0]
        star = _certificate(under, digest, pdict, seed, "case2_lopsided", "model:star",
                            witness=[a0, *under.neighbors(a0)])
        if not _keeps_promise(star):
            raise InvariantError("a neighbourhood and its centre must induce a star "
                                 "of average degree >= 1")
    # an attempt reads its kernel only through the trace, so when every
    # kernel's trace would be empty (`kernel_can_trace`) one attempt without
    # a kernel ends where each would: at the star, or on to the next,
    # leaving no best
    best: tuple[Fraction, int] | None = None
    for attempt in range(params.retries if can_trace else min(params.retries, 1)):
        trace_edges = []
        if can_trace:
            try:
                kernel = furedi_kernel(family, s=s, t=t, seed=mix_seed(seed, attempt),
                                       retries=max(10, params.retries))
            except KernelFailure:
                pass
            else:
                trace_edges = sorted(kernel.trace.edges, key=lambda e: (len(e), sorted(e)))
        if trace_edges:
            surviving = [family.edges[i] for i in kernel.surviving_edges]
            coloring = kernel.coloring
            f0 = min(surviving, key=sorted)
            s_edge = next((e for e in trace_edges if len(e) == s), None)
            if s_edge is not None:
                slice_b = frozenset(v for v in f0 if coloring[v] in s_edge)
                partners = [e for e in surviving if slice_b <= e]
                if len(partners) < s:
                    raise InvariantError("trace dichotomy promised >= t >= s partners")
                a_side = sorted(phi[e] for e in partners)[:s]
                t_side = [b_list[v] for v in slice_b]
                return _certificate(under, digest, pdict, seed, "biclique_found",
                                    "model:trace-biclique", biclique=(a_side, t_side))
            covered = sorted({c for e in trace_edges for c in e})
            cover_index = {c: i for i, c in enumerate(covered)}
            h_cov = Hypergraph(len(covered),
                               [frozenset(cover_index[c] for c in e) for e in trace_edges])
            pair = find_induced_pair(h_cov, k)
            if pair.order >= k:
                x_colors = {covered[i] for i in pair.a_set}
                y_colors = {covered[i] for i in pair.b_set}
                slice_b = frozenset(v for v in f0 if coloring[v] in x_colors)
                a_prime = {phi[e] for e in surviving if slice_b <= e}
                b_prime = {b_list[w] for e in surviving if slice_b <= e for w in e
                           if coloring[w] in y_colors}
                cert = _certificate(under, digest, pdict, seed, "case2_lopsided",
                                    "model:pair", witness=a_prime | b_prime)
                if _keeps_promise(cert):
                    _assert_model_degrees(under, a_prime, b_prime, t, k)
                    return cert
                avg = Fraction(cert.stats["avg_degree"])
                if best is None or avg > best[0]:
                    best = (avg, cert.stats["size"])
        if star is not None:
            return star
    return _certificate(under, digest, pdict, seed, "failure", "model:budget-exhausted",
                        best=best)


def _assert_model_degrees(g: Graph, a_set: set[int], b_set: set[int],
                          t: int, k: int) -> None:
    """Inside a verified pair-route witness: A'-degrees are exactly |Y| = k
    (`find_induced_pair` returns no order above k) and B'-degrees at least
    min(t, k)."""
    a_mask, b_mask = mask_of(a_set), mask_of(b_set)
    for a in a_set:
        if (g.masks[a] & b_mask).bit_count() != k:
            raise InvariantError(f"A'-vertex {a} does not have exactly |Y| = {k} "
                                 "neighbours in B'")
    for b in b_set:
        if (g.masks[b] & a_mask).bit_count() < min(t, k):
            raise InvariantError(f"B'-vertex {b} has fewer than {min(t, k)} "
                                 "neighbours in A'")


# -- the full driver ------------------------------------------------------------

def extract_induced_c4free(g: Graph, s: int, k: int,
                           params: PipelineParams | None = None,
                           seed: int = 0) -> ExtractionCertificate:
    """Full extraction driver with a verified certificate for every outcome.

    Route: (0) the whole graph's C4-freeness (`graph_c4_free`) comes
    first; a C4-free input holds no K_{s,s}, so only an input with a
    4-cycle runs the exhaustive biclique scan, and a hit ends in
    biclique_found (the extraction hypothesis fails); (1) only a C4-free
    input gets the whole vertex set's certificate, since a 4-cycle breaks
    the trivial mode's promise, and that certificate is returned when it
    keeps the promise (average degree >= k too), by the rule
    `verify_certificate` applies; (2)
    otherwise peel to the min-degree core at half the average degree,
    iterated to a fixed point; (3) split into the near-regular or the
    lopsided case and run short-cycle sparsification; a lopsided cut runs
    no attempt; (4) a failed pipeline falls back to the exhaustive
    optimum (oracle_fallback) unless the oracle refuses the input's size,
    else an honest failure certificate with diagnostics.
    Every witness is re-verified from scratch against the original graph.
    """
    if params is None:
        params = PipelineParams()
    pdict = params.as_dict(s, k)
    digest = graph_digest(g)
    if g.n == 0:
        return _certificate(g, digest, pdict, seed, "failure", "empty-input")

    # C4 = K_{2,2} sits in every K_{s,s}, so only a 4-cycle needs the scan;
    # and a graph with a 4-cycle can never keep the trivial mode's promise,
    # so only a C4-free one gets the whole vertex set's certificate
    if graph_c4_free(g):
        trivial = _certificate(g, digest, pdict, seed, "trivial_already_c4free",
                               "trivial", witness=range(g.n))
        if _keeps_promise(trivial):
            return trivial
    else:
        wit = contains_biclique(g, s)
        if wit is not None:
            return _certificate(g, digest, pdict, seed, "biclique_found", "scan",
                                biclique=wit)

    # peel to a fixed point and take the seed-free half of the split, which
    # every attempt shares, all in g's ids.  If the split raises, every
    # attempt would fail, and no seed changes a lopsided cut: either way no
    # attempt runs, and only the oracle or the failure record remain
    nbr = g.masks
    attempts = 0
    if params.attempts > 0:
        core = (1 << g.n) - 1
        while (peeled := half_degree_core(nbr, core)) != core:
            core = peeled
        try:
            prefix = split_prefix(nbr, core, pdict["split_delta"])
        except (DomainError, ExtractionFailure):
            pass
        else:
            attempts = 0 if prefix is None else params.attempts

    # the lowest-index success wins; failed sparsifier runs feed a running
    # best for the diagnostics, where a strict > keeps the lowest index
    best: tuple[Fraction, int] | None = None
    for i in range(attempts):
        base_seed = mix_seed(seed, 7000 + i)
        try:
            split = split_from_prefix(prefix, base_seed, retries=params.retries)
            keep = sparsify_short_cycles(nbr, split, s, mix_seed(base_seed, 1),
                                         target=k, retries=params.retries)
        except ExtractionFailure as exc:
            if exc.best:
                dense, size = exc.best, exc.best.bit_count()
                avg = Fraction(sum((nbr[v] & dense).bit_count() for v in bits(dense)), size)
                if best is None or avg > best[0]:
                    best = (avg, size)
            continue
        return _certificate(g, digest, pdict, seed, "case1_near_regular",
                            f"attempt{i}:near-regular", witness=bits(keep))

    try:
        witness, _ = best_c4free_induced(g, limit=params.oracle_limit)
    except OracleLimitError:
        pass
    else:
        return _certificate(g, digest, pdict, seed, "oracle_fallback", "oracle",
                            witness=witness)
    return _certificate(g, digest, pdict, seed, "failure", "routes-exhausted", best=best)


def verify_certificate(g: Graph, cert: ExtractionCertificate) -> bool:
    """Hold the certificate to what the writer gives its mode: a biclique
    pair for `biclique_found`, no witness for `failure`, else a vertex list.
    Check the ids (distinct, in range; a biclique's two sides of size s,
    fully joined), recompute the flags and stats through `_record`, then
    hold the mode to its promise: a trivial witness is the whole vertex
    set, and each subgraph mode claims the flags in `_MODE_CLAIMS`."""
    if graph_digest(g) != cert.input_digest:
        raise StaleCertificateError("certificate does not match this graph")
    if cert.mode not in MODES:
        return False
    if (cert.biclique is not None) != (cert.mode == "biclique_found"):
        return False
    if (cert.witness is None) != (cert.mode in ("biclique_found", "failure")):
        return False
    ids = cert.biclique[0] + cert.biclique[1] if cert.biclique else cert.witness or ()
    if len(set(ids)) != len(ids) or any(not 0 <= v < g.n for v in ids):
        return False
    if cert.biclique is not None:
        s_side, t_side = cert.biclique
        if not (len(s_side) == len(t_side) == cert.params["s"]
                and all(g.has_edge(u, v) for u in s_side for v in t_side)):
            return False
    flags, stats = _record(g, cert.witness, cert.biclique, cert.params["k"],
                           cert.params["delta"])
    if flags != cert.verified or any(stats[key] != cert.stats.get(key) for key in stats):
        return False
    if cert.mode == "trivial_already_c4free" and sorted(ids) != list(range(g.n)):
        return False
    return _keeps_promise(cert)
