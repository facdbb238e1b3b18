"""Reiman's edge bound and the random-graph lower-bound laboratory.

Reiman's bound is evaluated exactly (integer square roots, Fractions).
`check_lb_conditions` evaluates the construction's three conditions in
floats; Monte-Carlo experiments report estimates with standard errors and
are checked against exact expectations.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, isqrt

from .errors import DomainError
from .graphs import Graph, mix_seed, sample_gnp, sample_subset
from .oracles import closes_c4

# X is counted exactly while C(n, K) <= this budget, else sampled
_EXACT_X_SUBSET_BUDGET = 10 ** 6
# the uniform K-subsets drawn per trial when X is sampled
_X_SAMPLES = 2000


def reiman_max_edges(n: int) -> Fraction:
    """Certified upper bound U(n) >= n^{3/2}/2 + n/4 + 1 with U short of it by < 1.

    No floating point: n^{3/2} = sqrt(n^3) is bracketed by integer square
    roots, exact when n^3 is a perfect square.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    cube = n ** 3
    r = isqrt(cube)
    half_root = Fraction(r, 2) if r * r == cube else Fraction(r + 1, 2)
    return half_root + Fraction(n, 4) + 1


def _check_domain(p: float, s: int, k: int) -> None:
    # a p outside [0, 1] (or nan) makes the conditions complex or negative
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0,1]")
    if s < 2 or k < 2:
        raise DomainError("s and k must be >= 2")


@dataclass
class ConditionReport:
    """The three quantities gating the random lower-bound construction."""

    n: int
    p: float
    s: int
    k: int
    q_biclique: float      # n^2 p^s
    q_c4free_sets: float   # n (1-p^4)^{(k^2-3k-2)/4}
    q_sparse: float        # exp(-C(n,2) p / 4)
    satisfied: bool
    min_avg_degree: float  # guaranteed (n-1)p/2 when satisfied
    claim: str


def check_lb_conditions(n: int, p: float, s: int, k: int) -> ConditionReport:
    """Evaluate max{n^2 p^s, n(1-p^4)^{(k^2-3k-2)/4}, exp(-C(n,2)p/4)} <= 1/2.

    When all three hold, some n-vertex K_{s,s}-free graph with average
    degree >= (n-1)p/2 has no C4-free induced subgraph of average degree k
    (existence-level guarantee of the construction).
    """
    _check_domain(p, s, k)
    q1 = float(n) ** 2 * float(p) ** s
    base, power = 1.0 - float(p) ** 4, (k * k - 3 * k - 2) / 4.0
    # at p = 1 with k in {2, 3} the power is negative and the term diverges
    q2 = math.inf if base == 0.0 and power < 0 else float(n) * base ** power
    q3 = math.exp(-comb(n, 2) * float(p) / 4.0)
    ok = max(q1, q2, q3) <= 0.5
    claim = ""
    if ok:
        claim = (f"an {n}-vertex K_{{{s},{s}}}-free graph with average degree "
                 f">= {(n - 1) * p / 2:.4g} exists in which every C4-free "
                 f"induced subgraph has average degree < {k}")
    return ConditionReport(n=n, p=p, s=s, k=k, q_biclique=q1, q_c4free_sets=q2,
                           q_sparse=q3, satisfied=ok,
                           min_avg_degree=(n - 1) * p / 2, claim=claim)


@dataclass
class ExperimentReport:
    """Monte-Carlo summary over `trials` samples of G(n,p)."""

    n: int
    p: float
    s: int
    k: int
    trials: int
    seed: int
    p_x_zero: float | None       # X = C4-free K-subsets, K = k^2 - 3k
    p_y_zero: float              # Y = K_{s,s} pairs
    p_edges_ok: float            # e(G) >= C(n,2) p / 2
    mean_edges: float
    mean_y: float
    stderr_y: float
    exact_ey: float
    stderr_p_x_zero: float | None
    stderr_p_y_zero: float
    trivial_k: bool = False      # k in {2,3}: K-subset count is degenerate
    x_exact: bool = True
    conditions: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "s": self.s, "k": self.k,
            "trials": self.trials, "seed": self.seed,
            "estimates": {
                "p_x_zero": self.p_x_zero,
                "p_y_zero": self.p_y_zero,
                "p_edges_ok": self.p_edges_ok,
                "mean_edges": self.mean_edges,
                "mean_y": self.mean_y,
            },
            "stderr": {
                "p_x_zero": self.stderr_p_x_zero,
                "p_y_zero": self.stderr_p_y_zero,
                "mean_y": self.stderr_y,
            },
            "exact_ey": self.exact_ey,
            "trivial_k": self.trivial_k,
            "x_exact": self.x_exact,
            "conditions": self.conditions,
        }

    def csv_row(self) -> str:
        return ",".join(str(x) for x in (
            self.n, self.p, self.s, self.k, self.trials, self.seed,
            self.p_x_zero, self.p_y_zero, self.p_edges_ok,
            self.mean_edges, self.mean_y, self.stderr_y, self.exact_ey))

    CSV_HEADER = ("n,p,s,k,trials,seed,p_x_zero,p_y_zero,p_edges_ok,"
                  "mean_edges,mean_y,stderr_y,exact_ey")


def _c4free_subsets(g: Graph, size: int) -> Iterator[int]:
    """Masks of the `size`-subsets inducing a C4-free subgraph, in
    lexicographic order.

    A prefix DFS in increasing vertex order that extends only C4-free
    prefixes, one `closes_c4` test per extension; it runs only as far as
    its consumer reads.
    """
    masks = g.masks

    def extend(start: int, smask: int, need: int) -> Iterator[int]:
        if not need:
            yield smask
            return
        for v in range(start, g.n - need + 1):
            if not closes_c4(masks, v, smask):
                yield from extend(v + 1, smask | 1 << v, need - 1)

    return extend(0, 0, size)


def _has_c4free_subset(g: Graph, size: int) -> bool:
    """Whether some `size`-subset induces a C4-free subgraph; the search
    stops at the first one."""
    return next(_c4free_subsets(g, size), None) is not None


def _count_biclique_pairs(g: Graph, s: int) -> int:
    """Count unordered pairs {S,T} of disjoint s-sets with all s^2 cross edges.

    An s-set S adds C(c, s), where c is the size of its common
    neighbourhood; graphs are loopless, so no common neighbour lies in S.
    S grows in ascending vertex order carrying the running AND of its
    masks, and a prefix whose AND has fewer than s bits is dropped, since
    no extension of it counts.
    """
    masks = g.masks
    ways = [comb(c, s) for c in range(g.n + 1)]
    prefixes = [(-1, 0)]   # (AND of the prefix's masks, its next vertex)
    for _ in range(s - 1):
        prefixes = [(common & masks[v], v + 1) for common, start in prefixes
                    for v in range(start, g.n) if (common & masks[v]).bit_count() >= s]
    total = 0
    for common, start in prefixes:
        for mask in masks[start:]:
            total += ways[(common & mask).bit_count()]
    return total // 2


def exact_expected_bicliques(n: int, p: float, s: int) -> float:
    """E[Y] = (1/2) C(n,s) C(n-s,s) p^{s^2} for unordered disjoint-pair copies."""
    if n < 2 * s:
        return 0.0  # no two disjoint s-sets
    return 0.5 * comb(n, s) * comb(n - s, s) * float(p) ** (s * s)


def _sample_c4free_subsets(g: Graph, size: int, samples: int,
                           rng: random.Random) -> int:
    """How many of `samples` uniform size-subsets induce a C4-free subgraph."""
    masks = g.masks
    hits = 0
    for _ in range(samples):
        smask = 0
        for v in sample_subset(rng, range(g.n), size):
            if closes_c4(masks, v, smask):
                break
            smask |= 1 << v
        else:
            hits += 1
    return hits


def lb_experiment(n: int, p: float, s: int, k: int, trials: int, seed: int
                  ) -> ExperimentReport:
    """Sample `trials` graphs from G(n,p) and estimate the construction's events.

    X counts C4-free K-subsets with K = k^2 - 3k: exact while C(n, K) fits
    the subset budget of 10^6 (so K > n, with no K-subsets at all, is
    exact), otherwise estimated from 2000 uniform K-subsets per trial and
    flagged (x_exact=False; the zero-count probability is then only a
    proxy).  Y counts K_{s,s} pairs, compared against the exact expectation.
    k in {2,3} short-circuits the X statistic (K <= 0 is degenerate).
    """
    _check_domain(p, s, k)
    if trials < 1:
        raise DomainError("trials must be positive")
    big_k = k * k - 3 * k
    trivial_k = big_k <= 0
    x_exact = trivial_k or comb(n, big_k) <= _EXACT_X_SUBSET_BUDGET

    x_zero = 0
    y_zero = 0
    edges_ok = 0
    edge_sum = 0
    y_sum = 0.0
    y_sq_sum = 0.0
    # float arithmetic is exact at the degenerate p in {0,1}
    half_expected = comb(n, 2) * p / 2
    # reseeding one generator gives the stream of a fresh Random(sub-seed)
    rng = random.Random()
    for t in range(trials):
        rng.seed(mix_seed(seed, t))
        g = sample_gnp(rng, n, p)
        edge_sum += g.edge_count
        if g.edge_count >= half_expected:
            edges_ok += 1
        y = _count_biclique_pairs(g, s)
        y_sum += y
        y_sq_sum += y * y
        if y == 0:
            y_zero += 1
        if not trivial_k:
            if x_exact:
                if not _has_c4free_subset(g, big_k):
                    x_zero += 1
            elif _sample_c4free_subsets(g, big_k, _X_SAMPLES, rng) == 0:
                x_zero += 1

    mean_y = y_sum / trials
    var_y = max(0.0, y_sq_sum / trials - mean_y * mean_y)
    stderr_y = (var_y / trials) ** 0.5
    p_y_zero = y_zero / trials
    p_x_zero = None if trivial_k else x_zero / trials

    def bern_se(phat: float) -> float:
        return (phat * (1 - phat) / trials) ** 0.5

    report = ExperimentReport(
        n=n, p=p, s=s, k=k, trials=trials, seed=seed,
        p_x_zero=p_x_zero, p_y_zero=p_y_zero,
        p_edges_ok=edges_ok / trials,
        mean_edges=edge_sum / trials,
        mean_y=mean_y, stderr_y=stderr_y,
        exact_ey=exact_expected_bicliques(n, p, s),
        stderr_p_x_zero=None if trivial_k else bern_se(x_zero / trials),
        stderr_p_y_zero=bern_se(p_y_zero),
        trivial_k=trivial_k,
        x_exact=x_exact,
        conditions=asdict(check_lb_conditions(n, p, s, k)),
    )
    return report

