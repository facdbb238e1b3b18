"""Closed-form extremal bounds and the random-graph lower-bound laboratory.

The closed forms are evaluated exactly (integer square roots, Fractions)
wherever a test compares against them; Monte-Carlo experiments report
estimates with standard errors and are checked against exact expectations.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

from .errors import DomainError
from .graphs import Graph, mix_seed, sample_subset
from .oracles import DEFAULT_ORACLE_LIMIT, closes_c4, is_c4_free, max_independent_set

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


def reiman_holds(n: int, e: int) -> bool:
    """Exact test of e <= n^{3/2}/2 + n/4 + 1 for a C4-free graph's counts.

    Rearranged to (4e - n - 4)^2 <= 4 n^3 so only integers are compared.
    """
    lhs = 4 * e - n - 4
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * n ** 3


def q_upper(big_k: int, p) -> float | Fraction:
    """(1 - p^4)^C(floor(K/2), 2): an upper bound on P(G(K,p) is C4-free).

    Fraction p gives an exact Fraction back; float p gives a float.
    K <= 3 has an empty exponent, so the bound is 1.
    """
    if big_k < 0:
        raise DomainError("K must be nonnegative")
    expo = comb(big_k // 2, 2)
    return (1 - p ** 4) ** expo


def ramsey_upper(a: int, b: int) -> int:
    """Erdos-Szekeres closed form: R(K_a, K_b) <= C(a+b-2, b-1)."""
    if a < 1 or b < 1:
        raise DomainError("a, b must be positive")
    return comb(a + b - 2, b - 1)


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
    claim: str = ""

    def as_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "s": self.s, "k": self.k,
            "q_biclique": self.q_biclique,
            "q_c4free_sets": self.q_c4free_sets,
            "q_sparse": self.q_sparse,
            "satisfied": self.satisfied,
            "min_avg_degree": self.min_avg_degree,
            "claim": self.claim,
        }


def check_lb_conditions(n: int, p: float, s: int, k: int) -> ConditionReport:
    """Evaluate max{n^2 p^s, n(1-p^4)^{(k^2-3k-2)/4}, exp(-C(n,2)p/4)} <= 1/2.

    When all three hold, some n-vertex K_{s,s}-free graph with average
    degree >= (n-1)p/2 has no C4-free induced subgraph of average degree k
    (existence-level guarantee of the construction).
    """
    if k < 2 or s < 2:
        raise DomainError("k and s must be >= 2")
    q1 = float(n) ** 2 * float(p) ** s
    q2 = float(n) * (1.0 - float(p) ** 4) ** ((k * k - 3 * k - 2) / 4.0)
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


def check_diagonal_conditions(k: int) -> ConditionReport:
    """Symbolic diagonal check at n = k^{k/20}, p = k^{-1/5}, s = k.

    n is astronomically large for interesting k, so each condition is
    evaluated in log space; the reported quantities are log-domain stand-ins
    clamped into floats (0 when the log is very negative).
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    log_n = (k / 20.0) * math.log(k)
    log_p = -math.log(k) / 5.0
    # condition 1: 2 log n + s log p
    log_q1 = 2 * log_n + k * log_p
    # condition 2: log n + ((k^2-3k-2)/4) log(1 - p^4)
    p4 = math.exp(4 * log_p)
    log_q2 = log_n + ((k * k - 3 * k - 2) / 4.0) * math.log1p(-p4)
    # condition 3: q3 <= 1/2  iff  C(n,2) p / 4 >= ln 2, compared in logs
    log_choose = 2 * log_n + math.log1p(-math.exp(-log_n)) - math.log(2)
    log_rate = log_choose + log_p - math.log(4)
    q3_ok = log_rate >= math.log(math.log(2))
    log_half = math.log(0.5)
    ok = log_q1 <= log_half and log_q2 <= log_half and q3_ok

    def clamp(lq: float) -> float:
        return math.exp(lq) if lq < 50 else math.inf

    report = ConditionReport(
        n=-1, p=math.exp(log_p), s=k, k=k,
        q_biclique=clamp(log_q1), q_c4free_sets=clamp(log_q2),
        q_sparse=0.0 if q3_ok else 1.0, satisfied=ok,
        min_avg_degree=math.inf if ok else 0.0)
    if ok:
        report.claim = f"diagonal parameters verify at k={k}"
    return report


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

    Graphs are loopless, so no common neighbour of `left` lies in `left`.
    """
    masks = g.masks
    total = 0
    for left in combinations(range(g.n), s):
        common = masks[left[0]]
        for v in left[1:]:
            common &= masks[v]
        c = common.bit_count()
        if c >= s:
            total += comb(c, s)
    return total // 2


def exact_expected_bicliques(n: int, p: float, s: int) -> float:
    """E[Y] = (1/2) C(n,s) C(n-s,s) p^{s^2} for unordered disjoint-pair copies."""
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
    if s < 2 or k < 2:
        raise DomainError("s and k must be >= 2")
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
    for t in range(trials):
        rng = random.Random(mix_seed(seed, t))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        g = Graph(n, edges)
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
        conditions=check_lb_conditions(n, p, s, k).as_dict(),
    )
    return report


def alpha_lb_check(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    """Assert alpha(g) >= n/(3 + sqrt(n)) for a C4-free graph; exact comparison.

    alpha >= n/(3+sqrt n)  iff  3 alpha + alpha sqrt(n) >= n
    iff  n - 3 alpha <= 0  or  alpha^2 n >= (n - 3 alpha)^2.
    """
    if not is_c4_free(g):
        raise DomainError("input must be C4-free")
    n = g.n
    if n == 0:
        return True
    alpha = len(max_independent_set(g, limit=limit))
    rem = n - 3 * alpha
    return rem <= 0 or alpha * alpha * n >= rem * rem
