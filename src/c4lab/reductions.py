"""Seeded Las Vegas cleaning procedures on graphs.

Each routine follows a fixed randomized recipe, mechanically verifies its
own postcondition, and retries with the next derived sub-seed until the
postcondition holds or the budget runs out.  Verified properties are exact
(integer or Fraction comparisons); probability parameters may be floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import DomainError, ExtractionFailure, InvariantError, NotBiregularError
from .graphs import (
    BipartiteGraph,
    Graph,
    average_degree,
    bits,
    degeneracy,
    greedy_coloring,
    induced,
    induced_bipartite,
    min_degree_core,
    mix_seed,
)
from .oracles import contains_biclique, find_c3, is_c4_free

DEFAULT_RETRIES = 100


def _bernoulli_subset(rng: random.Random, items, p: float) -> set:
    return {x for x in items if rng.random() < p}


# -- almost-biregular to bounded-ratio ---------------------------------------

def biregularity_factor(bg: BipartiteGraph) -> Fraction:
    """Smallest L such that the graph is L-almost-biregular (0 when edgeless)."""
    e = bg.edge_count
    if e == 0:
        return Fraction(0)
    g = bg.underlying
    la = max(Fraction(g.degree(a) * len(bg.side_a), e) for a in bg.side_a)
    lb = max(Fraction(g.degree(b) * len(bg.side_b), e) for b in bg.side_b)
    return max(la, lb)


def almost_biregular_reduce(gamma: BipartiteGraph, l_factor, seed: int,
                            retries: int = DEFAULT_RETRIES) -> BipartiteGraph:
    """Induced subgraph with d >= d(gamma)/4 and max degree <= 24 L d.

    Precondition: every A-degree is at most L e/|A| and every B-degree at
    most L e/|B| (rejected otherwise).  One attempt keeps each vertex of the
    larger side with probability |small|/|large| and keeps a small-side
    vertex when its sampled degree stays within 1 + 2p(deg - 1); the attempt
    succeeds when 4 e' > (e/|large|)(|kept|) holds exactly, which forces
    both postconditions.
    """
    l_factor = Fraction(l_factor)
    if l_factor <= 0:
        raise DomainError("l_factor must be positive")
    g = gamma.underlying
    e = gamma.edge_count
    if e == 0:
        return gamma
    a_side, b_side = gamma.a_list(), gamma.b_list()
    for v in a_side:
        if g.degree(v) * len(a_side) > l_factor * e:
            raise NotBiregularError(f"A-vertex {v} exceeds the L e/|A| bound")
    for v in b_side:
        if g.degree(v) * len(b_side) > l_factor * e:
            raise NotBiregularError(f"B-vertex {v} exceeds the L e/|B| bound")

    # orient so |small| <= |large|; the sampled side is the large one
    if len(a_side) <= len(b_side):
        small, large = a_side, b_side
    else:
        small, large = b_side, a_side
    p = Fraction(len(small), len(large))

    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        kept_large = {v for v in large if rng.random() < p}
        kept_small = []
        for v in small:
            sampled = sum(1 for w in g.neighbors(v) if w in kept_large)
            if sampled <= 1 + 2 * p * (g.degree(v) - 1):
                kept_small.append(v)
        keep = set(kept_small) | kept_large
        e_sub = sum(1 for u, w in g.edges() if u in keep and w in keep)
        # success test, exact: 4 e' |large| > e |kept|
        if 4 * e_sub * len(large) > e * len(keep):
            out = induced_bipartite(gamma, keep)
            dd = average_degree(out.underlying)
            assert dd >= average_degree(g) / 4
            assert out.underlying.max_degree() <= 24 * l_factor * dd
            return out
    raise ExtractionFailure(f"no verified sample in {retries} attempts")


# -- short-cycle sparsification ----------------------------------------------

def _short_cycle_vertices(g: Graph, inside: int) -> int:
    """Mask of the vertices of triangles or 4-cycles lying entirely in `inside`.

    For each u in `inside`, the masks of u's neighbours in `inside`, less u,
    are ORed into `once`; a bit that is hit a second time goes into `twice`.
    u lies on a 4-cycle iff two of its neighbours share another neighbour,
    that is iff `twice` is nonzero, and on a triangle iff a neighbour of a
    neighbour is itself a neighbour, that is iff `once` meets N(u).  That is
    O(m) big-integer operations over the edges inside the set.
    """
    nbr = {v: g.neighbor_mask(v) & inside for v in bits(inside)}
    bad = 0
    for u, nu in nbr.items():
        once = twice = 0
        for w in bits(nu):
            x = nbr[w] ^ (1 << u)
            twice |= once & x
            once |= x
        if twice or once & nu:
            bad |= 1 << u
    return bad


def sparsify_short_cycles(g: Graph, s: int, delta: float, seed: int,
                          target=None, retries: int = DEFAULT_RETRIES,
                          check_biclique: bool = True) -> frozenset[int]:
    """Vertex set U'' with g[U''] free of triangles and 4-cycles.

    Recipe per attempt, with d = max degree: sample U at vertex probability
    p = d^{1/5s - 1}; delete every vertex lying on a triangle or 4-cycle
    inside U, and every sampled vertex whose sampled degree reaches
    1 + 4 p deg.  The survivors are girth >= 5 by construction
    (unconditionally; the deletion removes every short cycle's vertices).

    target semantics: a number keeps retrying until d(g[U'']) >= target and
    raises ExtractionFailure (best attempt attached) when the budget ends;
    None runs the whole budget and returns the densest nonempty survivor
    set.  The recipe's own density goal would be d^{(1/5 - 2 delta)/5s}; at
    desk scale callers choose the target explicitly.
    """
    if s < 2:
        raise DomainError("s must be >= 2")
    if not 0 < delta < 0.1:
        raise DomainError("delta must lie in (0, 1/10)")
    if check_biclique and contains_biclique(g, s) is not None:
        raise DomainError("input contains a biclique; precondition violated")
    d = g.max_degree()
    p = 1.0 if d <= 1 else d ** (1 / (5 * s) - 1)
    best: tuple[Fraction, frozenset[int]] | None = None
    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        u = 0
        for v in range(g.n):
            if rng.random() < p:
                u |= 1 << v
        dropped = _short_cycle_vertices(g, u)
        for v in bits(u):
            if (g.neighbor_mask(v) & u).bit_count() >= 1 + 4 * p * g.degree(v):
                dropped |= 1 << v
        survivors = frozenset(bits(u & ~dropped))
        if not survivors:
            continue
        sub = induced(g, survivors)
        if not (find_c3(sub) is None and is_c4_free(sub)):
            raise InvariantError("sparsifier survivors contain a triangle or 4-cycle")
        dd = average_degree(sub)
        if target is not None and dd >= target:
            return survivors
        if best is None or dd > best[0]:
            best = (dd, survivors)
    if target is None and best is not None:
        return best[1]
    raise ExtractionFailure(
        f"no sample reached the target in {retries} attempts",
        best=None if best is None else best[1])


# -- extreme split -------------------------------------------------------------

@dataclass
class SplitOutcome:
    """Either a near-regular induced vertex set or a lopsided edge-rich cut."""

    kind: str  # "near_regular" | "lopsided"
    subgraph: frozenset[int] | None = None
    a_side: frozenset[int] | None = None
    b_side: frozenset[int] | None = None
    avg_degree: Fraction | None = None
    max_degree: int | None = None
    side_ratio: Fraction | None = None


def extreme_split(g: Graph, delta: float, seed: int, thresholds=None,
                  retries: int = DEFAULT_RETRIES,
                  reduce_retries: int = DEFAULT_RETRIES) -> SplitOutcome:
    """Find a near-regular induced subgraph or certify a lopsided cut.

    With d = d(g): vertices of degree above d 2^{d^delta} form R.  If the
    cut (R, V-R) carries at least nd/4 = e/2 edges (exact), the lopsided
    outcome (A = V-R, B = R) is returned.  Otherwise the recipe works inside
    the min-degree core of g - R: bucket degrees dyadically, keep the bucket
    with the most incident edges, quarter-sample it, drop vertices sampling
    more than half their neighbors, strip internal degrees >= 4d, re-bucket
    the outside by degree into the survivor set, strip again, and reduce the
    resulting almost-biregular bipartite graph (with its exact measured
    factor).  Success requires a nonempty vertex set whose induced average
    and maximum degree meet `thresholds` (a (min_avg, max_max) pair;
    None accepts any nonempty result with at least one edge).
    """
    if g.n == 0:
        raise DomainError("graph must be nonempty")
    d = average_degree(g)
    if d < 2:
        raise DomainError("average degree must be at least 2")
    r_thresh = float(d) * 2 ** (float(d) ** delta)
    r_set = frozenset(v for v in range(g.n) if g.degree(v) > r_thresh)
    rest = frozenset(range(g.n)) - r_set
    cut_edges = sum(1 for u, v in g.edges() if (u in r_set) != (v in r_set))
    if 2 * cut_edges >= g.edge_count and r_set:
        ratio = Fraction(len(rest), len(r_set))
        return SplitOutcome(kind="lopsided", a_side=rest, b_side=r_set,
                            avg_degree=d, side_ratio=ratio)

    base = induced(g, rest)
    base_map = sorted(rest)
    if base.n == 0 or base.edge_count == 0:
        raise ExtractionFailure("nothing remains outside the high-degree set")
    core = min_degree_core(base, max(1, ceil(average_degree(base) / 2)))
    if not core:
        raise ExtractionFailure("min-degree core is empty")
    core_map = [base_map[v] for v in sorted(core)]
    h = induced(base, core)

    df = float(d)
    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        outcome = _near_regular_attempt(h, df, rng, reduce_retries,
                                        mix_seed(seed, attempt))
        if outcome is None:
            continue
        local_set = outcome
        chosen = frozenset(core_map[v] for v in local_set)
        sub = induced(g, chosen)
        if sub.edge_count == 0:
            continue
        dd = average_degree(sub)
        mx = sub.max_degree()
        if thresholds is not None:
            min_avg, max_max = thresholds
            if dd < min_avg or mx > max_max:
                continue
        return SplitOutcome(kind="near_regular", subgraph=chosen,
                            avg_degree=dd, max_degree=mx,
                            side_ratio=None)
    raise ExtractionFailure(f"near-regular extraction failed in {retries} attempts")


def _near_regular_attempt(h: Graph, d: float, rng: random.Random,
                          reduce_retries: int, reduce_seed: int
                          ) -> frozenset[int] | None:
    """One randomized pass of the bucket/sample/strip recipe; h-local ids."""
    if h.edge_count == 0:
        return None
    # dyadic degree buckets around d; E_j = incident degree mass
    buckets: dict[int, list[int]] = {}
    for v in range(h.n):
        dv = h.degree(v)
        if dv == 0:
            continue
        j = math.floor(math.log2(dv / d)) if d > 0 else 0
        buckets.setdefault(j, []).append(v)
    if not buckets:
        return None
    best_j = max(buckets, key=lambda j: (sum(h.degree(v) for v in buckets[j]), -j))
    c_j = buckets[best_j]
    c_prime = {v for v in c_j if rng.random() < 0.25}
    c_second = {v for v in c_prime
                if sum(1 for w in h.neighbors(v) if w in c_prime) <= h.degree(v) / 2}
    if not c_second:
        return None
    r_prime = {v for v in c_second
               if sum(1 for w in h.neighbors(v) if w in c_second) >= 4 * d}
    c_third = c_second - r_prime
    if not c_third:
        return None
    # re-bucket everything outside by its degree into c_third
    outside: dict[int, list[int]] = {}
    for v in range(h.n):
        if v in c_third:
            continue
        dv = sum(1 for w in h.neighbors(v) if w in c_third)
        if dv == 0:
            continue
        j = math.floor(math.log2(dv / d)) if d > 0 else 0
        outside.setdefault(j, []).append(v)
    if not outside:
        return None

    def cut_mass(j: int) -> int:
        return sum(sum(1 for w in h.neighbors(v) if w in c_third)
                   for v in outside[j])

    best_k = max(outside, key=lambda j: (cut_mass(j), -j))
    c_k = outside[best_k]
    r_star = {v for v in c_k if sum(1 for w in h.neighbors(v) if w in c_k) >= 4 * d}
    c_kk = [v for v in c_k if v not in r_star]
    if not c_kk:
        return None
    a_side = sorted(c_third)
    b_side = sorted(c_kk)
    b_set = set(b_side)
    cross = [(u, v) for u in a_side for v in h.neighbors(u) if v in b_set]
    if not cross:
        return None
    keep = a_side + b_side
    index = {v: i for i, v in enumerate(keep)}
    gamma = BipartiteGraph(
        Graph(len(keep), [(index[u], index[v]) for u, v in cross]),
        [index[v] for v in a_side], [index[v] for v in b_side])
    l_actual = biregularity_factor(gamma)
    if l_actual <= 0:
        return None
    try:
        reduced = almost_biregular_reduce(gamma, l_actual, reduce_seed,
                                          retries=reduce_retries)
    except ExtractionFailure:
        return None
    # lift: reduced labels are indices into keep
    chosen = {keep[int(reduced.underlying.label(v))]
              for v in range(reduced.underlying.n)}
    return frozenset(chosen)


# -- bipartite regularization --------------------------------------------------

def bipartite_regularize(g: Graph, a0, b, s: int, r: int, seed: int,
                         density: int | None = None, ratio=1,
                         retries: int = DEFAULT_RETRIES
                         ) -> tuple[frozenset[int], frozenset[int]]:
    """Independent sides (A', B') with every A'-vertex seeing exactly r of B'.

    With d the degeneracy-based density parameter: A-vertices of degree
    >= 10d or < sqrt(d) are dropped; a proper-coloring class of the rest
    gives an independent A.  Edges inside B are oriented with out-degree
    <= d along the elimination order; a p = 1/d^2 sample B0' keeps only
    vertices with no sampled out-neighbor, which makes B' independent.
    Each a in A greedily fixes an independent r-subset I of its
    neighborhood (min-degree-first; a neighborhood with no such subset is a
    ParameterError) and joins A' when its sampled neighborhood is exactly I.
    Retries until A' is nonempty and |A'| >= ratio |B'|.

    The biclique-freeness of g is the caller's responsibility; it only
    affects success probability, never the verified postconditions.
    """
    from .errors import ParameterError

    a0 = frozenset(a0)
    b = frozenset(b)
    if a0 & b or a0 | b != frozenset(range(g.n)):
        raise DomainError("a0 and b must partition the vertex set")
    if r < 1:
        raise DomainError("r must be >= 1")
    d = degeneracy(g)[0] if density is None else density
    d = max(1, d)

    # degree filters: keep sqrt(d) <= deg < 10d (exact integer comparisons)
    a1 = [v for v in sorted(a0)
          if g.degree(v) < 10 * d and g.degree(v) * g.degree(v) >= d]
    if not a1:
        raise ExtractionFailure("no A-vertices survive the degree filters")
    sub_a1 = induced(g, a1)
    colors = greedy_coloring(sub_a1)
    by_color: dict[int, list[int]] = {}
    for i, v in enumerate(sorted(a1)):
        by_color.setdefault(colors[i], []).append(v)
    a_ind = max(by_color.values(), key=lambda vs: (len(vs), [-v for v in vs]))
    a_ind = sorted(a_ind)

    # orient g[b] acyclically with out-degree <= degeneracy
    b_sorted = sorted(b)
    sub_b = induced(g, b_sorted)
    _, elim = degeneracy(sub_b)
    elim_pos = {b_sorted[v]: i for i, v in enumerate(elim)}
    out_nbrs: dict[int, list[int]] = {v: [] for v in b_sorted}
    for u_local, v_local in sub_b.edges():
        u_orig, v_orig = b_sorted[u_local], b_sorted[v_local]
        if elim_pos[u_orig] < elim_pos[v_orig]:
            out_nbrs[u_orig].append(v_orig)
        else:
            out_nbrs[v_orig].append(u_orig)

    # greedy independent r-subset inside each A-neighborhood (min-degree-first)
    fixed_i: dict[int, frozenset[int]] = {}
    for a in a_ind:
        nbrs = sorted(w for w in g.neighbors(a) if w in b)
        nb_set = set(nbrs)
        order = sorted(nbrs, key=lambda w: (sum(1 for x in g.neighbors(w)
                                               if x in nb_set), w))
        chosen: list[int] = []
        blocked: set[int] = set()
        for w in order:
            if w not in blocked:
                chosen.append(w)
                blocked |= {w} | (set(g.neighbors(w)) & nb_set)
            if len(chosen) == r:
                break
        if len(chosen) < r:
            raise ParameterError(
                f"A-vertex {a} has no independent {r}-subset in its neighborhood")
        fixed_i[a] = frozenset(chosen)

    p = 1.0 / (d * d)
    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        b0 = _bernoulli_subset(rng, b_sorted, p)
        b_prime = {v for v in b0 if not any(w in b0 for w in out_nbrs[v])}
        a_prime = []
        for a in a_ind:
            sampled = {w for w in g.neighbors(a) if w in b0}
            if sampled == fixed_i[a] and fixed_i[a] <= b_prime:
                a_prime.append(a)
        if not a_prime:
            continue
        if len(a_prime) < ratio * len(b_prime):
            continue
        a_out = frozenset(a_prime)
        b_out = frozenset(b_prime)
        _assert_regularized(g, a_out, b_out, r)
        return a_out, b_out
    raise ExtractionFailure(f"no verified sample in {retries} attempts")


def _assert_regularized(g: Graph, a_out: frozenset[int], b_out: frozenset[int],
                        r: int) -> None:
    """Raise InvariantError unless A' and B' are independent and every
    A'-vertex has exactly r neighbours in B' (explicit, so it survives -O)."""
    a_mask = sum(1 << v for v in a_out)
    b_mask = sum(1 << v for v in b_out)
    for u in a_out:
        if g.neighbor_mask(u) & a_mask:
            raise InvariantError("A' must be independent")
        if (g.neighbor_mask(u) & b_mask).bit_count() != r:
            raise InvariantError("A'-degrees into B' must equal r")
    for u in b_out:
        if g.neighbor_mask(u) & b_mask:
            raise InvariantError("B' must be independent")
