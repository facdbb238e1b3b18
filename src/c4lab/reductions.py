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

from .errors import DomainError, ExtractionFailure, InvariantError
from .graphs import (
    Graph,
    bits,
    degeneracy,
    degrees_within,
    greedy_coloring,
    half_degree_core,
    induced,
    mask_of,
    mix_seed,
)

DEFAULT_RETRIES = 100


def _bernoulli_subset(rng: random.Random, items, p: float) -> set:
    return {x for x in items if rng.random() < p}


# -- almost-biregular to bounded-ratio ---------------------------------------

def biregularity_factor(nbr, a_mask: int, b_mask: int) -> Fraction:
    """Smallest L such that gamma, the bipartite graph of the edges between
    the disjoint vertex sets A and B under the neighbour masks `nbr`, is
    L-almost-biregular (0 when edgeless)."""
    a_deg = [(nbr[v] & b_mask).bit_count() for v in bits(a_mask)]
    e = sum(a_deg)
    if e == 0:
        return Fraction(0)
    b_most = max((nbr[v] & a_mask).bit_count() for v in bits(b_mask))
    return max(Fraction(max(a_deg) * len(a_deg), e),
               Fraction(b_most * b_mask.bit_count(), e))


def _float_above(q: Fraction) -> float:
    """Least float not below q, so that `x < q` iff `x < _float_above(q)` for
    every float x: no float lies strictly between q and the returned value."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _kept_degrees(nbr, kept_small: int, kept_large: int) -> list[int]:
    """Every kept vertex's degree in gamma's induced subgraph on the kept
    set: its neighbours on the other side's kept mask."""
    return ([(nbr[v] & kept_small).bit_count() for v in bits(kept_large)]
            + [(nbr[v] & kept_large).bit_count() for v in bits(kept_small)])


def almost_biregular_reduce(nbr, a_mask: int, b_mask: int, seed: int) -> int:
    """The vertex mask of an induced subgraph of gamma with d >= d(gamma)/4
    and max degree <= 24 L d.

    gamma and L are as in `biregularity_factor`, so every A-degree is at
    most L e/|A| and every B-degree at most L e/|B|; edges inside a side
    are not gamma's, and an edgeless gamma keeps every vertex.
    One attempt keeps each vertex of the larger side with probability
    |small|/|large| and keeps a small-side vertex when its sampled degree
    stays within 1 + 2p(deg - 1); the attempt succeeds when
    4 e' > (e/|large|)(|kept|) holds exactly, which forces both
    postconditions.  Both are still checked from the kept set's recounted
    degrees, and raise InvariantError.

    The kept large side is a mask, each small vertex's sampled degree is
    one popcount, and since every edge joins the two sides e' is the sum
    of the kept small vertices' sampled degrees.  No graph is built.
    """
    if a_mask & b_mask:
        raise DomainError("the two sides must be disjoint")
    # orient so |small| <= |large|; the sampled side is the large one
    if a_mask.bit_count() <= b_mask.bit_count():
        small, large = a_mask, b_mask
    else:
        small, large = b_mask, a_mask
    n_small, n_large = small.bit_count(), large.bit_count()
    degree = [(v, (nbr[v] & large).bit_count()) for v in bits(small)]
    e = sum(dv for _, dv in degree)
    if e == 0:
        return a_mask | b_mask
    p = _float_above(Fraction(n_small, n_large))
    large_list = list(bits(large))
    # sampled <= 1 + 2 p (deg - 1) with p = |small|/|large|, in integers
    cap = [(v, (n_large + 2 * n_small * (dv - 1)) // n_large) for v, dv in degree]

    for attempt in range(DEFAULT_RETRIES):
        rand = random.Random(mix_seed(seed, attempt)).random
        kept_large = 0
        for v in large_list:
            if rand() < p:
                kept_large |= 1 << v
        kept_small = []
        e_sub = 0
        for v, most in cap:
            sampled = (nbr[v] & kept_large).bit_count()
            if sampled <= most:
                kept_small.append(v)
                e_sub += sampled
        kept = len(kept_small) + kept_large.bit_count()
        # success test, exact: 4 e' |large| > e |kept|
        if 4 * e_sub * n_large > e * kept:
            small_mask = mask_of(kept_small)
            degrees = _kept_degrees(nbr, small_mask, kept_large)
            dd = Fraction(sum(degrees), len(degrees))
            if 4 * dd < Fraction(2 * e, n_small + n_large):
                raise InvariantError("reduced average degree fell below d/4")
            if max(degrees) > 24 * biregularity_factor(nbr, a_mask, b_mask) * dd:
                raise InvariantError("reduced max degree exceeds 24 L d")
            return small_mask | kept_large
    raise ExtractionFailure(f"no verified sample in {DEFAULT_RETRIES} attempts")


# -- short-cycle sparsification ----------------------------------------------

def _survivors(nbr, u: int, sampled: list[int], cap: list[int]) -> list[int]:
    """The members of `sampled` (ascending, with mask `u`) that the sparsifier
    keeps, ascending, in one pass.

    Each v is measured against all of U, never against a half-pruned set:
    with nu = N(v) & U, v is dropped when |nu| reaches `cap[v]`, or when it
    lies on a triangle or 4-cycle inside U.  For the latter, the masks of v's
    neighbours in U, less v, are ORed into `once`; a bit that is hit a second
    time goes into `twice`.  v lies on a 4-cycle iff two of its neighbours
    share another neighbour, that is iff `twice` is nonzero, and on a
    triangle iff a neighbour of a neighbour is itself a neighbour, that is
    iff `once` meets nu.  That is O(m) big-integer operations over the edges
    inside U.
    """
    live = []
    for v in sampled:
        nu = nbr[v] & u
        if nu.bit_count() >= cap[v]:
            continue
        if nu & (nu - 1):  # a cycle through v needs two neighbours in U
            rest = u ^ (1 << v)
            once = twice = 0
            for w in bits(nu):
                x = nbr[w] & rest
                twice |= once & x
                once |= x
            if twice or once & nu:
                continue
        live.append(v)
    return live


def _has_short_cycle(nbr, members: list[int]) -> bool:
    """Whether the ascending vertex list `members` spans a triangle or a
    4-cycle.

    An independent check of `_survivors`' work, by `is_c4_free`'s one loop
    with a triangle test added: with u the least vertex of the cycle, every
    other vertex lies above u.  The members are a list, taken from the top
    down (`is_c4_free` takes a mask from the bottom up), so `above` holds
    exactly the members above u.  Each neighbour w of u in `above` reaches
    the masks `reach` of its neighbours in `above`; one meeting N(u) closes
    a triangle u-w-x, and one meeting an earlier neighbour's closes a
    4-cycle u-w-x-w'.  A u with fewer than two neighbours above it is the
    least vertex of no cycle.
    """
    above = 0
    for u in reversed(members):
        nu = nbr[u] & above
        if nu & (nu - 1):
            seen = 0
            for w in bits(nu):
                reach = nbr[w] & above
                if reach & (seen | nu):
                    return True
                seen |= reach
        above |= 1 << u
    return False


def sparsify_short_cycles(nbr, alive: int, s: int, seed: int, target,
                          retries: int = DEFAULT_RETRIES) -> int:
    """The mask of a vertex set U'' inside the vertex mask `alive` whose
    induced subgraph, under the neighbour masks `nbr`, is free of triangles
    and 4-cycles and has average degree >= target.

    Recipe per attempt on the subgraph `alive` induces, with d its max
    degree: sample U at vertex probability p = d^{1/5s - 1}; delete every
    vertex lying on a triangle or 4-cycle inside U, and every sampled vertex
    whose sampled degree reaches 1 + 4 p deg.  The survivors are girth >= 5 by
    construction (unconditionally; the deletion removes every short
    cycle's vertices), and every nonempty survivor set is checked again all
    the same.

    Attempts run until one reaches the target; when the budget ends,
    ExtractionFailure carries the densest nonempty survivor set's mask as
    `best`.
    The recipe's own density goal would be d^{(1/5 - 2 delta)/5s}, with the
    paper's delta recorded as a certificate's `sparsify_delta`; p does not
    depend on it, and at desk scale the caller chooses the target.  The
    paper's K_{s,s}-free hypothesis bears only on the density reached, not
    on the girth guarantee, so the input is not scanned for a biclique.

    Every attempt draws over the members of `alive` ascending and makes
    one pass over the sampled ones (`_survivors`); the check and 2e(U'')
    then go over the ascending survivor list.  No graph is built: 2e(U'')
    is a sum of popcounts, and densities compare as integer cross-products.
    """
    if s < 2:
        raise DomainError("s must be >= 2")
    members = list(bits(alive))
    degree = [(nbr[v] & alive).bit_count() for v in members]
    d = max(degree, default=0)
    p = 1.0 if d <= 1 else d ** (1 / (5 * s) - 1)
    # an integer degree reaches 1 + 4 p deg iff it reaches the ceiling
    cap = {v: math.ceil(1 + 4 * p * dv) for v, dv in zip(members, degree)}
    # d(U'') >= target  iff  2e * den >= num * |U''|
    goal = Fraction(target)
    num, den = goal.numerator, goal.denominator
    # the densest survivor set so far, as (2e, size, mask)
    best: tuple[int, int, int] | None = None
    # reseeding one generator gives the stream of a fresh Random(sub-seed)
    rng = random.Random()
    rand = rng.random
    for attempt in range(retries):
        rng.seed(mix_seed(seed, attempt))
        sampled = [v for v in members if rand() < p]
        u = mask_of(sampled)
        live = _survivors(nbr, u, sampled, cap)
        if not live:
            continue
        if _has_short_cycle(nbr, live):
            raise InvariantError("sparsifier survivors contain a triangle or 4-cycle")
        # most attempts drop no vertex, and then U'' is U
        size = len(live)
        kept = u if size == len(sampled) else mask_of(live)
        two_e = 0
        for v in live:
            two_e += (nbr[v] & kept).bit_count()
        if two_e * den >= num * size:
            return kept
        if best is None or two_e * best[1] > best[0] * size:
            best = (two_e, size, kept)
    raise ExtractionFailure(
        f"no sample reached the target in {retries} attempts",
        best=None if best is None else best[2])


# -- extreme split -------------------------------------------------------------

@dataclass(frozen=True)
class SplitPrefix:
    """The seed-free half of `extreme_split` on one vertex set of a graph,
    when its cut is not lopsided.

    What every near-regular attempt starts from, all in the graph's own
    ids: d as a float, every neighbour mask cut down to the min-degree core
    h of the set less R, and the mask of h's dyadic degree bucket with the
    most incident edges.  It is read only, so one prefix serves any number
    of seeds.
    """

    d: float
    nbr: tuple[int, ...]
    bucket: int


def _heaviest_dyadic_bucket(degrees, d: float) -> int:
    """Bucket the (vertex, degree >= 1) pairs by floor(log2(degree / d)) and
    return the mask of the bucket with the greatest degree mass; ties go to
    the lower bucket, and no pairs give 0."""
    buckets: dict[int, int] = {}
    mass: dict[int, int] = {}
    for v, dv in degrees:
        j = math.floor(math.log2(dv / d))
        buckets[j] = buckets.get(j, 0) | 1 << v
        mass[j] = mass.get(j, 0) + dv
    if not buckets:
        return 0
    return buckets[max(buckets, key=lambda j: (mass[j], -j))]


def split_prefix(nbr, alive: int, delta: float) -> SplitPrefix | None:
    """Everything `extreme_split` computes before its first random draw, on
    the subgraph that the vertex mask `alive` induces under the neighbour
    masks `nbr`.

    With d its average degree: vertices of degree above d 2^{d^delta} form
    R.  If the cut (R, rest) carries at least nd/4 = e/2 edges (exact), the
    cut is lopsided, no seed changes that, and the prefix is None.
    Otherwise it holds the min-degree core h of the rest and h's heaviest
    dyadic degree bucket.  Raises DomainError on an empty set or d < 2, and
    ExtractionFailure when the rest spans no edge.
    """
    n = alive.bit_count()
    if n == 0:
        raise DomainError("graph must be nonempty")
    deg, two_e = degrees_within(nbr, alive)
    if two_e < 2 * n:
        raise DomainError("average degree must be at least 2")
    d = two_e / n  # correctly rounded, as float(Fraction(two_e, n)) is
    r_thresh = d * 2 ** (d ** delta)
    r_mask = mask_of(v for v, dv in enumerate(deg) if dv > r_thresh) & alive
    rest = alive & ~r_mask
    if r_mask:
        # each cut edge is counted once, from its end in R
        cut_edges = sum((nbr[v] & rest).bit_count() for v in bits(r_mask))
        if 4 * cut_edges >= two_e:
            return None

    core = half_degree_core(nbr, rest)
    core_deg, core_two_e = degrees_within(nbr, core)
    # a rest with an edge keeps a core of minimum degree >= 1; an edgeless
    # one comes back whole
    if core_two_e == 0:
        raise ExtractionFailure("nothing remains outside the high-degree set")
    bucket = _heaviest_dyadic_bucket(
        ((v, dv) for v, dv in enumerate(core_deg) if core >> v & 1), d)
    return SplitPrefix(d, tuple(mask & core for mask in nbr), bucket)


def split_from_prefix(prefix: SplitPrefix, seed: int,
                      retries: int = DEFAULT_RETRIES) -> int:
    """The seeded half of `extreme_split`: its retries, from a shared prefix;
    the near-regular vertex mask."""
    for attempt in range(retries):
        sub_seed = mix_seed(seed, attempt)
        kept = _near_regular_attempt(prefix, random.Random(sub_seed), sub_seed)
        if kept:
            return kept
    raise ExtractionFailure(f"near-regular extraction failed in {retries} attempts")


def extreme_split(g: Graph, delta: float, seed: int,
                  retries: int = DEFAULT_RETRIES) -> int | None:
    """Find a near-regular induced subgraph's vertex mask, or None for a
    lopsided cut.

    With d = d(g): vertices of degree above d 2^{d^delta} form R.  If the
    cut (R, V-R) carries at least nd/4 = e/2 edges (exact), the cut is
    lopsided.  Otherwise the recipe works inside the min-degree
    core of g - R: bucket degrees dyadically, keep the bucket
    with the most incident edges, quarter-sample it, drop vertices sampling
    more than half their neighbors, strip internal degrees >= 4d, re-bucket
    the outside by degree into the survivor set, strip again, and reduce the
    resulting almost-biregular bipartite graph (with its exact measured
    factor).  The first attempt whose reduction succeeds gives the vertex
    set; it spans an edge, since the reduction's success test forces e' > 0.

    Callers that split one graph under many seeds compute `split_prefix`
    once and call `split_from_prefix` per seed; this is the two in one.
    """
    prefix = split_prefix(g.masks, (1 << g.n) - 1, delta)
    return None if prefix is None else split_from_prefix(prefix, seed, retries)


def _near_regular_attempt(prefix: SplitPrefix, rng: random.Random,
                          reduce_seed: int) -> int:
    """One randomized pass of the bucket/sample/strip recipe; the kept
    vertex mask, or 0 for a failed pass.  Every neighbour count is a
    popcount against a mask, and the reduction reads h's masks through the
    two sides' masks."""
    nbr, d = prefix.nbr, prefix.d
    c_prime = mask_of(v for v in bits(prefix.bucket) if rng.random() < 0.25)
    # keep the sampled vertices that sample at most half their neighbours,
    # then drop those with 4d or more of the kept ones
    c_second = mask_of(v for v in bits(c_prime)
                       if 2 * (nbr[v] & c_prime).bit_count() <= nbr[v].bit_count())
    c_third = mask_of(v for v in bits(c_second)
                      if (nbr[v] & c_second).bit_count() < 4 * d)
    if not c_third:
        return 0
    # re-bucket everything outside by its degree into c_third
    reach = 0
    for v in bits(c_third):
        reach |= nbr[v]
    k_mask = _heaviest_dyadic_bucket(
        ((v, (nbr[v] & c_third).bit_count()) for v in bits(reach & ~c_third)), d)
    b_mask = mask_of(v for v in bits(k_mask) if (nbr[v] & k_mask).bit_count() < 4 * d)
    if not b_mask:
        return 0
    # every vertex of the bucket has a neighbour in c_third, so gamma has an edge
    try:
        return almost_biregular_reduce(nbr, c_third, b_mask, reduce_seed)
    except ExtractionFailure:
        return 0


# -- bipartite regularization --------------------------------------------------

def bipartite_regularize(g: Graph, a0, b, r: int, seed: int,
                         retries: int = DEFAULT_RETRIES
                         ) -> tuple[frozenset[int], frozenset[int]]:
    """Independent sides (A', B') with every A'-vertex seeing exactly r of B'.

    With d the degeneracy of g (at least 1): A-vertices of degree
    >= 10d or < sqrt(d) are dropped; a proper-coloring class of the rest
    gives an independent A.  Edges inside B are oriented with out-degree
    <= d along the elimination order; a p = 1/d^2 sample B0' keeps only
    vertices with no sampled out-neighbor, which makes B' independent.
    Each a in A greedily fixes an independent r-subset I of its
    neighborhood (min-degree-first; a neighborhood with no such subset is a
    DomainError) and joins A' when its sampled neighborhood is exactly I.
    Retries until A' is nonempty and |A'| >= |B'|.

    The biclique-freeness of g is the caller's responsibility; it only
    affects success probability, never the verified postconditions.
    """
    a0 = frozenset(a0)
    b = frozenset(b)
    if a0 & b or a0 | b != frozenset(range(g.n)):
        raise DomainError("a0 and b must partition the vertex set")
    if r < 1:
        raise DomainError("r must be >= 1")
    d = max(1, degeneracy(g)[0])

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
            raise DomainError(
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
        if not a_prime or len(a_prime) < len(b_prime):
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
    a_mask = mask_of(a_out)
    b_mask = mask_of(b_out)
    for u in a_out:
        if g.masks[u] & a_mask:
            raise InvariantError("A' must be independent")
        if (g.masks[u] & b_mask).bit_count() != r:
            raise InvariantError("A'-degrees into B' must equal r")
    for u in b_out:
        if g.masks[u] & b_mask:
            raise InvariantError("B' must be independent")
