"""Exhaustive detectors and exact small-instance baselines.

Everything here is deterministic: witnesses come out of fixed enumeration
orders, optima break ties by (smaller set, lexicographic), so golden-file
tests are stable.  These oracles are the ground truth that every randomized
routine's output is checked against.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, OracleLimitError
from .graphs import Graph, bits

DEFAULT_ORACLE_LIMIT = 22


def _above(k: int) -> int:
    """Bitmask of all vertices strictly greater than k."""
    return -1 << (k + 1)


def find_c3(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically least triangle (a,b,c) with a<b<c, or None."""
    for a in range(g.n):
        for b in bits(g.neighbor_mask(a) & _above(a)):
            common = g.neighbor_mask(a) & g.neighbor_mask(b) & _above(b)
            for c in bits(common):
                return (a, b, c)
    return None


def find_c4(g: Graph) -> tuple[int, int, int, int] | None:
    """Lexicographically least 4-cycle (a,b,c,d), edges ab,bc,cd,da, or None.

    A 4-cycle as a subgraph; chords are irrelevant.  Candidate tuples are
    enumerated in lexicographic order and the first hit is returned, so the
    witness is the globally least tuple representation of any 4-cycle.
    It is kept for that witness: on a C4-free graph it has no early exit,
    so checks that need only the boolean use the O(m) `is_c4_free`.
    """
    for a in range(g.n):
        mask_a = g.neighbor_mask(a)
        for b in bits(mask_a):
            for c in bits(g.neighbor_mask(b) & ~(1 << a)):
                dmask = g.neighbor_mask(c) & mask_a
                dmask &= ~((1 << a) | (1 << b) | (1 << c))
                for d in bits(dmask):
                    return (a, b, c, d)
    return None


def is_c4_free(g: Graph) -> bool:
    """True iff g has no 4-cycle (as a subgraph), in O(m) big-int operations.

    A 4-cycle u-w-x-w' is a vertex x != u sharing two neighbours w, w' with
    u.  Taking u as the cycle's least vertex puts w, w' and x above u, so
    for each u the masks of u's neighbours above u, cut to the vertices
    above u, are OR-ed into `seen`; a mask that meets `seen` exposes x.
    """
    nbr = g.masks
    for u in range(g.n):
        above = _above(u)
        seen = 0
        for w in bits(nbr[u] & above):
            reach = nbr[w] & above
            if seen & reach:
                return False
            seen |= reach
    return True


def contains_biclique(g: Graph, s: int) -> tuple[frozenset[int], frozenset[int]] | None:
    """A (not necessarily induced) K_{s,s}: disjoint s-sets S,T with all cross edges.

    s=2 returns None at once when `is_c4_free` holds (K_{2,2} is C4);
    otherwise the common-pair scan (every wedge u-w-v records the pair
    (u,v); a pair seen from two centers closes a K_{2,2}) finds the
    witness.  General s likewise returns None at once unless
    `_has_biclique` finds one; only then does it enumerate candidate S in
    degree-descending order with common-neighborhood pruning, which fixes
    the witness.
    Exact; exponential only in s.  2s > n yields None, not an error.
    """
    if s < 1:
        raise DomainError("s must be >= 1")
    if 2 * s > g.n:
        return None
    if s == 1:
        for u in range(g.n):
            m = g.neighbor_mask(u)
            if m:
                return frozenset([u]), frozenset([next(bits(m))])
        return None
    if s == 2:
        if is_c4_free(g):
            return None
        seen: dict[tuple[int, int], int] = {}
        for w in range(g.n):
            nb = list(bits(g.neighbor_mask(w)))
            for u, v in combinations(nb, 2):
                prev = seen.get((u, v))
                if prev is not None:
                    return frozenset([u, v]), frozenset([prev, w])
                seen[(u, v)] = w
        return None

    if not _has_biclique(g.masks, s):
        return None
    order = [v for v in sorted(range(g.n), key=lambda v: (-g.degree(v), v))
             if g.degree(v) >= s]

    def extend(chosen: list[int], start: int, common: int
               ) -> tuple[frozenset[int], frozenset[int]] | None:
        if len(chosen) == s:
            cset = common
            for v in chosen:
                cset &= ~(1 << v)
            picks = []
            for t in bits(cset):
                picks.append(t)
                if len(picks) == s:
                    return frozenset(chosen), frozenset(picks)
            return None
        for i in range(start, len(order)):
            v = order[i]
            new_common = common & g.neighbor_mask(v) if chosen else g.neighbor_mask(v)
            if new_common.bit_count() < s:
                continue
            res = extend(chosen + [v], i + 1, new_common)
            if res is not None:
                return res
        return None

    return extend([], 0, 0)


def heavy_partners(masks: Sequence[int], s: int) -> Iterator[int]:
    """For v = 0, 1, ... in turn, the mask of the u != v with |N(u) & N(v)| >= s.

    An s-level saturating bit-sliced counter over the masks of v's
    neighbours: bit u of `level[j]` is set once j + 1 of them hold u, so
    `level[s-1]` is every u with codegree at least s.  That is O(s deg v)
    big-integer operations per vertex, O(s m) in all; a vertex of degree
    below s has codegree below s with everyone and gets 0 at once.  The
    masks come one vertex at a time, so a caller that stops early pays only
    for the vertices it read.
    """
    upper = range(s - 1, 0, -1)
    for v, nv in enumerate(masks):
        if nv.bit_count() < s:
            yield 0
            continue
        level = [0] * s
        for w in bits(nv):
            m = masks[w]
            for j in upper:
                level[j] |= level[j - 1] & m
            level[0] |= m
        yield level[-1] & ~(1 << v)


def _has_biclique(masks: Sequence[int], s: int) -> bool:
    """Whether the graph with these neighbour masks contains a K_{s,s}.

    Each side S of a K_{s,s} is an s-clique of the heavy graph (codegree
    >= s, `heavy_partners`) whose common neighbourhood has at least s
    vertices; conversely any such clique S has s common neighbours outside
    S, as no vertex neighbours itself, so they close a K_{s,s}.  Vertices
    are read in id order, and each clique is grown downward from its
    largest vertex v, so it needs only the heavy partners below each vertex,
    which are known by the time v is read.  The search prunes on the common
    neighbourhood's popcount and stops at the first hit: on a graph with
    many bicliques that comes after a few vertices.
    """
    below: list[int] = []   # heavy partners of u below u

    def grow(cand: int, common: int, need: int) -> bool:
        if not need:
            return True
        if cand.bit_count() < need:
            return False
        for u in bits(cand):
            inter = common & masks[u]
            if inter.bit_count() >= s and grow(cand & below[u], inter, need - 1):
                return True
        return False

    for v, hv in enumerate(heavy_partners(masks, s)):
        below.append(hv & ((1 << v) - 1))
        if below[v] and grow(below[v], masks[v], s - 1):
            return True
    return False


def closes_c4(masks: Sequence[int], v: int, smask: int) -> bool:
    """True iff v closes a 4-cycle with the vertex set `smask` (v not in it).

    Every such cycle is v-w-x-w' with w, w' S-neighbours of v and x in S, so
    it is the downward form of `is_c4_free`'s step: the S-masks of v's
    S-neighbours are OR-ed into `seen`, and a mask that meets `seen` exposes
    x.  Given g[S] C4-free, g[S + v] is C4-free iff this is False.
    """
    nbrs = masks[v] & smask
    if nbrs.bit_count() < 2:   # a 4-cycle through v needs two of them
        return False
    seen = 0
    for w in bits(nbrs):
        reach = masks[w] & smask
        if seen & reach:
            return True
        seen |= reach
    return False


def best_c4free_induced(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT
                        ) -> tuple[frozenset[int], Fraction]:
    """Exact optimum: vertex set S maximizing d(g[S]) with g[S] C4-free.

    Exhaustive over all 2^n - 1 nonempty subsets, incrementally: with v the
    highest vertex of S, g[S] is C4-free iff g[S - v] is and `closes_c4`
    finds no 4-cycle through v, which looks only at v's S-neighbours; and
    e(S) = e(S - v) + deg_S(v).  Densities are compared as e * |S'| against
    e' * |S| in integers, and one Fraction is built on return.  Ties break
    toward smaller |S|, then lexicographically smaller sorted vertex tuple.
    """
    if g.n > limit:
        raise OracleLimitError(f"|g|={g.n} exceeds oracle limit {limit}")
    if g.n == 0:
        raise DomainError("graph must have at least one vertex")
    masks = g.masks
    # edge count of each C4-free subset, 0xFF for one with a C4: by Reiman a
    # C4-free graph on n vertices has at most n/4 * (1 + sqrt(4n - 3))
    # edges, which is under 255 for every n <= 61, far past any n whose
    # 2^n-byte table could be allocated
    edges = bytearray(b"\xff") * (1 << g.n)
    edges[0] = edges[1] = 0
    best, best_e, best_size = 1, 0, 1   # {0}: always C4-free, density 0
    for subset in range(2, 1 << g.n):
        top = subset.bit_length() - 1
        prev = subset ^ (1 << top)
        e = edges[prev]
        if e == 0xFF or closes_c4(masks, top, prev):
            continue
        e += (masks[top] & prev).bit_count()
        edges[subset] = e
        size = subset.bit_count()
        gain = e * best_size - best_e * size
        if gain < 0 or (gain == 0 and size > best_size):
            continue
        if gain == 0 and size == best_size:
            # equal-size sorted tuples first differ at the least vertex of
            # the symmetric difference; the tuple holding it is the smaller
            diff = subset ^ best
            if not subset & diff & -diff:
                continue
        best, best_e, best_size = subset, e, size
    return frozenset(bits(best)), Fraction(2 * best_e, best_size)


def max_independent_set(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> frozenset[int]:
    """Exact maximum independent set, lexicographically least among maximums.

    Branch and bound on bitmasks: branch on a maximum-degree vertex of the
    remaining graph (take it and delete its closed neighborhood, or skip
    it).  A second greedy pass extracts the lexicographically least witness
    of the optimal size.
    """
    if g.n > limit:
        raise OracleLimitError(f"|g|={g.n} exceeds oracle limit {limit}")
    if g.n == 0:
        return frozenset()
    masks = g.masks
    memo: dict[int, int] = {}

    def mis_size(avail: int) -> int:
        if avail == 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        best_v, best_deg = -1, -1
        for v in bits(avail):
            dv = (masks[v] & avail).bit_count()
            if dv > best_deg:
                best_v, best_deg = v, dv
        if best_deg == 0:
            res = avail.bit_count()
        else:
            take = 1 + mis_size(avail & ~(masks[best_v] | (1 << best_v)))
            skip = mis_size(avail & ~(1 << best_v))
            res = max(take, skip)
        memo[avail] = res
        return res

    alpha = mis_size((1 << g.n) - 1)
    chosen: list[int] = []
    avail = (1 << g.n) - 1
    need = alpha
    while need > 0:
        # v is always min(avail), so any optimum inside avail containing v
        # has v as its minimum; if v cannot start one, it is in none at all
        for v in bits(avail):
            rest = avail & ~(masks[v] | (1 << v))
            if 1 + mis_size(rest) >= need:
                chosen.append(v)
                avail = rest
                need -= 1
                break
            avail &= ~(1 << v)
    return frozenset(chosen)
