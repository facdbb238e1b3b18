"""Exhaustive detectors and exact small-instance baselines.

Everything here is deterministic: witnesses come out of fixed enumeration
orders, optima break ties by (smaller set, lexicographic), so golden-file
tests are stable.  These oracles are the ground truth that every randomized
routine's output is checked against.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

from .errors import DomainError, InvariantError, OracleLimitError
from .graphs import Graph, bits

DEFAULT_ORACLE_LIMIT = 22


def _above(k: int) -> int:
    """Bitmask of all vertices strictly greater than k."""
    return -1 << (k + 1)


def find_c3(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically least triangle (a,b,c) with a<b<c, or None."""
    nbr = g.masks
    for a in range(g.n):
        for b in bits(nbr[a] & _above(a)):
            common = nbr[a] & nbr[b] & _above(b)
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
    nbr = g.masks
    for a in range(g.n):
        mask_a = nbr[a]
        for b in bits(mask_a):
            for c in bits(nbr[b] & ~(1 << a)):
                dmask = nbr[c] & mask_a
                dmask &= ~((1 << a) | (1 << b) | (1 << c))
                for d in bits(dmask):
                    return (a, b, c, d)
    return None


def is_c4_free(nbr: Sequence[int], alive: int) -> bool:
    """True iff the vertex mask `alive` induces no 4-cycle (as a subgraph)
    under the neighbour masks `nbr`, in O(m) big-int operations.

    Taking u as the cycle's least vertex puts the rest of the cycle above
    u.  The vertices are taken from the bottom up, so dropping u from
    `above` leaves exactly the set's vertices above it; u closes a 4-cycle
    u-w-x-w' there when the masks `reach` of two of its neighbours w, w' in
    `above` meet at x.  A u with fewer than two neighbours above it is the
    least vertex of no cycle.  This is `closes_c4` asked of every u against
    the vertices above it, in one loop.
    """
    above = alive
    while above:
        low = above & -above
        above ^= low
        nu = nbr[low.bit_length() - 1] & above
        if nu & (nu - 1):
            seen = 0
            while nu:
                w = nu & -nu
                nu ^= w
                reach = nbr[w.bit_length() - 1] & above
                if seen & reach:
                    return False
                seen |= reach
    return True


def contains_biclique(g: Graph, s: int) -> tuple[frozenset[int], frozenset[int]] | None:
    """A (not necessarily induced) K_{s,s}: disjoint s-sets S,T with all cross edges.

    s=2 returns None at once when `is_c4_free` holds (K_{2,2} is C4);
    otherwise the common-pair scan (every wedge u-w-v records the pair
    (u,v); a pair seen from two centers closes a K_{2,2}) finds the
    witness, or raises `InvariantError`.  General s likewise returns None
    at once unless `_has_biclique` finds one; only then does it enumerate
    candidate S in degree-descending order with common-neighborhood
    pruning, which fixes the witness.
    Exact; exponential only in s.  2s > n yields None, not an error; s < 2
    raises DomainError, the request rule of both extraction routes.
    """
    if s < 2:
        raise DomainError("s must be >= 2")
    if 2 * s > g.n:
        return None
    if s == 2:
        if is_c4_free(g.masks, (1 << g.n) - 1):
            return None
        seen: dict[tuple[int, int], int] = {}
        for w in range(g.n):
            nb = list(bits(g.masks[w]))
            for u, v in combinations(nb, 2):
                prev = seen.get((u, v))
                if prev is not None:
                    return frozenset([u, v]), frozenset([prev, w])
                seen[(u, v)] = w
        # the 4-cycle a-b-c-d that is_c4_free found records (a, c) at b and at d
        raise InvariantError("a graph with a 4-cycle must have a K_{2,2}")

    if not _has_biclique(g.masks, s):
        return None
    order = [v for v in sorted(range(g.n), key=lambda v: (-g.degree(v), v))
             if g.degree(v) >= s]

    def extend(chosen: list[int], start: int, common: int
               ) -> tuple[frozenset[int], frozenset[int]] | None:
        if len(chosen) == s:
            # no vertex neighbours itself, so common misses chosen, and the
            # prune below left it at least s bits
            return frozenset(chosen), frozenset(islice(bits(common), s))
        for i in range(start, len(order)):
            v = order[i]
            new_common = common & g.masks[v]
            if new_common.bit_count() < s:
                continue
            res = extend(chosen + [v], i + 1, new_common)
            if res is not None:
                return res
        return None

    return extend([], 0, -1)


def hit_at_least(masks: Sequence[int], members: int, s: int) -> int:
    """The mask of the vertices set in at least s (>= 1) of the masks of
    the vertices in the mask `members`.

    A saturating bit-sliced counter: bit u of the j-th level is set once
    j of the masks read so far hold u, so the s-th level is the answer
    after one pass of O(s) big-integer operations per member.  Fewer than
    s members hit nothing.
    """
    level = [0] * s
    upper = range(s - 1, 0, -1)
    for w in bits(members):
        m = masks[w]
        for j in upper:
            level[j] |= level[j - 1] & m
        level[0] |= m
    return level[-1]


def heavy_partners(masks: Sequence[int], s: int) -> Iterator[int]:
    """For v = 0, 1, ... in turn, the mask of the u != v with |N(u) & N(v)| >= s.

    u has codegree at least s with v exactly when at least s of the masks
    of v's neighbours hold u, which `hit_at_least` counts in O(s deg v)
    big-integer operations per vertex, O(s m) in all.  The masks come one
    vertex at a time, so a caller that stops early pays only for the
    vertices it read.
    """
    for v, nv in enumerate(masks):
        yield hit_at_least(masks, nv, s) & ~(1 << v)


def _kss_core(masks: Sequence[int], s: int) -> int | None:
    """The vertex mask left by peeling the vertices that lie in no K_{s,s},
    or None once a vertex of degree s is seen to lie in one.

    Within the live set, a vertex of degree below s lies in no K_{s,s}.  A
    vertex v of degree exactly s lies in one iff its s neighbours have at
    least s common live neighbours: the side opposite v must be all of
    N(v), and any s of those common neighbours (v among them, none of them
    in N(v) since no vertex neighbours itself) close a K_{s,s}.  So each
    deletion keeps every K_{s,s} of the live set, and the live set holds
    one iff the graph does.  A vertex is queued once, at the start if its
    degree is at most s and otherwise when its degree falls to s, and is
    tested at its degree when it leaves the queue, in O(s) big-integer
    operations.  Degrees only fall, so a deletable vertex stays
    deletable, and on a K_{s,s}-free graph the core is the same in every
    deletion order: the largest set in which no vertex is deletable.
    """
    live = (1 << len(masks)) - 1
    degree = [m.bit_count() for m in masks]
    queue = [v for v, d in enumerate(degree) if d <= s]
    while queue:
        v = queue.pop()
        nbrs = list(bits(masks[v] & live))
        if degree[v] == s:
            common = live
            for w in nbrs:
                common &= masks[w]
            if common.bit_count() >= s:
                return None
        live ^= 1 << v
        for w in nbrs:
            degree[w] -= 1
            if degree[w] == s:
                queue.append(w)
    return live


def _has_biclique(masks: Sequence[int], s: int) -> bool:
    """Whether the graph with these neighbour masks contains a K_{s,s}.

    `_kss_core` first peels the vertices of degree at most s that lie in no
    K_{s,s}, and the search below runs on the core with every mask cut to
    it.  Each side S of a K_{s,s} is an s-clique of the heavy graph
    (codegree >= s, `heavy_partners`) whose common neighbourhood has at
    least s vertices; conversely any such clique S has s common neighbours
    outside S, as no vertex neighbours itself, so they close a K_{s,s}.
    Vertices are read in id order, and each clique is grown downward from
    its largest vertex v, so it needs only the heavy partners below each
    vertex, which are known by the time v is read.  The search prunes on
    the common neighbourhood's popcount and stops at the first hit: on a
    graph with many bicliques that comes after a few vertices.  When one
    vertex is still needed, the candidates u with at least s neighbours in
    the common neighbourhood are those hit by at least s of its vertices'
    masks, so one `hit_at_least` and one AND replace the loop over them.
    """
    core = _kss_core(masks, s)
    if core is None:
        return True
    if not core:
        return False
    masks = [m & core if core >> v & 1 else 0 for v, m in enumerate(masks)]
    below: list[int] = []   # heavy partners of u below u

    def grow(cand: int, common: int, need: int) -> bool:
        if need == 1:
            return bool(cand & hit_at_least(masks, common, s))
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

    Every such cycle is v-w-x-w' with w, w' S-neighbours of v and x in S:
    the S-masks of v's S-neighbours are OR-ed into `seen`, and a mask that
    meets `seen` exposes x.  Given g[S] C4-free, g[S + v] is C4-free iff
    this is False, so the lower-bound experiments grow C4-free sets by it;
    `is_c4_free` runs the same test inline for each vertex against the
    vertices above it.
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


# The exact optimum scores the LANE_BITS lowest vertices on byte lanes: the
# low subset L is byte L of a little-endian integer of 2^LANE_BITS bytes, so
# one big-integer operation acts on every low subset at once.  Beside a high
# part H, lane L holds e(H + L) + 1 <= e(H) + C(b, 2) + b |H| + 1, and H is
# C4-free, so Reiman's bound e(H) <= |H|/4 (1 + sqrt(4|H| - 3)) applies.
# With b = 10 that is 38 + 45 + 170 + 1 = 254 at |H| = 17 and 267 at
# |H| = 18, so n = 27 is the largest n no lane can carry out of, and the
# oracle refuses more whatever its limit says.  A lane whose H + L is
# C4-free holds at most Reiman's bound on n + 1, 76 at n = 27, so its
# top bit is free for the SWAR compare.
LANE_BITS = 10
LANE_MAX_N = 27
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"


@lru_cache(maxsize=None)
def _lane_constants(b: int) -> tuple[int, tuple[int, ...], bytes]:
    """For 2^b lanes: the integer with 1 in every lane, the indicator of each
    low vertex l (1 in lane L iff l is in L), and |L| as one byte a lane."""
    width = 1 << b
    ones = int.from_bytes(b"\x01" * width, "little")
    member = tuple(
        int.from_bytes((b"\x00" * (1 << l) + b"\x01" * (1 << l)) * (width >> (l + 1)),
                       "little")
        for l in range(b))
    sizes = b"\x00"
    for _ in range(b):
        sizes += sizes.translate(_PLUS_ONE)
    return ones, member, sizes


def best_c4free_induced(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT
                        ) -> tuple[frozenset[int], Fraction]:
    """Exact optimum: vertex set S maximizing d(g[S]) with g[S] C4-free.

    Exhaustive over all 2^n - 1 nonempty subsets S = H + L, where L holds
    the b = min(LANE_BITS, n) lowest vertices of S and H the rest.  The high
    parts H are grown one vertex v above max(H) at a time, depth first.
    Each H scores all 2^b sets L at once, one byte lane each.  No 2^n
    table is kept: memory is a 2^b-byte integer per level of the search
    and per high part (at most 3 vertices) of a 4-cycle with a low
    vertex.  For each H:
    - lane L holds e(H + L) + 1 = e(L) + 1 + sum over v in H of
      (|N(v) & H_below_v| + |N(v) & L|), built by one addition per vertex
      added to H;
    - lane L is dead when H + L holds a 4-cycle: every such cycle has a
      vertex set Q with Q - L inside H, so the lanes L containing the low
      part of Q are OR-ed into H's dead mask when the top vertex of Q's
      high part joins H.  A Q with no low part kills every lane (the mask
      -1), and then H + v is dropped with every superset;
    - from the current best (e', |S'|) each size |S| gets the least lane
      value that could compete (gain e |S'| - e' |S| >= 0, and > 0 for a
      larger set), and one SWAR compare finds the live lanes at or above
      it, so a block with no competitor costs a few big-integer operations.
    A competing lane gets the exact test in integers: ties break toward
    smaller |S|, then toward the lexicographically smaller sorted vertex
    tuple, and one Fraction is built on return.  n > LANE_MAX_N raises
    OracleLimitError whatever `limit` is.
    """
    if g.n > limit:
        raise OracleLimitError(f"|g|={g.n} exceeds oracle limit {limit}")
    if g.n > LANE_MAX_N:
        raise OracleLimitError(
            f"|g|={g.n} exceeds the exact oracle's byte-lane cap {LANE_MAX_N}")
    if g.n == 0:
        raise DomainError("graph must have at least one vertex")
    n, masks = g.n, g.masks
    b = min(LANE_BITS, n)
    low = (1 << b) - 1
    ones, member, sizes = _lane_constants(b)
    sign = ones << 7
    covers = [m * 0xFF for m in member]   # 0xFF in lane L iff l is in L

    start = ones   # lane L: e(L) + 1
    for i in range(b):
        for j in bits(masks[i] & low & _above(i)):
            start += member[i] & member[j]
    # lane L gains |N(v) & L| when v joins H
    cross = [sum(member[l] for l in bits(masks[v] & low)) if v >= b else 0
             for v in range(n)]

    # for each 4-cycle x-w-y-w' (x its least vertex), the lanes L holding
    # its low part, OR-ed into the dead lanes of its high part; a cycle
    # with no low vertex kills every lane (-1)
    dead_at: dict[int, int] = {}
    for x in range(n - 3):
        above = _above(x)
        for y in range(x + 1, n):
            common = masks[x] & masks[y] & above
            if common.bit_count() < 2:
                continue
            for w, u in combinations(bits(common), 2):
                q = 1 << x | 1 << y | 1 << w | 1 << u
                lanes = -1
                for l in bits(q & low):
                    lanes &= covers[l]
                high = q & ~low
                dead_at[high] = dead_at.get(high, 0) | lanes
    # for each high vertex v, the (rest of the high part, dead lanes) of the
    # high parts whose top vertex is v
    joins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for high, dead in dead_at.items():
        if high:
            v = high.bit_length() - 1
            joins[v].append((high ^ (1 << v), dead))

    best, best_e, best_size = 1, 0, 1   # {0}: always C4-free, density 0
    floors: dict[int, int] = {}   # |H| -> least competing value of each lane

    def floor_of(h: int) -> int:
        floor = floors.get(h)
        if floor is None:
            table = bytearray(b"\x80") * 256
            for k in range(b + 1):
                size = h + k
                if size == 0:
                    continue   # the empty set
                if size <= best_size:   # gain >= 0
                    least = -(-best_e * size // best_size)
                else:   # gain > 0
                    least = best_e * size // best_size + 1
                table[k] = min(least + 1, 0x80)
            floor = floors[h] = int.from_bytes(sizes.translate(table), "little")
        return floor

    def score(high: int, h: int, lanes: int, dead: int) -> None:
        nonlocal best, best_e, best_size
        live = lanes & ~dead
        hits = ((live | sign) - floor_of(h)) & sign
        while hits:
            bit = hits & -hits
            pos = bit.bit_length() - 8   # the lane's lowest bit
            e = ((live >> pos) & 0xFF) - 1
            subset = high | pos >> 3
            size = h + sizes[pos >> 3]
            gain = e * best_size - best_e * size
            if gain < 0 or (gain == 0 and size > best_size):
                hits ^= bit
                continue
            if gain == 0 and size == best_size:
                # equal-size sorted tuples first differ at the least vertex
                # of the symmetric difference; the tuple holding it is the
                # smaller
                diff = subset ^ best
                if not subset & diff & -diff:
                    hits ^= bit
                    continue
            best, best_e, best_size = subset, e, size
            floors.clear()
            hits = ((live | sign) - floor_of(h)) & sign & -(bit << 1)

    def grow(high: int, top: int, h: int, lanes: int, dead: int) -> None:
        score(high, h, lanes, dead)
        outside = ~high
        for v in range(top + 1, n):
            more = dead
            for rest, lanes_v in joins[v]:
                if not rest & outside:
                    more |= lanes_v
            if more < 0:   # H + v holds a 4-cycle, and so does every superset
                continue
            grow(high | 1 << v, v, h + 1,
                 lanes + cross[v] + (masks[v] & high).bit_count() * ones, more)

    grow(0, b - 1, 0, start, dead_at.get(0, 0))
    return frozenset(bits(best)), Fraction(2 * best_e, best_size)


def independence_number(masks: Sequence[int], avail: int, memo: dict[int, int]) -> int:
    """Size of a maximum independent set inside the vertex mask `avail`
    under the neighbour masks `masks`, memoized by mask in `memo`.

    Branch and bound on bitmasks: branch on a maximum-degree vertex of the
    remaining graph (take it and delete its closed neighborhood, or skip it).
    """
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
        take = 1 + independence_number(masks, avail & ~(masks[best_v] | 1 << best_v), memo)
        res = max(take, independence_number(masks, avail & ~(1 << best_v), memo))
    memo[avail] = res
    return res


def max_independent_set(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> frozenset[int]:
    """Exact maximum independent set, lexicographically least among maximums.

    A greedy pass over `independence_number`'s memo extracts the
    lexicographically least witness of the optimal size.
    """
    if g.n > limit:
        raise OracleLimitError(f"|g|={g.n} exceeds oracle limit {limit}")
    masks = g.masks
    memo: dict[int, int] = {}
    avail = (1 << g.n) - 1
    need = independence_number(masks, avail, memo)
    chosen: list[int] = []
    while need > 0:
        # v is always min(avail), so any optimum inside avail containing v
        # has v as its minimum; if v cannot start one, it is in none at all
        for v in bits(avail):
            rest = avail & ~(masks[v] | (1 << v))
            if 1 + independence_number(masks, rest, memo) >= need:
                chosen.append(v)
                avail = rest
                need -= 1
                break
            avail &= ~(1 << v)
    return frozenset(chosen)
