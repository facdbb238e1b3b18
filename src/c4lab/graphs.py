"""Core graph data model, degree machinery, and seeded generators.

Graphs are finite, simple, and loopless.  Vertices are the dense integers
0..n-1; adjacency is stored as one bitmask per vertex so membership tests,
common-neighbourhood intersections, and degree counts are cheap word
operations.  A vertex subset is a mask over its graph's own ids; `induced`
renumbers one densely, vertex i standing for the i-th smallest kept id.

All randomized operations take an explicit integer seed and are pure
functions of (input, seed).  Sub-streams (per retry, per trial) are derived
with a splitmix-style counter mix, so each depends only on its seed and
index.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, GenerationFailure

_MASK64 = (1 << 64) - 1


def mix_seed(seed: int, counter: int) -> int:
    """Derive the `counter`-th 64-bit sub-seed of `seed` (splitmix64 step)."""
    z = (seed + 0x9E3779B97F4A7C15 * (counter + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) using only getrandbits (stable across versions)."""
    if n <= 0:
        raise DomainError("rand_below needs n >= 1")
    k = (n - 1).bit_length()
    while True:
        x = rng.getrandbits(k) if k else 0
        if x < n:
            return x


def sample_subset(rng: random.Random, pool: Sequence[int], r: int) -> list[int]:
    """Uniform r-subset of pool (Fisher-Yates prefix), returned sorted."""
    items = list(pool)
    for i in range(r):
        j = i + rand_below(rng, len(items) - i)
        items[i], items[j] = items[j], items[i]
    return sorted(items[:r])


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the bits of `vertices` set; the inverse of `bits`."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def edge_digest(n: int, m: int, rows: Sequence[list[str]]) -> str:
    """SHA-256 of f"{n}|{m}|" followed by "u,v;" for each edge u < v, in
    ascending order, where rows[u] lists the decimal ids of u's higher
    neighbours in ascending order: one join per vertex."""
    parts = [f"{n}|{m}|"]
    for u, row in enumerate(rows):
        if row:
            head = f"{u},"
            parts.append(head + (";" + head).join(row) + ";")
    return hashlib.sha256("".join(parts).encode()).hexdigest()


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `_digest` holds the `edge_digest` of the graph once a reader or
    `pipeline.graph_digest` has computed it, else None.  `_c4_free` holds
    whether the graph has no 4-cycle once `graphio.read_graph6` or
    `oracles.graph_c4_free` has decided it, else None.
    """

    __slots__ = ("n", "_nbr", "_m", "_digest", "_c4_free")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise DomainError(f"vertex_count={vertex_count} must be nonnegative")
        self.n = vertex_count
        nbr = [0] * vertex_count
        m = 0
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise DomainError(f"edge ({u},{v}) out of range for n={vertex_count}")
            if u == v:
                raise DomainError(f"self-loop at {u} not allowed")
            if not (nbr[u] >> v) & 1:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
                m += 1
        self._nbr = tuple(nbr)
        self._m = m
        self._digest = None
        self._c4_free = None

    @classmethod
    def _from_masks(cls, nbr: Sequence[int], m: int, digest: str | None = None,
                    c4_free: bool | None = None) -> "Graph":
        """Trusted constructor for callers that already hold valid masks.

        `nbr` must be symmetric and loopless with m edges, `digest`, if
        given, its `edge_digest`, and `c4_free`, if given, whether it has no
        4-cycle; nothing is re-checked.
        """
        g = cls.__new__(cls)
        g.n = len(nbr)
        g._nbr = tuple(nbr)
        g._m = m
        g._digest = digest
        g._c4_free = c4_free
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return self._nbr[v].bit_count()

    @property
    def masks(self) -> tuple[int, ...]:
        """All neighbour masks, N(v) at index v; a tuple, so safe to share."""
        return self._nbr

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self._nbr[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._nbr[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self._nbr[u] >> (u + 1)
            for w in bits(rest):
                yield (u, u + 1 + w)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._nbr == other._nbr

    def __hash__(self):
        return hash((self.n, self._nbr))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


class BipartiteGraph:
    """A Graph equipped with a fixed bipartition (side_a, side_b)."""

    __slots__ = ("underlying", "side_a", "side_b")

    def __init__(self, underlying: Graph, side_a: Iterable[int], side_b: Iterable[int]):
        self.underlying = underlying
        self.side_a = frozenset(side_a)
        self.side_b = frozenset(side_b)
        n = underlying.n
        if self.side_a & self.side_b or self.side_a | self.side_b != frozenset(range(n)):
            raise DomainError("side_a and side_b must partition the vertex set")
        for u, v in underlying.edges():
            if (u in self.side_a) == (v in self.side_a):
                raise DomainError(f"edge ({u},{v}) does not cross the bipartition")

    @property
    def n(self) -> int:
        return self.underlying.n

    @property
    def edge_count(self) -> int:
        return self.underlying.edge_count

    def a_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.side_a))

    def b_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.side_b))

    def __repr__(self) -> str:
        return (f"BipartiteGraph(|A|={len(self.side_a)}, |B|={len(self.side_b)}, "
                f"m={self.edge_count})")


# -- degree machinery ------------------------------------------------------

def degrees_within(nbr: Sequence[int], alive: int) -> tuple[list[int], int]:
    """Each vertex's neighbour count inside the vertex mask `alive`, and the
    degree sum 2e of the set.  The sum subtracts the vertices outside
    `alive`, few on the extraction path, rather than test every bit."""
    outside = ~alive & ((1 << len(nbr)) - 1)
    if not outside:  # every mask is already inside
        deg = list(map(int.bit_count, nbr))
        return deg, sum(deg)
    deg = [(mask & alive).bit_count() for mask in nbr]
    return deg, sum(deg) - sum(deg[v] for v in bits(outside))


def min_degree_core(nbr: Sequence[int], alive: int, t: int) -> int:
    """The maximal subset of the vertex mask `alive` that induces minimum
    degree at least t under the neighbour masks `nbr`, as a mask (possibly
    0).  Peeling deletes any vertex whose remaining degree is below t until
    none is left; the result is independent of deletion order."""
    if t <= 0:
        raise DomainError("t must be a positive integer")
    deg, _ = degrees_within(nbr, alive)
    stack = [v for v, dv in enumerate(deg) if dv < t and alive >> v & 1]
    while stack:
        u = stack.pop()
        if not alive >> u & 1:
            continue
        alive ^= 1 << u
        for w in bits(nbr[u] & alive):
            deg[w] -= 1
            if deg[w] < t:
                stack.append(w)
    return alive


def half_degree_core(nbr: Sequence[int], alive: int) -> int:
    """The min-degree core of the vertex mask `alive` at ceil(d/2), d the
    average degree it induces under the neighbour masks `nbr`, as a mask.

    A set with no edge comes back whole.  A set with an edge keeps a
    nonempty core: it induces a subgraph of minimum degree above d/2.
    """
    _, two_e = degrees_within(nbr, alive)
    if two_e == 0:
        return alive
    t = -(-two_e // (2 * alive.bit_count()))  # ceil(d/2) = ceil(e/n)
    return min_degree_core(nbr, alive, t)


def bipartition(nbr: Sequence[int], alive: int) -> int | None:
    """One side of a 2-colouring of the vertex mask `alive` under the
    neighbour masks `nbr`, as a mask (the other side is the rest of
    `alive`), or None when the set induces an odd cycle.

    A BFS over layers of masks, each cut to the unseen vertices of `alive`:
    a layer's reach is the OR of its neighbour masks, an edge inside the
    layer is an odd cycle, and even layers go to the side returned, so
    each component's least vertex lands there.
    """
    unseen = alive
    side = 0
    while unseen:
        layer = unseen & -unseen
        even = True
        while layer:
            unseen ^= layer
            if even:
                side |= layer
            reach = 0
            for v in bits(layer):
                reach |= nbr[v]
            if reach & layer:
                return None
            layer = reach & unseen
            even = not even
    return side


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Degeneracy d and an elimination ordering witnessing it.

    Repeatedly removes a minimum-degree vertex (least id on ties); d is the
    largest degree seen at removal time.  Every nonempty subgraph of g then
    has a vertex of degree at most d.

    The live vertices sit in a heap of (degree, vertex) entries with lazy
    deletion: each degree drop pushes a fresh entry, and a popped entry is
    skipped when its vertex is gone.  A stale entry needs no test of its
    own: the fresher entry of its vertex is smaller, so it pops first and
    removes the vertex.  The first entry that stands is the (degree, id)-least
    live vertex, so the order is the one a full minimum scan gives, in
    O((n + m) log n) time.  A bucket queue would save the log factor but
    hands out an arbitrary vertex of least degree; keeping the least-id
    tie-break, on which the order and every seeded caller depend, needs the
    heap's ordering.
    """
    nbr = g._nbr
    deg = [mask.bit_count() for mask in nbr]
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapify(heap)
    alive = (1 << g.n) - 1
    order: list[int] = []
    d = 0
    while heap:
        du, u = heappop(heap)
        if not (alive >> u) & 1:
            continue
        d = max(d, du)
        alive ^= 1 << u
        order.append(u)
        for w in bits(nbr[u] & alive):
            deg[w] -= 1
            heappush(heap, (deg[w], w))
    return d, tuple(order)


def greedy_coloring(g: Graph) -> list[int]:
    """Proper coloring with at most degeneracy(g)+1 colors.

    Colors vertices in reverse elimination order, giving each the least
    color absent from its already-colored neighbors.
    """
    _, order = degeneracy(g)
    color = [-1] * g.n
    for v in reversed(order):
        used = {color[w] for w in g.neighbors(v) if color[w] != -1}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


def induced(g: Graph, s: Iterable[int]) -> Graph:
    """Induced subgraph on s: vertex i is the i-th smallest vertex of s.

    A set that keeps every vertex returns g itself.  Otherwise only the kept
    vertices' masks are read: each is cut down to the kept set and its bits
    are moved to their new positions.
    """
    keep = sorted(set(s))
    for v in keep:
        if not (0 <= v < g.n):
            raise DomainError(f"vertex {v} out of range")
    if len(keep) == g.n:
        return g
    keep_mask = mask_of(keep)
    new_bit = {v: 1 << i for i, v in enumerate(keep)}
    nbr = []
    degree_sum = 0
    for v in keep:
        mask = 0
        for w in bits(g._nbr[v] & keep_mask):
            mask |= new_bit[w]
        nbr.append(mask)
        degree_sum += mask.bit_count()
    return Graph._from_masks(nbr, degree_sum // 2)


# -- generators ------------------------------------------------------------

def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p) drawn by `sample_gnp` from Random(seed), so the
    edge list is byte-identical per seed."""
    return sample_gnp(random.Random(seed), n, p)


def sample_gnp(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi G(n,p): each of the C(n,2) edges present independently.

    Pairs take one draw each from `rng` in ascending (u,v) order, so a
    caller that keeps drawing from `rng` afterwards sees the same stream.
    """
    if n < 0:
        raise DomainError(f"n={n} must be nonnegative")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0,1]")
    rand = rng.random
    nbr = [0] * n
    m = 0
    for u in range(n):
        bit_u = 1 << u
        row = 0
        for v in range(u + 1, n):
            if rand() < p:
                row |= 1 << v
                nbr[v] |= bit_u
        nbr[u] |= row
        m += row.bit_count()
    return Graph._from_masks(nbr, m)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def projective_plane_incidence(q: int) -> BipartiteGraph:
    """Point-line incidence graph of PG(2,q) for prime q.

    Output: (q^2+q+1) points + (q^2+q+1) lines, (q+1)-regular, girth 6,
    hence C4-free.  Points and lines are the projective classes of nonzero
    triples over GF(q), normalized so the first nonzero coordinate is 1;
    incidence is a zero dot product mod q.
    """
    if not _is_prime(q):
        raise DomainError(f"q={q} is not prime (prime powers unsupported)")
    points: list[tuple[int, int, int]] = []
    for y in range(q):
        for z in range(q):
            points.append((1, y, z))
    for z in range(q):
        points.append((0, 1, z))
    points.append((0, 0, 1))
    m = len(points)
    edges = []
    for li, line in enumerate(points):
        for pi, pt in enumerate(points):
            if (line[0] * pt[0] + line[1] * pt[1] + line[2] * pt[2]) % q == 0:
                edges.append((pi, m + li))
    g = Graph(2 * m, edges)
    return BipartiteGraph(g, range(m), range(m, 2 * m))


def gen_lopsided(a_count: int, b_count: int, r: int, s: int, seed: int
                 ) -> BipartiteGraph:
    """Random bipartite graph, every A-vertex of degree exactly r, K_{s,s}-free.

    Each A-vertex draws a uniform r-subset of B, resampled (up to 200 times
    per vertex) while it would complete a K_{s,s} with the vertices
    placed so far.  The finished graph is re-certified K_{s,s}-free by the
    exhaustive biclique oracle; a failed certification raises rather than
    returning a bad graph.
    """
    from .oracles import contains_biclique  # deferred to avoid an import cycle

    for name, value in (("a_count", a_count), ("b_count", b_count), ("r", r)):
        if value < 0:
            raise DomainError(f"{name}={value} must be nonnegative")
    if r > b_count:
        raise DomainError(f"r={r} exceeds b_count={b_count}")
    if s < 2:
        raise DomainError("s must be >= 2")

    rng = random.Random(mix_seed(seed, 0))
    b_pool = list(range(b_count))
    neighborhoods: list[tuple[int, ...]] = []
    # holders[b]: the mask of the placed A-vertices adjacent to b
    holders = [0] * b_count

    def closes_kss(cand: list[int]) -> bool:
        # a new K_{s,s} through this vertex needs an s-subset of cand that
        # already has >= s-1 common A-neighbors among the placed vertices
        for sub in combinations(cand, s):
            common = holders[sub[0]]
            for b in sub[1:]:
                common &= holders[b]
                if not common:
                    break
            if common.bit_count() >= s - 1:
                return True
        return False

    for idx in range(a_count):
        placed = False
        for _ in range(200):
            cand = sample_subset(rng, b_pool, r)
            if not closes_kss(cand):
                neighborhoods.append(tuple(cand))
                for b in cand:
                    holders[b] |= 1 << idx
                placed = True
                break
        if not placed:
            raise GenerationFailure(
                f"could not place A-vertex {idx} within 200 resamples; "
                f"parameters too dense")

    edges = [(a, a_count + b) for a, nb in enumerate(neighborhoods) for b in nb]
    g = Graph(a_count + b_count, edges)
    bg = BipartiteGraph(g, range(a_count), range(a_count, a_count + b_count))
    if contains_biclique(g, s) is not None:
        raise GenerationFailure("post-hoc certification found a biclique")
    return bg
