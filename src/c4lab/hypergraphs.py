"""Hypergraph model, partite kernel extraction, induced pairs, and F(l,k) search.

The kernel extractor is a verified Las Vegas procedure: random colorings
plus an iterative cleaning loop, with the output's trace dichotomy replayed
mechanically before anything is returned.  The induced-pair machinery and
the exhaustive F(l,k) search provide the combinatorial core that the
extraction pipeline drives.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, compress
from math import comb
from operator import itemgetter
from typing import Iterable

from .errors import DomainError, InvariantError, KernelFailure, OracleLimitError
from .graphs import bits, mask_of, mix_seed, rand_below
from .oracles import independence_number

DEFAULT_ALPHA_LIMIT = 12

# per-edge-size vertex caps keeping the exhaustive F-search tractable
_F_SEARCH_N_CAP = {1: 8, 2: 6, 3: 5}


class Hypergraph:
    """Vertex set 0..n-1 plus a list of vertex subsets (duplicates allowed).

    `incidence[v]` is the mask of the indices of the edges holding v, so an
    OR of incidences is the set of edges meeting a vertex set; the kernel
    finds its rainbow edges with one such OR per color class.
    """

    __slots__ = ("vertex_count", "edges", "incidence")

    def __init__(self, vertex_count: int, edges: Iterable[Iterable[int]] = ()):
        if vertex_count < 0:
            raise DomainError("vertex_count must be nonnegative")
        self.vertex_count = vertex_count
        es = []
        incidence = [0] * vertex_count
        for idx, e in enumerate(edges):
            fs = frozenset(e)
            bit = 1 << idx
            for v in fs:
                if not 0 <= v < vertex_count:
                    raise DomainError(f"edge vertex {v} out of range")
                incidence[v] |= bit
            es.append(fs)
        self.edges = tuple(es)
        self.incidence = tuple(incidence)

    def is_covered(self) -> bool:
        return all(self.incidence)

    def uniform_rank(self) -> int | None:
        sizes = set(map(len, self.edges))
        return sizes.pop() if len(sizes) == 1 else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph)
                and self.vertex_count == other.vertex_count
                and sorted(map(sorted, self.edges)) == sorted(map(sorted, other.edges)))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.vertex_count}, m={len(self.edges)})"


@dataclass(frozen=True)
class InducedPair:
    """Sets (A, B): every b in B extends A inside some edge, and no edge
    covering A meets B more than once."""

    a_set: frozenset[int]
    b_set: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.b_set)


def verify_induced_pair(h: Hypergraph, pair: InducedPair) -> bool:
    """Replay of disjointness and both defining conditions in one pass over
    the edge masks: each edge holding A meets B at most once, and those
    edges cover B.  A vertex outside h fails before any shift."""
    if not all(0 <= v < h.vertex_count for v in pair.a_set | pair.b_set):
        return False
    a, b = mask_of(pair.a_set), mask_of(pair.b_set)
    if a & b:
        return False
    reach = 0
    for e in map(mask_of, h.edges):
        if e & a == a:
            x = e & b
            if x & (x - 1):
                return False
            reach |= x
    return reach == b


@dataclass(frozen=True)
class PartiteKernel:
    """Rainbow sub-family with the trace dichotomy.

    surviving_edges indexes into the source hypergraph's edge list.  The
    coloring maps vertices to colors 0..r-1; every surviving edge carries
    all r colors.  For every nonempty color set e with |e| <= s_bound:
    either e is a trace edge and every surviving edge's e-slice extends to
    at least `multiplicity` surviving edges, or no two distinct surviving
    edges agree on an e-slice.
    """

    surviving_edges: tuple[int, ...]
    coloring: tuple[int, ...]
    trace: Hypergraph
    multiplicity: int
    s_bound: int
    history: tuple[int, ...] = field(default=(), compare=False)

    @property
    def rank(self) -> int:
        return self.trace.vertex_count


def _color_sets(r: int, s: int) -> list[tuple[int, ...]]:
    """Nonempty subsets of [r] with at most s elements, lexicographic."""
    out: list[tuple[int, ...]] = []
    for size in range(1, min(r, s) + 1):
        out.extend(combinations(range(r), size))
    return out


def verify_kernel(source: Hypergraph, kernel: PartiteKernel) -> bool:
    """Replay rainbow-ness and the full dichotomy from the source edges."""
    r = kernel.rank
    t = kernel.multiplicity
    c = kernel.coloring
    if len(c) != source.vertex_count:
        raise DomainError("coloring length must match the source vertex count")
    rainbow = True
    vecs: list[list[int]] = []
    for idx in kernel.surviving_edges:
        if not 0 <= idx < len(source.edges):
            raise DomainError(f"surviving edge index {idx} out of range")
        e = source.edges[idx]
        vec = [-1] * r
        for v in e:
            if 0 <= c[v] < r:
                vec[c[v]] = v
        rainbow = rainbow and len(e) == r and -1 not in vec
        vecs.append(vec)
    # a repeated index would count one edge's slices twice
    if not rainbow or len(set(kernel.surviving_edges)) < len(vecs):
        return False
    trace_set = {tuple(sorted(e)) for e in kernel.trace.edges}
    for e in _color_sets(r, kernel.s_bound):
        slices = list(map(itemgetter(*e), vecs))
        if e in trace_set:
            # every slice extends to at least t surviving edges
            if not slices or min(Counter(slices).values()) < t:
                return False
        elif len(set(slices)) < len(slices):
            return False  # two surviving edges share a non-trace slice
    return True


def _check_step(kept: int, before: int, steps: int, t: int, big_t: int,
                kind: str) -> None:
    """Raise InvariantError unless a cleaning step kept at least a 1/(2tT^2)
    fraction of its edges and the loop is within its T+1 step bound."""
    if kept * 2 * t * big_t * big_t < before:
        raise InvariantError(f"{kind} transition lost too many edges")
    if steps > big_t + 1:
        raise InvariantError("cleaning loop overran its step bound")


def _kernel_shape(f: Hypergraph, s: int, t: int) -> tuple[int, int]:
    """The rank r of a valid kernel request and T = sum_{j<=s} C(r, j), the
    number of color sets of size at most s (the empty one included)."""
    r = f.uniform_rank()
    if r is None or r < 1:
        raise DomainError("input must be r-uniform with r >= 1")
    if s > r:
        raise DomainError(f"s={s} must not exceed r={r}")
    if s < 1 or t < 1:
        raise DomainError("s and t must be >= 1")
    if not f.edges:
        raise DomainError("input has no edges")
    return r, sum(comb(r, j) for j in range(s + 1))


def trace_bound(r: int, s: int, t: int) -> int:
    """2tT with T = sum_{j<=s} C(r, j): a kernel of multiplicity t and
    trace rank s on an r-uniform family has an empty trace unless some
    vertex lies in at least this many edges (`kernel_can_trace`)."""
    return 2 * t * sum(comb(r, j) for j in range(s + 1))


def kernel_can_trace(f: Hypergraph, s: int, t: int) -> bool:
    """Whether some vertex of f lies in at least 2tT edges (`trace_bound`).

    Unless it does, every kernel `furedi_kernel(f, s, t, ...)` returns has an
    empty trace, whatever the seed and the retries.  Let D be the most edges
    any vertex lies in, E_i the family entering the terminal step, and S a
    trace edge.  S is a color set shared at that step: two survivors agree on
    its slice.  For c in S the same two edges agree on the singleton {c}, and
    they were in the family at every earlier step, so {c} was shared at every
    step and never left `live`; its distinct slices are counted in the
    terminal b_size.  Each edge of E_i is rainbow, so it has exactly one
    vertex of color c, and a vertex lies in at most D edges, so {c} has at
    least |E_i|/D distinct slices and b_size >= |E_i|/D.  The terminal test
    2tT * b_size <= |E_i| then forces D >= 2tT.  The bound is tight: seeded
    families with D = 2tT exactly do yield traces.

    The test reads only D, r, s and t, so a caller that knows D without
    building f, as `model_lopsided` does from its neighbour masks, compares
    D with `trace_bound(r, s, t)` itself.

    Raises DomainError on the requests furedi_kernel refuses.
    """
    r, _ = _kernel_shape(f, s, t)
    return max(m.bit_count() for m in f.incidence) >= trace_bound(r, s, t)


def furedi_kernel(f: Hypergraph, s: int, t: int, seed: int,
                  retries: int = 100) -> PartiteKernel:
    """Extract a rainbow sub-family whose traces obey the t-fold dichotomy.

    One attempt: color vertices uniformly at random with r colors, keep the
    rainbow edges E0, then clean iteratively.  An r-edge is rainbow iff it
    meets all r color classes, so E0 is the AND over the colors of the OR of
    the class's incidence masks, and only its edges get color-indexed
    vectors.  At each step the shared color sets S_i are those with fewer
    distinct slices than edges; if the slice side is small (|B| <= |E_i| /
    2tT with T = sum_{j<=s} C(r,j)), the edges with a shared slice of
    multiplicity below t are filtered out, recounting until none drops, and
    the loop stops; otherwise the color set with the most distinct slices is
    collapsed to one representative edge (the least index) per slice, which
    removes it from S_{i+1}.  Every step only shrinks the family, so a color
    set whose slices are all distinct stays so and leaves the scan for the
    rest of the attempt.  Every transition is checked to keep at least a
    1/(2tT^2) fraction of edges, and the loop runs at most T+1 steps.  The
    finished kernel is replayed through verify_kernel before it is returned;
    attempts that fail verification (or go extinct) burn a retry.  The trace
    is empty unless some vertex lies in at least 2tT edges (`kernel_can_trace`
    proves it), so `model_lopsided` skips the kernel below that bound.
    """
    r, big_t = _kernel_shape(f, s, t)
    edge_list = f.edges
    incidence = f.incidence
    # one slice getter per candidate color set: get(vec) is the edge's slice
    candidates = [(e, itemgetter(*e)) for e in _color_sets(r, s)]
    best_rainbow = 0  # the largest rainbow family of any coloring

    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        coloring = tuple(rand_below(rng, r) for _ in range(f.vertex_count))
        met = [0] * r  # met[c]: the edges meeting color class c
        for v, c in enumerate(coloring):
            met[c] |= incidence[v]
        rainbow = met[0]
        for mask in met[1:]:
            rainbow &= mask
        cur = list(bits(rainbow))
        if not cur:
            continue
        # rainbow edges as color-indexed vertex lists: vec[c] is the vertex of color c
        vecs: dict[int, list[int]] = {}
        for idx in cur:
            vec = [-1] * r
            for v in edge_list[idx]:
                vec[coloring[v]] = v
            vecs[idx] = vec
        history = [len(cur)]
        steps = 0
        live = candidates  # color sets not yet seen with all slices distinct
        while True:
            # a color set is shared when two edges agree on its slice,
            # that is when its slices are fewer than the edges
            cur_vecs = [vecs[idx] for idx in cur]
            shared = []  # (distinct slice count, color set, getter)
            for e, get in live:
                count = len(set(map(get, cur_vecs)))
                if count < len(cur):
                    shared.append((count, e, get))
            live = [(e, get) for _, e, get in shared]
            b_size = sum(count for count, _, _ in shared)
            if 2 * t * big_t * b_size <= len(cur):
                # terminal: drop the edges with a shared-set slice of
                # multiplicity below t, recounting until none drops (the
                # greatest such sub-family; the filter keeps cur's order)
                survivors = cur
                while True:
                    counts = [Counter(map(get, cur_vecs)) for _, get in live]
                    keep = [all(cnt[get(vec)] >= t for (_, get), cnt in zip(live, counts))
                            for vec in cur_vecs]
                    if all(keep):
                        break
                    survivors = list(compress(survivors, keep))
                    cur_vecs = list(compress(cur_vecs, keep))
                steps += 1
                if not survivors:
                    break  # extinct attempt; burn a retry
                _check_step(len(survivors), len(cur), steps, t, big_t, "cleaning")
                history.append(len(survivors))
                # the last count is over the survivors: a shared set's
                # slices fewer than the survivors make it a trace edge
                trace_edges = [frozenset(e) for (e, _), cnt in zip(live, counts)
                               if len(cnt) < len(survivors)]
                kernel = PartiteKernel(
                    surviving_edges=tuple(survivors),
                    coloring=coloring,
                    trace=Hypergraph(r, trace_edges),
                    multiplicity=t,
                    s_bound=s,
                    history=tuple(history),
                )
                if verify_kernel(f, kernel):
                    return kernel
                break  # verification failure; burn a retry
            # non-terminal: collapse the color set with the most distinct
            # slices; cur ascends, so the reversed dict keeps each slice's
            # least edge index
            _, _, get = max(shared, key=lambda sh: (sh[0], [-x for x in sh[1]]))
            nxt = sorted(dict(zip(map(get, reversed(cur_vecs)), reversed(cur))).values())
            steps += 1
            _check_step(len(nxt), len(cur), steps, t, big_t, "pigeonhole")
            history.append(len(nxt))
            cur = nxt
        best_rainbow = max(best_rainbow, history[0])

    raise KernelFailure(
        f"no verified kernel within {retries} colorings (best rainbow family: "
        f"{best_rainbow} edges)")


def find_induced_pair(h: Hypergraph, k: int) -> InducedPair:
    """Recursive pair construction: greedy independent set, else recurse on a link.

    The co-occurrence graph joins two vertices lying in a common edge: v's
    neighbours are the OR of the edges holding v, less v.  A maximal
    independent set I (greedy, min-degree-first) of size >= k gives
    (A, B) = (accumulated link vertices, k-subset of I); otherwise the
    maximum-degree member x of I is pushed onto A and the search recurses on
    the link of x, whose edges are the nonempty traces on x's neighbours of
    the edges holding x, so they cover it.  Guaranteed order >= k once
    |V| >= sum_{l<=max edge} (k-1)^l; smaller inputs return the best pair
    found (order < k).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not h.is_covered():
        raise DomainError("hypergraph must be covered")

    def recurse(vertices: int, edges: set[int]) -> tuple[int, int]:
        adj = [0] * h.vertex_count
        for e in edges:
            for v in bits(e):
                adj[v] |= e
        for v in bits(vertices):
            adj[v] ^= 1 << v
        chosen: list[int] = []
        blocked = 0
        for v in sorted(bits(vertices), key=lambda v: (adj[v].bit_count(), v)):
            if not blocked >> v & 1:
                chosen.append(v)
                blocked |= adj[v] | 1 << v
        local = (0, mask_of(chosen[:k]))
        if len(chosen) >= k or not chosen:
            return local
        x = max(chosen, key=lambda v: (adj[v].bit_count(), -v))
        link = adj[x]
        a, b = recurse(link, {e & link for e in edges if e >> x & 1} - {0})
        return (a | 1 << x, b) if b.bit_count() > len(chosen) else local

    a, b = recurse((1 << h.vertex_count) - 1, set(map(mask_of, h.edges)))
    pair = InducedPair(frozenset(bits(a)), frozenset(bits(b)))
    if not verify_induced_pair(h, pair):
        raise InvariantError("constructed pair failed its own invariants")
    return pair


def alpha_exact(h: Hypergraph) -> int:
    """Exact maximum induced-pair order by exhaustive A-enumeration.

    Candidate A sets are the sub-masks of single edges plus the empty set
    (an A inside no edge admits no b at all); for each A the optimum B is a
    maximum independent set of the conflict graph, in h's own ids, on the
    eligible vertices: the edges holding A, less A, are its cliques.
    """
    if h.vertex_count > DEFAULT_ALPHA_LIMIT:
        raise OracleLimitError(
            f"|V|={h.vertex_count} exceeds alpha limit {DEFAULT_ALPHA_LIMIT}")
    edges = list(map(mask_of, h.edges))
    candidates = {0}
    for e in edges:
        sub = e
        while sub:
            candidates.add(sub)
            sub = (sub - 1) & e
    best = 0
    for a in candidates:
        rests = [e ^ a for e in edges if e & a == a]
        eligible = 0
        for rest in rests:
            eligible |= rest
        # B lies inside the eligible vertices, so this A cannot beat best
        if eligible.bit_count() <= best:
            continue
        conflict = [0] * h.vertex_count
        for rest in rests:
            for v in bits(rest):
                conflict[v] |= rest ^ 1 << v
        best = max(best, independence_number(conflict, eligible, {}))
    return best


# -- exhaustive search for the pair-forcing threshold -----------------------

@dataclass
class FSearchResult:
    ell: int
    k: int
    lower: int
    upper: int | None
    counterexample: tuple[int, tuple[frozenset[int], ...]] | None

    def to_json(self) -> str:
        ce = None
        if self.counterexample is not None:
            n, edges = self.counterexample
            ce = {"n": n, "edges": [sorted(e) for e in edges]}
        return json.dumps({"ell": self.ell, "k": self.k, "lower": self.lower,
                           "upper": self.upper, "counterexample": ce},
                          sort_keys=True)


@cache
def _delta_swaps(n: int) -> tuple[tuple[int, int], ...]:
    """For each i < n - 1, the delta swap of a key by the transposition
    (i, i+1): its selector, the key bits m whose mask has bit i set and
    bit i+1 clear, and its shift 2^i, since each such m becomes m + 2^i.

    f_search caps n at 8, so the cache holds at most eight small entries.
    """
    return tuple((mask_of(m for m in range(1 << n) if (m >> i & 3) == 1), 1 << i)
                 for i in range(n - 1))


def _orbit(n: int, key: int) -> set[int]:
    """Every relabelling of the antichain `key` on [n]: bit m of a key is
    set when edge mask m is chosen.

    The closure under the adjacent transpositions (i, i+1), which generate
    the symmetric group, so it is the whole isomorphism class.
    """
    swaps = _delta_swaps(n)
    orbit = {key}
    todo = [key]
    while todo:
        cur = todo.pop()
        for sel, shift in swaps:
            t = (cur ^ cur >> shift) & sel
            image = cur ^ t ^ t << shift
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def f_search(ell: int, k: int, n_max: int) -> FSearchResult:
    """Smallest vertex count forcing pair order k in covered ell-bounded hypergraphs.

    For each n up to n_max, enumerates covering antichains of nonempty edges
    of size <= ell (maximal edges suffice: the pair conditions only see
    them), skipping every antichain that relabels a class already checked,
    so the exact alpha oracle runs once per isomorphism class, looking for
    a counterexample with alpha < k.  `lower` is one more than the largest
    n admitting a counterexample; `upper` matches it when that n+1 was
    itself scanned exhaustively, else None.
    """
    if not 1 <= ell <= 3:
        raise DomainError("ell must be in 1..3")
    if not 1 <= k <= 5:
        raise DomainError("k must be in 1..5")
    cap = _F_SEARCH_N_CAP[ell]
    if not 1 <= n_max <= 8:
        raise DomainError("n_max must be in 1..8")
    if n_max > cap:
        raise DomainError(f"n_max={n_max} exceeds the exhaustive cap {cap} for ell={ell}")

    worst_n = 0
    worst_example: tuple[int, tuple[frozenset[int], ...]] | None = None
    for n in range(1, n_max + 1):
        found = _find_counterexample(n, ell, k)
        if found is not None:
            worst_n = n
            worst_example = (n, found)
    lower = worst_n + 1
    upper = lower if lower <= n_max else None
    return FSearchResult(ell=ell, k=k, lower=lower, upper=upper,
                         counterexample=worst_example)


def _find_counterexample(n: int, ell: int, k: int
                         ) -> tuple[frozenset[int], ...] | None:
    """First covering antichain on [n] with pair order < k, up to isomorphism."""
    full = (1 << n) - 1
    masks = [mask_of(sub) for size in range(1, ell + 1)
             for sub in combinations(range(n), size)]
    suffix_union = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[i]
    seen: set[int] = set()
    result: tuple[frozenset[int], ...] | None = None

    def dfs(i: int, chosen: list[int], key: int, cover: int) -> bool:
        nonlocal result
        if i == len(masks):
            if cover != full or not chosen or key in seen:
                return False
            edges = [frozenset(bits(m)) for m in chosen]
            if alpha_exact(Hypergraph(n, edges)) < k:
                result = tuple(edges)
                return True
            # a new class that passed: skip its later relabellings (a
            # counterexample ends the scan, so it needs no orbit)
            seen.update(_orbit(n, key))
            return False
        if cover | suffix_union[i] != full:
            return False
        m = masks[i]
        # antichain: skip edges comparable with a chosen one; the masks
        # ascend in size, so a chosen c can only lie inside m
        if not any(m & c == c for c in chosen):
            if dfs(i + 1, chosen + [m], key | 1 << m, cover | m):
                return True
        return dfs(i + 1, chosen, key, cover)

    dfs(0, [], 0, 0)
    return result
