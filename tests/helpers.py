"""Shared test utilities: independent slow baselines and graph builders."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

from c4lab.errors import DomainError, InvariantError, OracleLimitError, StaleCertificateError
from c4lab.graphio import _decode_n, _encode_n
from c4lab.graphs import Graph, bipartition, bits, mask_of
from c4lab.hypergraphs import DEFAULT_ALPHA_LIMIT, InducedPair
from c4lab.oracles import closes_c4, max_independent_set
from c4lab.pipeline import MODES, graph_digest


def average_degree(g: Graph) -> Fraction:
    """2e/n as an exact Fraction, the value a certificate's stats report."""
    return Fraction(2 * g.edge_count, g.n)


def max_degree(g: Graph) -> int:
    return max(map(int.bit_count, g.masks), default=0)


def everything(g: Graph) -> int:
    """The vertex mask of every vertex of g."""
    return (1 << g.n) - 1


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle via BFS from every vertex; None if acyclic."""
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
        if best == 3:
            return 3
    return best


def brute_force_c4_exists(g: Graph) -> bool:
    """Quadruple scan baseline, independent of the pair-intersection detector."""
    for quad in combinations(range(g.n), 4):
        for a, b, c, d in ((quad[0], quad[1], quad[2], quad[3]),
                           (quad[0], quad[1], quad[3], quad[2]),
                           (quad[0], quad[2], quad[1], quad[3])):
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a):
                return True
    return False


def is_c4_free_by_closes_c4(nbr, alive: int) -> bool:
    """One `closes_c4` call per vertex u of the vertex mask `alive`, against
    the vertices of `alive` above u: the reference for `oracles.is_c4_free`,
    which runs the same test inline."""
    return not any(closes_c4(nbr, u, alive & (-1 << (u + 1))) for u in bits(alive))


def brute_force_mis_size(g: Graph) -> int:
    """Subset scan baseline for the maximum independent set size."""
    best = 0
    for subset in range(1 << g.n):
        verts = [v for v in range(g.n) if (subset >> v) & 1]
        if all(not g.has_edge(u, v) for u, v in combinations(verts, 2)):
            best = max(best, len(verts))
    return best


def repair_to_c4_free(g: Graph) -> Graph:
    """Delete one edge of each 4-cycle until none remain (deterministic)."""
    from c4lab.oracles import find_c4

    edges = set(g.edges())
    cur = g
    while True:
        wit = find_c4(cur)
        if wit is None:
            return cur
        a, b, c, d = wit
        edges.discard((min(a, b), max(a, b)))
        cur = Graph(g.n, sorted(edges))


def reiman_holds(n: int, e: int) -> bool:
    """Exact test of Reiman's bound e <= n^{3/2}/2 + n/4 + 1, which every
    C4-free graph's counts satisfy.

    Rearranged to (4e - n - 4)^2 <= 4 n^3 so only integers are compared.
    """
    lhs = 4 * e - n - 4
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * n ** 3


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each relabelled past the ones before it."""
    edges, offset = [], 0
    for g in parts:
        edges += [(offset + u, offset + v) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


def pair_scan_biclique(g: Graph):
    """The K_{2,2} common-pair scan with no C4-free fast reject: the witness
    `contains_biclique(g, 2)` must keep returning."""
    seen: dict[tuple[int, int], int] = {}
    for w in range(g.n):
        for u, v in combinations(list(g.neighbors(w)), 2):
            prev = seen.get((u, v))
            if prev is not None:
                return frozenset([u, v]), frozenset([prev, w])
            seen[(u, v)] = w
    return None


def degree_scan_biclique(g: Graph, s: int):
    """The K_{s,s} scan over degree-ordered candidate sides with
    common-neighbourhood pruning and no decision pass in front: the witness
    `contains_biclique(g, s)` must keep returning for s >= 3."""
    if 2 * s > g.n:
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
            new_common = common & g.masks[v] if chosen else g.masks[v]
            if new_common.bit_count() < s:
                continue
            res = extend(chosen + [v], i + 1, new_common)
            if res is not None:
                return res
        return None

    return extend([], 0, 0)


def heavy_partners_by_wedge_count(g: Graph, s: int) -> list[set[int]]:
    """For each v, the u != v with at least s common neighbours, counted one
    wedge v-w-u at a time: the reference for `heavy_partners`."""
    out = []
    for v in range(g.n):
        codeg: dict[int, int] = {}
        for w in g.neighbors(v):
            for u in g.neighbors(w):
                if u != v:
                    codeg[u] = codeg.get(u, 0) + 1
        out.append({u for u, c in codeg.items() if c >= s})
    return out


def has_biclique_by_heavy_cliques(masks, s: int) -> bool:
    """The K_{s,s} decision pass with no peel in front and a loop over the
    candidates at every level: the reference for `oracles._has_biclique`.

    A side of a K_{s,s} is an s-clique of the graph of pairs with codegree
    >= s whose common neighbourhood has s vertices; each clique is grown
    downward from its largest vertex.  The codegrees come from an s-level
    saturating counter over each vertex's neighbour masks."""
    below: list[int] = []

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

    for v, nv in enumerate(masks):
        level = [0] * s
        for w in bits(nv):
            for j in range(s - 1, 0, -1):
                level[j] |= level[j - 1] & masks[w]
            level[0] |= masks[w]
        below.append(level[-1] & ((1 << v) - 1))
        if below[v] and grow(below[v], masks[v], s - 1):
            return True
    return False


def kss_core_by_rescans(masks, s: int) -> int:
    """The vertex mask left by deleting, one full scan after another until
    a scan deletes nothing, every live vertex of live degree below s and
    every one of live degree s whose neighbours have fewer than s common
    live neighbours: the reference core of `oracles._kss_core` on a
    K_{s,s}-free graph."""
    live = (1 << len(masks)) - 1
    changed = True
    while changed:
        changed = False
        for v in bits(live):
            nv = masks[v] & live
            if nv.bit_count() == s:
                common = live
                for w in bits(nv):
                    common &= masks[w]
                if common.bit_count() >= s:
                    continue
            elif nv.bit_count() > s:
                continue
            live &= ~(1 << v)
            changed = True
    return live


def brown_graph(p: int, a: int) -> Graph:
    """Brown's graph on F_p^3 (Brown, Canad. Math. Bull. 1966): x ~ y when
    sum (x_i - y_i)^2 = a mod p, with x = (x0, x1, x2) numbered
    x0 p^2 + x1 p + x2.  K_{3,3}-free for an odd prime p when -a is a
    quadratic non-residue mod p."""
    def number(x: int, y: int, z: int) -> int:
        return (x % p) * p * p + (y % p) * p + z % p

    points = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]
    sphere = [(x, y, z) for x, y, z in points if (x * x + y * y + z * z - a) % p == 0]
    edges = {tuple(sorted((number(x, y, z), number(x + d, y + e, z + f))))
             for x, y, z in points for d, e, f in sphere}
    return Graph(p ** 3, sorted(edges))


def induced_by_edge_walk(g: Graph, s) -> Graph:
    """Induced subgraph built from every parent edge, through the checked
    constructor: the reference for the mask-based `induced`."""
    keep = sorted(set(s))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(keep), edges)


def min_degree_core_on_graph(g: Graph, t: int) -> frozenset[int]:
    """The reference for `graphs.min_degree_core` on a whole Graph: the
    peel as it was before it read vertex masks, over a list of live flags."""
    from c4lab.errors import DomainError

    if t <= 0:
        raise DomainError("t must be a positive integer")
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if deg[v] < t]
    while stack:
        u = stack.pop()
        if not alive[u]:
            continue
        alive[u] = False
        for w in g.neighbors(u):
            if alive[w]:
                deg[w] -= 1
                if deg[w] < t:
                    stack.append(w)
    return frozenset(v for v in range(g.n) if alive[v])


def half_degree_core_on_graph(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """The reference for `graphs.half_degree_core` on a whole Graph: the
    core at ceil(d/2) as a Graph with its ascending ids in g, and g itself
    when g has no edge."""
    from c4lab.graphs import induced

    if g.edge_count == 0:
        return g, tuple(range(g.n))
    ids = tuple(sorted(min_degree_core_on_graph(g, -(-g.edge_count // g.n))))
    return induced(g, ids), ids


def degeneracy_by_min_scan(g: Graph):
    """Degeneracy by scanning all live vertices for the (degree, id)-least one
    at every removal, O(n^2): the reference for the heap-based `degeneracy`."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order = []
    d = 0
    for _ in range(g.n):
        u = min((v for v in range(g.n) if alive[v]), key=lambda v: (deg[v], v))
        d = max(d, deg[u])
        alive[u] = False
        order.append(u)
        for w in g.neighbors(u):
            if alive[w]:
                deg[w] -= 1
    return d, tuple(order)


def short_cycle_vertices_by_pair_scan(g: Graph, inside) -> set[int]:
    """Vertices of triangles or 4-cycles inside `inside`, by a scan over every
    pair of its members: the reference for the short-cycle deletion in
    `reductions._survivors`."""
    mask = 0
    for v in inside:
        mask |= 1 << v
    bad: set[int] = set()
    members = sorted(inside)
    for i, u in enumerate(members):
        mu = g.masks[u] & mask
        for v in members[i + 1:]:
            common = mu & g.masks[v]
            cnt = common.bit_count()
            # adjacent u, v close a triangle with every common w; any u, v
            # are a diagonal of a 4-cycle through any two common w
            if cnt >= 2 or (cnt and g.has_edge(u, v)):
                bad.add(u)
                bad.add(v)
                bad.update(bits(common))
    return bad


def run_optimized(code: str) -> str:
    """Run `code` under `python -O`, with asserts stripped, and return its
    standard output; a nonzero exit fails the calling test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def best_c4free_by_fraction_scan(g: Graph, limit: int = 22):
    """The subset scan with one Fraction per subset and a pairwise C4 step:
    the reference for `best_c4free_induced`, which must return an equal
    (set, value)."""
    from fractions import Fraction

    from c4lab.errors import DomainError, OracleLimitError

    if g.n > limit:
        raise OracleLimitError(f"|g|={g.n} exceeds oracle limit {limit}")
    if g.n == 0:
        raise DomainError("graph must have at least one vertex")
    masks = g.masks
    total = 1 << g.n
    c4free = bytearray(total)
    edge_cnt = [0] * total
    c4free[0] = 1
    best_key: tuple | None = None
    best_set: frozenset[int] = frozenset()
    best_val = Fraction(0)
    for subset in range(1, total):
        top = subset.bit_length() - 1
        prev = subset ^ (1 << top)
        if not c4free[prev]:
            continue
        mt = masks[top] & subset
        ok = True
        rest = prev
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if (mt & masks[x] & subset).bit_count() >= 2:
                ok = False
                break
            rest ^= low
        if not ok:
            continue
        c4free[subset] = 1
        e = edge_cnt[prev] + mt.bit_count()
        edge_cnt[subset] = e
        size = subset.bit_count()
        val = Fraction(2 * e, size)
        if best_key is not None and (-val, size) > best_key[:2]:
            continue
        verts = tuple(bits(subset))
        key = (-val, size, verts)
        if best_key is None or key < best_key:
            best_key, best_set, best_val = key, frozenset(verts), val
    return best_set, best_val


def best_c4free_by_byte_table(g: Graph, limit: int = 22):
    """The scalar subset scan over a 2^n-byte table of edge counts, one
    `closes_c4` step per subset: the reference for the lane kernel of
    `best_c4free_induced`, which must return an equal (set, value)."""
    from fractions import Fraction

    from c4lab.errors import DomainError, OracleLimitError

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


def _c4free_by_pair_scan(masks, sub) -> bool:
    """Whether the vertices `sub` induce no C4, by testing every pair for two
    common neighbours inside `sub`."""
    smask = 0
    for v in sub:
        smask |= 1 << v
    for i, u in enumerate(sub):
        mu = masks[u] & smask
        for v in sub[i + 1:]:
            if (mu & masks[v]).bit_count() >= 2:
                return False
    return True


def count_c4free_by_combination_scan(g: Graph, size: int) -> int:
    """Count of `size`-subsets inducing no C4, by a pair scan of every
    combination: the reference for counting `lowerbounds._c4free_subsets`."""
    masks = g.masks
    return sum(_c4free_by_pair_scan(masks, sub)
               for sub in combinations(range(g.n), size))


def sample_c4free_by_pair_scan(g: Graph, size: int, samples: int, rng) -> int:
    """How many of `samples` uniform size-subsets induce no C4, by a pair
    scan of each: the reference for `lowerbounds._sample_c4free_subsets`,
    with the same draws from `rng`."""
    from c4lab.graphs import sample_subset

    masks = g.masks
    return sum(_c4free_by_pair_scan(masks, sample_subset(rng, range(g.n), size))
               for _ in range(samples))



def count_biclique_pairs_by_vertex_sets(g: Graph, s: int) -> int:
    """Unordered pairs {S,T} of disjoint s-sets with all s^2 cross edges, by
    the common neighbourhood of every s-set of vertex ids: the reference for
    `lowerbounds._count_biclique_pairs`."""
    from math import comb

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

# -- the near-regular route as it was before it ran on masks -------------------
# `sparsify_by_graph_per_retry` and `extreme_split_by_set_scans` (with the
# retry helpers they call) are the reductions that build a Graph per
# sparsifier retry and count neighbours by generator sums, recomputing the
# whole split for every seed.  The mask-based reductions must return the
# masks of equal vertex sets and raise the same exception type and message,
# with the same .best as a mask.

def induced_bipartite_by_relabelling(bg, keep):
    """The induced bipartite subgraph on `keep`, keeping the side assignment:
    vertex i is the i-th smallest vertex of keep."""
    from c4lab.graphs import BipartiteGraph, induced

    keep = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep)}
    return BipartiteGraph(induced(bg.underlying, keep),
                          [index[v] for v in keep if v in bg.side_a],
                          [index[v] for v in keep if v in bg.side_b])


def biregularity_factor_by_degree_scan(gamma):
    """The reference for `reductions.biregularity_factor` on a BipartiteGraph."""
    from fractions import Fraction

    e = gamma.edge_count
    if e == 0:
        return Fraction(0)
    g = gamma.underlying
    return max(Fraction(max(g.degree(v) for v in side) * len(side), e)
               for side in (gamma.side_a, gamma.side_b))


def almost_biregular_reduce_by_set_scans(gamma, seed: int, retries: int = 100):
    """The reference for `reductions.almost_biregular_reduce` on a
    BipartiteGraph: the kept vertex ids, ascending."""
    from fractions import Fraction

    from c4lab.errors import ExtractionFailure
    from c4lab.graphs import mix_seed

    g = gamma.underlying
    e = gamma.edge_count
    if e == 0:
        return tuple(range(gamma.n))
    big_l = biregularity_factor_by_degree_scan(gamma)
    a_side, b_side = gamma.a_list(), gamma.b_list()
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
        if 4 * e_sub * len(large) > e * len(keep):
            out = induced_bipartite_by_relabelling(gamma, keep)
            dd = average_degree(out.underlying)
            assert dd >= average_degree(g) / 4
            assert max_degree(out.underlying) <= 24 * big_l * dd
            return tuple(sorted(keep))
    raise ExtractionFailure(f"no verified sample in {retries} attempts")


def sparsify_by_graph_per_retry(g: Graph, vertices, s: int, seed: int, target,
                                retries: int = 100):
    """The reference for `reductions.sparsify_short_cycles`: the recipe on
    the Graph g[vertices], with every vertex set lifted back to g's ids."""
    from fractions import Fraction

    from c4lab.errors import DomainError, ExtractionFailure, InvariantError
    from c4lab.graphs import induced, mix_seed
    from c4lab.oracles import find_c3, is_c4_free

    if s < 2:
        raise DomainError("s must be >= 2")
    members = sorted(set(vertices))
    g = induced(g, members)
    d = max_degree(g)
    p = 1.0 if d <= 1 else d ** (1 / (5 * s) - 1)
    best: tuple[Fraction, frozenset[int]] | None = None
    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        u = 0
        for v in range(g.n):
            if rng.random() < p:
                u |= 1 << v
        dropped = sum(1 << v for v in short_cycle_vertices_by_pair_scan(g, list(bits(u))))
        for v in bits(u):
            if (g.masks[v] & u).bit_count() >= 1 + 4 * p * g.degree(v):
                dropped |= 1 << v
        survivors = frozenset(members[v] for v in bits(u & ~dropped))
        if not survivors:
            continue
        sub = induced(g, bits(u & ~dropped))
        if not (find_c3(sub) is None and is_c4_free(sub.masks, everything(sub))):
            raise InvariantError("sparsifier survivors contain a triangle or 4-cycle")
        dd = average_degree(sub)
        if dd >= target:
            return survivors
        if best is None or dd > best[0]:
            best = (dd, survivors)
    raise ExtractionFailure(
        f"no sample reached the target in {retries} attempts",
        best=None if best is None else best[1])


def extreme_split_by_set_scans(g: Graph, delta: float, seed: int, retries: int = 100):
    """The reference for `reductions.extreme_split`: the near-regular vertex
    set, or None for a lopsided cut."""
    from math import ceil

    from c4lab.errors import DomainError, ExtractionFailure
    from c4lab.graphs import induced, mix_seed

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
        return None
    base = induced(g, rest)
    base_map = sorted(rest)
    if base.n == 0 or base.edge_count == 0:
        raise ExtractionFailure("nothing remains outside the high-degree set")
    core = min_degree_core_on_graph(base, max(1, ceil(average_degree(base) / 2)))
    if not core:
        raise ExtractionFailure("min-degree core is empty")
    core_map = [base_map[v] for v in sorted(core)]
    h = induced(base, core)
    df = float(d)
    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        outcome = _near_regular_attempt_by_set_scans(h, df, rng, mix_seed(seed, attempt))
        if outcome is None:
            continue
        chosen = frozenset(core_map[v] for v in outcome)
        if induced(g, chosen).edge_count == 0:
            continue
        return chosen
    raise ExtractionFailure(f"near-regular extraction failed in {retries} attempts")


def _near_regular_attempt_by_set_scans(h: Graph, d: float, rng, reduce_seed: int):
    import math

    from c4lab.errors import ExtractionFailure
    from c4lab.graphs import BipartiteGraph

    if h.edge_count == 0:
        return None
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
    try:
        ids = almost_biregular_reduce_by_set_scans(gamma, reduce_seed)
    except ExtractionFailure:
        return None
    return frozenset(keep[i] for i in ids)


def relabellings_by_all_permutations(n: int, edges) -> set[tuple[int, ...]]:
    """Every sorted relabelled edge-mask tuple over all n! relabellings."""
    return {tuple(sorted(sum(1 << perm[v] for v in bits(mask)) for mask in edges))
            for perm in permutations(range(n))}


def furedi_kernel_by_buckets(f, s: int, t: int, seed: int,
                              retries: int = 100):
    """`hypergraphs.furedi_kernel` as it was before rainbow edges came from
    incidence masks: a color vector for every edge, and every candidate
    color set bucketed at every step.  The reference that the kernel must
    match, `history` included, or raise the same exception and message.

    Extract a rainbow sub-family whose traces obey the t-fold dichotomy.

    One attempt: color vertices uniformly at random with r colors, keep the
    rainbow edges E0, then clean iteratively.  At each step the shared color
    sets S_i are found by bucketing edges on their color-set slices; if the
    slice side is small (|B| <= |E_i| / 2tT with T = sum_{j<=s} C(r,j)),
    slices of multiplicity below t are peeled together with their edges and
    the loop stops; otherwise the color set with the most distinct slices is
    collapsed to one representative edge per slice, which removes it from
    S_{i+1}.  Every transition is checked to keep at least a 1/(2tT^2)
    fraction of edges, and the loop runs at most T+1 steps.  The finished
    kernel is replayed through verify_kernel before it is returned; attempts
    that fail verification (or go extinct) burn a retry.
    """
    import random
    from math import comb
    from operator import itemgetter

    from c4lab.errors import DomainError, KernelFailure
    from c4lab.graphs import mix_seed, rand_below
    from c4lab.hypergraphs import (
        Hypergraph,
        PartiteKernel,
        _check_step,
        _color_sets,
        verify_kernel,
    )

    r = f.uniform_rank()
    if r is None or r < 1:
        raise DomainError("input must be r-uniform with r >= 1")
    if s > r:
        raise DomainError(f"s={s} must not exceed r={r}")
    if s < 1 or t < 1:
        raise DomainError("s and t must be >= 1")
    if not f.edges:
        raise DomainError("input has no edges")
    big_t = sum(comb(r, j) for j in range(s + 1))
    edge_list = f.edges
    # one slice getter per candidate color set: get(vec) is the edge's slice
    candidates = [(e, itemgetter(*e)) for e in _color_sets(r, s)]
    best_rainbow = 0  # the largest rainbow family of any coloring

    for attempt in range(retries):
        rng = random.Random(mix_seed(seed, attempt))
        coloring = tuple(rand_below(rng, r) for _ in range(f.vertex_count))
        # rainbow edges as color-indexed vertex lists: vec[c] is the vertex of color c
        cur: list[int] = []
        vecs: dict[int, list[int]] = {}
        for idx, e in enumerate(edge_list):
            vec = [-1] * r
            for v in e:
                vec[coloring[v]] = v
            if -1 not in vec:
                cur.append(idx)
                vecs[idx] = vec
        if not cur:
            continue
        history = [len(cur)]
        steps = 0
        while True:
            # a color set is shared when two edges agree on its slice,
            # that is when its slices are fewer than the edges
            buckets: dict[tuple[int, ...], dict] = {}
            b_size = 0
            cur_vecs = [vecs[idx] for idx in cur]
            for e, get in candidates:
                bk: dict = {}
                for key, idx in zip(map(get, cur_vecs), cur):
                    if key in bk:
                        bk[key].append(idx)
                    else:
                        bk[key] = [idx]
                if len(bk) < len(cur):
                    buckets[e] = bk
                    b_size += len(bk)
            if 2 * t * big_t * b_size <= len(cur):
                # terminal: peel slices of multiplicity below t
                node_edges = {(e, key): idxs
                              for e, bk in buckets.items() for key, idxs in bk.items()}
                edge_nodes: dict[int, list[tuple]] = {idx: [] for idx in cur}
                for node, idxs in node_edges.items():
                    for idx in idxs:
                        edge_nodes[idx].append(node)
                alive_edge = {idx: True for idx in cur}
                deg = {node: len(idxs) for node, idxs in node_edges.items()}
                queue = [node for node, d_ in deg.items() if d_ < t]
                dead_nodes: set[tuple] = set()
                while queue:
                    node = queue.pop()
                    if node in dead_nodes:
                        continue
                    dead_nodes.add(node)
                    for idx in node_edges[node]:
                        if alive_edge[idx]:
                            alive_edge[idx] = False
                            for other in edge_nodes[idx]:
                                if other not in dead_nodes:
                                    deg[other] -= 1
                                    if deg[other] < t:
                                        queue.append(other)
                survivors = [idx for idx in cur if alive_edge[idx]]
                steps += 1
                if not survivors:
                    break  # extinct attempt; burn a retry
                _check_step(len(survivors), len(cur), steps, t, big_t, "cleaning")
                history.append(len(survivors))
                survivor_vecs = [vecs[idx] for idx in survivors]
                trace_edges = [frozenset(e) for e, get in candidates
                               if len(set(map(get, survivor_vecs))) < len(survivors)]
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
            # non-terminal: collapse the color set with the most distinct slices
            pick = max(buckets, key=lambda e: (len(buckets[e]), [-x for x in e]))
            nxt = sorted(min(idxs) for idxs in buckets[pick].values())
            steps += 1
            _check_step(len(nxt), len(cur), steps, t, big_t, "pigeonhole")
            history.append(len(nxt))
            cur = nxt
        best_rainbow = max(best_rainbow, history[0])

    raise KernelFailure(
        f"no verified kernel within {retries} colorings (best rainbow family: "
        f"{best_rainbow} edges)")


def bipartition_reference(g: Graph):
    """`graphs.bipartition` on every vertex of g as a per-vertex stack
    search, both sides as sets: each component is coloured from its least
    vertex, which lands on side_a."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    a = frozenset(v for v in range(g.n) if color[v] == 0)
    return a, frozenset(range(g.n)) - a


def graph_digest_reference(g: Graph) -> str:
    """`pipeline.graph_digest` as its one-line formula over `g.edges()`."""
    import hashlib

    payload = f"{g.n}|{g.edge_count}|" + "".join(f"{u},{v};" for u, v in g.edges())
    return hashlib.sha256(payload.encode()).hexdigest()


def sampler_by_set_scans(g: Graph, mask: int, rng):
    """One draw of `subdivisions._sampler(g.masks, mask)`: the set-scan case
    on the Graph that `mask` induces, with its ids lifted back to g's."""
    from c4lab.graphs import induced

    ids = list(bits(mask))
    core = induced(g, ids)
    parts = bipartition_reference(core)
    if parts is None:
        got = near_regular_case_by_set_scans(core, rng)
    else:
        got = bipartite_case_by_set_scans(core, parts, rng)
    if got is None:
        return None
    w_set, u_map = got
    return ([ids[w] for w in w_set],
            {ids[u]: (ids[a], ids[b]) for u, (a, b) in u_map.items()})


def bipartite_case_by_set_scans(core: Graph, parts, rng):
    """`subdivisions._bipartite_case` on a whole Graph, with W as a set and
    each big-side vertex's W-neighbours listed one by one."""
    side_a, side_b = parts
    if len(side_a) < len(side_b):
        side_a, side_b = side_b, side_a
    d = float(average_degree(core))
    cap = max(1, 4 * d)
    big = [v for v in sorted(side_a) if core.degree(v) < cap]
    p = min(1.0, 1.0 / (8 * d)) if d > 0 else 1.0
    w_set = sorted(v for v in sorted(side_b) if rng.random() < p)
    if len(w_set) < 2:
        return None
    wset = set(w_set)
    u_map: dict[int, tuple[int, int]] = {}
    for x in big:
        hits = [w for w in core.neighbors(x) if w in wset]
        if len(hits) == 2:
            u_map[x] = (hits[0], hits[1])
    if not u_map:
        return None
    return w_set, u_map


def near_regular_case_by_set_scans(core: Graph, rng):
    """`subdivisions._near_regular_case` on a whole Graph, with W0, W and U0
    as sets."""
    d = float(average_degree(core))
    if d <= 0:
        return None
    p = min(1.0, 1.0 / (10 * d ** 1.6))
    w0 = {v for v in range(core.n) if rng.random() < p}
    w_set = sorted(v for v in w0
                   if not any(x in w0 for x in core.neighbors(v)))
    if len(w_set) < 2:
        return None
    wset = set(w_set)
    u0 = set()
    for u in range(core.n):
        in_w = [x for x in core.neighbors(u) if x in wset]
        in_w0 = [x for x in core.neighbors(u) if x in w0]
        if len(in_w) == 2 and len(in_w0) == 2:
            u0.add(u)
    u_map: dict[int, tuple[int, int]] = {}
    for u in sorted(u0 - w0):
        if any(x in u0 for x in core.neighbors(u)):
            continue
        hits = [x for x in core.neighbors(u) if x in wset]
        u_map[u] = (hits[0], hits[1])
    if not u_map:
        return None
    return w_set, u_map


def witness_vertices(w) -> set[int]:
    """A subdivision witness's branch and path vertices, as a set."""
    verts = set(w.branch_vertices)
    for path in w.paths.values():
        verts.update(path)
    return verts


def witness_path_edges(w) -> set[tuple[int, int]]:
    """A subdivision witness's path edges, each as (min, max)."""
    out: set[tuple[int, int]] = set()
    for path in w.paths.values():
        for a, b in zip(path, path[1:]):
            out.add((min(a, b), max(a, b)))
    return out


def verify_subdivision_by_sets(g: Graph, w) -> bool:
    """`subdivisions.verify_subdivision` as a replay over Python sets: seen
    internals in a set, and the induced check as an equality of the edge
    set g induces on the witness with the path edges."""
    branch = w.branch_vertices
    k = len(branch)
    if len(set(branch)) != k or any(not 0 <= v < g.n for v in branch):
        return False
    expected_keys = {(min(u, v), max(u, v)) for u, v in combinations(branch, 2)}
    if set(w.paths.keys()) != expected_keys:
        return False
    seen_internal: set[int] = set()
    for (u, v), path in w.paths.items():
        if len(path) < 2 or path[0] != u or path[-1] != v:
            return False
        if any(not 0 <= x < g.n for x in path):
            return False
        if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
            return False
        internal = path[1:-1]
        if len(set(internal)) != len(internal):
            return False
        for x in internal:
            if x in branch or x in seen_internal:
                return False
            seen_internal.add(x)
    if not w.induced_flag:
        return True
    inside = mask_of(witness_vertices(w))
    actual = {(u, v) for u in bits(inside)
              for v in bits(g.masks[u] & inside) if u < v}
    return actual == witness_path_edges(w)


def exhaustive_pack_by_full_routes(g: Graph, k: int, require_induced: bool):
    """`subdivisions._exhaustive_pack` without its chord prune: every
    packing is routed in full, and only then tested for chords."""
    from c4lab.subdivisions import SubdivisionWitness, _is_induced

    nbr = g.masks
    for branch in combinations(range(g.n), k):
        pairs = list(combinations(branch, 2))
        paths: dict[tuple[int, int], tuple[int, ...]] = {}

        def route(i: int, blocked: int) -> bool:
            if i == len(pairs):
                return not require_induced or _is_induced(g, branch, paths)
            u, v = pairs[i]

            def dfs(x: int, acc: list[int], blocked: int) -> bool:
                for y in bits(nbr[x]):
                    if y == v:
                        paths[(u, v)] = (*acc, v)
                        if route(i + 1, blocked):
                            return True
                    elif not blocked >> y & 1:
                        if dfs(y, acc + [y], blocked | 1 << y):
                            return True
                return False

            return dfs(u, [u], blocked)

        if route(0, mask_of(branch)):
            flag = require_induced or _is_induced(g, branch, paths)
            return SubdivisionWitness(tuple(branch), dict(paths), induced_flag=flag)
    return None


def gen_lopsided_by_pair_holders(a_count: int, b_count: int, r: int, s: int,
                                 seed: int) -> Graph:
    """`graphs.gen_lopsided`'s draws for s >= 2, with each pair of B-vertices
    holding the set of placed A-vertices adjacent to both; no post-hoc
    certification."""
    from c4lab.graphs import mix_seed, sample_subset

    rng = random.Random(mix_seed(seed, 0))
    b_pool = list(range(b_count))
    neighborhoods: list[tuple[int, ...]] = []
    pair_holders: dict[tuple[int, int], set[int]] = {}

    def closes_kss(cand: list[int]) -> bool:
        for sub in combinations(cand, s):
            holders: set[int] | None = None
            for b1, b2 in combinations(sub, 2):
                lst = pair_holders.get((b1, b2))
                if not lst:
                    holders = set()
                    break
                holders = set(lst) if holders is None else holders & lst
                if not holders:
                    break
            if holders and len(holders) >= s - 1:
                return True
        return False

    for idx in range(a_count):
        for _ in range(200):
            cand = sample_subset(rng, b_pool, r)
            if not closes_kss(cand):
                neighborhoods.append(tuple(cand))
                for b1, b2 in combinations(cand, 2):
                    pair_holders.setdefault((b1, b2), set()).add(idx)
                break
        else:
            raise AssertionError(f"could not place A-vertex {idx}")
    return Graph(a_count + b_count,
                 [(a, a_count + b) for a, nb in enumerate(neighborhoods) for b in nb])


# -- per-bit graph6 / sparse6 codec ------------------------------------------
# `graphio`'s readers and writers as they were before the bit stream went
# through `binascii`: every bit of the body is a list entry or a character.

_G6_SIX_BITS = {b: format(b - 63, "06b") for b in range(63, 127)}


def _pack_bits(bit_list: list[int], pad_bit: int = 0) -> bytes:
    out = bytearray()
    for i in range(0, len(bit_list), 6):
        group = bit_list[i:i + 6]
        group += [pad_bit] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def write_graph6_by_bit_list(g: Graph) -> str:
    bit_list = []
    for j in range(1, g.n):
        for i in range(j):
            bit_list.append(1 if g.has_edge(i, j) else 0)
    return (_encode_n(g.n) + _pack_bits(bit_list)).decode("ascii")


def read_graph6_by_bit_string(text: str) -> Graph:
    data = text.strip().removeprefix(">>graph6<<").encode("ascii")
    n, off = _decode_n(data)
    body = data[off:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError("wrong body length")
    stream = body.decode("ascii").translate(_G6_SIX_BITS)
    edges = []
    start = 0
    for j in range(1, n):
        edges += [(i, j) for i in range(j) if stream[start + i] == "1"]
        start += j
    return Graph(n, edges)


def write_sparse6_by_bit_list(g: Graph) -> str:
    n = g.n
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    bit_list: list[int] = []

    def put(b: int, x: int):
        bit_list.append(b)
        for i in range(k - 1, -1, -1):
            bit_list.append((x >> i) & 1)

    v = 0
    for u, w in sorted(g.edges(), key=lambda e: (e[1], e[0])):
        if w == v:
            put(0, u)
        elif w == v + 1:
            v += 1
            put(1, u)
        else:
            v = w
            put(1, w)
            put(0, u)
    pad = (-len(bit_list)) % 6
    if k < 6 and n == (1 << k) and pad >= k and v < n - 1:
        bit_list.append(0)
    return (b":" + _encode_n(n) + _pack_bits(bit_list, pad_bit=1)).decode("ascii")


def read_sparse6_by_bit_list(text: str) -> Graph:
    data = text.strip().removeprefix(">>sparse6<<").removeprefix(":").encode("ascii")
    n, off = _decode_n(data)
    bits_flat: list[int] = []
    for b in data[off:]:
        bits_flat.extend(((b - 63) >> kk) & 1 for kk in range(5, -1, -1))
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits_flat):
        b = bits_flat[pos]
        x = 0
        for i in range(k):
            x = (x << 1) | bits_flat[pos + 1 + i]
        pos += 1 + k
        if b:
            v += 1
        if v >= n:
            break
        if x > v:
            v = x
        elif x == v:
            break
        else:
            edges.append((x, v))
    return Graph(n, edges)


# the flags each subgraph mode promises, as the format defines them
_REFERENCE_CLAIMS = {
    "trivial_already_c4free": ("induced_c4free", "avg_degree_ok"),
    "case1_near_regular": ("induced_c4free", "avg_degree_ok"),
    "case2_lopsided": ("induced_c4free", "avg_degree_ok"),
    "oracle_fallback": ("induced_c4free",),
}
_REFERENCE_NO_FLAGS = {"induced_c4free": False, "avg_degree_ok": False,
                       "bipartite": False, "max_degree_bound_ok": False}


def _flags_and_stats_reference(g: Graph, witness, k: int, delta: float):
    """A witness's flags and stats, with each mode's biclique and empty
    witness handled by its caller's own branch."""
    witness = tuple(witness)
    if not witness:
        return dict(_REFERENCE_NO_FLAGS), {"avg_degree": "0", "max_degree": 0, "size": 0}
    alive = mask_of(witness)
    deg = [(g.masks[v] & alive).bit_count() for v in witness]
    avg = Fraction(sum(deg), len(witness))
    mx = max(deg)
    flags = {
        "induced_c4free": is_c4_free_by_closes_c4(g.masks, alive),
        "avg_degree_ok": avg >= k,
        "bipartite": bipartition(g.masks, alive) is not None,
        "max_degree_bound_ok": mx <= 1 or float(avg) >= mx ** (1 - delta),
    }
    return flags, {"avg_degree": str(avg), "max_degree": mx, "size": len(witness)}


def verify_certificate_reference(g: Graph, cert) -> bool:
    """verify_certificate as it stood with a separate biclique branch, plus
    the shape rule: a `biclique_found` record holds a biclique pair, a
    `failure` record no witness, and every other mode a vertex list."""
    if graph_digest(g) != cert.input_digest:
        raise StaleCertificateError("certificate does not match this graph")
    if cert.mode not in MODES:
        return False
    if (cert.biclique is not None) != (cert.mode == "biclique_found"):
        return False
    if (cert.witness is None) != (cert.mode in ("biclique_found", "failure")):
        return False
    if cert.mode == "biclique_found":
        s_side, t_side = cert.biclique
        ids = s_side + t_side
        if len(set(ids)) != len(ids) or len(s_side) != len(t_side):
            return False
        if len(s_side) != cert.params["s"]:
            return False
        if not all(0 <= v < g.n for v in ids):
            return False
        stats = [cert.stats.get(key) for key in ("avg_degree", "max_degree", "size")]
        return (all(g.has_edge(u, v) for u in s_side for v in t_side)
                and cert.verified == _REFERENCE_NO_FLAGS and stats == ["0", 0, len(ids)])
    witness = cert.witness or ()
    if len(set(witness)) != len(witness) or any(not 0 <= v < g.n for v in witness):
        return False
    flags, stats = _flags_and_stats_reference(g, witness, cert.params["k"],
                                              cert.params["delta"])
    if flags != cert.verified:
        return False
    if any(stats[key] != cert.stats.get(key) for key in stats):
        return False
    if cert.mode == "trivial_already_c4free" and sorted(witness) != list(range(g.n)):
        return False
    return all(cert.verified[claim] for claim in _REFERENCE_CLAIMS.get(cert.mode, ()))


# -- the induced-pair layer over Python sets ---------------------------------
# `hypergraphs.verify_induced_pair`, `find_induced_pair` and `alpha_exact` as
# they stood before they read edge masks: pair conditions by set inclusion,
# co-occurrence as a dict of sets, and one conflict `Graph` per candidate A.

def verify_induced_pair_by_sets(h, pair) -> bool:
    """Exhaustive replay of both defining conditions plus disjointness."""
    a, b = pair.a_set, pair.b_set
    if a & b:
        return False
    for x in b:
        if not any(a <= e and x in e for e in h.edges):
            return False
    for e in h.edges:
        if a <= e and len(e & b) > 1:
            return False
    return True


def find_induced_pair_by_sets(h, k: int):
    """Recursive pair construction: greedy independent set, else recurse on a link."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not h.is_covered():
        raise DomainError("hypergraph must be covered")

    def recurse(vertices: list[int], edges: list[frozenset[int]]):
        vset = set(vertices)
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for e in edges:
            members = sorted(e & vset)
            for u, v in combinations(members, 2):
                adj[u].add(v)
                adj[v].add(u)
        chosen: list[int] = []
        taken: set[int] = set()
        blocked: set[int] = set()
        for v in sorted(vertices, key=lambda v: (len(adj[v]), v)):
            if v not in blocked:
                chosen.append(v)
                taken.add(v)
                blocked |= adj[v] | {v}
        if len(chosen) >= k:
            return InducedPair(frozenset(), frozenset(chosen[:k]))
        local = InducedPair(frozenset(), frozenset(chosen))
        if not chosen:
            return local
        x = max(chosen, key=lambda v: (len(adj[v]), -v))
        link_vertices = sorted(adj[x])
        if not link_vertices:
            return local
        link_edges = sorted(
            {e & adj[x] for e in edges if x in e} - {frozenset()},
            key=lambda e: (len(e), sorted(e)))
        child = recurse(link_vertices, list(link_edges))
        lifted = InducedPair(child.a_set | {x}, child.b_set)
        return lifted if lifted.order > local.order else local

    pair = recurse(list(range(h.vertex_count)), list(h.edges))
    if not verify_induced_pair_by_sets(h, pair):
        raise InvariantError("constructed pair failed its own invariants")
    return pair


def alpha_by_conflict_graphs(h) -> int:
    """Exact maximum induced-pair order by exhaustive A-enumeration."""
    if h.vertex_count > DEFAULT_ALPHA_LIMIT:
        raise OracleLimitError(
            f"|V|={h.vertex_count} exceeds alpha limit {DEFAULT_ALPHA_LIMIT}")
    candidates: set[frozenset[int]] = {frozenset()}
    for e in h.edges:
        members = sorted(e)
        for size in range(1, len(members) + 1):
            for sub in combinations(members, size):
                candidates.add(frozenset(sub))
    best = 0
    for a in sorted(candidates, key=lambda a: (len(a), sorted(a))):
        covering = [e for e in h.edges if a <= e]
        eligible = sorted(set().union(*covering) - a) if covering else []
        if not eligible:
            continue
        index = {v: i for i, v in enumerate(eligible)}
        conflicts = set()
        for e in covering:
            members = sorted(e & set(eligible))
            for u, v in combinations(members, 2):
                conflicts.add((index[u], index[v]))
        cg = Graph(len(eligible), sorted(conflicts))
        best = max(best, len(max_independent_set(cg)))
    return best
