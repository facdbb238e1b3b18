"""Shared test utilities: independent slow baselines and corpus generators."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from c4lab.graphs import Graph, bits, gen_gnp


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


def random_near_regular_c4_repaired(n: int, d: int, seed: int) -> Graph:
    """Roughly d-regular random graph with all 4-cycles repaired away."""
    p = min(1.0, d / max(1, n - 1))
    return repair_to_c4_free(gen_gnp(n, p, seed))


def random_graph_stream(count: int, n_max: int, seed: int):
    """Deterministic stream of (graph, meta) mixing sizes and densities."""
    rng = random.Random(seed)
    for i in range(count):
        n = 1 + rng.randrange(n_max)
        p = rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.8])
        yield gen_gnp(n, p, seed=rng.randrange(2 ** 32)), (n, p, i)


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


def induced_by_edge_walk(g: Graph, s) -> Graph:
    """Induced subgraph built from every parent edge, through the checked
    constructor: the reference for the mask-based `induced`."""
    keep = sorted(set(s))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(keep), edges, labels=[g.label(v) for v in keep])


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
    pair of its members: the reference for `_short_cycle_vertices`."""
    mask = 0
    for v in inside:
        mask |= 1 << v
    bad: set[int] = set()
    members = sorted(inside)
    for i, u in enumerate(members):
        mu = g.neighbor_mask(u) & mask
        for v in members[i + 1:]:
            common = mu & g.neighbor_mask(v)
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
    masks = tuple(g.neighbor_mask(v) for v in range(g.n))
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
    combination: the reference for `lowerbounds._count_c4free_subsets`."""
    masks = [g.neighbor_mask(v) for v in range(g.n)]
    return sum(_c4free_by_pair_scan(masks, sub)
               for sub in combinations(range(g.n), size))


def sample_c4free_by_pair_scan(g: Graph, size: int, samples: int, rng) -> int:
    """How many of `samples` uniform size-subsets induce no C4, by a pair
    scan of each: the reference for `lowerbounds._sample_c4free_subsets`,
    with the same draws from `rng`."""
    from c4lab.graphs import sample_subset

    masks = [g.neighbor_mask(v) for v in range(g.n)]
    return sum(_c4free_by_pair_scan(masks, sample_subset(rng, range(g.n), size))
               for _ in range(samples))
