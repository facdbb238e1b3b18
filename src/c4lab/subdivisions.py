"""Clique-subdivision finders: greedy routing, small exact packing, and the
induced extraction built on top of the C4-free pipeline.

A witness is never trusted: every returned subdivision replays through
verify_subdivision, and a returned induced flag has passed a degree-sum
count against the original graph.  Absence of a witness means the
search failed, never that no subdivision exists.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError, InvariantError
from .graphio import load_json, vertex_list
from .graphs import (
    Graph,
    bipartition,
    bits,
    degrees_within,
    half_degree_core,
    mask_of,
    mix_seed,
)
from .pipeline import PipelineParams, extract_induced_c4free

DEFAULT_EXHAUSTIVE_LIMIT = 12
# the connector sampler's attempts in one induced_subdivision call
SAMPLE_RETRIES = 400


@dataclass
class SubdivisionWitness:
    """k branch vertices joined pairwise by internally disjoint paths."""

    branch_vertices: tuple[int, ...]
    paths: dict[tuple[int, int], tuple[int, ...]]
    induced_flag: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "branch": list(self.branch_vertices),
            "paths": {f"{u}-{v}": list(p) for (u, v), p in sorted(self.paths.items())},
            "induced": self.induced_flag,
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SubdivisionWitness":
        """Parse a witness, checking the type of every field; a malformed one
        raises DomainError."""
        obj = load_json(text, "subdivision witness")
        if not isinstance(obj, dict):
            raise DomainError("subdivision witness must be a JSON object")
        for key in ("branch", "paths", "induced"):
            if key not in obj:
                raise DomainError(f"subdivision witness lacks the key {key!r}")
        branch = vertex_list(obj["branch"], "branch")
        if not isinstance(obj["paths"], dict):
            raise DomainError("paths must be an object of 'u-v' keys")
        paths = {}
        for key, path in obj["paths"].items():
            # no leading zero: one spelling per pair, so two keys cannot name one
            ends = re.fullmatch(r"(0|[1-9]\d*)-(0|[1-9]\d*)", key, re.ASCII)
            if ends is None:
                raise DomainError(f"path key {key!r} must be 'u-v'")
            paths[(int(ends[1]), int(ends[2]))] = vertex_list(path, f"path {key!r}")
        if not isinstance(obj["induced"], bool):
            raise DomainError("induced must be true or false")
        return SubdivisionWitness(branch, paths, obj["induced"])


def verify_subdivision(g: Graph, w: SubdivisionWitness) -> bool:
    """Replay every witness invariant against g.

    `inside` holds the branch set and the internal vertices seen so far,
    so an internal vertex that is a branch vertex or repeats, in its own
    path or another, is rejected.  Every vertex is range-checked before
    it is shifted into a mask.
    """
    branch = w.branch_vertices
    if len(set(branch)) != len(branch) or any(not 0 <= v < g.n for v in branch):
        return False
    if set(w.paths) != {(min(u, v), max(u, v)) for u, v in combinations(branch, 2)}:
        return False
    inside = mask_of(branch)
    for (u, v), path in w.paths.items():
        if len(path) < 2 or path[0] != u or path[-1] != v:
            return False
        if any(not 0 <= x < g.n for x in path):
            return False
        if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
            return False
        for x in path[1:-1]:
            if inside >> x & 1:
                return False
            inside |= 1 << x
    return not w.induced_flag or _is_induced(g, branch, w.paths)


def _is_induced(g: Graph, branch, paths) -> bool:
    """Whether g induces exactly the path edges on the witness vertices W.

    The paths must run along edges of g and meet only at their branch
    ends; then no two share an edge, and g induces exactly the path edges
    iff the degrees within W sum to twice the number of path edges.
    """
    inside = mask_of(branch)
    for path in paths.values():
        inside |= mask_of(path)
    nbr = g.masks
    degree_sum = sum((nbr[v] & inside).bit_count() for v in bits(inside))
    return degree_sum == 2 * sum(len(path) - 1 for path in paths.values())


def _greedy_attempt(g: Graph, branch: list[int]) -> dict | None:
    """Route all pairs by BFS through unused non-branch vertices: a dequeued
    vertex next to v ends the search, and otherwise claims its unseen
    neighbours in ascending order."""
    nbr = g.masks
    blocked = mask_of(branch)
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in combinations(sorted(branch), 2):
        parent = {}
        seen = blocked
        queue = [u]
        for x in queue:
            if nbr[x] >> v & 1:
                break
            fresh = nbr[x] & ~seen
            seen |= fresh
            for y in bits(fresh):
                parent[y] = x
                queue.append(y)
        else:
            return None
        path = [v, x]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()
        paths[(u, v)] = tuple(path)
        blocked |= mask_of(path[1:-1])
    return paths


def _exhaustive_pack(g: Graph, k: int, require_induced: bool
                     ) -> SubdivisionWitness | None:
    """Exact branch-set enumeration with disjoint-path packing (small graphs).

    `blocked` holds the branch set, the internals of the pairs already
    routed and the partial path's own vertices: the witness so far.  An
    induced packing has no chord, so there a path next to v steps only to
    v, and a new vertex may touch only x and v in the witness; adding
    vertices removes no chord, so every pruned branch would fail `_is_induced`."""
    nbr = g.masks
    for branch in combinations(range(g.n), k):
        pairs = list(combinations(branch, 2))
        paths: dict[tuple[int, int], tuple[int, ...]] = {}

        def route(i: int, blocked: int) -> bool:
            if i == len(pairs):
                return not require_induced or _is_induced(g, branch, paths)
            u, v = pairs[i]

            def dfs(x: int, acc: list[int], blocked: int) -> bool:
                steps = nbr[x]
                if require_induced and steps >> v & 1:
                    steps = 1 << v
                chords = blocked & ~(1 << x | 1 << v) if require_induced else 0
                for y in bits(steps):
                    if y == v:
                        # a failed attempt leaves its entry behind; the
                        # next attempt at this pair overwrites it
                        paths[(u, v)] = (*acc, v)
                        if route(i + 1, blocked):
                            return True
                    elif not blocked >> y & 1 and not nbr[y] & chords:
                        if dfs(y, acc + [y], blocked | 1 << y):
                            return True
                return False

            return dfs(u, [u], blocked)

        if route(0, mask_of(branch)):
            # route already accepted the packing as induced when one is required
            flag = require_induced or _is_induced(g, branch, paths)
            return SubdivisionWitness(tuple(branch), dict(paths), induced_flag=flag)
    return None


def _checked(g: Graph, w: SubdivisionWitness) -> SubdivisionWitness:
    if not verify_subdivision(g, w):
        raise InvariantError("constructed subdivision failed its own replay")
    return w


def find_subdivision(g: Graph, k: int, seed: int, retries: int = 30,
                     require_induced: bool = False) -> SubdivisionWitness | None:
    """A K_k subdivision witness, or None when the search fails.

    First greedy: branch vertices start as the top-k by degree, then rotate
    through seeded samples of the high-degree pool; paths are routed
    pair-by-pair with BFS through unused vertices.  Graphs within the
    exhaustive limit fall back to exact branch-set enumeration with
    backtracking path packing, so absence there is conclusive for the
    searched pattern family.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if k > g.n:
        return None
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    pool = by_degree[:max(k, min(g.n, 3 * k))]
    rng = random.Random(mix_seed(seed, 0))
    for attempt in range(retries):
        if attempt == 0:
            branch = by_degree[:k]
        else:
            picks = list(pool)
            rng.shuffle(picks)
            branch = sorted(picks[:k])
        paths = _greedy_attempt(g, list(branch))
        if paths is None:
            continue
        flag = _is_induced(g, branch, paths)
        if require_induced and not flag:
            continue
        w = SubdivisionWitness(tuple(sorted(branch)), paths, induced_flag=flag)
        return _checked(g, w)
    if g.n <= DEFAULT_EXHAUSTIVE_LIMIT:
        w = _exhaustive_pack(g, k, require_induced)
        if w is not None:
            return _checked(g, w)
    return None


# -- induced subdivisions via the extraction pipeline -------------------------

def _build_aux_graph(w_set: list[int], u_map: dict[int, tuple[int, int]]
                     ) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Auxiliary graph J, vertex i standing for w_set[i], with an edge per
    degree-2 connector vertex.

    u_map sends each connector to its (w1, w2) pair; duplicate pairs would
    be a 4-cycle in the host, which the pipeline certified away.
    """
    index = {w: i for i, w in enumerate(w_set)}
    edge_owner: dict[tuple[int, int], int] = {}
    for u, (w1, w2) in sorted(u_map.items()):
        key = (min(index[w1], index[w2]), max(index[w1], index[w2]))
        if key in edge_owner:
            raise InvariantError("two connectors share both endpoints: a C4")
        edge_owner[key] = u
    return Graph(len(w_set), list(edge_owner.keys())), edge_owner


def induced_subdivision(g: Graph, s: int, k: int, seed: int,
                        params: PipelineParams | None = None) -> SubdivisionWitness | None:
    """An induced K_k subdivision, or None when every route fails.

    Route: extract an induced C4-free subgraph of average degree >= k; peel
    it to a core H.  In the bipartite case, sample W inside the smaller
    side at rate 1/(8d) and collect the vertices of the larger side with
    exactly two sampled neighbors; in the near-regular case, sample W0 at
    rate 1/(10 d^{8/5}), keep W = sampled vertices with no sampled
    neighbor, and collect non-sampled vertices whose exactly-two
    W-neighbors exhaust their sampled neighbors and that see no other
    collector.  Either way the collectors define an auxiliary graph J on W
    with one edge each (distinct by C4-freeness); a subdivision in J lifts
    through length-2 paths, and the lift counts only when the induced
    edge-set equality holds on the original input.  Small inputs fall back
    to exhaustive induced packing.
    """
    if s < 2 or k < 2:
        raise DomainError("s and k must be >= 2")
    if params is None:
        params = PipelineParams()
    cert = extract_induced_c4free(g, s, k, params, seed=mix_seed(seed, 1))
    sample = None
    # only the failure and biclique_found modes leave the witness None
    if cert.witness:
        sample = _sampler(g.masks, half_degree_core(g.masks, mask_of(cert.witness)))
    if sample is not None:
        for attempt in range(SAMPLE_RETRIES):
            found = sample(random.Random(mix_seed(seed, 100 + attempt)))
            if found is None:
                continue
            w_set, u_map = found
            if len(w_set) < k or not u_map:
                continue
            j, edge_owner = _build_aux_graph(w_set, u_map)
            jw = find_subdivision(j, k, seed=mix_seed(seed, 300 + attempt), retries=5)
            if jw is None:
                continue
            branch, paths = _lift(w_set, jw, edge_owner)
            # the replay checks that g induces exactly the path edges
            w = SubdivisionWitness(branch, paths, induced_flag=True)
            if verify_subdivision(g, w):
                return w

    if g.n <= DEFAULT_EXHAUSTIVE_LIMIT:
        return find_subdivision(g, k, seed=mix_seed(seed, 9), retries=10,
                                require_induced=True)
    return None


def _lift(w_set: list[int], jw: SubdivisionWitness,
          edge_owner: dict[tuple[int, int], int]
          ) -> tuple[tuple[int, ...], dict[tuple[int, int], tuple[int, ...]]]:
    # vertex i of J is w_set[i], and edge_owner names each J-edge's connector
    branch = tuple(sorted(w_set[v] for v in jw.branch_vertices))
    lifted: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a, b), jpath in jw.paths.items():
        expanded: list[int] = [w_set[jpath[0]]]
        for x, y in zip(jpath, jpath[1:]):
            expanded.append(edge_owner[(min(x, y), max(x, y))])
            expanded.append(w_set[y])
        # w_set ascends and J's path runs from a to b > a, so it stays u < v
        lifted[(expanded[0], expanded[-1])] = tuple(expanded)
    return branch, lifted


def _sampler(nbr, core: int):
    """The connector sampler on the vertex mask `core`, as a function of an
    attempt's rng, or None when the core has no edge.  The seed-free part
    (the case, d and the vertex lists) is computed once, here."""
    deg, two_e = degrees_within(nbr, core)
    if not two_e:
        return None
    d = two_e / core.bit_count()
    side = bipartition(nbr, core)
    if side is None:
        members = list(bits(core))
        return lambda rng: _near_regular_case(nbr, members, d, rng)
    large, small = side, core ^ side
    if large.bit_count() < small.bit_count():
        large, small = small, large
    cap = max(1, 4 * d)
    big = [v for v in bits(large) if deg[v] < cap]
    small_list = list(bits(small))
    return lambda rng: _bipartite_case(nbr, big, small_list, d, rng)


def _bipartite_case(nbr, big: list[int], small: list[int], d: float,
                    rng: random.Random
                    ) -> tuple[list[int], dict[int, tuple[int, int]]] | None:
    """Sample W in the smaller side; collect the larger side's vertices of
    degree below 4d (`big`) that see exactly 2 of W."""
    p = min(1.0, 1.0 / (8 * d))
    w_set = [v for v in small if rng.random() < p]
    if len(w_set) < 2:
        return None
    wmask = mask_of(w_set)
    u_map: dict[int, tuple[int, int]] = {}
    for x in big:
        hits = nbr[x] & wmask
        if hits.bit_count() == 2:
            u_map[x] = _low_pair(hits)
    if not u_map:
        return None
    return w_set, u_map


def _near_regular_case(nbr, members: list[int], d: float, rng: random.Random
                       ) -> tuple[list[int], dict[int, tuple[int, int]]] | None:
    """Independent W inside a sparse sample of `members`; collect degree-2
    connectors."""
    p = min(1.0, 1.0 / (10 * d ** 1.6))
    w0 = mask_of(v for v in members if rng.random() < p)
    w_set = [v for v in bits(w0) if not nbr[v] & w0]
    if len(w_set) < 2:
        return None
    wmask = mask_of(w_set)
    # U0: the members whose sampled neighbours are exactly two, both in W
    u0 = mask_of(u for u in members
                 if (nbr[u] & wmask).bit_count() == 2
                 and (nbr[u] & w0).bit_count() == 2)
    u_map = {u: _low_pair(nbr[u] & wmask) for u in bits(u0 & ~w0)
             if not nbr[u] & u0}
    if not u_map:
        return None
    return w_set, u_map


def _low_pair(mask: int) -> tuple[int, int]:
    """The two set bits of a two-bit mask, ascending."""
    low = mask & -mask
    return low.bit_length() - 1, mask.bit_length() - 1
