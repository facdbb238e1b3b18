"""Graph serialization: graph6, sparse6, plain edge lists, and sidecars.

graph6/sparse6 follow the de-facto format specification: 6-bit big-endian
groups offset by 63 into printable ASCII.  Optional ">>graph6<<" and
">>sparse6<<" headers are accepted on input and never written.  Bipartite
side information travels in a small sidecar JSON object since neither
format carries it.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import DomainError
from .graphs import BipartiteGraph, Graph, bits

_G6_HEADER = ">>graph6<<"
_G6_BYTES = bytes(range(63, 127))
_G6_SIX_BITS = {b: format(b - 63, "06b") for b in _G6_BYTES}
_S6_HEADER = ">>sparse6<<"


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return b"~" + bytes([((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return b"~~" + bytes([((n >> (6 * i)) & 63) + 63 for i in range(5, -1, -1)])
    raise DomainError("n too large for graph6")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise DomainError("empty graph6 data")
    if data[0] != 126:
        start, end = 0, 1
    elif len(data) >= 2 and data[1] != 126:
        start, end = 1, 4
    else:
        start, end = 2, 8
    if len(data) < end:
        raise DomainError("truncated graph6 size")
    size = data[start:end]
    # each size byte holds one 6-bit group; a byte above 126 would carry
    # into the group before it
    invalid = size.translate(None, _G6_BYTES)
    if invalid:
        raise DomainError(f"invalid graph6 size byte {invalid[0]}")
    n = 0
    for b in size:
        n = (n << 6) | (b - 63)
    return n, end


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


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line (no header, no trailing newline)."""
    bit_list = []
    for j in range(1, g.n):
        for i in range(j):
            bit_list.append(1 if g.has_edge(i, j) else 0)
    return (_encode_n(g.n) + _pack_bits(bit_list)).decode("ascii")


def read_graph6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    data = line.encode("ascii")
    n, off = _decode_n(data)
    body = data[off:]
    invalid = body.translate(None, _G6_BYTES)
    if invalid:
        raise DomainError(f"invalid graph6 byte {invalid[0]}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise DomainError(f"graph6 body length {len(body)} != expected {need}")
    # the body lists the upper triangle column by column: column j is the
    # run of bits for pairs (0,j)..(j-1,j), so the reversed run, read in
    # base 2, is the mask of j's lower neighbours
    stream = body.decode("ascii").translate(_G6_SIX_BITS)
    nbr = [0] * n
    m = 0
    start = 0
    for j in range(1, n):
        col = int(stream[start:start + j][::-1], 2)
        start += j
        if col:
            nbr[j] = col
            m += col.bit_count()
            bit_j = 1 << j
            for i in bits(col):
                nbr[i] |= bit_j
    return Graph._from_masks(nbr, m)


def write_sparse6(g: Graph) -> str:
    """Canonical sparse6 line starting with ':'."""
    n = g.n
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    bit_list: list[int] = []

    def put(b: int, x: int):
        bit_list.append(b)
        for i in range(k - 1, -1, -1):
            bit_list.append((x >> i) & 1)

    v = 0
    for u, w in sorted(g.edges(), key=lambda e: (e[1], e[0])):
        # u < w by Graph.edges(); emit with current-vertex tracking
        if w == v:
            put(0, u)
        elif w == v + 1:
            v += 1
            put(1, u)
        else:
            v = w
            put(1, w)
            put(0, u)
    # pad with 1s; when n = 2^k and the writer stopped short of vertex n-1,
    # an all-ones tail would decode as a loop on n-1, so lead with a 0 bit
    pad = (-len(bit_list)) % 6
    if k < 6 and n == (1 << k) and pad >= k and v < n - 1:
        bit_list.append(0)
    body = _pack_bits(bit_list, pad_bit=1)
    return (b":" + _encode_n(n) + body).decode("ascii")


def read_sparse6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(_S6_HEADER):
        line = line[len(_S6_HEADER):]
    if not line.startswith(":"):
        raise DomainError("sparse6 data must start with ':'")
    data = line[1:].encode("ascii")
    n, off = _decode_n(data)
    body = data[off:]
    bits_flat: list[int] = []
    for b in body:
        if not 63 <= b <= 126:
            raise DomainError(f"invalid sparse6 byte {b}")
        v = b - 63
        bits_flat.extend(((v >> kk) & 1) for kk in range(5, -1, -1))
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
            break  # padding artifact; a valid writer never emits a loop
        else:
            edges.append((x, v))
    return Graph(n, edges)


def write_edgelist(g: Graph) -> str:
    """Plain text: '# n <count>' then one 'u v' line per edge."""
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edgelist(text: str) -> Graph:
    n_declared = None
    edges = []
    max_seen = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "n":
                n_declared = int(parts[1])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(f"bad edge line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = n_declared if n_declared is not None else max_seen + 1
    return Graph(max(n, 0), edges)


def bipartite_sidecar(bg: BipartiteGraph) -> str:
    """JSON with the side assignment that graph6/edge lists cannot carry."""
    return json.dumps({"side_a": sorted(bg.side_a), "side_b": sorted(bg.side_b)},
                      sort_keys=True)


def apply_sidecar(g: Graph, sidecar_text: str) -> BipartiteGraph:
    obj = json.loads(sidecar_text)
    return BipartiteGraph(g, obj["side_a"], obj["side_b"])


# -- hypergraph text format --------------------------------------------------

def write_hypergraph(n: int, edges: Iterable[Iterable[int]]) -> str:
    """First line 'n m', then one edge per line as space-separated vertex ids."""
    edge_list = [sorted(e) for e in edges]
    lines = [f"{n} {len(edge_list)}"]
    lines.extend(" ".join(str(v) for v in e) for e in edge_list)
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> tuple[int, list[frozenset[int]]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise DomainError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise DomainError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise DomainError(f"declared {m} edges, found {len(lines) - 1}")
    edges = [frozenset(int(tok) for tok in ln.split()) for ln in lines[1:]]
    for e in edges:
        for v in e:
            if not 0 <= v < n:
                raise DomainError(f"edge vertex {v} out of range")
    return n, edges
