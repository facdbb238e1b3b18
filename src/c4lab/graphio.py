"""Graph serialization: graph6, sparse6, plain edge lists, and sidecars.

graph6/sparse6 follow the de-facto format specification: 6-bit big-endian
groups offset by 63 into printable ASCII.  Optional ">>graph6<<" and
">>sparse6<<" headers are accepted on input and never written.  Bipartite
side information travels in a small sidecar JSON object since neither
format carries it.

A body's 6-bit groups are base64 digits under another alphabet, so both
formats cross between body and bit stream in C, through one
`bytes.translate` and `binascii`.  No bit goes through a Python list: a
graph6 read takes each column as one integer slice of the stream (and
hashes the input digest from the edges it fills in) and a write ORs each
vertex's lower-neighbour mask in at its column's offset within a chunk,
then joins the chunks pairwise; sparse6 reads one slice per (1 + k)-bit
record and writes each record as one base-2 field.
"""

from __future__ import annotations

import binascii
import json
from typing import Iterable

from .errors import DomainError
from .graphs import BipartiteGraph, Graph, edge_digest

_G6_HEADER = ">>graph6<<"
_G6_BYTES = bytes(range(63, 127))
_S6_HEADER = ">>sparse6<<"
# byte 63 + v of a body is digit v of the base64 alphabet
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(_G6_BYTES, _B64_DIGITS)
_FROM_B64 = bytes.maketrans(_B64_DIGITS, _G6_BYTES)
# each byte with its bits in reverse order: a stream read little-endian
# after this table holds stream bit c at integer bit c
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# the stream width at which write_graph6 closes a chunk: graphs up to
# n = 91 fit in one, and it was the fastest size tried from n = 200 to 10^4
_G6_CHUNK_BITS = 1 << 12


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


def _stream_of(body: bytes) -> bytes:
    """The bit stream of a checked body, first bit in the top bit of byte 0.

    The stream runs on past the body's last group with zero bits, up to a
    whole number of 4-digit base64 blocks.
    """
    digits = body.translate(_TO_B64)
    return binascii.a2b_base64(digits + b"A" * (-len(digits) % 4))


def _body_of(stream: bytes, groups: int) -> bytes:
    """The first `groups` 6-bit groups of `stream` (laid out as
    `_stream_of` returns it) as body bytes."""
    stream += bytes(-len(stream) % 3)
    return binascii.b2a_base64(stream, newline=False)[:groups].translate(_FROM_B64)


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line (no header, no trailing newline)."""
    # the body lists the upper triangle column by column: column j is the
    # run of bits for pairs (0,j)..(j-1,j), so it is j's lower-neighbour
    # mask placed at stream bit j(j-1)/2.  Columns are ORed into chunks of
    # about _G6_CHUNK_BITS, so no OR copies a long integer, and the chunks
    # are joined pairwise in log-many rounds: O(n^2 log n) bit work, where
    # one growing stream would copy O(n^3) bits
    chunks = []
    chunk = width = 0
    for j, mask in enumerate(g.masks):
        chunk |= (mask & ((1 << j) - 1)) << width
        width += j
        if width >= _G6_CHUNK_BITS:
            chunks.append((chunk, width))
            chunk = width = 0
    chunks.append((chunk, width))
    while len(chunks) > 1:
        joined = [(lo | hi << lo_width, lo_width + hi_width)
                  for (lo, lo_width), (hi, hi_width) in zip(chunks[::2], chunks[1::2])]
        if len(chunks) & 1:
            joined.append(chunks[-1])
        chunks = joined
    stream = chunks[0][0]
    groups = (g.n * (g.n - 1) // 2 + 5) // 6
    data = stream.to_bytes((6 * groups + 7) // 8, "little").translate(_REVERSED_BITS)
    return (_encode_n(g.n) + _body_of(data, groups)).decode("ascii")


def read_graph6(text: str) -> Graph:
    """The graph of one graph6 line (an optional ">>graph6<<" header is
    dropped), with its `edge_digest` already set: the loop that fills the
    masks visits each edge (i, j), i < j, once, column j by column j, so it
    also appends j's id to row i, and the rows come out ascending."""
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
    # column j (see write_graph6) is one little-endian slice of the
    # bit-reversed stream, shifted down to its first bit
    stream = _stream_of(body).translate(_REVERSED_BITS)
    nbr = [0] * n
    rows: list[list[str]] = [[] for _ in range(n)]
    m = 0
    start = 0
    for j in range(1, n):
        end = start + j
        col = (int.from_bytes(stream[start >> 3:(end + 7) >> 3], "little")
               >> (start & 7)) & ((1 << j) - 1)
        start = end
        if col:
            nbr[j] = col
            m += col.bit_count()
            bit_j = 1 << j
            id_j = str(j)
            while col:
                low = col & -col
                i = low.bit_length() - 1
                nbr[i] |= bit_j
                rows[i].append(id_j)
                col ^= low
    return Graph._from_masks(nbr, m, edge_digest(n, m, rows))


def write_sparse6(g: Graph) -> str:
    """Canonical sparse6 line starting with ':'."""
    n = g.n
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    records: list[str] = []

    def put(b: int, x: int):
        records.append(f"{b << k | x:0{k + 1}b}")

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
    length = (k + 1) * len(records)
    pad = (-length) % 6
    if k < 6 and n == (1 << k) and pad >= k and v < n - 1:
        records.append("0" + "1" * (pad - 1))
    else:
        records.append("1" * pad)
    groups = (length + 5) // 6
    stream = int("".join(records) or "0", 2) << (-6 * groups % 8)
    body = _body_of(stream.to_bytes((6 * groups + 7) // 8, "big"), groups)
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
    invalid = body.translate(None, _G6_BYTES)
    if invalid:
        raise DomainError(f"invalid sparse6 byte {invalid[0]}")
    stream = _stream_of(body)
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    low_k = (1 << k) - 1
    edges = []
    v = 0
    # the record ending at stream bit `end` is one big-endian slice: its
    # bit b, then its k-bit x
    for end in range(k + 1, 6 * len(body) + 1, k + 1):
        rec = int.from_bytes(stream[(end - k - 1) >> 3:(end + 7) >> 3], "big") >> (-end & 7)
        x = rec & low_k
        if rec >> k & 1:
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
    return Graph(n, edges)


# -- strict JSON records -------------------------------------------------------

def load_json(text: str, name: str):
    """Decode a JSON record; text that is not JSON, a repeated key or
    nesting deeper than the decoder can follow raises DomainError, naming
    the record."""
    def unique_keys(pairs: list) -> dict:
        # the decoder's own dict would keep the last copy of a repeated key
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DomainError(f"{name} repeats the key {key!r}")
            obj[key] = value
        return obj

    # the decoder recurses once per nesting level, so a deep enough array
    # passes the interpreter's recursion limit
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise DomainError(f"{name} nests too deeply") from None
    except DomainError:
        raise
    except ValueError:
        # a JSONDecodeError, or an integer past the interpreter's digit limit
        raise DomainError(f"{name} is not JSON") from None


def vertex_list(value, name: str) -> tuple[int, ...]:
    # JSON decodes a number without a fraction or exponent to exactly int
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise DomainError(f"{name} must be a list of vertex ids")
    return tuple(value)


def bipartite_sidecar(bg: BipartiteGraph) -> str:
    """JSON with the side assignment that graph6/edge lists cannot carry."""
    return json.dumps({"side_a": sorted(bg.side_a), "side_b": sorted(bg.side_b)},
                      sort_keys=True)


def apply_sidecar(g: Graph, sidecar_text: str) -> BipartiteGraph:
    """g with the sides a sidecar names; a malformed sidecar raises DomainError."""
    obj = load_json(sidecar_text, "sidecar")
    sides = [obj.get(key) if isinstance(obj, dict) else None for key in ("side_a", "side_b")]
    if not all(isinstance(side, list) and all(type(v) is int for v in side) for side in sides):
        raise DomainError("sidecar must hold side_a and side_b as lists of vertex ids")
    return BipartiteGraph(g, *sides)


# -- hypergraph text format --------------------------------------------------

def write_hypergraph(n: int, edges: Iterable[Iterable[int]]) -> str:
    """First line 'n m', then one edge per line as space-separated vertex ids."""
    edge_list = [sorted(e) for e in edges]
    lines = [f"{n} {len(edge_list)}"]
    lines.extend(" ".join(str(v) for v in e) for e in edge_list)
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> tuple[int, list[frozenset[int]]]:
    """The inverse of write_hypergraph; blank lines are skipped, and an edge
    line that repeats a vertex raises DomainError rather than losing rank."""
    numbered = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    lines = [(no, ln) for no, ln in numbered if ln]
    if not lines:
        raise DomainError("empty hypergraph file")
    head = lines[0][1].split()
    if len(head) != 2:
        raise DomainError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise DomainError(f"declared {m} edges, found {len(lines) - 1}")
    edges = []
    for no, ln in lines[1:]:
        seen: set[int] = set()
        for v in map(int, ln.split()):
            if not 0 <= v < n:
                raise DomainError(f"edge vertex {v} out of range")
            if v in seen:
                raise DomainError(f"line {no} repeats vertex {v}")
            seen.add(v)
        edges.append(frozenset(seen))
    return n, edges
