import random
from collections import Counter
from itertools import combinations

import pytest

import networkx as nx

from c4lab.errors import DomainError
from c4lab.graphs import Graph, gen_gnp, gen_lopsided, induced, projective_plane_incidence
from c4lab.graphio import (
    _encode_n,
    apply_sidecar,
    bipartite_sidecar,
    read_edgelist,
    read_graph6,
    read_hypergraph,
    read_sparse6,
    write_edgelist,
    write_graph6,
    write_hypergraph,
    write_sparse6,
)
from c4lab.named import complete_bipartite, complete_graph, cycle_graph, petersen_graph
from c4lab.oracles import find_c4, graph_c4_free, is_c4_free
from c4lab.pipeline import graph_digest
from helpers import (
    graph_digest_reference,
    read_graph6_by_bit_string,
    read_sparse6_by_bit_list,
    write_graph6_by_bit_list,
    write_sparse6_by_bit_list,
)


def nx_to_edges(h):
    return sorted(tuple(sorted(e)) for e in h.edges())


def test_graph6_roundtrip_fuzz_10k():
    rng = random.Random(41)
    for _ in range(10_000):
        n = rng.randrange(0, 13)
        g = gen_gnp(n, rng.choice([0.0, 0.2, 0.5, 0.9, 1.0]), rng.randrange(2 ** 32))
        assert read_graph6(write_graph6(g)) == g


def _networkx_inputs(seed: int, n_below: int, p: float):
    # 200 small graphs, then the long size form (n >= 63) and bodies of
    # many base64 blocks, up to PG(2,13) on 366 vertices
    rng = random.Random(seed)
    for _ in range(200):
        yield gen_gnp(rng.randrange(1, n_below), p, rng.randrange(2 ** 32))
    for n in (62, 63, 64, 127, 200):
        yield gen_gnp(n, 0.1, rng.randrange(2 ** 32))
    yield projective_plane_incidence(13).underlying


def test_graph6_matches_networkx():
    for g in _networkx_inputs(43, 14, 0.4):
        n = g.n
        mine = write_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        h = nx.from_graph6_bytes(mine.encode())
        assert h.number_of_nodes() == n
        assert nx_to_edges(h) == list(g.edges())
        assert mine == theirs
        assert read_graph6(theirs) == g


def test_graph6_header_and_large_n():
    g = gen_gnp(70, 0.1, 9)
    s = write_graph6(g)
    assert read_graph6(">>graph6<<" + s) == g
    assert s.startswith("~")


def test_sparse6_roundtrip_fuzz():
    rng = random.Random(47)
    for _ in range(400):
        n = rng.randrange(0, 20)
        g = gen_gnp(n, rng.choice([0.0, 0.1, 0.3, 0.8, 1.0]), rng.randrange(2 ** 32))
        assert read_sparse6(write_sparse6(g)) == g


def test_sparse6_power_of_two_padding():
    # the padding special case lives at n in {2,4,8,16}
    for n in (2, 4, 8, 16):
        for seed in range(30):
            g = gen_gnp(n, 0.5, seed)
            assert read_sparse6(write_sparse6(g)) == g


def test_sparse6_read_by_networkx():
    for g in _networkx_inputs(53, 18, 0.3):
        h = nx.from_sparse6_bytes(write_sparse6(g).encode())
        assert h.number_of_nodes() == g.n
        assert nx_to_edges(h) == list(g.edges())


def test_codecs_match_the_per_bit_reference():
    # every n(n-1)/2 mod 24 (one 4-digit base64 block) comes up below 130
    for n in range(131):
        for i, p in enumerate((0.0, 0.1, 0.5, 1.0)):
            g = gen_gnp(n, p, 1000 * n + i)
            for write, read, write_ref, read_ref in (
                    (write_graph6, read_graph6,
                     write_graph6_by_bit_list, read_graph6_by_bit_string),
                    (write_sparse6, read_sparse6,
                     write_sparse6_by_bit_list, read_sparse6_by_bit_list)):
                text = write(g)
                assert text == write_ref(g)
                h, ref = read(text), read_ref(text)
                assert h.masks == ref.masks == g.masks
                assert h.edge_count == ref.edge_count == g.edge_count


@pytest.mark.parametrize("n", [2000, 5000])
def test_graph6_writer_matches_the_per_bit_reference_at_large_n(n):
    # the writer joins chunks of columns here; the per-bit writer takes
    # about 4 s at n = 5000, so there the per-bit reader checks the text
    rng = random.Random(n)
    g = Graph(n, [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                      for _ in range(4 * n)) if u != v])
    text = write_graph6(g)
    if n <= 2000:
        assert text == write_graph6_by_bit_list(g)
    assert read_graph6_by_bit_string(text).masks == read_graph6(text).masks == g.masks


def test_sparse6_reader_matches_the_reference_on_any_body():
    # bodies no writer emits: records past n, loops, ragged padding
    rng = random.Random(59)
    for _ in range(3000):
        n = rng.choice([rng.randrange(0, 70), 1 << rng.randrange(0, 7)])
        body = bytes(rng.randrange(63, 127) for _ in range(rng.randrange(0, 40)))
        text = ":" + (_encode_n(n) + body).decode("ascii")
        h, ref = read_sparse6(text), read_sparse6_by_bit_list(text)
        assert h.masks == ref.masks and h.edge_count == ref.edge_count


def test_edgelist_roundtrip_and_comments():
    g = petersen_graph()
    text = write_edgelist(g)
    assert read_edgelist(text) == g
    manual = "# a comment\n0 1\n\n1 2\n# n 5\n"
    h = read_edgelist(manual)
    assert h.n == 5 and h.edge_count == 2


def test_graph6_roundtrip_at_size_boundaries():
    # n = 62/63 switch the size prefix; 63/64 and 200 cross word boundaries
    for n in (0, 1, 2, 62, 63, 64, 200):
        for i, p in enumerate((0.0, 0.1, 0.5, 1.0)):
            g = gen_gnp(n, p, 1000 * n + i)
            text = write_graph6(g)
            for line in (text, ">>graph6<<" + text, text + "\n"):
                h = read_graph6(line)
                assert h == g and h.edge_count == g.edge_count


def _digest_shapes():
    # n = 62/63/64 switch the size prefix; p = 0 and 1 give the edgeless
    # graph and K_n
    for n in (0, 1, 2, 62, 63, 64):
        for i, p in enumerate((0.0, 0.1, 0.5, 1.0)):
            yield gen_gnp(n, p, 2000 * n + i)
    # the benchmark's shapes
    for q in (5, 13):
        yield projective_plane_incidence(q).underlying
    for n in (100, 200, 400):
        yield gen_gnp(n, 6 / (n - 1), n)
    for a, b in ((200, 25), (300, 30)):
        yield gen_lopsided(a, b, 3, 3, a).underlying


def test_graph6_reader_sets_the_input_digest():
    for g in _digest_shapes():
        want = graph_digest_reference(g)
        text = write_graph6(g)
        for line in (text, ">>graph6<<" + text):
            h = read_graph6(line)
            assert h._digest == want
            assert graph_digest(h) == want and graph_digest(h) == want
        # a graph built any other way gets the same digest on first use
        built = Graph(g.n, g.edges())
        assert built._digest is None
        assert graph_digest(built) == want and built._digest == want
        assert graph_digest(built) == want
        for h in (read_sparse6(write_sparse6(g)), read_edgelist(write_edgelist(g))):
            assert graph_digest(h) == want and graph_digest(h) == want


def _c4_sweep():
    """Seeded graphs on both sides of C4-freeness: every labelled graph on
    at most 4 vertices, the named small cases, a lone 4-cycle whose top
    vertex is n - 1, and random graphs, some of them induced subgraphs of
    projective planes (C4-free and dense) with one edge added."""
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph(n, [e for b, e in enumerate(pairs) if chosen >> b & 1])
    yield cycle_graph(5)
    yield petersen_graph()
    yield complete_graph(4)
    yield complete_bipartite(2, 3).underlying
    for n in range(4, 40):
        # the reader meets this cycle only at its last column
        yield Graph(n, [(0, 2), (1, 2), (0, n - 1), (1, n - 1)])
    rng = random.Random(36)
    planes = [projective_plane_incidence(q).underlying for q in (3, 5, 7)]
    for _ in range(1000):
        n = rng.randrange(5, 48)
        yield gen_gnp(n, rng.choice((1, 2, 3, 5)) / n, rng.getrandbits(32))
        plane = rng.choice(planes)
        sub = induced(plane, [v for v in range(plane.n) if rng.random() < 0.7])
        if sub.n >= 2 and rng.random() < 0.5:
            u, v = rng.sample(range(sub.n), 2)
            sub = Graph(sub.n, [*sub.edges(), (u, v)])
        yield sub


def test_graph6_reader_decides_c4_freeness_as_is_c4_free_does():
    outcomes = Counter()
    for g in _c4_sweep():
        want = is_c4_free(g.masks, (1 << g.n) - 1)
        assert want == (find_c4(g) is None)
        h = read_graph6(write_graph6(g))
        assert h == g and h._c4_free is want
        outcomes[want] += 1
    assert sum(outcomes.values()) >= 2000
    assert min(outcomes.values()) >= 500


def test_graph_c4_free_decides_once_per_graph(c4_passes):
    # a graph that no graph6 read built starts with no answer; the accessor
    # runs is_c4_free once and keeps the result.  sparse6 and edge lists
    # take that fallback, graph6 never does
    for g in (petersen_graph(), complete_graph(4), Graph(0), cycle_graph(4)):
        want = find_c4(g) is None
        for fresh in (Graph(g.n, g.edges()), Graph._from_masks(g.masks, g.edge_count),
                      read_sparse6(write_sparse6(g)), read_edgelist(write_edgelist(g))):
            assert fresh._c4_free is None
            c4_passes.clear()
            assert graph_c4_free(fresh) is want and fresh._c4_free is want
            assert graph_c4_free(fresh) is want
            assert c4_passes == [(1 << g.n) - 1]
        parsed = read_graph6(write_graph6(g))
        c4_passes.clear()
        assert parsed._c4_free is want and graph_c4_free(parsed) is want
        assert c4_passes == []


def test_graph6_error_messages():
    cases = {
        "C!": "invalid graph6 byte 33",
        "D?!": "invalid graph6 byte 33",
        "D!!!!": "invalid graph6 byte 33",      # bad bytes are reported before length
        "D?": "graph6 body length 1 != expected 2",
        "D???": "graph6 body length 3 != expected 2",
        ">>graph6<<D?": "graph6 body length 1 != expected 2",
        ">?": "invalid graph6 size byte 62",
        "~?": "truncated graph6 size",
    }
    for text, message in cases.items():
        with pytest.raises(DomainError) as info:
            read_graph6(text)
        assert str(info.value) == message


def test_size_bytes_outside_the_6_bit_range_are_rejected():
    # 127 is no graph6 byte: read as a group it gives n = 64 in the short
    # form, and in the long forms it carries into the group before it
    cases = {
        chr(127): 127,
        chr(127) + "?" * 336: 127,
        "~?" + chr(127) + "?": 127,
        "~~?" + chr(127) + "????": 127,
        "~~?????" + chr(127): 127,
    }
    for text, byte in cases.items():
        for read, prefix in ((read_graph6, ""), (read_sparse6, ":")):
            with pytest.raises(DomainError) as info:
                read(prefix + text)
            assert str(info.value) == f"invalid graph6 size byte {byte}"


def test_bad_inputs_raise():
    with pytest.raises(DomainError):
        read_graph6("B")          # truncated body
    with pytest.raises(DomainError):
        read_sparse6("Bw")        # missing ':'
    with pytest.raises(DomainError):
        read_edgelist("0 1 2\n")


def test_bipartite_sidecar_roundtrip():
    bg = complete_bipartite(3, 4)
    text = write_graph6(bg.underlying)
    side = bipartite_sidecar(bg)
    bg2 = apply_sidecar(read_graph6(text), side)
    assert bg2.side_a == bg.side_a and bg2.side_b == bg.side_b


@pytest.mark.parametrize("text, message", [
    ("[]", "sidecar must hold side_a and side_b"),
    ('{"side_a": 5, "side_b": [1]}', "sidecar must hold side_a and side_b"),
    ('{"side_a": [0, 1, 2]}', "sidecar must hold side_a and side_b"),
    ('{"side_a": [0, 1, 2], "side_b": [3, 4, "5", 6]}', "sidecar must hold side_a and side_b"),
    ("{side_a", "sidecar is not JSON"),
    ('{"side_a": [0, 1, 2], "side_b": [3, 4, 5]}',
     "side_a and side_b must partition the vertex set"),
    # the certificate's decoder: a repeated side must not pass as its last copy
    ('{"side_a": [2, 3], "side_a": [0, 1], "side_b": [2, 3]}',
     "sidecar repeats the key 'side_a'"),
    # the decoder refuses an integer past the interpreter's digit limit
    ('{"side_a": [' + "1" * 5000 + '], "side_b": []}', "sidecar is not JSON"),
], ids=["list", "int-side", "missing-side", "string-id", "not-json", "not-a-partition",
        "repeated-key", "long-integer"])
def test_apply_sidecar_refuses_a_malformed_sidecar(text, message):
    g = complete_bipartite(3, 4).underlying
    with pytest.raises(DomainError, match=message):
        apply_sidecar(g, text)


def test_hypergraph_text_roundtrip():
    n, edges = 6, [frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5})]
    text = write_hypergraph(n, edges)
    n2, edges2 = read_hypergraph(text)
    assert n2 == n and edges2 == edges
    with pytest.raises(DomainError):
        read_hypergraph("3 1\n0 5\n")


@pytest.mark.parametrize("text, message", [
    ("4 1\n0 0 1\n", "line 2 repeats vertex 0"),
    # lines count from the top of the file, blank ones included
    ("5 2\n\n1 2\n3 1 4 3\n", "line 4 repeats vertex 3"),
], ids=["first-edge", "after-a-blank-line"])
def test_read_hypergraph_refuses_a_repeated_vertex(text, message):
    # a set would merge the repeat into an edge of lower rank
    with pytest.raises(DomainError, match=message):
        read_hypergraph(text)


def test_graph6_c4_example_value():
    # C4 = 4 vertices with edges 01,03,12,23 -> known encoding
    assert write_graph6(cycle_graph(4)) == read_and_back(cycle_graph(4))


def read_and_back(g: Graph) -> str:
    return write_graph6(read_graph6(write_graph6(g)))
