import random
import signal
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from brutes import brute_max_matching_size, random_graph, \
    reference_match_array
from wcr import matching
from wcr.core import Configuration, Sensor
from wcr.errors import IsolatedVertex
from wcr.matching import Graph, maximum_matching, minimum_edge_cover
from wcr.minnum import build_free_graph


def g(n, *edges):
    return Graph(n, tuple((u, v, None) for u, v in edges))


def test_single_edge():
    assert len(maximum_matching(g(2, (0, 1)))) == 1


def test_path_and_cycles():
    assert len(maximum_matching(g(3, (0, 1), (1, 2)))) == 1
    assert len(maximum_matching(g(4, (0, 1), (1, 2), (2, 3)))) == 2
    five_cycle = g(5, (0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert len(maximum_matching(five_cycle)) == 2


def test_blossom_with_stem():
    # odd cycle hanging off a path: greedy/bipartite reasoning fails here
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    assert len(maximum_matching(g(6, *edges))) == 3


def test_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert len(maximum_matching(g(10, *outer, *spokes, *inner))) == 5


def test_matching_is_a_matching():
    rng = random.Random(7)
    for _ in range(50):
        n, edges = random_graph(rng)
        graph = g(n, *edges)
        m = maximum_matching(graph)
        touched = []
        for i in m:
            u, v, _ = graph.edges[i]
            touched += [u, v]
        assert len(touched) == len(set(touched))
        assert len(m) == brute_max_matching_size(n, edges)


def test_self_loop_rejected():
    with pytest.raises(Exception):
        Graph(2, ((1, 1, None),))


def test_edge_cover_small():
    assert len(minimum_edge_cover(g(2, (0, 1)))) == 1
    star = g(4, (0, 1), (0, 2), (0, 3))
    assert len(minimum_edge_cover(star)) == 3
    triangle = g(3, (0, 1), (1, 2), (2, 0))
    assert len(minimum_edge_cover(triangle)) == 2


def test_edge_cover_covers_and_gallai():
    rng = random.Random(11)
    for _ in range(60):
        n, edges = random_graph(rng)
        graph = g(n, *edges)
        cover = minimum_edge_cover(graph)
        hit = set()
        for i in cover:
            u, v, _ = graph.edges[i]
            hit |= {u, v}
        assert hit == set(range(n))
        assert len(cover) == n - brute_max_matching_size(n, edges)


def test_isolated_vertex():
    with pytest.raises(IsolatedVertex):
        minimum_edge_cover(g(3, (0, 1)))


def test_parallel_edges_prefer_lowest_label():
    graph = Graph(2, ((0, 1, 9), (0, 1, 4), (0, 1, None)))
    cover = minimum_edge_cover(graph)
    assert len(cover) == 1
    assert graph.edges[cover.pop()][2] == 4


def test_deterministic():
    rng = random.Random(3)
    for _ in range(20):
        n, edges = random_graph(rng)
        graph = g(n, *edges)
        assert maximum_matching(graph) == maximum_matching(graph)
        assert minimum_edge_cover(graph) == minimum_edge_cover(graph)


def _results(graph):
    """maximum_matching and minimum_edge_cover (or the vertex it finds
    isolated) of graph."""
    try:
        cover = minimum_edge_cover(graph)
    except IsolatedVertex as e:
        cover = ("isolated", e.args)
    return maximum_matching(graph), cover


@contextmanager
def _time_limit(seconds: int):
    """Fail instead of hanging: a search that starts from arrays another
    search left dirty can cycle forever."""
    def stuck(signum, frame):
        raise AssertionError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _against_reference(graphs, monkeypatch) -> int:
    """Compare the matching and cover of each graph with those of the
    search on fresh arrays per root; the number of its contractions."""
    stats = {"contractions": 0}
    with _time_limit(30):
        for graph in graphs:
            got = _results(graph)
            monkeypatch.setattr(matching, "_match_array", lambda n, adj:
                                reference_match_array(n, adj, stats))
            assert got == _results(graph)
            monkeypatch.undo()
    return stats["contractions"]


def _general_graph(rng):
    """2-30 vertices and up to 60 edges, some parallel, labelled None or
    by small ints (repeated across edges); every other graph first gets
    an edge at each vertex, so its cover exists."""
    n = rng.randint(2, 30)
    pairs = [(v, rng.choice([u for u in range(n) if u != v]))
             for v in range(n)] if rng.random() < 0.5 else []
    pairs += [rng.sample(range(n), 2)
              for _ in range(rng.randint(0, 60 - len(pairs)))]
    edges = []
    for u, v in pairs:
        edges.append((u, v, rng.choice((None, rng.randint(0, 9)))))
        if rng.random() < 0.1:  # a parallel edge, either way round
            edges.append((v, u, rng.choice((None, rng.randint(0, 9)))))
    return Graph(n, tuple(edges[:60]))


def test_blossom_matches_fresh_arrays_per_root(monkeypatch):
    rng = random.Random(21)
    graphs = [_general_graph(rng) for _ in range(4000)]
    assert _against_reference(graphs, monkeypatch) > 1000


def test_blossom_matches_fresh_arrays_on_grid_free_graphs(monkeypatch):
    """Free graphs of uniform 400x400 grids of 800 sensors."""
    graphs = []
    for seed in range(4):
        rng = random.Random(seed)
        graphs.append(build_free_graph(Configuration(
            F(400), F(400), tuple(
                Sensor(i, F(rng.randint(1, 400)), F(rng.randint(1, 400)),
                       F(1, 2)) for i in range(800))))[0])
    assert min(graph.vertex_count for graph in graphs) > 250
    _against_reference(graphs, monkeypatch)
