"""Maximum matching in general graphs and minimum edge cover.

A hand-rolled blossom (odd-cycle contraction) algorithm, O(V^3).  For
the free-sensor graph's matching size bipartite matching would do: hub
y's only edge goes to hub x, so nu = 1 + nu(rows x columns).  The
blossom is kept for the free set it picks, which is pinned output; the
same search without contraction picks another on some graphs where the
blossom contracts.  Everything is deterministic: the same edge ordering
always yields the same matching.  Parallel edges collapse to one
representative per vertex pair; minimum_edge_cover computes the
representatives once and hands them to the matching.  The search
arrays p, base and used are allocated once per matching; after each
root's search only the vertices it touched are reset, so every search
starts from the state fresh arrays would give and visits the same
vertices in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IsolatedVertex, ValidationError


@dataclass(frozen=True)
class Graph:
    """Undirected graph; edges may carry a sensor-id label (or None)."""

    vertex_count: int
    edges: tuple  # of (u, v, label)

    def __post_init__(self):
        for u, v, _ in self.edges:
            if u == v:
                raise ValidationError("self-loops are not allowed")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValidationError("edge endpoint out of range")


def _edge_key(edge_index: int, label) -> tuple:
    # parallel edges collapse to the lowest label (unlabeled ones last)
    return (label is None, label if label is not None else 0, edge_index)


def _representatives(g: Graph) -> dict[tuple[int, int], int]:
    """Map each unordered vertex pair to its representative edge index."""
    rep: dict[tuple[int, int], int] = {}
    for i, (u, v, label) in enumerate(g.edges):
        key = (min(u, v), max(u, v))
        if key not in rep or _edge_key(i, label) < _edge_key(
                rep[key], g.edges[rep[key]][2]):
            rep[key] = i
    return rep


def _match_array(n: int, adj: list[list[int]]) -> list[int]:
    """match[v] = partner of v or -1; blossom algorithm."""
    match = [-1] * n
    p = [-1] * n  # p[v]: the vertex from which the odd vertex v was seen
    base = list(range(n))
    used = [False] * n
    marked = []  # each v whose p[v] the current search set

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        a = base[a]
        seen[a] = True
        while match[a] != -1:
            a = base[p[match[a]]]
            seen[a] = True
        b = base[b]
        while not seen[b]:
            b = base[p[match[b]]]
        return b

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            marked.append(v)
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int, q: list[int]) -> None:
        used[root] = True
        for v in q:  # q grows as the search goes: a FIFO queue
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # found an odd cycle; contract the blossom
                    b = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, b, to, blossom)
                    mark_path(to, b, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = b
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    marked.append(to)
                    if match[to] == -1:
                        # augmenting path found: flip it
                        u = to
                        while u != -1:
                            pv, nxt = p[u], match[p[u]]
                            match[u], match[pv] = pv, u
                            u = nxt
                        return
                    used[match[to]] = True
                    q.append(match[to])

    for root in range(n):
        if match[root] == -1:
            q = [root]  # ends holding every vertex the search set used
            find_augmenting(root, q)
            for u in q:  # a base only changes on a used vertex
                used[u], base[u] = False, u
            for u in marked:
                p[u] = -1
            marked.clear()
    return match


def maximum_matching(g: Graph) -> set[int]:
    """Edge indices forming a maximum-cardinality matching."""
    return _matching(g, _representatives(g))


def _matching(g: Graph, rep: dict[tuple[int, int], int]) -> set[int]:
    """maximum_matching, given the representatives rep of g's edges."""
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in rep:
        adj[u].append(v)
        adj[v].append(u)
    for neighbors in adj:
        neighbors.sort()
    match = _match_array(g.vertex_count, adj)
    return {rep[(v, w)] for v, w in enumerate(match) if w > v}


def minimum_edge_cover(g: Graph) -> set[int]:
    """Max matching extended with one cheapest edge per unmatched vertex;
    |cover| = vertex_count - |maximum matching| (Gallai)."""
    rep = _representatives(g)
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for (u, v), i in rep.items():
        incident[u].append(i)
        incident[v].append(i)
    if [] in incident:
        raise IsolatedVertex(incident.index([]))

    cover = _matching(g, rep)
    matched = [False] * g.vertex_count
    for i in cover:
        u, v, _ = g.edges[i]
        matched[u] = matched[v] = True
    for v in range(g.vertex_count):
        if not matched[v]:  # keys are unique: they end in the edge index
            cover.add(min(incident[v],
                          key=lambda i: _edge_key(i, g.edges[i][2])))
            matched[v] = True

    touched = set()
    for i in cover:
        u, v, _ = g.edges[i]
        touched.update((u, v))
    assert touched == set(range(g.vertex_count)), "cover verification failed"
    return cover
