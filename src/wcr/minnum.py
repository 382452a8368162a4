"""Minimum-relocation weak coverage on the integer grid (unit-diameter
sensors): sensor-type classification, maximum free set via minimum edge
cover, and the exact relocation planner.

Throughout, "row" is the y index and "column" the x index.  A sensor is
*free* when its row and its column each contain at least one other
sensor; a maximum free set is a largest set of free sensors that can all
be removed simultaneously without emptying any occupied row or column.
Free sensors are the only ones that can repair a row gap and a column
gap with a single jumping move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import Configuration, Solution, is_blocking, transpose, \
    transpose_solution
from .errors import Infeasible, ModeError, SizeLimit
from .matching import Graph, minimum_edge_cover

TYPE0, TYPE1, TYPE2, TYPE3, TYPE4 = range(5)
FREE_TYPES = (TYPE2, TYPE3, TYPE4)


def _require_integer(config: Configuration) -> None:
    if config.mode != "integer":
        raise ModeError("integer mode required")


def _line_members(config: Configuration):
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for s in config.sensors:
        rows.setdefault(int(s.y), []).append(s.id)
        cols.setdefault(int(s.x), []).append(s.id)
    return rows, cols


def classify(config: Configuration) -> dict[int, int]:
    """Type of every sensor per the 0-4 taxonomy (partition)."""
    _require_integer(config)
    rows, cols = _line_members(config)

    free = {}
    for s in config.sensors:
        free[s.id] = (len(rows[int(s.y)]) > 1 and len(cols[int(s.x)]) > 1)

    types: dict[int, int] = {}
    for s in config.sensors:
        row_mates = [i for i in rows[int(s.y)] if i != s.id]
        col_mates = [i for i in cols[int(s.x)] if i != s.id]
        if not row_mates and not col_mates:
            types[s.id] = TYPE0
        elif not free[s.id]:
            types[s.id] = TYPE1
    for s in config.sensors:
        if s.id in types:
            continue
        row_has_t1 = any(types.get(i) == TYPE1
                         for i in rows[int(s.y)] if i != s.id)
        col_has_t1 = any(types.get(i) == TYPE1
                         for i in cols[int(s.x)] if i != s.id)
        row_all_free = all(free[i] for i in rows[int(s.y)])
        col_all_free = all(free[i] for i in cols[int(s.x)])
        if row_has_t1 and col_has_t1:
            types[s.id] = TYPE2
        elif row_all_free and col_all_free:
            types[s.id] = TYPE4
        else:
            types[s.id] = TYPE3
    assert len(types) == config.n
    return types


@dataclass(frozen=True)
class GapReport:
    row_gaps: tuple[int, ...]
    col_gaps: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.row_gaps)

    @property
    def c(self) -> int:
        return len(self.col_gaps)


def gaps(config: Configuration) -> GapReport:
    _require_integer(config)
    report = is_blocking(config)
    return GapReport(row_gaps=report.y_gaps, col_gaps=report.x_gaps)


def build_free_graph(config: Configuration):
    """Auxiliary graph whose minimum edge cover (minus the hub edge)
    labels a minimum blocking set for the all-free rows and columns.

    Vertices: one per row/column containing only free sensors, plus two
    hubs x, y.  A type-4 sensor is an edge row-column; a type-3 sensor
    is an edge from its all-free line to hub x; hub edge x-y always
    present (label None).  Returns (Graph, legend) where legend[i] is
    ("row", idx) | ("col", idx) | ("x",) | ("y",).
    """
    _require_integer(config)
    types = classify(config)
    rows, cols = _line_members(config)
    free_ids = {i for i, t in types.items() if t in FREE_TYPES}
    x_rows = sorted(i for i, members in rows.items()
                    if all(m in free_ids for m in members))
    x_cols = sorted(j for j, members in cols.items()
                    if all(m in free_ids for m in members))

    legend = [("row", i) for i in x_rows] + [("col", j) for j in x_cols]
    index = {v: k for k, v in enumerate(legend)}
    legend += [("x",), ("y",)]
    hub_x, hub_y = len(legend) - 2, len(legend) - 1

    edges = []
    for s in sorted(config.sensors, key=lambda s: s.id):
        t = types[s.id]
        row_v = index.get(("row", int(s.y)))
        col_v = index.get(("col", int(s.x)))
        if t == TYPE4:
            edges.append((row_v, col_v, s.id))
        elif t == TYPE3:
            # exactly one of the two lines is all-free
            line = row_v if row_v is not None else col_v
            edges.append((line, hub_x, s.id))
    edges.append((hub_x, hub_y, None))
    return Graph(vertex_count=len(legend), edges=tuple(edges)), legend


def max_free_set(config: Configuration) -> frozenset[int]:
    """Largest simultaneously-removable set of free sensors."""
    types = classify(config)
    free_ids = frozenset(i for i, t in types.items() if t in FREE_TYPES)
    if not free_ids:
        return frozenset()
    g, _ = build_free_graph(config)
    cover = minimum_edge_cover(g)
    blocking_set = {g.edges[i][2] for i in cover} - {None}
    return free_ids - blocking_set


@dataclass(frozen=True)
class MinNumPlan:
    free_set: frozenset[int]
    k: int
    moves: tuple  # of (sensor id, kind, (x, y)); kind in jump/slide-row/slide-col
    solution: Solution

    @property
    def moved(self) -> int:
        return len(self.moves)


def _sensor_order_key(s):
    return (s.y, s.x, s.id)


def solve_minnum(config: Configuration) -> MinNumPlan:
    """Relocate the fewest sensors to make the configuration blocking.

    Moves exactly r sensors when |M| >= c and r + c - |M| otherwise
    (axes oriented so the row-gap count r >= the column-gap count c).
    """
    _require_integer(config)
    if config.n < max(config.width, config.height):
        raise Infeasible("fewer sensors than the longer side")

    g = gaps(config)
    if g.r < g.c:
        plan = solve_minnum(transpose(config))
        return MinNumPlan(
            free_set=plan.free_set, k=plan.k,
            moves=tuple((sid, {"slide-row": "slide-col",
                               "slide-col": "slide-row"}.get(kind, kind),
                         (ty, tx)) for sid, kind, (tx, ty) in plan.moves),
            solution=transpose_solution(plan.solution))

    by_id = config.sensor_by_id()
    M = max_free_set(config)
    k = len(M)
    row_gaps = list(g.row_gaps)
    col_gaps = list(g.col_gaps)

    movers = sorted((by_id[i] for i in M), key=_sensor_order_key)
    moves: list[tuple[int, str, tuple[Fraction, Fraction]]] = []

    # jumping moves: pair sorted column gaps with sorted row gaps
    jumps = min(k, g.c)
    for idx in range(jumps):
        s = movers[idx]
        moves.append((s.id, "jump",
                      (Fraction(col_gaps[idx]), Fraction(row_gaps[idx]))))
    row_gaps = row_gaps[jumps:]
    col_gaps = col_gaps[jumps:]

    # leftover free sensors fill row gaps vertically, column unchanged
    fills = min(k - jumps, len(row_gaps))
    for idx in range(fills):
        s = movers[jumps + idx]
        moves.append((s.id, "slide-row", (s.x, Fraction(row_gaps[idx]))))
    row_gaps = row_gaps[fills:]

    # remaining gaps are repaired by sliding non-free sensors; occupancy
    # is recomputed after every move so no slide creates a fresh gap
    pos = {s.id: (s.x, s.y) for s in config.sensors}
    for sid, _, target in moves:
        pos[sid] = target
    moved_ids = {sid for sid, _, _ in moves}

    def line_counts():
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        for x, y in pos.values():
            rows[int(y)] = rows.get(int(y), 0) + 1
            cols[int(x)] = cols.get(int(x), 0) + 1
        return rows, cols

    def slide(gap: int, vertical: bool) -> None:
        rows, cols = line_counts()
        candidates = []
        for s in config.sensors:
            if s.id in moved_ids or s.id in M:
                continue
            x, y = pos[s.id]
            surplus = rows[int(y)] > 1 if vertical else cols[int(x)] > 1
            if surplus:
                candidates.append((y, x, s.id))
        assert candidates, "no slide candidate: pigeonhole guarantee broken"
        _, _, sid = min(candidates)
        x, y = pos[sid]
        target = (x, Fraction(gap)) if vertical else (Fraction(gap), y)
        moves.append((sid, "slide-row" if vertical else "slide-col", target))
        pos[sid] = target
        moved_ids.add(sid)

    for gap in row_gaps:
        slide(gap, vertical=True)
    for gap in col_gaps:
        slide(gap, vertical=False)

    sol = Solution(dict(pos))
    report = is_blocking(config, sol)
    assert report.blocking, "planner produced a non-blocking solution"
    expected = g.r if k >= g.c else g.r + g.c - k
    assert len(moves) == expected, "move count deviates from the formula"
    return MinNumPlan(free_set=M, k=k, moves=tuple(moves), solution=sol)


def brute_minnum(config: Configuration) -> int:
    """Exhaustive minimum relocation count.

    A set S of relocated sensors suffices iff |S| >= max(row gaps,
    column gaps) measured after deleting S: each mover can land on one
    empty row and one empty column at once, and destinations are
    unconstrained within the grid.
    """
    _require_integer(config)
    if config.n > 14:
        raise SizeLimit("brute_minnum limited to 14 sensors")
    sensors = config.sensors
    a, b = int(config.width), int(config.height)

    def residual_gaps(removed: frozenset[int]) -> tuple[int, int]:
        rows = {int(s.y) for s in sensors if s.id not in removed}
        cols = {int(s.x) for s in sensors if s.id not in removed}
        return b - len(rows & set(range(1, b + 1))), \
            a - len(cols & set(range(1, a + 1)))

    ids = [s.id for s in sensors]
    for size in range(config.n + 1):
        for subset in itertools.combinations(ids, size):
            r, c = residual_gaps(frozenset(subset))
            if size >= max(r, c):
                return size
    raise Infeasible("no relocation set suffices")  # pragma: no cover
