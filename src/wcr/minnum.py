"""Minimum-relocation weak coverage on the integer grid (unit-diameter
sensors): sensor-type classification, maximum free set via minimum edge
cover, and the exact relocation planner.

Throughout, "row" is the y index and "column" the x index.  A sensor is
*free* when its row and its column each contain at least one other
sensor; a maximum free set is a largest set of free sensors that can all
be removed simultaneously without emptying any occupied row or column.
Free sensors are the only ones that can repair a row gap and a column
gap with a single jumping move.

Sensor types: a non-free sensor is type 0 when it is alone in both its
row and its column and type 1 otherwise; a free sensor is type 2, plus
one for each of its two lines that holds only free sensors.  (A free
sensor's non-free line-mate has a line-mate, so it is type 1: a line
with a type-1 sensor is exactly a line that is not all-free.)

A solve reads each sensor's cell once, as the int triple (row, column,
id), and builds one line table from those cells: per-line counts, the
free sensors and the all-free lines.  The free graph, the free set, the
movers and the slides all read that table.  When column gaps outnumber
row gaps the planner runs on the transpose: it swaps each cell's row and
column and the two gap lists, plans, and swaps only the finished moves
back.  The free graph is built in that swapped orientation too, because
the blossom's pick of free set depends on the vertex order and is pinned
output.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .core import Configuration, Solution, is_blocking
from .errors import Infeasible, ModeError, SizeLimit
from .matching import Graph, minimum_edge_cover

TYPE0, TYPE1, TYPE2, TYPE3, TYPE4 = range(5)


def _require_integer(config: Configuration) -> None:
    if config.mode != "integer":
        raise ModeError("integer mode required")


def _cells(config: Configuration) -> list[tuple[int, int, int]]:
    """(row, column, id) of every sensor, in id order, read once as ints."""
    _require_integer(config)
    return [(y.numerator, x.numerator, sid)
            for sid, x, y, _ in config.sensors]


def _line_table(cells):
    """(sensors per row, sensors per column, ids of the free sensors,
    rows holding only free sensors, columns holding only free sensors)."""
    rows = Counter(y for y, _, _ in cells)
    cols = Counter(x for _, x, _ in cells)
    free = {sid for y, x, sid in cells if rows[y] > 1 and cols[x] > 1}
    free_rows = rows.keys() - {y for y, _, sid in cells if sid not in free}
    free_cols = cols.keys() - {x for _, x, sid in cells if sid not in free}
    return rows, cols, free, free_rows, free_cols


def classify(config: Configuration) -> dict[int, int]:
    """Type of every sensor per the 0-4 taxonomy (partition): a non-free
    sensor is type 0 when alone in its row and its column, else type 1;
    a free sensor is TYPE2 + (row all-free) + (column all-free)."""
    cells = _cells(config)
    rows, cols, free, free_rows, free_cols = _line_table(cells)
    types = {}
    for y, x, sid in cells:
        if sid in free:
            types[sid] = TYPE2 + (y in free_rows) + (x in free_cols)
        else:
            types[sid] = TYPE0 if rows[y] == cols[x] == 1 else TYPE1
    return types


def _free_graph(cells, free_rows, free_cols):
    legend = [("row", i) for i in sorted(free_rows)] + \
        [("col", j) for j in sorted(free_cols)]
    index = {v: k for k, v in enumerate(legend)}
    legend += [("x",), ("y",)]
    hub_x, hub_y = len(legend) - 2, len(legend) - 1

    edges = []
    for y, x, sid in cells:  # by id
        row_v = index.get(("row", y))
        col_v = index.get(("col", x))
        if row_v is not None and col_v is not None:
            edges.append((row_v, col_v, sid))
        elif row_v is not None or col_v is not None:
            edges.append((col_v if row_v is None else row_v, hub_x, sid))
    edges.append((hub_x, hub_y, None))
    return Graph(vertex_count=len(legend), edges=tuple(edges)), legend


def build_free_graph(config: Configuration):
    """Auxiliary graph whose minimum edge cover (minus the hub edge)
    labels a minimum blocking set for the all-free rows and columns.

    Vertices: one per row/column containing only free sensors, plus two
    hubs x, y.  A free sensor on an all-free row and an all-free column
    (type 4) is an edge row-column; one on exactly one all-free line
    (type 3) is an edge from that line to hub x; hub edge x-y always
    present (label None).  Returns (Graph, legend) where legend[i] is
    ("row", idx) | ("col", idx) | ("x",) | ("y",).
    """
    cells = _cells(config)
    return _free_graph(cells, *_line_table(cells)[3:])


def _max_free_set(cells, table) -> frozenset[int]:
    _, _, free, free_rows, free_cols = table
    if not free:
        return frozenset()
    g, _ = _free_graph(cells, free_rows, free_cols)
    cover = minimum_edge_cover(g)
    return frozenset(free - {g.edges[i][2] for i in cover})


def max_free_set(config: Configuration) -> frozenset[int]:
    """Largest simultaneously-removable set of free sensors."""
    cells = _cells(config)
    return _max_free_set(cells, _line_table(cells))


@dataclass(frozen=True)
class MinNumPlan:
    free_set: frozenset[int]
    k: int
    moves: tuple  # of (sensor id, kind, (x, y)); kind in jump/slide-row/slide-col
    solution: Solution

    @property
    def moved(self) -> int:
        return len(self.moves)


_SWAPPED = {"jump": "jump", "slide-row": "slide-col", "slide-col": "slide-row"}


def solve_minnum(config: Configuration) -> MinNumPlan:
    """Relocate the fewest sensors to make the configuration blocking.

    Moves exactly r sensors when |M| >= c and r + c - |M| otherwise
    (axes oriented so the row-gap count r >= the column-gap count c).
    """
    cells = _cells(config)
    if config.n < max(config.width, config.height):
        raise Infeasible("fewer sensors than the longer side")

    report = is_blocking(config)
    row_gaps, col_gaps = list(report.y_gaps), list(report.x_gaps)
    swapped = len(row_gaps) < len(col_gaps)
    if swapped:  # plan on the transpose: rows and columns trade places
        cells = [(x, y, sid) for y, x, sid in cells]
        row_gaps, col_gaps = col_gaps, row_gaps
    r, c = len(row_gaps), len(col_gaps)

    table = _line_table(cells)
    M = _max_free_set(cells, table)  # the blossom's pick in this orientation
    k = len(M)
    # movers and slides are picked in (row, column, id) order
    order = sorted(cells)
    movers = [cell for cell in order if cell[2] in M]
    moves: list[tuple[int, str, tuple[int, int]]] = []

    # jumping moves: pair sorted column gaps with sorted row gaps
    jumps = min(k, c)
    for idx in range(jumps):
        moves.append((movers[idx][2], "jump", (col_gaps[idx], row_gaps[idx])))
    row_gaps = row_gaps[jumps:]
    col_gaps = col_gaps[jumps:]

    # leftover free sensors fill row gaps vertically, column unchanged
    fills = min(k - jumps, len(row_gaps))
    for idx in range(fills):
        _, x, sid = movers[jumps + idx]
        moves.append((sid, "slide-row", (x, row_gaps[idx])))
    row_gaps = row_gaps[fills:]

    # remaining gaps are repaired by sliding non-free sensors off lines
    # that still hold another sensor, so no slide creates a fresh gap; gap
    # lines hold no unmoved sensor, so their counts are never read.  The
    # table's line counts are updated in place to the moved positions.
    rows, cols = table[0], table[1]
    for (y, x, _), (_, _, (tx, ty)) in zip(movers, moves):
        rows[y] -= 1
        cols[x] -= 1
        rows[ty] += 1
        cols[tx] += 1
    moved_ids = set(M)

    def slide(gap: int, vertical: bool) -> None:
        counts = rows if vertical else cols
        cell = next((cell for cell in order if cell[2] not in moved_ids
                     and counts[cell[0 if vertical else 1]] > 1), None)
        assert cell, "no slide candidate: pigeonhole guarantee broken"
        y, x, sid = cell
        counts[y if vertical else x] -= 1
        moves.append((sid, "slide-row", (x, gap)) if vertical else
                     (sid, "slide-col", (gap, y)))
        moved_ids.add(sid)

    for gap in row_gaps:
        slide(gap, vertical=True)
    for gap in col_gaps:
        slide(gap, vertical=False)

    if swapped:
        moves = [(sid, _SWAPPED[kind], (y, x)) for sid, kind, (x, y) in moves]
    sol = Solution({sid: (x, y) for sid, x, y, _ in config.sensors}
                   | {sid: target for sid, _, target in moves})
    assert is_blocking(config, sol).blocking, \
        "planner produced a non-blocking solution"
    expected = r if k >= c else r + c - k
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
        return b - len(rows), a - len(cols)  # sensors lie on the grid

    ids = [s.id for s in sensors]
    for size in range(config.n + 1):
        for subset in itertools.combinations(ids, size):
            r, c = residual_gaps(frozenset(subset))
            if size >= max(r, c):
                return size
    raise Infeasible("no relocation set suffices")  # pragma: no cover
