"""Independent output checks for the benchmark.

Nothing here imports ``wcr``.  Coverage, movement costs and
satisfiability are recomputed from the JSON the program read and wrote,
with the standard library only, so a defect cannot hide in a helper the
program and its checker share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

HALF = Fraction(1, 2)


class CheckError(Exception):
    """An output disagrees with the benchmark's own recomputation."""


@dataclass(frozen=True)
class Instance:
    mode: str
    metric: str
    width: Fraction
    height: Fraction
    sensors: dict  # id -> (x, y, range)
    v_lines: frozenset = frozenset()
    h_lines: frozenset = frozenset()
    max_move: Fraction | None = None


def parse_instance(text: str) -> Instance:
    obj = json.loads(text)
    max_move = obj.get("max_move")
    return Instance(
        mode=obj["mode"], metric=obj.get("metric", "manhattan"),
        width=Fraction(obj["rect"]["width"]),
        height=Fraction(obj["rect"]["height"]),
        sensors={s["id"]: (Fraction(s["x"]), Fraction(s["y"]),
                           Fraction(s["range"])) for s in obj["sensors"]},
        v_lines=frozenset(obj.get("v_lines", ())),
        h_lines=frozenset(obj.get("h_lines", ())),
        max_move=None if max_move is None else Fraction(max_move))


def parse_positions(obj: dict) -> dict:
    """``{"positions": [{"id", "x", "y"}, ...]}`` -> id -> (x, y)."""
    return {p["id"]: (Fraction(p["x"]), Fraction(p["y"]))
            for p in obj["positions"]}


def _covered(intervals, lo: Fraction, hi: Fraction) -> bool:
    """Closed intervals cover [lo, hi] (touching endpoints count)."""
    reach = lo
    for a, b in sorted(intervals):
        if a > reach:
            return False
        reach = max(reach, b)
        if reach >= hi:
            return True
    return reach >= hi


def _extents(inst: Instance):
    if inst.mode == "integer":
        return (HALF, inst.width + HALF), (HALF, inst.height + HALF)
    return (Fraction(0), inst.width), (Fraction(0), inst.height)


def blocking_error(inst: Instance, pos: dict) -> str | None:
    """Why the final positions do not block the rectangle, or None."""
    if set(pos) != set(inst.sensors):
        return "solution ids differ from instance ids"
    (x_lo, x_hi), (y_lo, y_hi) = _extents(inst)
    for sid, (x, y) in pos.items():
        if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
            return f"sensor {sid} ends outside the rectangle"
    if inst.mode == "integer":
        if any(x.denominator != 1 or y.denominator != 1
               for x, y in pos.values()):
            return "integer-mode position off the grid"
        cols = {x for x, _ in pos.values()}
        rows = {y for _, y in pos.values()}
        empty_cols = sum(1 for c in range(1, int(inst.width) + 1)
                         if c not in cols)
        empty_rows = sum(1 for r in range(1, int(inst.height) + 1)
                         if r not in rows)
        if empty_cols or empty_rows:
            return f"{empty_cols} empty columns, {empty_rows} empty rows"
        return None
    radius = {sid: r for sid, (_, _, r) in inst.sensors.items()}
    if not _covered([(x - radius[s], x + radius[s])
                     for s, (x, _) in pos.items()], x_lo, x_hi):
        return "x projection leaves a gap"
    if not _covered([(y - radius[s], y + radius[s])
                     for s, (_, y) in pos.items()], y_lo, y_hi):
        return "y projection leaves a gap"
    return None


def line_gaps(inst: Instance) -> tuple[int, int]:
    """(empty rows, empty columns) of the initial integer placement."""
    rows = {y for _, y, _ in inst.sensors.values()}
    cols = {x for x, _, _ in inst.sensors.values()}
    return (sum(1 for r in range(1, int(inst.height) + 1) if r not in rows),
            sum(1 for c in range(1, int(inst.width) + 1) if c not in cols))


@dataclass(frozen=True)
class Moves:
    moved: int
    manhattan_sum: Fraction
    max_squared: Fraction  # squared Manhattan or squared Euclidean length


def moves(inst: Instance, pos: dict) -> Moves:
    moved, total, max_sq = 0, Fraction(0), Fraction(0)
    for sid, (x0, y0, _) in inst.sensors.items():
        x, y = pos[sid]
        dx, dy = abs(x - x0), abs(y - y0)
        moved += bool(dx or dy)
        total += dx + dy
        sq = (dx + dy) ** 2 if inst.metric == "manhattan" else dx * dx + dy * dy
        max_sq = max(max_sq, sq)
    return Moves(moved, total, max_sq)


def vh_error(inst: Instance, pos: dict) -> str | None:
    """Why integer positions fail the line-blocking instance, or None."""
    if set(pos) != set(inst.sensors):
        return "witness ids differ from instance ids"
    budget_sq = inst.max_move * inst.max_move
    for sid, (x, y) in pos.items():
        if x.denominator != 1 or y.denominator != 1:
            return f"sensor {sid} off the grid"
        if not (1 <= x <= inst.width and 1 <= y <= inst.height):
            return f"sensor {sid} outside the grid"
        x0, y0, _ = inst.sensors[sid]
        dx, dy = abs(x - x0), abs(y - y0)
        if inst.metric == "manhattan" and dx + dy > inst.max_move or \
                inst.metric == "euclidean" and dx * dx + dy * dy > budget_sq:
            return f"sensor {sid} moves beyond the budget"
    cols = {x for x, _ in pos.values()}
    rows = {y for _, y in pos.values()}
    missing = sorted(set(inst.v_lines) - cols) + sorted(set(inst.h_lines) - rows)
    return f"{len(missing)} required lines unblocked" if missing else None


def satisfies(assignment, clauses) -> bool:
    return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
               for clause in clauses)


def satisfiable(variables: int, clauses) -> bool:
    return any(satisfies(a, clauses)
               for a in product((False, True), repeat=variables))
