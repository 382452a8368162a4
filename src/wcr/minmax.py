"""Line-blocking decision problems and exact MinMax on the integer grid.

A sensor destination (x, y) blocks vertical line x and horizontal
line y.  Fractional positions block a line i when the union of sensor
projections covers the unit interval [i - 1/2, i + 1/2]; for integer
positions that degenerates to "some sensor sits exactly on the line".

Search is restricted to integer destinations.  That restriction is
lossless for the D = 1 gadget family (fractional solutions normalize
to integer ones, see reductions.integerize); for other budgets the
result is the integer-restricted optimum and labeled as such.

An integer move is within the budget when its core.distance key is at
most core.budget_key; verify_vh and lines_blocked compare positions
that may be fractional on ints scaled by core.to_ints.

solve_minmax searches the integer keys (distances under Manhattan,
squared distances under Euclidean) from a lower bound to the key of
the longest move, a + b - 2 or (a-1)^2 + (b-1)^2, where every move is
allowed.  A key that no move reaches admits exactly the moves of the
reachable key below it, so the least feasible integer key is the
optimum.  The bound is _key_bound: the sensor that ends on a line
moves at least that line's distance to the nearest home along its
axis.  The search gallops (Bentley & Yao, IPL 1976): it probes bound,
bound + 1, bound + 3, bound + 7, ... up to the first yes, then bisects
below it, and keeps the witness of the last yes.  Each probe is one
_decide call at an integer key, within SCAN_LIMIT and the node budget.

decide_vh searches depth first on integer line ids.  Each node branches
on the MRV line (fewest live candidates, least id).  Commit and undo
keep the unsatisfied lines in that order, so a node costs the lines
that the committed sensor's moves touch, not a scan of the lines still
unblocked.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import Configuration, Solution, budget_key, distance, \
    exact_sqrt, to_ints
from .errors import Infeasible, ModeError, SearchLimit, SizeLimit, \
    ValidationError

DEFAULT_NODE_BUDGET = 10**8
SCAN_LIMIT = 10**6  # grid cells a decide_vh call may scan


@dataclass(frozen=True)
class VHInstance:
    config: Configuration
    v_lines: frozenset[int]
    h_lines: frozenset[int]
    max_move: int | Fraction

    def __post_init__(self):
        if self.config.mode != "integer":
            raise ModeError("line-blocking instances are integer mode")
        a, b = int(self.config.width), int(self.config.height)
        if not all(1 <= v <= a for v in self.v_lines):
            raise ValidationError("vertical line index out of range")
        if not all(1 <= h <= b for h in self.h_lines):
            raise ValidationError("horizontal line index out of range")
        if self.max_move < 0:
            raise ValidationError("move budget must be non-negative")


def full_lines(config: Configuration) -> tuple[frozenset[int], frozenset[int]]:
    return (frozenset(range(1, int(config.width) + 1)),
            frozenset(range(1, int(config.height) + 1)))


def _reach(config: Configuration, key: int) -> int:
    """How far along each axis a move of distance() key or less goes:
    key under Manhattan, isqrt(key) under Euclidean."""
    return key if config.metric == "manhattan" else isqrt(key)


def move_domain(config: Configuration, home: tuple[int, int],
                key: int) -> tuple:
    """The sorted (d, x, y) triples of the integer grid destinations
    whose distance() d from the sensor at integer point home is at most
    key.  Under either metric with key 1 this is the 5-point plus (a
    diagonal step has squared length 2).

    Each column within _reach holds the rows within what is left of
    key once the column is reached: key - |dx| under Manhattan,
    isqrt(key - dx^2) under Euclidean."""
    hx, hy = home
    a, b, reach = int(config.width), int(config.height), _reach(config, key)
    manhattan = config.metric == "manhattan"
    out = []
    for x in range(max(1, hx - reach), min(a, hx + reach) + 1):
        dx = abs(x - hx) if manhattan else (x - hx) ** 2
        r = key - dx if manhattan else isqrt(key - dx)
        for y in range(max(1, hy - r), min(b, hy + r) + 1):
            out.append((dx + (abs(y - hy) if manhattan else (y - hy) ** 2),
                        x, y))
    out.sort()
    return tuple(out)


def lines_blocked(positions, v_lines, h_lines):
    """Required lines blocked by the given (possibly fractional)
    positions: line i is blocked when the unit intervals around the
    coordinates cover [i - 1/2, i + 1/2], i.e. when the nearest
    coordinate at or below i and the nearest at or above it are at most
    1 apart (the same coordinate when one sits on i).

    Coordinates are scaled to ints by to_ints and sorted: one bisect
    per line.  At scale 1 (all on the grid) a line is blocked iff a
    coordinate sits on it: one set intersection."""
    def blocked(coords, lines):
        d, scaled = to_ints(coords)
        if d == 1:
            return set(scaled).intersection(lines)
        scaled.sort()
        out = set()
        for i in lines:
            k = bisect_left(scaled, d * i)  # scaled[k]: nearest at or above
            if k < len(scaled) and (scaled[k] == d * i or
                                    k and scaled[k] - scaled[k - 1] <= d):
                out.add(i)
        return out

    return (blocked([x for x, _ in positions], v_lines),
            blocked([y for _, y in positions], h_lines))


def verify_vh(inst: VHInstance, positions: dict, *,
              require_integer: bool = True) -> bool:
    """positions: id -> (x, y).  True iff every required line is blocked,
    every move is within budget, and positions stay on the grid.

    Homes, positions, the covered rectangle [1/2, a + 1/2] x
    [1/2, b + 1/2] and the budget are compared as ints scaled by
    to_ints."""
    config = inst.config
    if set(positions) != {sid for sid, _, _, _ in config.sensors}:
        return False
    moves = [(x, y, *positions[sid]) for sid, x, y, _ in config.sensors]
    if require_integer and any(x.denominator != 1 or y.denominator != 1
                               for _, _, x, y in moves):
        return False
    D, (reach, *ints) = to_ints([inst.max_move,
                                 *(c for move in moves for c in move)])
    if config.metric != "manhattan":
        reach *= reach  # distance() gives squared euclidean lengths
    hi_x = (2 * config.width.numerator + 1) * D  # 2 (a + 1/2) D
    hi_y = (2 * config.height.numerator + 1) * D
    for hx, hy, x, y in zip(ints[::4], ints[1::4], ints[2::4], ints[3::4]):
        if not (D <= 2 * x <= hi_x and D <= 2 * y <= hi_y) or \
                distance(config.metric, (hx, hy), (x, y)) > reach:
            return False
    return lines_blocked(positions.values(), inst.v_lines, inst.h_lines) == \
        (inst.v_lines, inst.h_lines)


def decide_vh(inst: VHInstance, budget: int | None = None
              ) -> tuple[bool, Solution | None]:
    """Backtracking decision: can every required line be blocked with
    per-sensor moves at most max_move?

    Lines are branched on in MRV order (fewest candidate blockers,
    ties (axis, index) with vertical first); candidates are
    (uncommitted sensor, destination on the line) pairs tried by
    smallest displacement.  Raises SearchLimit past the node budget.

    The required lines get the ids 0..L-1, the sorted vertical lines
    first, then the sorted horizontal ones, so a tie goes to the least
    id.  The candidates are indexed once per call: each line id maps to
    the sorted (key, x, y, sensor) tuples of every move_domain
    destination on it, and each sensor to the lines its entries are on,
    with their counts.  A node reads the MRV line's candidates by
    dropping the committed sensors from its list, which keeps the
    order.  The unsatisfied lines stay sorted by (live candidates, id),
    one int each, so the MRV line is the first of them: commit and undo
    move only the lines the sensor's entries are on and the two lines
    its destination blocks, each by a bisect and a list move.  A node
    thus costs the lines one sensor touches, not a pass over the
    unsatisfied lines.  Raises SizeLimit when the budget boxes to scan
    hold more than SCAN_LIMIT grid cells.
    """
    ok, sol = _decide(inst.config, inst.v_lines, inst.h_lines,
                      budget_key(inst.config.metric, inst.max_move), budget)
    assert not ok or verify_vh(inst, sol.positions)
    return ok, sol


def _decide(config: Configuration, v_lines, h_lines, key: int, budget):
    """decide_vh's search over the moves of distance() key or less."""
    homes = [(x.numerator, y.numerator) for _, x, y, _ in config.sensors]
    a, b, reach = int(config.width), int(config.height), _reach(config, key)
    cells = sum((min(a, x + reach) - max(1, x - reach) + 1) *
                (min(b, y + reach) - max(1, y - reach) + 1) for x, y in homes)
    if cells > SCAN_LIMIT:
        raise SizeLimit(f"decide_vh would scan {cells} grid cells, "
                        f"past {SCAN_LIMIT}")
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    vs, hs = sorted(v_lines), sorted(h_lines)
    L = len(vs) + len(hs)  # line ids: the vertical lines, then the rows
    v_id = {x: i for i, x in enumerate(vs)}
    h_id = {y: i for i, y in enumerate(hs, len(vs))}
    # sensors are numbered in config.sensors' order, which is by id, so
    # the (d, x, y, sensor) candidates sort as they would by id
    index: list[list] = [[] for _ in range(L)]  # line -> its candidates
    touches = []  # sensor -> (line, its entries on the line) pairs
    for s, home in enumerate(homes):
        count: dict[int, int] = {}
        for d, x, y in move_domain(config, home, key):
            for line in (v_id.get(x), h_id.get(y)):
                if line is not None:
                    index[line].append((d, x, y, s))
                    count[line] = count.get(line, 0) + 1
        touches.append(list(count.items()))
    for cands in index:
        cands.sort()
    live = [len(cands) for cands in index]  # entries of free sensors
    cover = [0] * L  # committed sensors on each line
    # the unsatisfied lines by (live, id) as the sorted ints live * L + id:
    # mrv[0] is the least id among those with the fewest live entries
    mrv = sorted(n * L + line for line, n in enumerate(live))
    pos: list = [None] * len(homes)  # committed destinations
    nodes = 0

    def recount(s, sign):
        # sensor s leaves (sign -1) or rejoins (+1) the free sensors: each
        # line it touches changes its live count, and an unsatisfied one
        # moves to its new place in mrv
        for line, k in touches[s]:
            n = live[line]
            live[line] = n + sign * k
            if not cover[line]:
                del mrv[bisect_left(mrv, n * L + line)]
                insort(mrv, (n + sign * k) * L + line)

    def commit(s, xy):
        pos[s] = xy
        for line in (v_id.get(xy[0]), h_id.get(xy[1])):
            if line is not None:
                cover[line] += 1
                if cover[line] == 1:  # newly blocked
                    del mrv[bisect_left(mrv, live[line] * L + line)]
        recount(s, -1)

    def undo(s):
        xy, pos[s] = pos[s], None
        recount(s, 1)
        for line in (v_id.get(xy[0]), h_id.get(xy[1])):
            if line is not None:
                cover[line] -= 1
                if not cover[line]:  # unsatisfied again
                    insort(mrv, live[line] * L + line)

    def visit():
        # one search node: True when every line is blocked, else its
        # frame [candidates on the MRV line, next index], with no
        # candidates when that line has none left
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise SearchLimit(nodes, key, len(mrv))
        if not mrv:
            return True
        return [[c for c in index[mrv[0] % L] if pos[c[3]] is None], 0]

    # depth first on an explicit stack, as deep as there are sensors;
    # a frame's next candidate is tried once the one before is undone
    stack = [visit()]
    while stack and stack[-1] is not True:
        frame = stack[-1]
        cands, i = frame
        if i:
            undo(cands[i - 1][3])
        if i == len(cands):
            stack.pop()
            continue
        frame[1] = i + 1
        _, x, y, s = cands[i]
        commit(s, (x, y))
        stack.append(visit())
    if not stack:
        return False, None
    return True, Solution({sid: pos[s] or (x, y) for s, (sid, x, y, _)
                           in enumerate(config.sensors)})


@dataclass(frozen=True)
class MinMaxResult:
    """Exact optimum.  `value` is the distance when it is an integer
    (always under Manhattan; under Euclidean only for perfect squares,
    else None); `value_squared` is always exact."""
    value: int | None
    value_squared: int
    solution: Solution


def _key_bound(config: Configuration) -> int:
    """The key of the line farthest from every home along its axis."""
    t = 0
    for side, cs in ((config.width, {s.x for s in config.sensors}),
                     (config.height, {s.y for s in config.sensors})):
        cs = sorted(cs)
        t = max(t, cs[0] - 1, side - cs[-1],
                *((q - p) // 2 for p, q in zip(cs, cs[1:])))
    return int(t if config.metric == "manhattan" else t * t)


def solve_minmax(config: Configuration, budget: int | None = None
                 ) -> MinMaxResult:
    """Least max-displacement making the configuration blocking (integer
    destinations): the least key decide_vh accepts, see the module doc."""
    if config.mode != "integer":
        raise ModeError("integer mode required")
    if config.n < max(config.width, config.height):
        raise Infeasible("fewer sensors than the longer side")
    v, h = full_lines(config)
    a, b = int(config.width), int(config.height)
    bound = lo = _key_bound(config)
    hi = a + b - 2 if config.metric == "manhattan" else \
        (a - 1) ** 2 + (b - 1) ** 2  # every move allowed: feasible
    best, k = None, 0
    while lo <= hi:  # gallop bound + 2^k - 1 to the first yes, then bisect
        key = (lo + hi) // 2 if best else min(bound + (1 << k) - 1, hi)
        ok, sol = _decide(config, v, h, key, budget)
        if ok:
            hi, best = key - 1, (key, sol)
        else:
            lo, k = key + 1, k + 1
    assert best is not None, "full-move relocation must be feasible"
    key, sol = best
    assert lines_blocked(sol.positions.values(), v, h) == (v, h) and all(
        distance(config.metric, (x, y), sol.positions[sid]) <= key
        for sid, x, y, _ in config.sensors)
    if config.metric == "manhattan":
        return MinMaxResult(key, key * key, sol)
    return MinMaxResult(exact_sqrt(key), key, sol)


def oracle_minmax(inst: VHInstance) -> bool:
    """Memoized exhaustive check over sensors x unsatisfied-line sets.
    Reference for decide_vh: the move domains come from a scan of each
    sensor's box of its own reach with a budget test of its own, not
    from _reach and move_domain.  The domains are counted first, line by
    line along the shorter side of each box, and SizeLimit is raised
    before any scan once their product passes 10^7."""
    config = inst.config
    budget = inst.max_move
    # integer moves: |dx| + |dy| <= budget iff <= floor(budget), and
    # dx^2 + dy^2 <= budget^2 iff <= floor(budget^2)
    manhattan = config.metric == "manhattan"
    reach, reach2 = int(budget), int(budget * budget)
    a, b = int(config.width), int(config.height)
    homes = [(int(s.x), int(s.y)) for s in config.sensors]
    boxes = [(range(max(1, x - reach), min(a, x + reach) + 1),
              range(max(1, y - reach), min(b, y + reach) + 1))
             for x, y in homes]
    product = 1  # of the domain sizes so far
    for home, box in zip(homes, boxes):
        # count the cells within budget on each line of the shorter side
        (c, span), (o, across) = sorted(
            zip(home, box), key=lambda hb: hb[1].stop - hb[1].start)
        size = 0
        for v in span:
            dv = abs(v - c)
            w = reach - dv if manhattan else isqrt(reach2 - dv * dv)
            size += min(across.stop - 1, o + w) - max(across.start, o - w) + 1
            if product * size > 10**7:
                raise SizeLimit("move-domain product exceeds 10^7")
        product *= max(1, size)
    domains = [[(x, y) for x in xs for y in ys
                if (abs(x - sx) + abs(y - sy) <= reach if manhattan else
                    (x - sx) ** 2 + (y - sy) ** 2 <= reach2)]
               for (sx, sy), (xs, ys) in zip(homes, boxes)]
    lines = [("v", v) for v in sorted(inst.v_lines)] + \
            [("h", h) for h in sorted(inst.h_lines)]
    bit = {line: 1 << i for i, line in enumerate(lines)}
    full = (1 << len(lines)) - 1
    # masks[i][j] = lines blocked by destination j of sensor i
    masks = [[bit.get(("v", x), 0) | bit.get(("h", y), 0) for x, y in d]
             for d in domains]

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i: int, unsat: int) -> bool:
        if unsat == 0:
            return True
        if i == len(masks):
            return False
        seen = set()
        for m in masks[i]:
            rest = unsat & ~m
            if rest not in seen:
                seen.add(rest)
                if rec(i + 1, rest):
                    return True
        return False

    return rec(0, full)
