"""Minimum total movement for homogeneous sensors, Manhattan metric.

The 2D problem separates into two independent 1D problems (sum of
|dx| and sum of |dy| are minimized independently; any pair of optimal
axis solutions combines into an optimal 2D solution).

The 1D problem: points p_1..p_n on a segment [0, L], all radius r,
minimize total movement so the union of [t_i - r, t_i + r] covers
[0, L].  An order-preserving optimum always exists, and some optimum
places every moved sensor on the candidate grid

    C = {p_j + 2rk} U {r + 2rk} U {L - r - 2rk},   |k| <= n,

clamped to [0, L] (translate any rigid sub-chain of touching intervals
until a sensor stops moving or an endpoint anchors).  The solver is a
suffix DP over sorted sensors and states c = "the last placed target is
C[c]", with C led by the point -r for "nothing placed yet" (its window
is the targets <= r; no sensor is placed on it).  A sensor stays put,
leaving the state as it is (sensors not needed for coverage stay where
they are), or moves to a target in [C[c], C[c] + 2r], priced by a
sliding-window minimum.  Each layer records the state its sensor goes
to (its own state when it stays put: a move onto C[c] adds no cover,
so it never beats staying), and the targets are read off those
choices.  Ties go to the smallest target: the window keeps the first
index of its minimum, and a move beats staying put only when strictly
cheaper, or as cheap at a target below the sensor.

The DP runs on Python ints: the points, r and L are scaled once by D,
the least common multiple of their denominators, so every grid point
and every partial cost is an exact integer count of 1/D.  Only the
returned targets and cost are converted back to Fractions, so the
result is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import Configuration, Solution
from .errors import (HeterogeneousRanges, Infeasible, ModeError, SizeLimit,
                     ValidationError)


@dataclass(frozen=True)
class Line1DInstance:
    points: tuple[Fraction, ...]
    radius: Fraction
    length: Fraction

    def __post_init__(self):
        if self.radius <= 0 or self.length <= 0:
            raise ValidationError("radius and length must be positive")
        for p in self.points:
            if not (0 <= p <= self.length):
                raise ValidationError(f"point {p} outside [0, {self.length}]")

    @property
    def feasible(self) -> bool:
        return len(self.points) * 2 * self.radius >= self.length


def _scaled(inst: Line1DInstance) -> tuple[int, list[int]]:
    """D and [r, L, *points], each as an integer count of 1/D."""
    vals = (inst.radius, inst.length, *inst.points)
    d = lcm(*(v.denominator for v in vals))
    return d, [v.numerator * (d // v.denominator) for v in vals]


def candidate_targets(inst: Line1DInstance) -> list[Fraction]:
    d, (r, L, *pts) = _scaled(inst)
    n = len(pts)
    raw = set()
    for k in range(-n, n + 1):
        shift = 2 * r * k
        raw.add(r + shift)
        raw.add(L - r - shift)
        raw.update(p + shift for p in pts)
    grid = sorted({min(max(v, 0), L) for v in raw})
    return [Fraction(g, d) for g in grid]


def solve_minsum_1d(inst: Line1DInstance
                    ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal targets (aligned to input order) and their total cost.

    On an integer-mode axis (half-integer points, r = 1/2, integer L)
    every grid point but the clamped ends 0 and L is a half-integer,
    and those ends are never optimal (r and L - r cover as much at a
    strictly smaller move), so the targets stay on lattice points.
    """
    if not inst.feasible:
        raise Infeasible("sum of diameters shorter than the segment")
    n = len(inst.points)
    d, (r, L, *scaled) = _scaled(inst)
    order = sorted(range(n), key=lambda i: (inst.points[i], i))
    pts = [scaled[i] for i in order]
    C = [-r] + [v.numerator * (d // v.denominator)
                for v in candidate_targets(inst)]
    m = len(C)  # state 0, at -r: nothing placed yet
    done_from = bisect_left(C, L - r)  # terminal: the rest stay put
    upper = [bisect_right(C, t + 2 * r) for t in C]  # window ends

    # best[c] = min cost of the sensors to come from state c.  no_cover
    # exceeds any real cost (n*L: no move exceeds L) and marks a state
    # with no covering completion; an int, as D can overflow floats
    no_cover = n * L + 1
    best = [no_cover] * done_from + [0] * (m - done_from)
    stay = list(range(m))  # copied per layer: the copies share its ints
    choices = []  # choices[i][c] = state after sensor i; c = it stays put
    for p in reversed(pts):  # best turns, in place, into the layer before p
        place = [abs(p - t) + v for t, v in zip(C, best)]
        choice = stay[:]
        window: deque[int] = deque()  # first argmin of place[c:upper[c]]
        pushed = 1  # no sensor is placed on state 0
        for c in range(done_from):
            while pushed < upper[c]:
                while window and place[window[-1]] > place[pushed]:
                    window.pop()
                window.append(pushed)
                pushed += 1
            while window[0] < c:
                window.popleft()
            cp = window[0]  # ties: smallest target, staying put first
            if place[cp] < best[c] or place[cp] == best[c] and C[cp] < p:
                best[c], choice[c] = place[cp], cp
        choices.append(choice)

    total = best[0]
    if total >= no_cover:
        raise Infeasible("no covering assignment exists")  # pragma: no cover
    targets_sorted, state = [], 0
    for p, choice in zip(pts, reversed(choices)):
        cp = choice[state]
        targets_sorted.append(p if cp == state else C[cp])
        state = cp

    targets = [Fraction(t, d) for _, t in sorted(zip(order, targets_sorted))]
    cost = sum((abs(t - p) for t, p in zip(targets, inst.points)),
               Fraction(0))
    assert cost == Fraction(total, d)
    return tuple(targets), cost


def axis_instances(config: Configuration
                   ) -> tuple[Line1DInstance, Line1DInstance]:
    """The x and the y 1D instance of config: sensors in id order, each
    axis shifted by the low end of its extent, the range they all share
    (exact MinSum needs one)."""
    ranges = {s.range for s in config.sensors}
    if len(ranges) > 1:
        raise HeterogeneousRanges(
            "heterogeneous MinSum is intractable; see the brute-force oracle")
    if not ranges:
        raise Infeasible("no sensors to cover the rectangle")
    r = ranges.pop()
    (lo_x, hi_x), (lo_y, hi_y) = config.x_extent, config.y_extent
    return (Line1DInstance(points=tuple(s.x - lo_x for s in config.sensors),
                           radius=r, length=hi_x - lo_x),
            Line1DInstance(points=tuple(s.y - lo_y for s in config.sensors),
                           radius=r, length=hi_y - lo_y))


def solve_minsum_manhattan(config: Configuration
                           ) -> tuple[Solution, Fraction]:
    """Exact 2D MinSum for homogeneous ranges under Manhattan distance."""
    xin, yin = axis_instances(config)
    if config.metric != "manhattan":
        raise ModeError("MinSum solver is Manhattan-only")
    tx, cx = solve_minsum_1d(xin)
    ty, cy = solve_minsum_1d(yin)
    x0, y0 = config.x_extent[0], config.y_extent[0]
    return Solution({s.id: (x + x0, y + y0)
                     for s, x, y in zip(config.sensors, tx, ty)}), cx + cy


ORACLE_GRID_CELLS = 2 * 10**5  # sensors x grid states x window of the DP B


def oracle_step(inst: Line1DInstance) -> Fraction:
    """Grid step for oracle_minsum_1d: 1/8 when it divides the segment
    length, else the coarsest step 1/(8k) that divides the length, the
    radius and every point, as the oracle's contract asks."""
    if (8 * inst.length).denominator == 1:
        return Fraction(1, 8)
    vals = (inst.length, inst.radius, *inst.points)
    return Fraction(1, lcm(8, *(v.denominator for v in vals)))


def oracle_minsum_1d(inst: Line1DInstance) -> tuple[Fraction, Fraction]:
    """Two independent optimum estimates (A, B).

    A: branch-and-bound over order-preserving assignments into the
    candidate set, coverage verified at the leaves by interval union.
    B: DP over the uniform grid of step delta = oracle_step(inst)
    (order-preserving full assignments).  Contract: A <= B <= A + n*delta
    whenever r, L and the input points are multiples of delta.  Raises
    SizeLimit when B would visit more than ORACLE_GRID_CELLS grid cells.
    """
    n = len(inst.points)
    if n > 6:
        raise SizeLimit("1D oracle limited to 6 sensors")
    if not inst.feasible:
        raise Infeasible("sum of diameters shorter than the segment")
    r, L = inst.radius, inst.length
    pts = sorted(inst.points)

    # --- B: order-preserving full assignments on the uniform grid.
    # State after sensor i = its grid target q; with monotone targets the
    # union's covered prefix is [0, q*delta + r] unless a gap appeared,
    # and gaps are permanent, so a single coordinate suffices.
    delta = oracle_step(inst)
    gq = int(L / delta)  # delta divides L
    cells = n * (gq + 1) * (int(2 * r / delta) + 1)
    if cells > ORACLE_GRID_CELLS:
        raise SizeLimit(f"grid oracle limited to {ORACLE_GRID_CELLS} cells, "
                        f"step {delta} needs {cells}")
    done_at = L - r  # a target here or beyond completes the cover
    prev: dict = {None: Fraction(0)}  # None = nothing placed yet
    covers = []  # costs of the complete covers
    for i in range(n):
        cur: dict = {}
        for state, cost in prev.items():
            if state is not None and state * delta >= done_at:
                # cover complete: sensors i..n-1 go to max(p_j, target)
                covers.append(cost + sum(
                    (max(Fraction(0), state * delta - pts[j])
                     for j in range(i, n)), Fraction(0)))
                continue
            lo = 0 if state is None else state
            hi_abs = r if state is None else state * delta + 2 * r
            q = lo
            while q <= gq and q * delta <= hi_abs:
                c2 = cost + abs(pts[i] - q * delta)
                if q not in cur or c2 < cur[q]:
                    cur[q] = c2
                q += 1
        prev = cur
    covers += [cost for state, cost in prev.items()
               if state * delta >= done_at]
    if not covers:
        raise Infeasible("grid oracle found no covering assignment")
    b_cost = min(covers)

    # --- A: branch and bound over monotone assignments into C.  With
    # monotone targets, reach = covered prefix endpoint; a new interval
    # starting past reach leaves a permanent gap.  B is a valid upper
    # bound (true optimum <= B), so pruning on cost > best is safe.
    C = candidate_targets(inst)
    best = [b_cost]

    def dfs(i: int, cost: Fraction, min_c: int, reach: Fraction):
        if best[0] < cost:
            return
        if reach >= L:
            if cost < best[0]:
                best[0] = cost
            return
        if i == n:
            return
        for c in range(min_c, len(C)):
            t = C[c]
            if t - r > reach:
                break  # permanent gap; larger t only worse
            dfs(i + 1, cost + abs(pts[i] - t), c, max(reach, t + r))

    dfs(0, Fraction(0), 0, Fraction(0))
    a_cost = best[0]
    return a_cost, b_cost
