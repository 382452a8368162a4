"""Minimum total movement for homogeneous sensors, Manhattan metric.

The 2D problem separates into two independent 1D problems (sum of
|dx| and sum of |dy| are minimized independently; any pair of optimal
axis solutions combines into an optimal 2D solution).  axis_instances
makes the two: each axis takes the sensors' coordinates in id order,
shifted by the low end of its extent.  An integer-mode extent starts at
1/2; a continuous one starts at 0, and its coordinates and targets pass
through unchanged (ints when integral, Fractions otherwise), with no
arithmetic.  Line1DInstance
checks 0 <= p <= L on numerators cross-multiplied by denominators.
solve_minsum_manhattan checks both axes before either DP runs.

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

Each layer i (sensors 0..i-1 placed) fills only its band, the states
c that are reachable, C[c] <= (2i - 1)r (the first target is <= r and
each move adds <= 2r), and can still finish, C[c] + r + 2r(n - i) >= L.
A band state's window reads only states reachable at the next layer;
states below a band keep their no-cover value, which is exact, and
states above it are never read, so every finite value and first-index
argmin is the one the full grid gives.  Each layer stores its choices
for its band only, as a slice of one shared list, with the band's
first state as offset.

The DP runs on Python ints: Line1DInstance.ints scales r, L and the
points once per instance by core.to_ints, to integer counts of 1/D, so
every grid point and partial cost is exact; check_minsum_1d,
candidate_targets and the DP all read it.  Only the returned targets
and cost become Fractions again, so the result is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import Configuration, Solution, to_ints
from .errors import (HeterogeneousRanges, Infeasible, ModeError, SizeLimit,
                     ValidationError)

MINSUM_STATE_LIMIT = 2 * 10**7  # n * |C|, the states of the MinSum DP
ORACLE_GRID_CELLS = 2 * 10**5  # sensors x grid states x window of the DP B


@dataclass(frozen=True)
class Line1DInstance:
    points: tuple[Fraction, ...]
    radius: Fraction
    length: Fraction

    def __post_init__(self):
        if self.radius <= 0 or self.length <= 0:
            raise ValidationError("radius and length must be positive")
        # 0 <= p <= L on numerators cross-multiplied by the denominators
        ln, ld = self.length.as_integer_ratio()
        for p in self.points:
            pn, pd = p.as_integer_ratio()
            if not (0 <= pn and pn * ld <= ln * pd):
                raise ValidationError(f"point {p} outside [0, {self.length}]")

    @property
    def feasible(self) -> bool:
        return len(self.points) * 2 * self.radius >= self.length

    @cached_property
    def ints(self) -> tuple[int, list[int]]:
        """D and [r, L, *points] in counts of 1/D (core.to_ints); read only."""
        return to_ints((self.radius, self.length, *self.points))


def candidate_targets(inst: Line1DInstance) -> list[int]:
    """The sorted grid C in integer counts of 1/D (see ints): each
    base b in {r, L - r, the points} gives the shifts b + 2rk, |k| <= n,
    that fall inside (0, L), and 0 or L stands for those clamped onto
    an end."""
    _, (r, L, *pts) = inst.ints
    n, step = len(pts), 2 * r
    grid = set()
    for b in {r, L - r, *pts}:
        first = max(-n, -b // step + 1)  # b + step * first > 0
        last = min(n, (L - b - 1) // step)  # b + step * last < L
        grid.update(range(b + step * first, b + step * last + 1, step))
        if b - step * n <= 0:
            grid.add(0)
        if b + step * n >= L:
            grid.add(L)
    return sorted(grid)


def check_minsum_1d(inst: Line1DInstance) -> None:
    """Infeasible, or SizeLimit if n * |C| may pass the limit: C's bases
    of one residue mod 2r put min(count * (2n+1), L/2r + 1) points on
    [0, L] at most, and clamping adds 0 and L."""
    if not inst.feasible:
        raise Infeasible("sum of diameters shorter than the segment")
    n = len(inst.points)
    _, (r, L, *pts) = inst.ints
    bases = Counter(b % (2 * r) for b in (r, L - r, *pts))
    states = n * (2 + sum(min(k * (2 * n + 1), L // (2 * r) + 1)
                          for k in bases.values()))
    if states > MINSUM_STATE_LIMIT:
        raise SizeLimit(f"the MinSum DP may keep {states} states, "
                        f"past {MINSUM_STATE_LIMIT}")


def solve_minsum_1d(inst: Line1DInstance
                    ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal targets (aligned to input order) and their total cost.

    On an integer-mode axis (half-integer points, r = 1/2, integer L)
    every grid point but the clamped ends 0 and L is a half-integer,
    and those ends are never optimal (r and L - r cover as much at a
    strictly smaller move), so the targets stay on lattice points.
    """
    check_minsum_1d(inst)
    n = len(inst.points)
    d, (r, L, *scaled) = inst.ints
    order = sorted(range(n), key=lambda i: (scaled[i], i))
    pts = [scaled[i] for i in order]
    C = [-r] + candidate_targets(inst)
    m = len(C)  # state 0, at -r: nothing placed yet
    done_from = bisect_left(C, L - r)  # terminal: the rest stay put
    upper = [bisect_right(C, t + 2 * r) for t in C]  # window ends

    # best[c] = min cost of the sensors to come from state c.  no_cover
    # exceeds any real cost (n*L: no move exceeds L) and marks a state
    # with no covering completion; an int, as D can overflow floats
    no_cover = n * L + 1
    best = [no_cover] * done_from + [0] * (m - done_from)
    place = [0] * m  # |p - C[c]| + best[c], set on each layer's windows
    stay = list(range(m))  # every choice is an int of stay, shared
    choices = []  # (lo, choice): choice[c - lo] = state after the sensor
    for i in range(n - 1, -1, -1):  # best turns, in place, into layer i
        p = pts[i]
        # the band of layer i: C[c] <= (2i - 1)r is reachable by sensors
        # 0..i-1, C[c] + r + 2r(n - i) >= L can be finished by the rest
        lo = bisect_left(C, L - r - 2 * r * (n - i))
        hi = bisect_right(C, (2 * i - 1) * r)
        end = min(hi, done_from)
        top = upper[end - 1]  # the band's windows read place[lo:top]
        place[lo:top] = [abs(p - t) + v
                         for t, v in zip(C[lo:top], best[lo:top])]
        choice = stay[lo:hi]  # c - lo = it stays put
        window: deque[int] = deque()  # first argmin of place[c:upper[c]]
        pushed = max(lo, 1)  # no sensor is placed on state 0
        for c in range(lo, end):
            while pushed < upper[c]:
                while window and place[window[-1]] > place[pushed]:
                    window.pop()
                window.append(pushed)
                pushed += 1
            while window[0] < c:
                window.popleft()
            cp = window[0]  # ties: smallest target, staying put first
            if place[cp] < best[c] or place[cp] == best[c] and C[cp] < p:
                best[c], choice[c - lo] = place[cp], stay[cp]
        choices.append((lo, choice))

    total = best[0]
    if total >= no_cover:
        raise Infeasible("no covering assignment exists")  # pragma: no cover
    targets_sorted, state = [], 0
    for p, (lo, choice) in zip(pts, reversed(choices)):
        cp = choice[state - lo]
        targets_sorted.append(p if cp == state else C[cp])
        state = cp

    assert sum(abs(t - p) for t, p in zip(targets_sorted, pts)) == total
    targets = [Fraction(t, d) for _, t in sorted(zip(order, targets_sorted))]
    return tuple(targets), Fraction(total, d)


def axis_instances(config: Configuration
                   ) -> tuple[Line1DInstance, Line1DInstance]:
    """The x and the y 1D instance of config: sensors in id order, each
    axis shifted by the low end of its extent (a continuous extent
    starts at 0 and keeps the coordinates as they are), the range they
    all share (exact MinSum needs one)."""
    sensors = config.sensors
    ranges = {r for _, _, _, r in sensors}
    if len(ranges) > 1:
        raise HeterogeneousRanges(
            "heterogeneous MinSum is intractable; see the brute-force oracle")
    if not ranges:
        raise Infeasible("no sensors to cover the rectangle")
    r = ranges.pop()
    (lo_x, hi_x), (lo_y, hi_y) = config.x_extent, config.y_extent
    xs = _shift([x for _, x, _, _ in sensors], -lo_x)
    ys = _shift([y for _, _, y, _ in sensors], -lo_y)
    return (Line1DInstance(points=xs, radius=r, length=hi_x - lo_x),
            Line1DInstance(points=ys, radius=r, length=hi_y - lo_y))


def _shift(coords, by: Fraction) -> tuple[Fraction, ...]:
    """coords moved by by; the same values when by is 0."""
    return tuple(coords) if not by else tuple(c + by for c in coords)


def solve_minsum_manhattan(config: Configuration
                           ) -> tuple[Solution, Fraction]:
    """Exact 2D MinSum for homogeneous ranges under Manhattan distance."""
    xin, yin = axis_instances(config)
    if config.metric != "manhattan":
        raise ModeError("MinSum solver is Manhattan-only")
    for axis in (xin, yin):  # both axes before either DP runs
        check_minsum_1d(axis)
    (tx, cx), (ty, cy) = solve_minsum_1d(xin), solve_minsum_1d(yin)
    tx, ty = _shift(tx, config.x_extent[0]), _shift(ty, config.y_extent[0])
    return Solution({sid: (x, y) for (sid, _, _, _), x, y
                     in zip(config.sensors, tx, ty)}), cx + cy


def oracle_step(inst: Line1DInstance) -> Fraction:
    """Grid step for oracle_minsum_1d: 1/8 when it divides the segment
    length, else the coarsest step 1/(8k) that divides the length, the
    radius and every point, as the oracle's contract asks."""
    if (8 * inst.length).denominator == 1:
        return Fraction(1, 8)
    return Fraction(1, lcm(8, inst.ints[0]))  # ints[0]: their lcm


def oracle_minsum_1d(inst: Line1DInstance) -> tuple[Fraction, Fraction]:
    """Two independent optimum estimates (A, B).

    A: branch-and-bound over order-preserving assignments into the
    candidate set C, enumerated here on its own, coverage verified at
    the leaves by interval union.
    B: DP over the uniform grid of step delta = oracle_step(inst)
    (order-preserving full assignments).  Contract: A <= B <= A + n*delta
    whenever r, L and the input points are multiples of delta.  Raises
    SizeLimit when B would visit more than ORACLE_GRID_CELLS grid cells.

    Both run on ints: r, L, the points, delta and C are scaled by to_ints.
    """
    n = len(inst.points)
    if n > 6:
        raise SizeLimit("1D oracle limited to 6 sensors")
    check_minsum_1d(inst)  # Infeasible; 6 sensors stay under the limit
    delta = oracle_step(inst)
    s, (r, L, *pts, step) = to_ints((inst.radius, inst.length,
                                     *inst.points, delta))
    pts.sort()

    # --- B: order-preserving full assignments on the uniform grid.
    # State after sensor i = its target t, a multiple of step (None if
    # none yet); with monotone targets the covered prefix is [0, t + r]
    # unless a gap appeared, and gaps are permanent.
    cells = n * (L // step + 1) * (2 * r // step + 1)  # step divides L
    if cells > ORACLE_GRID_CELLS:
        raise SizeLimit(f"grid oracle limited to {ORACLE_GRID_CELLS} cells, "
                        f"step {delta} needs {cells}")
    done_at = L - r  # a target here or beyond completes the cover
    prev: dict = {None: 0}
    covers = []  # costs of the complete covers
    for i, p in enumerate(pts):
        cur: dict = {}
        for t, cost in prev.items():
            if t is not None and t >= done_at:
                # cover complete: sensors i..n-1 go to max(p_j, target)
                covers.append(cost + sum(max(0, t - q) for q in pts[i:]))
                continue
            lo, hi = (0, r) if t is None else (t, t + 2 * r)
            for q in range(lo, min(hi, L) + 1, step):
                c2 = cost + abs(p - q)
                if c2 < cur.get(q, c2 + 1):
                    cur[q] = c2
        prev = cur
    covers += [cost for t, cost in prev.items() if t >= done_at]
    if not covers:
        raise Infeasible("grid oracle found no covering assignment")
    b_cost = min(covers)

    # --- A: branch and bound over monotone assignments into C.  With
    # monotone targets, reach = covered prefix endpoint; a new interval
    # starting past reach leaves a permanent gap.  B is a valid upper
    # bound (true optimum <= B), so pruning on cost > bound is safe; dfs
    # returns the least cover cost below its node, or bound if none is less.
    # C is enumerated here, not taken from the solver's candidate_targets:
    # every base shifted by 2rk, |k| <= n, clamped to [0, L].
    C = sorted({min(max(b + 2 * r * k, 0), L)
                for b in (r, L - r, *pts) for k in range(-n, n + 1)})

    def dfs(i: int, cost: int, min_c: int, reach: int, bound: int) -> int:
        if bound < cost:
            return bound
        if reach >= L:
            return cost
        if i == n:
            return bound
        for c in range(min_c, len(C)):
            t = C[c]
            if t - r > reach:
                break  # permanent gap; larger t only worse
            bound = dfs(i + 1, cost + abs(pts[i] - t), c, max(reach, t + r),
                        bound)
        return bound

    return Fraction(dfs(0, 0, 0, 0, b_cost), s), Fraction(b_cost, s)
