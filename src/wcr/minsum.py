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
solve_minsum_manhattan checks each axis once, both before either DP
runs, and then runs the DP body _solve_1d on each.

The 1D problem: points p_0 <= ... <= p_{n-1} (sorted, ties by input
index) on a segment [0, L], all radius r, minimize total movement so
the union of [t_i - r, t_i + r] covers [0, L].  The solver returns one
optimum: the lexicographically least target vector (t_0, ..., t_{n-1}),
with a sensor that stays put ranked before one that moves onto its own
point.

Anchors.  In that vector every maximal run of consecutive sorted
sensors whose targets touch (t_{i+1} = t_i + 2r) is anchored: one of
its members is at its own point, or the run starts at r, or it ends at
L - r.  Otherwise shifting the run down keeps the cover and lowers
the cost, or keeps the cost and lowers the vector, or shifting it up
lowers the cost; a touching pair with a staying sensor between them is
handled by an exchange.  So every target is a + 2ri with a in

    A = {p_j - 2rj} U {r - 2rj} U {L - r - 2rj},   j < n,

and sensor i's candidates are those a + 2ri inside [0, L] and inside
its band, L - r - 2r(n-1-i) <= t <= (2i+1)r (the sensors before it
reach at most (2i+1)r, the ones after it cover at most 2r each).  Each
candidate is b + 2rk with |k| < n, a point of the candidate grid C of
candidate_targets: the options are a subset of those of a DP over all
of C (tests/brutes.py::reference_minsum_1d), and they hold its answer,
so with the option order below both return the same vector.

The DP is a suffix pass over sensors i = n-1 .. 0 and their candidates
t, in ascending order.  An option (i, t) with t >= L - r completes the
cover; any other follows the least option already stored at a target
in [t, t + 2r] (a later sensor's: the options of i at or above t are
not stored yet).  That window is never empty: sensor i+1 has an
option at t + 2r, or at L - r when t + 2r passes L (t < L - r, so
i < n-1), and every option is stored or beaten.  Its value is
|p_i - t| plus the value of what it follows, and it is stored at t
when less than the option there.  The answer is the least option
stored at a target <= r; the targets are read off its follow links,
and every sensor off the path stays put.

Options are ordered so that the least one starts the least vector
among its equal-cost completions: by cost; then options moving a
sensor down (t < p), earliest sensor first; then all others, latest
sensor first (the sensors before it stay put, and a stay is ranked
before a move up or onto its own point); then, within one sensor, the
smaller target.  One int key encodes that order,

    ((2 * cost + side) * n + idx) * W + k,

side 0 and idx = i for a move down, side 1 and idx = n-1-i otherwise,
k the index of t in G, the sorted union of all candidates, W = |G|.
So M, the least key stored per point of G, is a list of ints, and the
option an option follows is min(M[k:up[k]]), up[k] the end of its
window.  Options are at most n * |A| <= 3n^2, and each reads a window
of G; check_minsum_1d still admits instances by the grid's n * |C|,
which bounds the options as well.

The DP runs on Python ints: Line1DInstance.ints scales r, L and the
points once per instance by core.to_ints, to integer counts of 1/D, so
every candidate and key is exact; check_minsum_1d, candidate_targets
and the DP all read it.  Only the returned targets and cost become
rationals again: ints when integral, Fractions otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import Configuration, Solution, rat, to_ints
from .errors import (HeterogeneousRanges, Infeasible, ModeError, SizeLimit,
                     ValidationError)

MINSUM_STATE_LIMIT = 2 * 10**7  # n * |C|, a bound on the MinSum DP's options
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
    [0, L] at most, and clamping adds 0 and L.  Every option of the DP
    is a sensor and a point of C, so the count bounds the options too,
    loosely: they are at most n * |A| <= 3n^2."""
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
                    ) -> tuple[tuple[int | Fraction, ...], int | Fraction]:
    """Optimal targets (aligned to input order) and their total cost,
    ints when integral and Fractions otherwise.

    On an integer-mode axis (half-integer points, r = 1/2, integer L)
    every candidate is a half-integer, so the targets stay on lattice
    points.
    """
    check_minsum_1d(inst)
    return _solve_1d(inst)


def _solve_1d(inst: Line1DInstance
              ) -> tuple[tuple[int | Fraction, ...], int | Fraction]:
    """solve_minsum_1d on an axis check_minsum_1d has admitted."""
    n = len(inst.points)
    d, (r, L, *scaled) = inst.ints
    order = sorted(range(n), key=lambda i: (scaled[i], i))
    pts = [scaled[i] for i in order]
    step, done = 2 * r, L - r  # a target >= done completes the cover
    A = sorted({b - step * j for j, p in enumerate(pts) for b in (p, r, done)})
    # sensor i's candidates: A[s:e] + 2ri, inside [0, L] and its band
    slices = [(bisect_left(A, max(0, done - step * (n - 1 - i)) - step * i),
               bisect_right(A, min(L, r + step * i) - step * i))
              for i in range(n)]
    G = sorted({a + step * i for i, (s, e) in enumerate(slices)
                for a in A[s:e]})
    W, index = len(G), {t: k for k, t in enumerate(G)}
    up = [bisect_right(G, t + step) for t in G]  # window ends
    unit = 2 * n * W  # one unit of cost in a key
    none = (n * L + 1) * unit  # past every key: no move exceeds L
    M = [none] * W  # the least key stored at each point of G
    follows = {}  # stored key -> the key it follows, -1 when terminal
    for i in range(n - 1, -1, -1):
        p, shift = pts[i], step * i
        s, e = slices[i]
        down, other = i * W, (2 * n - 1 - i) * W
        for a in A[s:e]:  # ascending: i reads no option of its own
            t = a + shift
            k = index[t]
            if t >= done:
                follow = -1
                key = abs(p - t) * unit
            else:
                follow = min(M[k:up[k]])
                key = abs(p - t) * unit + follow - follow % unit
            key += (down if t < p else other) + k
            if key < M[k]:
                M[k] = key
                follows[key] = follow

    key = min(M[:bisect_right(G, r)])
    assert key < none
    total = key // unit
    targets_sorted = list(pts)  # sensors off the path stay put
    while key >= 0:
        rank, k = divmod(key, W)
        rank %= 2 * n
        targets_sorted[rank if rank < n else 2 * n - 1 - rank] = G[k]
        key = follows[key]

    assert sum(abs(t - p) for t, p in zip(targets_sorted, pts)) == total
    targets = [rat(Fraction(t, d))
               for _, t in sorted(zip(order, targets_sorted))]
    return tuple(targets), rat(Fraction(total, d))


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


def _shift(coords, by: Fraction) -> tuple[int | Fraction, ...]:
    """coords moved by by, ints when integral; the same values when by
    is 0."""
    return tuple(coords) if not by else tuple(rat(c + by) for c in coords)


def solve_minsum_manhattan(config: Configuration
                           ) -> tuple[Solution, int | Fraction]:
    """Exact 2D MinSum for homogeneous ranges under Manhattan distance;
    positions and cost are ints when integral."""
    xin, yin = axis_instances(config)
    if config.metric != "manhattan":
        raise ModeError("MinSum solver is Manhattan-only")
    for axis in (xin, yin):  # both axes before either DP runs
        check_minsum_1d(axis)
    (tx, cx), (ty, cy) = _solve_1d(xin), _solve_1d(yin)
    tx, ty = _shift(tx, config.x_extent[0]), _shift(ty, config.y_extent[0])
    return Solution({sid: (x, y) for (sid, _, _, _), x, y
                     in zip(config.sensors, tx, ty)}), rat(cx + cy)


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
