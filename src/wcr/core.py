"""Geometric model: configurations, coverage verification, movement costs.

All coordinates and distances are exact rationals (fractions.Fraction);
no floating point is used anywhere on solver paths.

Conventions
-----------
* A sensor at (x, y) with range r covers the closed disk of radius r;
  weak coverage only looks at the two axis projections [x-r, x+r] and
  [y-r, y+r].
* Integer mode: width/height are integers, every sensor has range 1/2
  and integer coordinates in [1, a] x [1, b]; the covered rectangle is
  [1/2, a+1/2] x [1/2, b+1/2].  Blocking <=> every column 1..a and
  every row 1..b hosts a sensor.  "Column" is the x index, "row" the
  y index (rows increase downward in the gadget constructions).
* Continuous mode: the covered rectangle is [0, a] x [0, b] and sensor
  centers lie inside it.
* Coverage is closed: touching an interval endpoint counts as covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import KeyMismatch, ValidationError

HALF = Fraction(1, 2)


def rat(value) -> Fraction:
    """Coerce ints, Fractions and exact decimal/"p/q" strings to Fraction.
    Booleans are rejected although bool is a subclass of int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)  # accepts "3", "3/4" and "0.75" exactly
    raise ValidationError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, order=True)
class Sensor:
    id: int
    x: Fraction
    y: Fraction
    range: Fraction

    @property
    def diameter(self) -> Fraction:
        return 2 * self.range


@dataclass(frozen=True)
class Configuration:
    width: Fraction
    height: Fraction
    sensors: tuple[Sensor, ...]
    mode: str = "integer"  # "integer" | "continuous"
    metric: str = "manhattan"  # "manhattan" | "euclidean"

    def __post_init__(self):
        if self.mode not in ("integer", "continuous"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.metric not in ("manhattan", "euclidean"):
            raise ValidationError(f"unknown metric {self.metric!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("rectangle dimensions must be positive")
        ids = [s.id for s in self.sensors]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate sensor id")
        if any(s.id < 0 for s in self.sensors):
            raise ValidationError("sensor ids must be non-negative")
        if any(s.range <= 0 for s in self.sensors):
            raise ValidationError("sensor range must be positive")
        if self.mode == "integer":
            if self.width.denominator != 1 or self.height.denominator != 1:
                raise ValidationError("integer mode requires integer dimensions")
            for s in self.sensors:
                if s.range != HALF:
                    raise ValidationError(
                        f"integer mode requires range 1/2, sensor {s.id} has "
                        f"{rat_str(s.range)}")
                if s.x.denominator != 1 or s.y.denominator != 1:
                    raise ValidationError(
                        f"sensor {s.id} not on the integer grid")
                if not (1 <= s.x <= self.width and 1 <= s.y <= self.height):
                    raise ValidationError(f"sensor {s.id} outside the grid")
        else:
            lo_x, hi_x = self.x_extent
            lo_y, hi_y = self.y_extent
            for s in self.sensors:
                if not (lo_x <= s.x <= hi_x and lo_y <= s.y <= hi_y):
                    raise ValidationError(
                        f"sensor {s.id} outside the covered rectangle")

    @property
    def n(self) -> int:
        return len(self.sensors)

    @property
    def x_extent(self) -> tuple[Fraction, Fraction]:
        """Covered interval on the x axis."""
        if self.mode == "integer":
            return HALF, self.width + HALF
        return Fraction(0), Fraction(self.width)

    @property
    def y_extent(self) -> tuple[Fraction, Fraction]:
        if self.mode == "integer":
            return HALF, self.height + HALF
        return Fraction(0), Fraction(self.height)

    @property
    def coverage_feasible(self) -> bool:
        """Whether sum of diameters reaches the longer side (prerequisite
        for any blocking configuration to exist)."""
        total = sum((s.diameter for s in self.sensors), Fraction(0))
        return total >= max(self.width, self.height)

    def sensor_by_id(self) -> dict[int, Sensor]:
        return {s.id: s for s in self.sensors}


@dataclass(frozen=True)
class Solution:
    """Final positions keyed by sensor id."""

    positions: Mapping[int, tuple[Fraction, Fraction]]

    def validate(self, config: Configuration) -> None:
        if set(self.positions) != {s.id for s in config.sensors}:
            raise KeyMismatch("solution ids differ from configuration ids")
        lo_x, hi_x = config.x_extent
        lo_y, hi_y = config.y_extent
        for sid, (x, y) in self.positions.items():
            if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
                raise ValidationError(
                    f"final position of sensor {sid} outside the rectangle")
            if config.mode == "integer" and (
                    x.denominator != 1 or y.denominator != 1):
                raise ValidationError(
                    f"final position of sensor {sid} not on the integer grid")


@dataclass(frozen=True)
class CoverageReport:
    blocking: bool
    x_gaps: tuple  # open intervals (lo, hi) or column indices in integer mode
    y_gaps: tuple


@dataclass(frozen=True)
class CostReport:
    """Movement costs of a solution.  Manhattan costs are always exact;
    the euclidean sum is exact only for axis-aligned displacements and
    otherwise reported as a certified interval of width <= 10^-9 (each
    of the k oblique moves is bounded to within 10^-9 / max(10, k))."""

    moved: int
    sum_low: Fraction
    sum_high: Fraction
    max_low: Fraction
    max_high: Fraction
    max_squared: Fraction

    @property
    def sum_cost(self) -> Fraction:
        if self.sum_low != self.sum_high:
            raise ValidationError("euclidean sum is only known as an interval")
        return self.sum_low

    @property
    def max_cost(self) -> Fraction:
        if self.max_low != self.max_high:
            raise ValidationError("euclidean max is only known as an interval")
        return self.max_low


def interval_gaps(intervals: Iterable[tuple[Fraction, Fraction]],
                  lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Maximal open sub-intervals of [lo, hi] not covered by the union of
    the given closed intervals (endpoint-sorted sweep)."""
    spans = sorted((a, b) for a, b in intervals if b >= lo and a <= hi)
    gaps = []
    cursor = lo
    for a, b in spans:
        if a > cursor:
            gaps.append((cursor, min(a, hi)))
        if b > cursor:
            cursor = b
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def _positions(config: Configuration, solution: Solution | None):
    if solution is None:
        return [(s.x, s.y, s.range) for s in config.sensors]
    solution.validate(config)
    return [(solution.positions[s.id][0], solution.positions[s.id][1], s.range)
            for s in config.sensors]


def is_blocking(config: Configuration,
                solution: Solution | None = None) -> CoverageReport:
    """Coverage report of the configuration (optionally with sensors moved
    to the solution's final positions).  Total function: never raises for
    a valid configuration."""
    pos = _positions(config, solution)
    if config.mode == "integer":
        cols = {int(x) for x, _, _ in pos}
        rows = {int(y) for _, y, _ in pos}
        x_gaps = tuple(i for i in range(1, int(config.width) + 1)
                       if i not in cols)
        y_gaps = tuple(j for j in range(1, int(config.height) + 1)
                       if j not in rows)
    else:
        lo_x, hi_x = config.x_extent
        lo_y, hi_y = config.y_extent
        x_gaps = tuple(interval_gaps(((x - r, x + r) for x, _, r in pos),
                                     lo_x, hi_x))
        y_gaps = tuple(interval_gaps(((y - r, y + r) for _, y, r in pos),
                                     lo_y, hi_y))
    return CoverageReport(blocking=not x_gaps and not y_gaps,
                          x_gaps=x_gaps, y_gaps=y_gaps)


def _sqrt_bounds(value: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds of sqrt(value) with hi - lo <= eps."""
    if value == 0:
        return Fraction(0), Fraction(0)
    # scale so that the integer square root gives the needed precision
    scale = 2 * eps.denominator * max(1, eps.numerator)
    scaled = value * scale * scale
    root = math.isqrt(scaled.numerator // scaled.denominator)
    lo = Fraction(root, scale)
    hi = Fraction(root + 2, scale)
    # tighten hi until it is a true upper bound witness
    while hi * hi < value:
        hi += Fraction(1, scale)
    while lo * lo > value:
        lo -= Fraction(1, scale)
    return lo, hi


def exact_sqrt(value: Fraction) -> Fraction | None:
    """The root of value when value is the square of an integer, else
    None."""
    if value.denominator != 1:
        return None
    root = math.isqrt(value.numerator)
    return Fraction(root) if root * root == value.numerator else None


def distance(metric: str, p, q):
    """Length of the move p -> q between int or Fraction points: the
    Manhattan distance, or the *squared* euclidean distance (exact)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    if metric == "manhattan":
        return abs(dx) + abs(dy)
    return dx * dx + dy * dy


def within(metric: str, p, q, budget: Fraction) -> bool:
    """Whether the move p -> q has length at most budget."""
    n, m = budget.numerator, budget.denominator  # compare as ints
    if metric == "manhattan":
        return distance(metric, p, q) * m <= n
    return distance(metric, p, q) * m * m <= n * n


_EUCLID_EPS = Fraction(1, 10**10)


def solution_costs(config: Configuration, sol: Solution) -> CostReport:
    sol.validate(config)
    moved = 0
    sum_lo = sum_hi = Fraction(0)
    max_key = Fraction(0)  # largest distance, squared under euclidean
    oblique = []  # squared lengths of the euclidean moves off both axes
    for s in config.sensors:
        home, dest = (s.x, s.y), sol.positions[s.id]
        key = distance(config.metric, home, dest)
        if key:
            moved += 1
        max_key = max(max_key, key)
        if config.metric == "manhattan":
            exact = key
        elif home[0] == dest[0] or home[1] == dest[1]:  # axis-aligned: exact
            exact = distance("manhattan", home, dest)
        else:
            oblique.append(key)
            continue
        sum_lo += exact
        sum_hi += exact
    # k enclosures of width <= 1e-9 / max(10, k) sum to a width <= 1e-9
    eps = Fraction(1, 10**9 * max(10, len(oblique)))
    for key in oblique:
        d_lo, d_hi = _sqrt_bounds(key, eps)
        sum_lo += d_lo
        sum_hi += d_hi
    if config.metric == "manhattan":
        max_sq, max_lo, max_hi = max_key * max_key, max_key, max_key
    else:
        max_sq, root = max_key, exact_sqrt(max_key)
        max_lo, max_hi = (root, root) if root is not None \
            else _sqrt_bounds(max_key, _EUCLID_EPS)
    return CostReport(moved=moved, sum_low=sum_lo, sum_high=sum_hi,
                      max_low=max_lo, max_high=max_hi, max_squared=max_sq)


def identity_solution(config: Configuration) -> Solution:
    return Solution({s.id: (s.x, s.y) for s in config.sensors})


def apply_moves(config: Configuration,
                moves: Mapping[int, tuple[Fraction, Fraction]]) -> Solution:
    """Identity solution overridden by the given final positions."""
    pos = {s.id: (s.x, s.y) for s in config.sensors}
    for sid, target in moves.items():
        if sid not in pos:
            raise KeyMismatch(f"unknown sensor id {sid}")
        pos[sid] = target
    return Solution(pos)


# ---------------------------------------------------------------------------
# symmetry transforms (used by solvers and the invariance test suite)

def transpose(config: Configuration) -> Configuration:
    return Configuration(
        width=config.height, height=config.width,
        sensors=tuple(Sensor(s.id, s.y, s.x, s.range) for s in config.sensors),
        mode=config.mode, metric=config.metric)


def transpose_solution(sol: Solution) -> Solution:
    return Solution({sid: (y, x) for sid, (x, y) in sol.positions.items()})


def _mirror(value: Fraction, config: Configuration, side: Fraction) -> Fraction:
    if config.mode == "integer":
        return side + 1 - value
    return side - value


def reflect_x(config: Configuration) -> Configuration:
    """Mirror across the vertical axis of the rectangle."""
    return Configuration(
        width=config.width, height=config.height,
        sensors=tuple(Sensor(s.id, _mirror(s.x, config, config.width), s.y,
                             s.range) for s in config.sensors),
        mode=config.mode, metric=config.metric)


def reflect_y(config: Configuration) -> Configuration:
    return Configuration(
        width=config.width, height=config.height,
        sensors=tuple(Sensor(s.id, s.x, _mirror(s.y, config, config.height),
                             s.range) for s in config.sensors),
        mode=config.mode, metric=config.metric)
