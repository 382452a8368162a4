"""Geometric model: configurations, coverage verification, movement costs.

All coordinates and distances are exact rationals, ints and
fractions.Fraction (see Conventions); no floating point is used anywhere
on solver paths.  Where values are swept, summed or sorted together,
to_ints turns them into ints on one common scale D, the lcm of their
denominators, and only the reported figures become Fractions again;
point-wise range checks cross-multiply numerators by denominators
instead, so no lcm is built to validate input.  An integer move is
within a budget when its distance() key is at most
budget_key(metric, budget).

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
* Rationals: rat, the readers, the generators and the solvers give an
  int for every integral coordinate, dimension, range and budget, and a
  Fraction only for the others; figures built as Fraction(n, D) on a
  common scale (costs, gaps, MinSum targets) stay Fractions.  An int and
  the equal Fraction compare, hash and print alike, so either may be
  passed in.  Quotients are Fraction(a, b), never a / b, which is a
  float on two ints.
* A Sensor is a NamedTuple (id, x, y, range): immutable, ordered and
  hashed as that tuple, and equal to a plain tuple of the same fields.
  Its id is a plain int and no coordinate or range is a bool (which
  the writers would print as "True"); the same holds for a Solution.
* A Configuration keeps its sensors in id order, so configurations of
  the same sensors compare equal whatever order they were given in;
  validation walks the given order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import KeyMismatch, SizeLimit, ValidationError

HALF = Fraction(1, 2)
MAX_DIGITS = 4300  # the digits Python converts between int and str
_PRINTABLE = 10 ** MAX_DIGITS  # ints below it have at most MAX_DIGITS
INTEGER_SIDE_LIMIT = 10**6  # columns or rows is_blocking lists one by one


def rat(value) -> int | Fraction:
    """Coerce ints, Fractions and exact decimal/"p/q" strings to an exact
    rational: an int when the value is integral, else a Fraction.
    Rejects booleans, and strings whose numerator or denominator would
    pass MAX_DIGITS digits (checking an exponent before 10**exponent).

    ASCII digit strings "p" and "p/q" of at most MAX_DIGITS digits a part
    are converted directly; every other string goes through Fraction."""
    if value.__class__ is str:
        p, slash, q = value.partition("/")
        if p.isascii() and p.isdigit() and len(p) <= MAX_DIGITS:
            if not slash:
                return int(p)
            if q.isascii() and q.isdigit() and len(q) <= MAX_DIGITS:
                n, d = int(p), int(q)
                # d == 0 raises ZeroDivisionError in Fraction
                return n // d if d and not n % d else Fraction(n, d)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ValidationError(f"exponent past {MAX_DIGITS} digits")
        q = Fraction(value)  # accepts "3", "3/4" and "0.75" exactly
        if max(abs(q.numerator), q.denominator) >= _PRINTABLE:
            raise ValidationError(f"rational past {MAX_DIGITS} digits")
        return q.numerator if q.denominator == 1 else q
    raise ValidationError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: int | Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise.  Python's
    int/str digit limit guards input only: a result past it (a sum of
    costs over many denominators) is printed in full."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


class Sensor(NamedTuple):
    id: int
    x: int | Fraction
    y: int | Fraction
    range: int | Fraction


@dataclass(frozen=True)
class Configuration:
    width: int | Fraction
    height: int | Fraction
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
        sensors = self.sensors
        ids = [sid for sid, _, _, _ in sensors]
        if any(sid.__class__ is not int for sid in ids):  # no bool either
            raise ValidationError("sensor ids must be integers")
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate sensor id")
        if any(sid < 0 for sid in ids):
            raise ValidationError("sensor ids must be non-negative")
        # denominators are positive: signs and grid checks read numerators
        for sid, x, y, r in sensors:
            if x.__class__ is bool or y.__class__ is bool or \
                    r.__class__ is bool:
                raise ValidationError(
                    f"sensor {sid} has a bool coordinate or range")
            if r.numerator <= 0:
                raise ValidationError("sensor range must be positive")
        if self.mode == "integer":
            if self.width.denominator != 1 or self.height.denominator != 1:
                raise ValidationError("integer mode requires integer dimensions")
            a, b = self.width.numerator, self.height.numerator
            for sid, x, y, r in sensors:
                if r.numerator != 1 or r.denominator != 2:
                    raise ValidationError(
                        f"integer mode requires range 1/2, sensor {sid} has "
                        f"{rat_str(r)}")
                if x.denominator != 1 or y.denominator != 1:
                    raise ValidationError(
                        f"sensor {sid} not on the integer grid")
                if not (1 <= x.numerator <= a and 1 <= y.numerator <= b):
                    raise ValidationError(f"sensor {sid} outside the grid")
        else:
            _require_in_box(((sid, x, y) for sid, x, y, _ in sensors),
                            self.width, self.height,
                            "sensor {} outside the covered rectangle")
        # the ids differ, so the tuples sort by id alone
        object.__setattr__(self, "sensors", tuple(sorted(sensors)))

    @property
    def n(self) -> int:
        return len(self.sensors)

    @property
    def x_extent(self) -> tuple[int | Fraction, int | Fraction]:
        """Covered interval on the x axis."""
        if self.mode == "integer":
            return HALF, self.width + HALF
        return 0, self.width

    @property
    def y_extent(self) -> tuple[int | Fraction, int | Fraction]:
        if self.mode == "integer":
            return HALF, self.height + HALF
        return 0, self.height

    def sensor_by_id(self) -> dict[int, Sensor]:
        return {s.id: s for s in self.sensors}


@dataclass(frozen=True)
class Solution:
    """Final positions keyed by sensor id."""

    positions: Mapping[int, tuple[int | Fraction, int | Fraction]]

    def __post_init__(self):
        for sid, (x, y) in self.positions.items():
            if sid.__class__ is not int:  # no bool either
                raise ValidationError("sensor ids must be integers")
            if x.__class__ is bool or y.__class__ is bool:
                raise ValidationError(
                    f"final position of sensor {sid} has a bool coordinate")

    def validate(self, config: Configuration) -> None:
        positions = self.positions
        if set(positions) != {sid for sid, _, _, _ in config.sensors}:
            raise KeyMismatch("solution ids differ from configuration ids")
        if config.mode == "continuous":
            _require_in_box(
                ((sid, x, y) for sid, (x, y) in positions.items()),
                config.width, config.height,
                "final position of sensor {} outside the rectangle")
            return
        lo_x, hi_x = config.x_extent
        lo_y, hi_y = config.y_extent
        a, b = config.width.numerator, config.height.numerator
        for sid, (x, y) in positions.items():
            on_grid = x.denominator == 1 and y.denominator == 1
            if on_grid:  # [1/2, a + 1/2] holds the ints 1..a
                inside = 1 <= x.numerator <= a and 1 <= y.numerator <= b
            else:
                inside = lo_x <= x <= hi_x and lo_y <= y <= hi_y
            if not inside:
                raise ValidationError(
                    f"final position of sensor {sid} outside the rectangle")
            if not on_grid:
                raise ValidationError(
                    f"final position of sensor {sid} not on the integer grid")


def _require_in_box(points, width: Fraction, height: Fraction,
                    message: str) -> None:
    """ValidationError(message.format(id)) for the first (id, x, y) of
    points outside [0, width] x [0, height], compared as numerators
    cross-multiplied by the (positive) denominators."""
    wn, wd = width.as_integer_ratio()
    hn, hd = height.as_integer_ratio()
    for sid, x, y in points:
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        if not (0 <= xn and xn * wd <= wn * xd and
                0 <= yn and yn * hd <= hn * yd):
            raise ValidationError(message.format(sid))


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


def int_gaps(spans: Iterable[tuple[int, int]], lo: int, hi: int
             ) -> list[tuple[int, int]]:
    """Maximal open sub-intervals of [lo, hi] not covered by the union of
    the given closed int intervals (endpoint-sorted sweep)."""
    gaps = []
    cursor = lo
    for a, b in sorted(span for span in spans if span[1] >= lo and
                       span[0] <= hi):
        if a > cursor:
            gaps.append((cursor, min(a, hi)))
        if b > cursor:
            cursor = b
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def _axis_gaps(centres, radii, side: int, D: int) -> tuple:
    """The gaps that the closed intervals [c - r, c + r] leave on
    [0, side], all ints in counts of 1/D, as Fraction pairs."""
    return tuple((Fraction(a, D), Fraction(b, D)) for a, b in int_gaps(
        [(c - r, c + r) for c, r in zip(centres, radii)], 0, side))


def is_blocking(config: Configuration,
                solution: Solution | None = None) -> CoverageReport:
    """Coverage report of the configuration (optionally with sensors moved
    to the solution's final positions).  Never raises for a valid
    configuration but one with an integer-mode side past
    INTEGER_SIDE_LIMIT, whose gap list could fill memory: SizeLimit."""
    if solution is None:
        pos = [(x, y, r) for _, x, y, r in config.sensors]
    else:
        solution.validate(config)
        positions = solution.positions
        pos = [(*positions[sid], r) for sid, _, _, r in config.sensors]
    if config.mode == "integer":
        a, b = config.width.numerator, config.height.numerator
        if max(a, b) > INTEGER_SIDE_LIMIT:
            raise SizeLimit(f"integer-mode side past {INTEGER_SIDE_LIMIT}")
        cols = {x.numerator for x, _, _ in pos}
        rows = {y.numerator for _, y, _ in pos}
        x_gaps = tuple(i for i in range(1, a + 1) if i not in cols)
        y_gaps = tuple(j for j in range(1, b + 1) if j not in rows)
    else:  # both axes on the one scale of to_ints
        D, (w, h, *ints) = to_ints([config.width, config.height,
                                    *(c for p in pos for c in p)])
        radii = ints[2::3]
        x_gaps = _axis_gaps(ints[::3], radii, w, D)
        y_gaps = _axis_gaps(ints[1::3], radii, h, D)
    return CoverageReport(blocking=not x_gaps and not y_gaps,
                          x_gaps=x_gaps, y_gaps=y_gaps)


def _sqrt_bounds(value: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds of sqrt(value) with hi - lo <= eps,
    for value > 0."""
    # scale so that the integer square root gives the needed precision
    scale = 2 * eps.denominator * max(1, eps.numerator)
    scaled = value * scale * scale
    root = math.isqrt(scaled.numerator // scaled.denominator)
    # root <= sqrt(scaled) < root + 1: both bounds hold as they stand
    return Fraction(root, scale), Fraction(root + 2, scale)


def exact_sqrt(value: int | Fraction) -> int | None:
    """The root of value when value is the square of an integer, else
    None."""
    if value.denominator != 1:
        return None
    root = math.isqrt(value.numerator)
    return root if root * root == value.numerator else None


def distance(metric: str, p, q):
    """Length of the move p -> q between int or Fraction points: the
    Manhattan distance, or the *squared* euclidean distance (exact)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    if metric == "manhattan":
        return abs(dx) + abs(dy)
    return dx * dx + dy * dy


def to_ints(values) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of the int or Fraction values (1
    when there are none), and each value as an integer count of 1/D."""
    values = list(values)
    if {*map(type, values)} <= {int}:  # bool is not int: it takes the ratios
        return 1, values
    ratios = [v.as_integer_ratio() for v in values]
    D = math.lcm(*{d for _, d in ratios})
    return D, [n * (D // d) for n, d in ratios]


def budget_key(metric: str, budget: Fraction) -> int:
    """The largest distance() key an integer move may have within the
    non-negative budget: floor(budget) under Manhattan, floor(budget^2)
    under Euclidean (integer moves have integer keys)."""
    n, d = budget.as_integer_ratio()
    return n // d if metric == "manhattan" else n * n // (d * d)


_EUCLID_EPS = Fraction(1, 10**10)


def solution_costs(config: Configuration, sol: Solution) -> CostReport:
    sol.validate(config)
    return _costs(config, sol)


def _costs(config: Configuration, sol: Solution) -> CostReport:
    """solution_costs of a solution that Solution.validate accepted, taken
    on ints: every coordinate is scaled by to_ints, and only the
    reported figures are Fractions."""
    positions = sol.positions
    D, ints = to_ints(c for sid, x, y, _ in config.sensors
                      for c in (x, y, *positions[sid]))
    metric = config.metric
    moved = total = top = 0  # total: exact terms; top: largest key
    oblique = []  # squared lengths of the euclidean moves off both axes
    for hx, hy, x, y in zip(ints[::4], ints[1::4], ints[2::4], ints[3::4]):
        key = distance(metric, (hx, hy), (x, y))  # in units 1/D or 1/D²
        if key:
            moved += 1
            top = max(top, key)
        if metric == "manhattan":
            total += key
        elif hx == x or hy == y:  # axis-aligned: exact
            total += distance("manhattan", (hx, hy), (x, y))
        else:
            oblique.append(key)
    sum_lo = sum_hi = Fraction(total, D)
    # k enclosures of width <= 1e-9 / max(10, k) sum to a width <= 1e-9
    eps = Fraction(1, 10**9 * max(10, len(oblique)))
    for key in oblique:
        d_lo, d_hi = _sqrt_bounds(Fraction(key, D * D), eps)
        sum_lo += d_lo
        sum_hi += d_hi
    if metric == "manhattan":
        max_key = Fraction(top, D)
        max_sq, max_lo, max_hi = max_key * max_key, max_key, max_key
    else:
        max_sq = Fraction(top, D * D)
        root = exact_sqrt(max_sq)
        max_lo, max_hi = (root, root) if root is not None \
            else _sqrt_bounds(max_sq, _EUCLID_EPS)
    return CostReport(moved=moved, sum_low=sum_lo, sum_high=sum_hi,
                      max_low=max_lo, max_high=max_hi, max_squared=max_sq)
