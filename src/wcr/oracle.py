"""Brute-force reference drivers and seeded differential testing.

The reference solvers themselves live next to the algorithms they
check (brute_minnum, oracle_minsum_1d, oracle_minmax, sat_brute); this
module owns the shared random instance generators and the
solver-vs-oracle comparison loop so that limits and seeds stay in one
place.  Instances are identified by a content digest of their
canonical JSON, which makes any disagreement replayable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import serialize
from .core import HALF, Configuration, Sensor
from .minmax import VHInstance, decide_vh, full_lines, oracle_minmax, \
    solve_minmax
from .minnum import brute_minnum, solve_minnum
from .minsum import Line1DInstance, oracle_minsum_1d, oracle_step, \
    solve_minsum_1d


@dataclass(frozen=True)
class DiffReport:
    digest: str
    solver: str
    oracle: str
    agree: bool
    seed: int


def config_digest(obj) -> str:
    if isinstance(obj, (Configuration, VHInstance)):
        payload = serialize.write_instance(obj)
    else:
        payload = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def random_integer_config(rng: random.Random, a: int, b: int, n: int,
                          metric: str = "manhattan") -> Configuration:
    sensors = tuple(Sensor(i, rng.randint(1, a), rng.randint(1, b), HALF)
                    for i in range(n))
    return Configuration(width=a, height=b,
                         sensors=sensors, mode="integer", metric=metric)


def random_minnum_instance(rng: random.Random, max_grid: int = 6,
                           max_n: int = 12) -> Configuration:
    a = rng.randint(2, max_grid)
    b = rng.randint(2, max_grid)
    n = rng.randint(max(a, b), max(a, b, max_n))
    return random_integer_config(rng, a, b, n)


def random_minsum_1d_instance(rng: random.Random, max_n: int = 6,
                              max_grid: int = 20) -> Line1DInstance:
    """A feasible segment of length at most max_grid."""
    n = rng.randint(1, max_n)
    d = rng.choice([2, 3, 4])  # sensor diameter
    length = min(rng.randint(max(1, (n - 1) * d // 2 + 1), n * d), max_grid)
    points = tuple(Fraction(rng.randint(0, length)) for _ in range(n))
    return Line1DInstance(points=points, radius=Fraction(d, 2),
                          length=Fraction(length))


def random_vh_instance(rng: random.Random, max_grid: int = 4,
                       max_n: int = 4) -> VHInstance:
    a = rng.randint(2, max_grid)
    b = rng.randint(2, max_grid)
    n = rng.randint(1, max_n)
    config = random_integer_config(rng, a, b, n)
    v = frozenset(c for c in range(1, a + 1) if rng.random() < 0.5)
    h = frozenset(r for r in range(1, b + 1) if rng.random() < 0.5)
    d = rng.choice([0, 1, 2])
    return VHInstance(config=config, v_lines=v, h_lines=h,
                      max_move=d)


def _diff_minnum(rng, seed, **bounds):
    config = random_minnum_instance(rng, **bounds)
    plan = solve_minnum(config)
    opt = brute_minnum(config)
    return DiffReport(config_digest(config), str(plan.moved), str(opt),
                      plan.moved == opt, seed)


def _diff_minsum(rng, seed, **bounds):
    inst = random_minsum_1d_instance(rng, **bounds)
    _, cost = solve_minsum_1d(inst)
    a_cost, b_cost = oracle_minsum_1d(inst)
    n = len(inst.points)
    agree = cost == a_cost and \
        a_cost <= b_cost <= a_cost + n * oracle_step(inst)
    payload = {"points": [str(p) for p in inst.points],
               "radius": str(inst.radius), "length": str(inst.length)}
    return DiffReport(config_digest(payload), str(cost),
                      f"{a_cost}|{b_cost}", agree, seed)


def _diff_vh(rng, seed, **bounds):
    inst = random_vh_instance(rng, **bounds)
    feasible, _ = decide_vh(inst)
    reference = oracle_minmax(inst)
    return DiffReport(config_digest(inst), str(feasible), str(reference),
                      feasible == reference, seed)


def _diff_minmax(rng, seed, **bounds):
    config = random_minnum_instance(rng,
                                    max_grid=bounds.get("max_grid", 3),
                                    max_n=bounds.get("max_n", 5))
    result = solve_minmax(config)
    v, h = full_lines(config)
    # the instances are Manhattan: scan every displacement for the least
    # budget the oracle accepts, independently of the solver's search
    a, b = int(config.width), int(config.height)
    keys = sorted({abs(x - s.x) + abs(y - s.y) for s in config.sensors
                   for x in range(1, a + 1) for y in range(1, b + 1)})
    reference = next((key for key in keys
                      if oracle_minmax(VHInstance(config, v, h, key))), None)
    return DiffReport(config_digest(config), str(result.value),
                      str(reference), result.value == reference, seed)


_DRIVERS = {"minnum": _diff_minnum, "minsum": _diff_minsum,
            "vh": _diff_vh, "minmax": _diff_minmax}


def differential_suite(problem: str, seed: int, count: int,
                       **bounds) -> list[DiffReport]:
    driver = _DRIVERS[problem]
    reports = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        reports.append(driver(rng, seed, **bounds))
    return sorted(reports, key=lambda r: r.digest)
