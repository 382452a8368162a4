"""The four benchmark workloads: seeded input generators, the CLI call
sequence of one op, and the independent check of one op's outputs.

Inputs are built here from the seed alone; neither ``wcr.oracle`` nor
the test helpers are used, so a program change cannot change a
workload.  Search budgets are passed with ``--budget``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import checks
from checks import CheckError


class Step(NamedTuple):
    """Exit code and captured output of one ``wcr.cli.main`` call."""
    code: int
    out: str
    err: str


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _config_text(mode, metric, width, height, points, radius) -> str:
    return _dumps({"mode": mode, "metric": metric,
                   "rect": {"width": str(width), "height": str(height)},
                   "sensors": [{"id": i, "x": x, "y": y, "range": radius}
                               for i, (x, y) in enumerate(points)]})


def _read(d: str, name: str) -> str:
    with open(f"{d}/{name}", encoding="utf-8") as fh:
        return fh.read()


def _same(reported, value: Fraction, what: str) -> None:
    if Fraction(reported) != value:
        raise CheckError(f"{what} reported {reported}, recomputed {value}")


def _verified_solution(d: str, steps):
    """The instance, solve output and moves of a solve step's solution
    after the shared checks: the -o file matches stdout, the benchmark's
    own blocking check passes, and ``verify --solution`` agrees on
    coverage and costs."""
    inst = checks.parse_instance(_read(d, "instance.json"))
    solved, verified = json.loads(steps[0].out), json.loads(steps[1].out)
    written = json.loads(_read(d, "solution.json"))
    if written != solved["solution"]:
        raise CheckError("solution file differs from the solve output")
    pos = checks.parse_positions(written)
    problem = checks.blocking_error(inst, pos)
    if problem:
        raise CheckError(f"solution does not block: {problem}")
    mv = checks.moves(inst, pos)
    if not verified["blocking"] or verified["x_gaps"] or verified["y_gaps"]:
        raise CheckError("verify reports the solution as not blocking")
    if verified["moved"] != mv.moved:
        raise CheckError(f"verify moved {verified['moved']}, counted {mv.moved}")
    if inst.metric == "manhattan":
        _same(verified["sum_cost"], mv.manhattan_sum, "verify sum_cost")
    _same(verified["max_cost_squared"], mv.max_squared,
          "verify max_cost_squared")
    return inst, solved, mv


def _expect_codes(steps, expected) -> None:
    codes = [s.code for s in steps]
    if codes != list(expected):
        raise CheckError(f"exit codes {codes}, expected {list(expected)}")


# --- minnum-grid ------------------------------------------------------------

def _make_minnum(rng, index, sizes):
    side = sizes["side"]
    points = [(str(rng.randint(1, side)), str(rng.randint(1, side)))
              for _ in range(sizes["n"])]
    return {"instance.json": _config_text("integer", "manhattan", side, side,
                                          points, "1/2")}


def _argv_solve(problem):
    def argvs(d, sizes):
        solve = ["solve", problem, f"{d}/instance.json",
                 "-o", f"{d}/solution.json"]
        if "budget" in sizes:
            solve += ["--budget", str(sizes["budget"])]
        return [solve, ["verify", f"{d}/instance.json",
                        "--solution", f"{d}/solution.json"]]
    return argvs


def _check_minnum(d, steps):
    _expect_codes(steps, (0, 0))
    inst, solved, mv = _verified_solution(d, steps)
    if solved["moved"] != mv.moved or len(solved["moves"]) != mv.moved:
        raise CheckError(f"solve moved {solved['moved']}, counted {mv.moved}")
    row_gaps, col_gaps = checks.line_gaps(inst)
    if mv.moved < max(row_gaps, col_gaps):
        raise CheckError(f"moved {mv.moved} < max(row gaps {row_gaps}, "
                         f"column gaps {col_gaps})")
    return {"moved": mv.moved}


# --- minsum-frac ------------------------------------------------------------

def _make_minsum(rng, index, sizes):
    w, h, den = sizes["width"], sizes["height"], sizes["den"]
    points = [(f"{rng.randint(0, w * den)}/{den}",
               f"{rng.randint(0, h * den)}/{den}") for _ in range(sizes["n"])]
    return {"instance.json": _config_text("continuous", "manhattan", w, h,
                                          points, "1")}


def _check_minsum(d, steps):
    _expect_codes(steps, (0, 0))
    _, solved, mv = _verified_solution(d, steps)
    _same(solved["sum_cost"], mv.manhattan_sum, "solve sum_cost")
    return {"sum_cost": solved["sum_cost"]}


# --- minmax-tight -----------------------------------------------------------

def _make_minmax(rng, index, sizes):
    side = sizes["side"]
    points = [(str(rng.randint(1, side)), str(rng.randint(1, side)))
              for _ in range(side)]
    metric = "manhattan" if index % 2 == 0 else "euclidean"
    return {"instance.json": _config_text("integer", metric, side, side,
                                          points, "1/2")}


def _check_minmax(d, steps):
    _expect_codes(steps, (0, 0))
    _, solved, mv = _verified_solution(d, steps)
    _same(solved["max_move_squared"], mv.max_squared, "solve max_move_squared")
    return {"max_move_squared": solved["max_move_squared"]}


# --- vh-gadget --------------------------------------------------------------

def _make_vh(rng, index, sizes):
    """A 3-SAT(2,2) formula: every variable twice positive, twice
    negative, three distinct variables per clause."""
    n = sizes["variables"]
    while True:
        lits = [s * v for v in range(1, n + 1) for s in (1, 1, -1, -1)]
        rng.shuffle(lits)
        clauses = [lits[i:i + 3] for i in range(0, len(lits), 3)]
        if all(len({abs(lit) for lit in c}) == 3 for c in clauses):
            return {"formula.json": _dumps({"dialect": "3sat22",
                                            "variables": n,
                                            "clauses": clauses})}


def _argv_vh(d, sizes):
    inst, wit = f"{d}/instance.json", f"{d}/witness.json"
    return [["gen", "vh", "--formula", f"{d}/formula.json", "-o", inst],
            ["decide", "vh", inst, "-o", wit, "--budget", str(sizes["budget"])],
            ["extract", "vh", "--meta", f"{inst}.meta", "--instance", inst,
             "--formula", f"{d}/formula.json", "--solution", wit],
            ["verify", inst, "--solution", wit]]


def _check_vh(d, steps):
    formula = json.loads(_read(d, "formula.json"))
    n, clauses = formula["variables"], formula["clauses"]
    sat = checks.satisfiable(n, clauses)
    if not sat:
        _expect_codes(steps, (0, 1))
        if json.loads(steps[1].out)["feasible"]:
            raise CheckError("decide reports feasible on an unsatisfiable "
                             "formula")
        return {"feasible": False}
    _expect_codes(steps, (0, 0, 0, 0))
    decided = json.loads(steps[1].out)
    written = json.loads(_read(d, "witness.json"))
    if not decided["feasible"] or written != decided["witness"]:
        raise CheckError("decide witness missing or differs from its file")
    inst = checks.parse_instance(_read(d, "instance.json"))
    problem = checks.vh_error(inst, checks.parse_positions(written))
    if problem:
        raise CheckError(f"witness fails the line-blocking check: {problem}")
    assignment = json.loads(steps[2].out)["assignment"]
    if len(assignment) != n or not checks.satisfies(assignment, clauses):
        raise CheckError("extracted assignment leaves a clause unsatisfied")
    if json.loads(steps[3].out).get("vh_blocking") is not True:
        raise CheckError("verify reports the witness as not line-blocking")
    return {"feasible": True, "assignment": assignment}


# --- registry ---------------------------------------------------------------
# Why each workload exists is recorded in BENCHMARK.json and README.md.

@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    tiny: dict  # sizes of the self-test smoke run
    pool: int   # instances per pass; the tail percentile is 1 - 10/pool
    make: Callable  # (rng, pool index, sizes) -> {file name: text}
    argvs: Callable  # (instance dir, sizes) -> CLI argument lists of one op
    check: Callable  # (instance dir, steps) -> record; raises CheckError
    # ``check`` sees only ops that end without a resource limit (exit 3).

    @property
    def tail_quantile(self) -> float:
        return 1 - 10 / self.pool


WORKLOADS = {w.name: w for w in (
    Workload(
        "minnum-grid",
        {"side": 400, "n": 800}, {"side": 12, "n": 24}, 50,
        _make_minnum, _argv_solve("minnum"), _check_minnum),
    Workload(
        "minsum-frac",
        {"width": 30, "height": 25, "n": 20, "den": 997},
        {"width": 6, "height": 5, "n": 5, "den": 997}, 50,
        _make_minsum, _argv_solve("minsum"), _check_minsum),
    Workload(
        "minmax-tight",
        {"side": 8, "budget": 20000}, {"side": 4, "budget": 20000}, 40,
        _make_minmax, _argv_solve("minmax"), _check_minmax),
    Workload(
        "vh-gadget",
        {"variables": 6, "budget": 200000}, {"variables": 3, "budget": 200000},
        40, _make_vh, _argv_vh, _check_vh),
)}
