"""Command-line frontend: solvers, verifiers, generators, oracles.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit
codes: 0 success/feasible, 1 infeasible or negative decision, 2 invalid
input, 3 resource limit exceeded.  Given identical arguments, input
files and seed, stdout is byte-identical across runs.

MinMax solving searches integer destinations only.  That is exact for
the budget-1 gadget family (fractional solutions normalize to integer
ones); for other instances the reported optimum is the best integer
relocation and is labeled "integer-restricted".
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import minmax, minnum, minsum, oracle, reductions, serialize
from .core import Configuration, _costs, is_blocking, rat_str, \
    solution_costs
from .errors import Infeasible, ParseError, SearchLimit, SizeLimit, \
    ValidationError, WcrError


def _read(path: str) -> str:
    if path is None:
        raise ParseError("a required input file option is missing")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _write_solution(path: str | None, sol) -> None:
    """Write the solution to path, or to stdout when path is None."""
    _write(path, serialize.write_solution(sol))
    if path:
        _emit({"written": path})


def _with_metric(config: Configuration, metric: str | None) -> Configuration:
    if metric is None or metric == config.metric:
        return config
    return Configuration(width=config.width, height=config.height,
                         sensors=config.sensors, mode=config.mode,
                         metric=metric)


def _load_config(path: str, metric: str | None) -> Configuration:
    inst = serialize.read_instance(_read(path))
    if isinstance(inst, minmax.VHInstance):
        raise ParseError("expected a plain instance, got a line-blocking one")
    return _with_metric(inst, metric)


def _gaps_json(gaps, mode):
    if mode == "integer":
        return list(gaps)
    return [[rat_str(lo), rat_str(hi)] for lo, hi in gaps]


def cmd_verify(args) -> int:
    inst = serialize.read_instance(_read(args.instance))
    vh = None
    if isinstance(inst, minmax.VHInstance):
        vh, config = inst, inst.config
    else:
        config = _with_metric(inst, args.metric)
    out = {"metric": config.metric, "mode": config.mode}
    sol = None
    if args.solution:
        sol = serialize.read_solution(_read(args.solution))
    report = is_blocking(config, sol)
    out["blocking"] = report.blocking
    out["x_gaps"] = _gaps_json(report.x_gaps, config.mode)
    out["y_gaps"] = _gaps_json(report.y_gaps, config.mode)
    if vh is not None:
        positions = dict(sol.positions) if sol else \
            {s.id: (s.x, s.y) for s in config.sensors}
        out["vh_blocking"] = minmax.verify_vh(vh, positions)
    if sol is not None:
        costs = _costs(config, sol)  # is_blocking validated sol
        out["moved"] = costs.moved
        out["sum_cost"] = rat_str(costs.sum_low) if \
            costs.sum_low == costs.sum_high else \
            [rat_str(costs.sum_low), rat_str(costs.sum_high)]
        out["max_cost_squared"] = rat_str(costs.max_squared)
        if costs.max_low == costs.max_high:
            out["max_cost"] = rat_str(costs.max_low)
    _emit(out)
    ok = out.get("vh_blocking", report.blocking)
    return 0 if ok else 1


def cmd_solve(args) -> int:
    config = _load_config(args.instance, args.metric)
    out = {"problem": args.problem, "metric": config.metric}
    if args.problem == "minnum":
        plan = minnum.solve_minnum(config)
        sol = plan.solution
        out["moved"] = plan.moved
        out["free_set_size"] = plan.k
        out["moves"] = [{"id": sid, "kind": kind,
                         "to": [rat_str(x), rat_str(y)]}
                        for sid, kind, (x, y) in plan.moves]
    elif args.problem == "minsum":
        sol, cost = minsum.solve_minsum_manhattan(config)
        out["sum_cost"] = rat_str(cost)
        out["moved"] = solution_costs(config, sol).moved
    else:
        result = minmax.solve_minmax(config, args.budget)
        sol = result.solution
        out["restriction"] = "integer-destination moves only"
        out["max_move_squared"] = rat_str(result.value_squared)
        if result.value is not None:
            out["max_move"] = rat_str(result.value)
    out["solution"] = serialize.solution_to_obj(sol)
    _emit(out)
    if args.output:
        _write(args.output, serialize.write_solution(sol))
    return 0


def cmd_decide(args) -> int:
    inst = serialize.read_instance(_read(args.instance))
    if not isinstance(inst, minmax.VHInstance):
        raise ParseError("decide vh expects v_lines/h_lines/max_move fields")
    feasible, witness = minmax.decide_vh(inst, args.budget)
    out = {"feasible": feasible}
    if witness is not None:
        out["witness"] = serialize.solution_to_obj(witness)
    _emit(out)
    if args.output and witness is not None:
        _write(args.output, serialize.write_solution(witness))
    return 0 if feasible else 1


def cmd_gen(args) -> int:
    if args.construction == "minmax":
        vh = serialize.read_instance(_read(args.vh))
        if not isinstance(vh, minmax.VHInstance):
            raise ParseError("gen minmax expects a line-blocking instance")
        padded, mapping = reductions.gen_minmax(vh)
        _write(args.output, serialize.write_instance(padded))
        meta_text = serialize.write_meta(mapping)
    else:
        formula = serialize.read_formula(_read(args.formula))
        if args.construction == "minnum":
            if not isinstance(formula, reductions.Max2Sat3Occ):
                raise ParseError("gen minnum expects the max2sat-3occ dialect")
            inst, meta = reductions.gen_minnum(formula)
        else:
            if not isinstance(formula, reductions.Sat3_22):
                raise ParseError("gen vh expects the 3sat22 dialect")
            inst, meta = reductions.gen_vh(formula)
        _write(args.output, serialize.write_instance(inst))
        meta_text = serialize.write_meta(meta)
    _write(args.meta or args.output + ".meta", meta_text)
    _emit({"written": args.output})
    return 0


def _read_assignment(path: str, n: int):
    obj = serialize._loads(_read(path))
    if not isinstance(obj, list) or not all(
            isinstance(v, (bool, int)) for v in obj):
        raise ParseError("assignment must be a JSON array of booleans")
    if len(obj) != n:
        raise ParseError(f"assignment has {len(obj)} values for {n} variables")
    return tuple(bool(v) for v in obj)


def cmd_embed(args) -> int:
    meta = serialize.read_meta(_read(args.meta))
    if args.construction == "minmax":
        sol = serialize.read_solution(_read(args.solution))
        out = reductions.embed_minmax(meta, sol)
    else:
        formula = serialize.read_formula(_read(args.formula))
        assignment = _read_assignment(args.assignment, formula.n)
        inst = serialize.read_instance(_read(args.instance))
        if args.construction == "minnum":
            out = reductions.embed_minnum(inst, meta, formula, assignment)
        else:
            out = reductions.embed_vh(inst, meta, formula, assignment)
    _write_solution(args.output, out)
    return 0


def cmd_extract(args) -> int:
    meta = serialize.read_meta(_read(args.meta))
    sol = serialize.read_solution(_read(args.solution))
    if args.construction == "minmax":
        _write_solution(args.output, reductions.extract_minmax(meta, sol))
        return 0
    formula = serialize.read_formula(_read(args.formula))
    inst = serialize.read_instance(_read(args.instance))
    if args.construction == "minnum":
        assignment = reductions.extract_minnum(inst, meta, formula, sol)
    else:
        assignment = reductions.extract_vh(inst, meta, formula, sol)
    _emit({"assignment": list(assignment)})
    return 0


def cmd_integerize(args) -> int:
    meta = serialize.read_meta(_read(args.meta))
    inst = serialize.read_instance(_read(args.instance))
    sol = serialize.read_solution(_read(args.solution))
    _write_solution(args.output, reductions.integerize(inst, meta, sol))
    return 0


def cmd_oracle(args) -> int:
    if args.problem == "minnum":
        config = _load_config(args.instance, None)
        _emit({"moved": minnum.brute_minnum(config)})
        return 0
    if args.problem == "minsum":
        config = _load_config(args.instance, None)
        r = minsum.common_range(config)
        out = {}
        for axis, (lo, hi) in (("x", config.x_extent),
                               ("y", config.y_extent)):
            pts = tuple((s.x if axis == "x" else s.y) - lo
                        for s in sorted(config.sensors, key=lambda s: s.id))
            inst = minsum.Line1DInstance(
                points=pts, radius=r, length=hi - lo)
            a_cost, b_cost = minsum.oracle_minsum_1d(
                inst, minsum.oracle_step(inst))
            out[axis] = {"candidate_dp": rat_str(a_cost),
                         "grid": rat_str(b_cost)}
        _emit(out)
        return 0
    inst = serialize.read_instance(_read(args.instance))
    if not isinstance(inst, minmax.VHInstance):
        raise ParseError("oracle vh expects a line-blocking instance")
    feasible = minmax.oracle_minmax(inst)
    _emit({"feasible": feasible})
    return 0 if feasible else 1


def cmd_diff(args) -> int:
    bounds = {}
    if args.max_grid is not None:
        bounds["max_grid"] = args.max_grid
    reports = oracle.differential_suite(args.problem, args.seed,
                                        args.count, **bounds)
    for r in reports:
        sys.stdout.write(json.dumps(asdict(r)) + "\n")
    bad = [r for r in reports if not r.agree]
    sys.stdout.write(json.dumps(
        {"count": len(reports), "disagreements": len(bad)}) + "\n")
    return 0 if not bad else 1


def _grid_bound(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wcr",
        description="Weak barrier coverage of a rectangle: exact movement-"
                    "optimization solvers, verifiers and gadget generators.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="coverage report and solution costs")
    v.add_argument("instance")
    v.add_argument("--solution")
    v.add_argument("--metric", choices=["manhattan", "euclidean"])
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="exact solvers")
    s.add_argument("problem", choices=["minnum", "minsum", "minmax"])
    s.add_argument("instance")
    s.add_argument("-o", "--output")
    s.add_argument("--budget", type=int,
                   help="search node budget")
    s.add_argument("--metric", choices=["manhattan", "euclidean"])
    s.set_defaults(func=cmd_solve)

    d = sub.add_parser("decide", help="line-blocking decision")
    d.add_argument("problem", choices=["vh"])
    d.add_argument("instance")
    d.add_argument("-o", "--output")
    d.add_argument("--budget", type=int)
    d.set_defaults(func=cmd_decide)

    g = sub.add_parser("gen", help="gadget instance generators")
    g.add_argument("construction", choices=["minnum", "vh", "minmax"])
    g.add_argument("--formula")
    g.add_argument("--vh")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--meta")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("embed", help="assignment/solution -> instance solution")
    e.add_argument("construction", choices=["minnum", "vh", "minmax"])
    e.add_argument("--meta", required=True)
    e.add_argument("--instance")
    e.add_argument("--formula")
    e.add_argument("--assignment")
    e.add_argument("--solution")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_embed)

    x = sub.add_parser("extract", help="instance solution -> assignment")
    x.add_argument("construction", choices=["minnum", "vh", "minmax"])
    x.add_argument("--meta", required=True)
    x.add_argument("--instance")
    x.add_argument("--formula")
    x.add_argument("--solution", required=True)
    x.add_argument("-o", "--output")
    x.set_defaults(func=cmd_extract)

    i = sub.add_parser("integerize",
                       help="fractional unit-move solution -> integer")
    i.add_argument("--meta", required=True)
    i.add_argument("--instance", required=True)
    i.add_argument("--solution", required=True)
    i.add_argument("-o", "--output")
    i.set_defaults(func=cmd_integerize)

    o = sub.add_parser("oracle", help="brute-force reference answers")
    o.add_argument("problem", choices=["minnum", "minsum", "vh"])
    o.add_argument("instance")
    o.set_defaults(func=cmd_oracle)

    f = sub.add_parser("diff", help="seeded solver-vs-oracle suite")
    f.add_argument("problem", choices=["minnum", "minsum", "vh", "minmax"])
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--count", type=int, default=100)
    f.add_argument("--max-grid", type=_grid_bound,
                   help="largest grid side, or segment length for minsum "
                        "(at least 2)")
    f.set_defaults(func=cmd_diff)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SizeLimit, SearchLimit) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except Infeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 1
    except WcrError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
