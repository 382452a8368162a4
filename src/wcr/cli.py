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
import functools
import json
import sys
from dataclasses import asdict, replace

from . import minmax, minnum, minsum, oracle, reductions, serialize
from .core import Configuration, Solution, _costs, is_blocking, rat_str
from .errors import Infeasible, ParseError, SearchLimit, SizeLimit, WcrError


def _read(args, name: str) -> str:
    """The text of the file that argument name of args gives."""
    path = getattr(args, name)
    if path is None:
        raise ParseError(f"missing --{name}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise WcrError(f"cannot write {path}: {e}") from None


def _emit(obj) -> None:
    """Encode obj once and write it to stdout."""
    _write(None, serialize.dumps(obj))


def _emit_solution(sol: Solution, path: str | None) -> None:
    """Write sol to path, then name the file on stdout; or write sol to
    stdout when path is None."""
    _write(path, serialize.write_solution(sol))
    if path:
        _emit({"written": path})


def _emit_with(out: dict, key: str, sol: Solution, path: str | None,
               moves=None) -> None:
    """Encode sol once; write it to path when path is given, and write
    out to stdout with the moves of a MinNum plan, when given, and then
    sol under key, last."""
    text = serialize.write_solution(sol)
    if path:
        _write(path, text)
    parts = {} if moves is None else {"moves": serialize.moves_array(moves)}
    parts[key] = text
    _write(None, serialize.dumps(out, parts))


# Each kind of document a command reads: the serialize reader that
# parses it and its name in errors, by the class the reader returns.
_KINDS = {
    Configuration: ("instance", "a plain instance"),
    minmax.VHInstance: ("instance", "a line-blocking instance"),
    Solution: ("solution", "a solution"),
    reductions.MinNumMeta: ("meta", "a minnum meta"),
    reductions.VHMeta: ("meta", "a vh meta"),
    reductions.MinMaxMapping: ("meta", "a minmax meta"),
    reductions.Max2Sat3Occ: ("formula", "a max2sat-3occ formula"),
    reductions.Sat3_22: ("formula", "a 3sat22 formula"),
}

# The gadget instance, meta and formula kinds of each construction;
# minmax reads neither: gen minmax starts from a line-blocking instance.
_CONSTRUCTIONS = {
    "minnum": (Configuration, reductions.MinNumMeta, reductions.Max2Sat3Occ),
    "vh": (minmax.VHInstance, reductions.VHMeta, reductions.Sat3_22),
    "minmax": (None, reductions.MinMaxMapping, None),
}


def _load(args, name: str, *kinds: type):
    """Parse the document that argument name of args gives, which must
    be one of kinds; the first kind picks the reader."""
    reader = getattr(serialize, "read_" + _KINDS[kinds[0]][0])
    doc = reader(_read(args, name))
    if not isinstance(doc, kinds):
        expected = " or ".join(_KINDS[kind][1] for kind in kinds)
        raise ParseError(f"{getattr(args, name)}: expected {expected}, "
                         f"got {_KINDS[type(doc)][1]}")
    return doc


def _with_metric(config: Configuration, metric: str | None) -> Configuration:
    if metric in (None, config.metric):
        return config
    return replace(config, metric=metric)


def _gaps_json(gaps, mode):
    if mode == "integer":
        return list(gaps)
    return [[rat_str(lo), rat_str(hi)] for lo, hi in gaps]


def cmd_verify(args) -> int:
    inst = _load(args, "instance", Configuration, minmax.VHInstance)
    if isinstance(inst, minmax.VHInstance):
        config = _with_metric(inst.config, args.metric)
        vh = replace(inst, config=config)
    else:
        vh, config = None, _with_metric(inst, args.metric)
    out = {"metric": config.metric, "mode": config.mode}
    sol = _load(args, "solution", Solution) if args.solution else None
    report = is_blocking(config, sol)
    out["blocking"] = report.blocking
    out["x_gaps"] = _gaps_json(report.x_gaps, config.mode)
    out["y_gaps"] = _gaps_json(report.y_gaps, config.mode)
    if vh is not None:
        positions = sol.positions if sol else \
            {sid: (x, y) for sid, x, y, _ in config.sensors}
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
    config = _with_metric(_load(args, "instance", Configuration),
                          args.metric)
    out = {"problem": args.problem, "metric": config.metric}
    moves = None
    if args.problem == "minnum":
        plan = minnum.solve_minnum(config)
        sol, moves = plan.solution, plan.moves
        out["moved"] = plan.moved
        out["free_set_size"] = plan.k
    elif args.problem == "minsum":
        sol, cost = minsum.solve_minsum_manhattan(config)
        out["sum_cost"] = rat_str(cost)
        positions = sol.positions  # the sensors whose position changed
        out["moved"] = sum(positions[sid] != (x, y)
                           for sid, x, y, _ in config.sensors)
    else:
        result = minmax.solve_minmax(config, args.budget)
        sol = result.solution
        out["restriction"] = "integer-destination moves only"
        out["max_move_squared"] = rat_str(result.value_squared)
        if result.value is not None:
            out["max_move"] = rat_str(result.value)
    _emit_with(out, "solution", sol, args.output, moves)
    return 0


def cmd_decide(args) -> int:
    inst = _load(args, "instance", minmax.VHInstance)
    feasible, witness = minmax.decide_vh(inst, args.budget)
    out = {"feasible": feasible}
    if witness is None:
        _emit(out)
    else:
        _emit_with(out, "witness", witness, args.output)
    return 0 if feasible else 1


def cmd_gen(args) -> int:
    _, _, formula_kind = _CONSTRUCTIONS[args.construction]
    if args.construction == "minmax":
        source = _load(args, "vh", minmax.VHInstance)
    else:
        source = _load(args, "formula", formula_kind)
    inst, meta = getattr(reductions, "gen_" + args.construction)(source)
    _write(args.output, serialize.write_instance(inst))
    _write(args.meta or args.output + ".meta", serialize.write_meta(meta))
    _emit({"written": args.output})
    return 0


def cmd_embed(args) -> int:
    inst_kind, meta_kind, formula_kind = _CONSTRUCTIONS[args.construction]
    meta = _load(args, "meta", meta_kind)
    if args.construction == "minmax":
        out = reductions.embed_minmax(meta, _load(args, "solution", Solution))
    else:
        formula = _load(args, "formula", formula_kind)
        assignment = serialize.read_assignment(_read(args, "assignment"),
                                               formula.n)
        inst = _load(args, "instance", inst_kind)
        embed = getattr(reductions, "embed_" + args.construction)
        out = embed(inst, meta, formula, assignment)
    _emit_solution(out, args.output)
    return 0


def cmd_extract(args) -> int:
    inst_kind, meta_kind, formula_kind = _CONSTRUCTIONS[args.construction]
    meta = _load(args, "meta", meta_kind)
    sol = _load(args, "solution", Solution)
    if args.construction == "minmax":
        _emit_solution(reductions.extract_minmax(meta, sol), args.output)
        return 0
    formula = _load(args, "formula", formula_kind)
    inst = _load(args, "instance", inst_kind)
    extract = getattr(reductions, "extract_" + args.construction)
    _emit({"assignment": list(extract(inst, meta, formula, sol))})
    return 0


def cmd_integerize(args) -> int:
    meta = _load(args, "meta", reductions.VHMeta)
    inst = _load(args, "instance", minmax.VHInstance)
    sol = _load(args, "solution", Solution)
    _emit_solution(reductions.integerize(inst, meta, sol), args.output)
    return 0


def cmd_oracle(args) -> int:
    if args.problem == "minnum":
        config = _load(args, "instance", Configuration)
        _emit({"moved": minnum.brute_minnum(config)})
        return 0
    if args.problem == "minsum":
        out = {}
        for axis, inst in zip("xy", minsum.axis_instances(
                _load(args, "instance", Configuration))):
            a_cost, b_cost = minsum.oracle_minsum_1d(inst)
            out[axis] = {"candidate_dp": rat_str(a_cost),
                         "grid": rat_str(b_cost)}
        _emit(out)
        return 0
    inst = _load(args, "instance", minmax.VHInstance)
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


def _at_least(k: int):
    """The argparse type of an int option whose values start at k."""
    def parse(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}: {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" for non-ints
    return parse


@functools.cache
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
    s.add_argument("--budget", type=_at_least(1),
                   help="search node budget")
    s.add_argument("--metric", choices=["manhattan", "euclidean"])
    s.set_defaults(func=cmd_solve)

    d = sub.add_parser("decide", help="line-blocking decision")
    d.add_argument("problem", choices=["vh"])
    d.add_argument("instance")
    d.add_argument("-o", "--output")
    d.add_argument("--budget", type=_at_least(1))
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
    f.add_argument("--count", type=_at_least(0), default=100)
    f.add_argument("--max-grid", type=_at_least(2),
                   help="largest grid side, or segment length for minsum "
                        "(at least 2)")
    f.set_defaults(func=cmd_diff)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
