"""The types of exact rationals: every integral value the library reads
or builds is an int, every other one a Fraction with denominator above
1, never a bool or a float; and a Configuration built from Fraction(k)
behaves and prints exactly as one built from k."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

from brutes import random_max2sat3occ, random_sat22
from wcr import serialize
from wcr.core import Configuration, Sensor, Solution, is_blocking, rat, \
    solution_costs
from wcr.minmax import decide_vh, solve_minmax, verify_vh
from wcr.minnum import solve_minnum
from wcr.minsum import solve_minsum_manhattan
from wcr.oracle import random_integer_config
from wcr.reductions import embed_vh, gen_minmax, gen_minnum, gen_vh, \
    integerize, sat_brute

SRC = Path(__file__).resolve().parent.parent / "src" / "wcr"


def test_no_true_division_in_the_library():
    # on two ints / gives a float; quotients are Fraction(a, b)
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    assert not found, found


def _reads(node):
    """The identifiers node reads: names, attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def test_no_unused_import_or_private_name_in_the_library():
    # what a deletion leaves behind: an import its module no longer
    # reads (__all__ counts as a read), or a module-level _name that no
    # statement reads but the one defining it
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    found = []
    for name, tree in trees.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(export for stmt in tree.body
                    if isinstance(stmt, ast.Assign)
                    and ast.unparse(stmt.targets[0]) == "__all__"
                    for export in ast.literal_eval(stmt.value))
        found += [f"{name}:{node.lineno} import {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", "") != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name.split(".")[0]) not in read]
    statements = [(name, stmt, set(_reads(stmt)))
                  for name, tree in trees.items() for stmt in tree.body]
    for name, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            defined = [t.id for t in ast.walk(stmt)
                       if isinstance(t, ast.Name) and
                       isinstance(t.ctx, ast.Store)]
        else:
            continue
        found += [f"{name}:{stmt.lineno} {d} unread" for d in defined
                  if d.startswith("_") and not d.startswith("__")
                  and not any(d in reads for _, other, reads in statements
                              if other is not stmt)]
    assert not found, found


def _exact(value) -> bool:
    return type(value) is int or (type(value) is Fraction and
                                  value.denominator > 1)


def _check_config(config: Configuration) -> None:
    assert _exact(config.width) and _exact(config.height)
    for sid, x, y, r in config.sensors:
        assert type(sid) is int
        assert _exact(x) and _exact(y) and _exact(r), (sid, x, y, r)


def _check_positions(positions) -> None:
    for sid, (x, y) in positions.items():
        assert type(sid) is int and _exact(x) and _exact(y), (sid, x, y)


def _check_vh(inst) -> None:
    _check_config(inst.config)
    assert _exact(inst.max_move)


def _value(rng) -> str:
    """A rational in one of the spellings a document may use, integral
    about half of the time."""
    p, q = rng.randint(0, 59), rng.choice((1, 2, 3, 4, 997))
    return rng.choice((f"{p}/{q}", f"{p * q}/{q}", str(p), f"{p}.0",
                       f"{p}.5", f"{p * 4}/4"))


def _documents(rng):
    """A seeded integer-mode instance and a continuous one, and a
    solution for each, as text."""
    a, b = rng.randint(2, 9), rng.randint(2, 9)
    grid = random_integer_config(rng, a, b, rng.randint(max(a, b), 14))
    yield serialize.write_instance(grid), json.dumps({"positions": [
        {"id": sid, "x": str(rng.randint(1, a)), "y": f"{2 * y}/2"}
        for sid, _, y, _ in grid.sensors]})
    sensors = [{"id": i, "x": _value(rng), "y": _value(rng),
                "range": rng.choice(("1/2", "1", "3/2", "2/2", "0.5"))}
               for i in range(rng.randint(1, 8))]
    yield json.dumps({"mode": "continuous", "metric": "manhattan",
                      "rect": {"width": "60", "height": "120/2"},
                      "sensors": sensors}), json.dumps({"positions": [
                          {"id": s["id"], "x": _value(rng),
                           "y": _value(rng)} for s in sensors]})


def test_documents_read_as_int_or_proper_fraction():
    rng = random.Random(24)
    for _ in range(20):
        for instance, solution in _documents(rng):
            config = serialize.read_instance(instance)
            _check_config(config)
            _check_positions(serialize.read_solution(solution).positions)
            if config.mode == "integer":
                plan = solve_minnum(config)
                for _, _, target in plan.moves:
                    assert all(type(c) is int for c in target)
                _check_positions(plan.solution.positions)


def test_gadgets_and_their_solutions_are_ints():
    rng = random.Random(2024)
    for n in (3, 6):
        f = random_sat22(rng, n)
        inst, meta = gen_vh(f)
        _check_vh(inst)
        _check_vh(serialize.read_instance(serialize.write_instance(inst)))
        padded, mapping = gen_minmax(inst)
        _check_config(padded)
        feasible, witness = decide_vh(inst)
        assert feasible
        _check_positions(witness.positions)
        # half a step on the first redundant up-mover: a fractional
        # solution that still blocks, read back from its document
        sol = embed_vh(inst, meta, f, sat_brute(f)[0])
        by_id = inst.config.sensor_by_id()
        half = next(
            trial for _, _, r, _ in meta.triples
            for trial in [{**sol.positions,
                           r: (by_id[r].x, by_id[r].y - Fraction(1, 2))}]
            if sol.positions[r][1] == by_id[r].y - 1 and
            verify_vh(inst, trial, require_integer=False))
        read = serialize.read_solution(serialize.write_solution(
            Solution(half)))
        _check_positions(read.positions)
        assert any(type(c) is Fraction for xy in read.positions.values()
                   for c in xy)
        _check_positions(integerize(inst, meta, read).positions)
    config, _ = gen_minnum(random_max2sat3occ(rng, 4))
    _check_config(config)


def test_minsum_positions_and_cost_are_int_or_proper_fraction():
    # integer-mode targets come back from half-shifted axes, continuous
    # ones from counts of 1/D: both are ints when integral, and so is
    # the cost, the sum of the two axes' costs
    rng = random.Random(28)
    configs = []
    for _ in range(10):
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        configs.append(random_integer_config(rng, a, b,
                                             rng.randint(max(a, b), 10)))
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        configs.append(Configuration(w, h, tuple(
            Sensor(i, rat(Fraction(rng.randint(0, 3 * w), 3)),
                   rat(Fraction(rng.randint(0, 2 * h), 2)), 1)
            for i in range(max(w, h))), "continuous", "manhattan"))
    for config in configs:
        sol, cost = solve_minsum_manhattan(config)
        _check_positions(sol.positions)
        assert _exact(cost), cost


def _as_fractions(config: Configuration) -> Configuration:
    return Configuration(
        Fraction(config.width), Fraction(config.height),
        tuple(Sensor(sid, Fraction(x), Fraction(y), Fraction(r))
              for sid, x, y, r in config.sensors),
        config.mode, config.metric)


def test_fraction_and_int_coordinates_give_the_same_results():
    rng = random.Random(7)
    for i in range(12):
        a, b = rng.randint(2, 6), rng.randint(2, 6)
        ints = random_integer_config(rng, a, b, rng.randint(max(a, b), 10),
                                     ("manhattan", "euclidean")[i % 2])
        fracs = _as_fractions(ints)
        assert fracs == ints
        assert serialize.write_instance(fracs) == \
            serialize.write_instance(ints)
        assert is_blocking(fracs) == is_blocking(ints)
        results = []
        for config in (ints, fracs):
            plan = solve_minnum(config)
            minmax = solve_minmax(config)
            out = [plan, minmax, serialize.write_solution(plan.solution),
                   serialize.write_solution(minmax.solution),
                   solution_costs(config, minmax.solution)]
            if config.metric == "manhattan":
                sol, cost = solve_minsum_manhattan(config)
                out += [cost, serialize.write_solution(sol)]
            results.append(out)
        assert results[0] == results[1]
