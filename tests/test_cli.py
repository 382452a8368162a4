import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wcr
from brutes import random_max2sat3occ
from wcr import serialize
from wcr.cli import build_parser, main
from wcr.core import INTEGER_SIDE_LIMIT, Configuration, Sensor, is_blocking
from wcr.minmax import SCAN_LIMIT
from wcr.minsum import MINSUM_STATE_LIMIT
from wcr.reductions import Sat3_22, sat_brute

from fractions import Fraction

F = Fraction
H = F(1, 2)

FORMULA = {"dialect": "3sat22", "variables": 3,
           "clauses": [[1, 2, 3], [-1, -2, -3], [1, -2, 3], [-1, 2, -3]]}


def cfg_file(tmp_path, cells, a=3, b=3, name="inst.json",
             metric="manhattan"):
    sensors = tuple(Sensor(id=i, x=F(x), y=F(y), range=H)
                    for i, (x, y) in enumerate(cells, start=1))
    cfg = Configuration(width=F(a), height=F(b), sensors=sensors,
                        mode="integer", metric=metric)
    path = tmp_path / name
    path.write_text(serialize.write_instance(cfg))
    return path


def test_verify_blocking(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1), (2, 2), (3, 3)])
    assert main(["verify", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocking"] and out["x_gaps"] == []


def test_verify_non_blocking_exit_code(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1)])
    assert main(["verify", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["y_gaps"] == [2, 3]


def test_verify_with_solution_costs(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1), (1, 2)], a=2, b=2)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(
        {"positions": [{"id": 1, "x": "1", "y": "1"},
                       {"id": 2, "x": "2", "y": "2"}]}))
    assert main(["verify", str(path), "--solution", str(sol)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moved"] == 1 and out["sum_cost"] == "1"


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_sensors_not_an_array_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"mode": "integer", "rect": {"width": "2", '
                    '"height": "2"}, "sensors": {}}')
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.sensors must be an array\n"


def test_solve_minnum(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1), (2, 1), (1, 2)])
    out_path = tmp_path / "sol.json"
    assert main(["solve", "minnum", str(path), "-o", str(out_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moved"] == 1
    sol = serialize.read_solution(out_path.read_text())
    assert main(["verify", str(path), "--solution", str(out_path)]) == 0
    capsys.readouterr()
    assert sol.positions[1] == (F(3), F(3))


def test_solve_minsum_and_minmax(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1), (1, 2)], a=2, b=2)
    assert main(["solve", "minsum", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sum_cost"] == "1"
    assert main(["solve", "minmax", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_move"] == "1"
    assert out["restriction"] == "integer-destination moves only"


def test_infeasible_minsum_exit_1(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1)], a=3, b=1)
    assert main(["solve", "minsum", str(path)]) == 1
    capsys.readouterr()


def run_wcr(*argv) -> subprocess.CompletedProcess:
    """`wcr` in a fresh interpreter, as a shell user runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(wcr.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "wcr.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_minsum_without_sensors_is_infeasible(tmp_path, command):
    path = cfg_file(tmp_path, [])
    proc = run_wcr(command, "minsum", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "infeasible: no sensors to cover the rectangle\n"
    assert proc.stdout == ""


def test_euclidean_minmax_search_limit_exits_3(tmp_path):
    # 41 sensors on one cell: the first key decided is the bound 40^2,
    # where a node budget of 1 ends the search
    path = cfg_file(tmp_path, [(1, 1)] * 41, a=41, b=41, metric="euclidean")
    proc = run_wcr("solve", "minmax", str(path), "--budget", "1")
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource limit:")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_line_blocking_search_1200_deep(tmp_path, capsys):
    # one sensor per column of a 1200 x 1 grid, no move allowed: the
    # search commits the 1200 sensors one below another, past the
    # interpreter's recursion limit
    cells = [(x, 1) for x in range(1, 1201)]
    path = cfg_file(tmp_path, cells, a=1200, b=1)
    homes = [{"id": i, "x": str(x), "y": "1"}
             for i, (x, _) in enumerate(cells, start=1)]
    obj = json.loads(path.read_text())
    obj.update(v_lines=list(range(1, 1201)), h_lines=[1], max_move="0")
    vh_path = tmp_path / "vh.json"
    vh_path.write_text(json.dumps(obj))
    assert main(["decide", "vh", str(vh_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] and out["witness"]["positions"] == homes
    assert main(["solve", "minmax", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_move"] == "0" and out["solution"]["positions"] == homes


def test_oracle_minsum_rejects_heterogeneous_ranges(tmp_path, capsys):
    sensors = (Sensor(1, F(1), F(1), F(1)), Sensor(2, F(3), F(3), F(3, 2)))
    path = tmp_path / "mixed.json"
    path.write_text(serialize.write_instance(Configuration(
        width=F(4), height=F(4), sensors=sensors, mode="continuous",
        metric="manhattan")))
    assert main(["oracle", "minsum", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "heterogeneous" in captured.err


def continuous_file(tmp_path, width, height, centers, radius):
    sensors = tuple(Sensor(i, F(x), F(y), F(radius))
                    for i, (x, y) in enumerate(centers, start=1))
    path = tmp_path / "cont.json"
    path.write_text(serialize.write_instance(Configuration(
        width=F(width), height=F(height), sensors=sensors,
        mode="continuous", metric="manhattan")))
    return path


def test_oracle_minsum_refines_the_grid_to_the_side(tmp_path, capsys):
    # 1/8 does not divide 7/3: the grid step becomes 1/24
    path = continuous_file(tmp_path, "7/3", 2, [(1, 1), (2, 1)], 1)
    assert main(["oracle", "minsum", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    for axis in ("x", "y"):
        a, b = F(out[axis]["candidate_dp"]), F(out[axis]["grid"])
        assert a <= b <= a + 2 * F(1, 24)


def test_oracle_minsum_grid_size_limit_exits_3(tmp_path, capsys):
    centers = [(F(3 * k + 1, 3), 1) for k in range(6)]
    path = continuous_file(tmp_path, "43/3", 2, centers, 2)
    assert main(["oracle", "minsum", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource limit: grid oracle limited")


def test_diff_max_grid_bounds(capsys):
    # minsum honours the bound as the segment length; minmax draws grid
    # sides past its default sensor count of 5
    for problem, bound in (("minsum", "3"), ("minmax", "7")):
        assert main(["diff", problem, "--seed", "2", "--count", "4",
                     "--max-grid", bound]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary == {"count": 4, "disagreements": 0}
    with pytest.raises(SystemExit) as exc:
        main(["diff", "minnum", "--max-grid", "1"])
    assert exc.value.code == 2
    assert "must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [["1"], [1.5], [True]])
def test_vh_lines_must_be_integers(tmp_path, capsys, lines):
    obj = json.loads(cfg_file(tmp_path, [(1, 1), (2, 2)], a=2, b=2
                              ).read_text())
    obj.update(v_lines=[1, 2], h_lines=lines, max_move="1")
    path = tmp_path / "vh.json"
    path.write_text(json.dumps(obj))
    for command in (["decide", "vh"], ["verify"]):
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected integer at $.h_lines[0]" in captured.err


@pytest.mark.parametrize("meta", ['{"kind": "vh", "n": 1}',
                                  '{"kind": "minnum"}',
                                  '{"kind": "minmax"}', "[]"])
def test_incomplete_meta_exit_2(tmp_path, capsys, meta):
    path = tmp_path / "m.json"
    path.write_text(meta)
    assert main(["extract", "vh", "--meta", str(path),
                 "--solution", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _meta_with(kind, **tables):
    """A complete meta of the given kind whose tables are all empty,
    except for the ones passed in."""
    plain = json.loads(serialize.write_instance(Configuration(
        width=F(2), height=F(2), sensors=(Sensor(1, F(1), F(1), H),),
        mode="integer", metric="manhattan")))
    meta = {"minnum": {"n": 1, "m": 1, "t": 1, "side": 8, "occ_sensor": [],
                       "alpha": {}, "beta": {}},
            "vh": {"n": 1, "m": 1, "var_sensor": [], "clause_sensor": [],
                   "slot_row": {}, "triples": []},
            "minmax": {"vh": {**plain, "v_lines": [], "h_lines": [],
                              "max_move": "1"},
                       "padded": plain, "dx": 0, "dy": 0, "v_ids": [],
                       "h_ids": []}}[kind]
    return json.dumps({"kind": kind, **meta, **tables})


@pytest.mark.parametrize("kind, tables, field", [
    ("vh", {"var_sensor": [1]}, "$.var_sensor[0]"),
    ("vh", {"triples": [[1, 2, 3]]}, "$.triples[0]"),
    ("minnum", {"occ_sensor": [[1, 2]]}, "$.occ_sensor[0]"),
    ("minnum", {"alpha": {"x": 1}}, "$.alpha"),
    ("minmax", {"v_ids": 5}, "$.v_ids"),
    ("minmax", {"dx": "1"}, "$.dx"),
])
def test_meta_table_of_wrong_shape_exit_2(tmp_path, capsys, kind, tables,
                                          field):
    path = tmp_path / "m.json"
    path.write_text(_meta_with(kind, **tables))
    assert main(["extract", kind, "--meta", str(path),
                 "--solution", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


def test_boolean_coordinate_exit_2(tmp_path, capsys):
    obj = json.loads(cfg_file(tmp_path, [(1, 1)], a=1, b=1).read_text())
    obj["sensors"][0]["x"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    assert "bad rational at $.sensors[0].x: True" in capsys.readouterr().err


def test_gen_decide_extract_pipeline(tmp_path, capsys):
    formula = tmp_path / "f.json"
    formula.write_text(json.dumps(FORMULA))
    inst = tmp_path / "vh.json"
    assert main(["gen", "vh", "--formula", str(formula),
                 "-o", str(inst)]) == 0
    assert (tmp_path / "vh.json.meta").exists()
    capsys.readouterr()

    wit = tmp_path / "wit.json"
    assert main(["decide", "vh", str(inst), "-o", str(wit)]) == 0
    capsys.readouterr()

    assert main(["extract", "vh", "--meta", str(inst) + ".meta",
                 "--instance", str(inst), "--formula", str(formula),
                 "--solution", str(wit)]) == 0
    out = json.loads(capsys.readouterr().out)
    alpha = tuple(out["assignment"])
    f = Sat3_22(3, tuple(tuple(c) for c in FORMULA["clauses"]))
    _, best = sat_brute(f)
    assert best == 4
    from wcr.reductions import eval_clause
    assert all(eval_clause(c, alpha) for c in f.clauses)


def test_embed_and_integerize_pipeline(tmp_path, capsys):
    formula = tmp_path / "f.json"
    formula.write_text(json.dumps(FORMULA))
    inst = tmp_path / "vh.json"
    main(["gen", "vh", "--formula", str(formula), "-o", str(inst)])
    f = Sat3_22(3, tuple(tuple(c) for c in FORMULA["clauses"]))
    alpha, _ = sat_brute(f)
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps(list(alpha)))
    sol = tmp_path / "emb.json"
    assert main(["embed", "vh", "--meta", str(inst) + ".meta",
                 "--instance", str(inst), "--formula", str(formula),
                 "--assignment", str(assign), "-o", str(sol)]) == 0
    out2 = tmp_path / "int.json"
    assert main(["integerize", "--meta", str(inst) + ".meta",
                 "--instance", str(inst), "--solution", str(sol),
                 "-o", str(out2)]) == 0
    assert out2.read_text() == sol.read_text()   # integer input is fixed
    capsys.readouterr()


def test_oracle_commands(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1), (2, 1), (1, 2)])
    assert main(["oracle", "minnum", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["moved"] == 1
    assert main(["oracle", "minsum", str(path)]) == 0
    capsys.readouterr()


def test_diff_command(capsys):
    assert main(["diff", "minnum", "--seed", "5", "--count", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"count": 10, "disagreements": 0}


def test_stdout_byte_identical(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1), (2, 1), (1, 2)])
    main(["solve", "minnum", str(path)])
    first = capsys.readouterr().out
    main(["solve", "minnum", str(path)])
    assert capsys.readouterr().out == first
    # a usage error on the parser all calls share changes no later call
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exit_:
        main(["solve", "minnum", str(path), "--metric", "taxicab"])
    assert exit_.value.code == 2
    capsys.readouterr()
    main(["solve", "minnum", str(path)])
    assert capsys.readouterr().out == first


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def _vh_gadget(tmp_path):
    """gen vh on FORMULA: paths of the formula, instance and meta, and
    the argv shared by embed and extract."""
    formula = tmp_path / "f.json"
    formula.write_text(json.dumps(FORMULA))
    inst = tmp_path / "vh.json"
    assert main(["gen", "vh", "--formula", str(formula), "-o", str(inst)]) == 0
    meta = tmp_path / "vh.json.meta"
    return formula, inst, meta, ["--meta", str(meta), "--instance", str(inst),
                                 "--formula", str(formula)]


def test_invalid_assignment_json_exit_2(tmp_path, capsys):
    _, _, _, gadget = _vh_gadget(tmp_path)
    capsys.readouterr()
    bad = tmp_path / "a.json"
    bad.write_text("{nope")
    proc = run_wcr("embed", "vh", *gadget, "--assignment", str(bad))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: invalid JSON: ")
    assert "Traceback" not in proc.stderr


def test_assignment_of_other_integers_exit_2(tmp_path, capsys):
    # bool() would read these as all true
    _, _, _, gadget = _vh_gadget(tmp_path)
    capsys.readouterr()
    bad = tmp_path / "a.json"
    bad.write_text("[2, -7, 5]")
    assert main(["embed", "vh", *gadget, "--assignment", str(bad)]) == 2
    assert capsys.readouterr() == (
        "", "error: assignment must be a JSON array of booleans\n")


def test_assignment_of_wrong_length_exit_2(tmp_path, capsys):
    _, _, _, gadget = _vh_gadget(tmp_path)
    short = tmp_path / "a.json"
    short.write_text("[true]")
    assert main(["embed", "vh", *gadget, "--assignment", str(short)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: assignment has 1 values for 3 variables\n"


def _tampered(path, **changes):
    """Rewrite a JSON document with some fields replaced."""
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps(meta))


@pytest.mark.parametrize("changes", [
    {"n": 4}, {"n": 2}, {"m": 5}, {"var_sensor": [[1, "sx_a", 999]]},
    {"clause_sensor": []},
], ids=["n+1", "n-1", "m+1", "var_sensor", "clause_sensor"])
def test_vh_meta_disagreeing_with_formula_exit_2(tmp_path, capsys, changes):
    _, _, meta, gadget = _vh_gadget(tmp_path)
    f = Sat3_22(3, tuple(tuple(c) for c in FORMULA["clauses"]))
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps(list(sat_brute(f)[0])))
    sol = tmp_path / "e.json"
    assert main(["embed", "vh", *gadget, "--assignment", str(assign),
                 "-o", str(sol)]) == 0
    capsys.readouterr()
    _tampered(meta, **changes)
    for argv in (["embed", "vh", *gadget, "--assignment", str(assign)],
                 ["extract", "vh", *gadget, "--solution", str(sol)]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: meta was not generated from this formula\n")


def test_vh_instance_or_triples_not_of_the_gadget_exit_2(tmp_path, capsys):
    _, inst, meta, gadget = _vh_gadget(tmp_path)
    config = serialize.read_instance(inst.read_text()).config
    sol = tmp_path / "e.json"
    sol.write_text(serialize.write_solution(
        wcr.Solution({s.id: (s.x, s.y) for s in config.sensors})))
    moved = json.loads(inst.read_text())
    moved["sensors"][0]["x"] = "2"
    inst.write_text(json.dumps(moved))
    capsys.readouterr()
    assert main(["extract", "vh", *gadget, "--solution", str(sol)]) == 2
    assert capsys.readouterr().err == \
        "error: instance is not the gadget of this formula\n"
    tables = json.loads(meta.read_text())
    tables["triples"][0][0] = 998
    meta.write_text(json.dumps(tables))
    assert main(["integerize", "--meta", str(meta), "--instance", str(inst),
                 "--solution", str(sol)]) == 2
    assert capsys.readouterr().err == \
        "error: meta names sensors the instance lacks\n"


def _minnum_gadget(tmp_path):
    """gen minnum on a seeded formula: paths of the instance and of a
    satisfying assignment, and the argv shared by embed and extract."""
    f = random_max2sat3occ(random.Random(3), 4)
    formula = tmp_path / "f.json"
    formula.write_text(json.dumps({
        "dialect": "max2sat-3occ", "variables": f.n, "t": f.t,
        "clauses": [list(c) for c in f.clauses]}))
    inst = tmp_path / "g.json"
    assert main(["gen", "minnum", "--formula", str(formula),
                 "-o", str(inst)]) == 0
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps(list(sat_brute(f)[0])))
    return inst, assign, ["--meta", str(tmp_path / "g.json.meta"),
                          "--instance", str(inst), "--formula", str(formula)]


@pytest.mark.parametrize("field, delta", [("n", 2), ("n", -2), ("t", -6)],
                         ids=["n+2", "n-2", "t=0"])
def test_minnum_meta_disagreeing_with_formula_exit_2(tmp_path, capsys, field,
                                                     delta):
    _, assign, gadget = _minnum_gadget(tmp_path)
    meta = tmp_path / "g.json.meta"
    _tampered(meta, **{field: json.loads(meta.read_text())[field] + delta})
    capsys.readouterr()
    assert main(["embed", "minnum", *gadget, "--assignment", str(assign)]) == 2
    assert capsys.readouterr() == (
        "", "error: meta was not generated from this formula\n")


def test_minmax_meta_naming_unknown_sensors_exit_2(tmp_path, capsys):
    obj = json.loads(cfg_file(tmp_path, [(1, 1), (2, 3)], a=4, b=4
                              ).read_text())
    obj.update(v_lines=[1, 2], h_lines=[1, 3], max_move="1")
    vh = tmp_path / "vh.json"
    vh.write_text(json.dumps(obj))
    meta, wit = tmp_path / "p.meta", tmp_path / "w.json"
    assert main(["gen", "minmax", "--vh", str(vh), "-o",
                 str(tmp_path / "p.json"), "--meta", str(meta)]) == 0
    assert main(["decide", "vh", str(vh), "-o", str(wit)]) == 0
    _tampered(meta, v_ids=[999] + json.loads(meta.read_text())["v_ids"][1:])
    capsys.readouterr()
    assert main(["embed", "minmax", "--meta", str(meta),
                 "--solution", str(wit)]) == 2
    assert capsys.readouterr() == (
        "", "error: meta was not generated by gen minmax\n")


@pytest.mark.parametrize("changes", [
    {"rect": "width"}, {"rect": "height"}, {"metric": "euclidean"},
], ids=["wider", "taller", "euclidean"])
def test_minnum_instance_not_of_the_gadget_exit_2(tmp_path, capsys, changes):
    inst, assign, gadget = _minnum_gadget(tmp_path)
    sol = tmp_path / "e.json"
    assert main(["embed", "minnum", *gadget, "--assignment", str(assign),
                 "-o", str(sol)]) == 0
    obj = json.loads(inst.read_text())
    if "rect" in changes:  # one more unit on a side, same sensors
        side = changes["rect"]
        obj["rect"][side] = str(int(obj["rect"][side]) + 1)
    else:
        obj.update(changes)
    inst.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (["embed", "minnum", *gadget, "--assignment", str(assign)],
                 ["extract", "minnum", *gadget, "--solution", str(sol)]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: instance is not the gadget of this formula\n")


@pytest.mark.parametrize("field", ["v_lines", "h_lines", "max_move"])
def test_vh_lines_or_budget_not_of_the_gadget_exit_2(tmp_path, capsys, field):
    _, inst, _, gadget = _vh_gadget(tmp_path)
    f = Sat3_22(3, tuple(tuple(c) for c in FORMULA["clauses"]))
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps(list(sat_brute(f)[0])))
    sol = tmp_path / "e.json"
    assert main(["embed", "vh", *gadget, "--assignment", str(assign),
                 "-o", str(sol)]) == 0
    obj = json.loads(inst.read_text())
    if field == "max_move":
        obj["max_move"] = "2"
    else:  # one more line, still inside the rectangle
        side = obj["rect"]["width" if field == "v_lines" else "height"]
        obj[field] = sorted(set(range(1, int(side) + 1)) - set(obj[field]))[:1] \
            + obj[field]
    inst.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (["embed", "vh", *gadget, "--assignment", str(assign)],
                 ["extract", "vh", *gadget, "--solution", str(sol)]):
        proc = run_wcr(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: instance is not the gadget of this formula\n")


def _gadget_documents(tmp_path):
    """Paths, by name, of the formula, instance and meta of gen vh and of
    gen minnum, of a solution (the vh instance's sensors left home) and
    of an assignment for each formula."""
    (tmp_path / "vh").mkdir()
    (tmp_path / "minnum").mkdir()
    sat22, vh, vh_meta, _ = _vh_gadget(tmp_path / "vh")
    plain, a_max2sat, gadget = _minnum_gadget(tmp_path / "minnum")
    sol = tmp_path / "sol.json"
    sol.write_text(serialize.write_solution(wcr.Solution({
        s.id: (s.x, s.y)
        for s in serialize.read_instance(vh.read_text()).config.sensors})))
    a_sat22 = tmp_path / "a.json"
    a_sat22.write_text(json.dumps([True] * FORMULA["variables"]))
    return {name: str(path) for name, path in [
        ("sat22", sat22), ("vh_inst", vh), ("vh_meta", vh_meta),
        ("max2sat", gadget[5]), ("plain", plain), ("minnum_meta", gadget[1]),
        ("sol", sol), ("a_sat22", a_sat22), ("a_max2sat", a_max2sat)]}


@pytest.mark.parametrize("argv", [
    "integerize --meta minnum_meta --instance vh_inst --solution sol",
    "integerize --meta vh_meta --instance plain --solution sol",
    "extract minmax --meta vh_meta --solution sol",
    "embed minmax --meta minnum_meta --solution sol",
    "embed minnum --meta minnum_meta --instance plain --formula sat22 "
    "--assignment a_sat22",
    "extract minnum --meta minnum_meta --instance plain --formula sat22 "
    "--solution sol",
    "embed vh --meta vh_meta --instance vh_inst --formula max2sat "
    "--assignment a_max2sat",
    "extract vh --meta vh_meta --instance vh_inst --formula max2sat "
    "--solution sol",
], ids=["integerize-meta", "integerize-instance", "extract-minmax-meta",
        "embed-minmax-meta", "embed-minnum-formula", "extract-minnum-formula",
        "embed-vh-formula", "extract-vh-formula"])
def test_document_of_the_wrong_kind_exit_2(tmp_path, capsys, argv):
    docs = _gadget_documents(tmp_path)
    capsys.readouterr()
    assert main([docs.get(word, word) for word in argv.split()]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: \S+: expected an? [^,]+, got an? [^,]+\n",
                        err)


def _vh_embedding(tmp_path):
    """gen vh and embed vh on FORMULA: paths of the instance, meta and
    embedded solution."""
    _, inst, meta, gadget = _vh_gadget(tmp_path)
    f = Sat3_22(3, tuple(tuple(c) for c in FORMULA["clauses"]))
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps(list(sat_brute(f)[0])))
    sol = tmp_path / "e.json"
    assert main(["embed", "vh", *gadget, "--assignment", str(assign),
                 "-o", str(sol)]) == 0
    return inst, meta, sol


def test_integerize_needs_budget_1_exit_2(tmp_path, capsys):
    inst, meta, sol = _vh_embedding(tmp_path)
    _tampered(inst, max_move="2")
    home = json.loads(inst.read_text())["sensors"][0]
    positions = json.loads(sol.read_text())
    positions["positions"][0].update(x=str(int(home["x"]) - 1),
                                     y=str(int(home["y"]) + 1))
    sol.write_text(json.dumps(positions))
    capsys.readouterr()
    assert main(["integerize", "--meta", str(meta), "--instance", str(inst),
                 "--solution", str(sol)]) == 2
    assert capsys.readouterr() == ("", "error: integerize requires budget 1\n")


def test_integerize_meta_not_of_the_instance_exit_2(tmp_path, capsys):
    # triple 0 names the r sensor of triple 4, which the solution moves
    # half way up to its H-line: pass 4 would put it on triple 0's row
    inst, meta, sol = _vh_embedding(tmp_path)
    triples = json.loads(meta.read_text())["triples"]
    r = triples[4][2]
    triples[0][2] = r
    _tampered(meta, triples=triples)
    positions = json.loads(sol.read_text())
    (entry,) = [e for e in positions["positions"] if e["id"] == r]
    entry["y"] = str(Fraction(entry["y"]) + Fraction(1, 2))
    sol.write_text(json.dumps(positions))
    capsys.readouterr()
    assert main(["integerize", "--meta", str(meta), "--instance", str(inst),
                 "--solution", str(sol)]) == 2
    assert capsys.readouterr() == (
        "", "error: meta does not fit the instance\n")


@pytest.mark.parametrize("argv", [
    "solve minnum INST -o OUT",
    "decide vh VH -o OUT",
    "gen minmax --vh VH -o OUT",
    "gen minmax --vh VH -o P --meta OUT",
    "embed minmax --meta META --solution SOL -o OUT",
], ids=["solve", "decide", "gen", "gen-meta", "embed"])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    inst = cfg_file(tmp_path, [(1, 1), (2, 2), (2, 3), (3, 3)], a=4, b=4)
    vh = tmp_path / "vh.json"
    vh.write_text(json.dumps({**json.loads(inst.read_text()), "max_move": "1",
                              "v_lines": [1, 2], "h_lines": [1, 3]}))
    meta, sol = tmp_path / "p.meta", tmp_path / "w.json"
    assert main(["gen", "minmax", "--vh", str(vh), "-o",
                 str(tmp_path / "p.json"), "--meta", str(meta)]) == 0
    assert main(["decide", "vh", str(vh), "-o", str(sol)]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "out.json"
    files = {"INST": inst, "VH": vh, "META": meta, "SOL": sol, "OUT": out,
             "P": tmp_path / "p2.json"}
    assert main([str(files.get(word, word)) for word in argv.split()]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: [Errno 2] No such file or "
            f"directory: '{out}'\n")


@pytest.mark.parametrize("argv, option", [
    ("embed vh --meta META", "formula"),
    ("embed vh --meta META --formula F", "assignment"),
    ("embed vh --meta META --formula F --assignment A", "instance"),
    ("embed minmax --meta P", "solution"),
    ("gen vh -o g.json", "formula"),
    ("gen minmax -o g.json", "vh"),
], ids=["embed-formula", "embed-assignment", "embed-instance",
        "embed-solution", "gen-formula", "gen-vh"])
def test_missing_input_option_named_exit_2(tmp_path, capsys, argv, option):
    formula, inst, meta, _ = _vh_gadget(tmp_path)
    padded = tmp_path / "p.meta"
    assert main(["gen", "minmax", "--vh", str(inst), "-o",
                 str(tmp_path / "p.json"), "--meta", str(padded)]) == 0
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps([True] * FORMULA["variables"]))
    capsys.readouterr()
    files = {"META": meta, "P": padded, "F": formula, "A": assign}
    assert main([str(files.get(word, word)) for word in argv.split()]) == 2
    assert capsys.readouterr() == ("", f"error: missing --{option}\n")


def test_verify_applies_metric_to_line_blocking_instance(tmp_path, capsys):
    # a diagonal unit step has length 2 under manhattan and sqrt 2 under
    # euclidean: within the budget 3/2 only under euclidean
    inst = cfg_file(tmp_path, [(1, 1)], a=2, b=2)
    vh = tmp_path / "vh.json"
    vh.write_text(json.dumps({**json.loads(inst.read_text()),
                              "max_move": "3/2", "v_lines": [2],
                              "h_lines": [2]}))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"positions": [{"id": 1, "x": "2", "y": "2"}]}))
    assert main(["verify", str(vh), "--solution", str(sol)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["metric"], out["vh_blocking"], out["sum_cost"]) == \
        ("manhattan", False, "2")
    assert main(["verify", str(vh), "--solution", str(sol),
                 "--metric", "euclidean"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["metric"], out["vh_blocking"], out["max_cost_squared"]) == \
        ("euclidean", True, "2")
    assert "max_cost" not in out and len(out["sum_cost"]) == 2  # sqrt 2


def _one_sensor_doc(x="1"):
    return json.dumps({"mode": "continuous", "metric": "manhattan",
                       "rect": {"width": "4", "height": "4"},
                       "sensors": [{"id": 0, "x": x, "y": "1", "range": "1"}]})


@pytest.mark.parametrize("text", [
    _one_sensor_doc().replace('"id": 0', '"id": ' + "7" * 5000),
    "[" * 100000 + "]" * 100000,
], ids=["5000-digit-id", "deep-nesting"])
def test_json_past_python_limits_exit_2(tmp_path, capsys, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid JSON: ")


@pytest.mark.parametrize("x", ["1e-1000000", "1e10000000", "1E+4301",
                               "1" * 4300 + "." + "1" * 4300],
                         ids=["1e-1000000", "1e10000000", "1E+4301",
                              "8600-digit-decimal"])
def test_rational_past_the_digit_limit_exit_2(tmp_path, capsys, x):
    # rejected before Fraction builds 10**exponent: "1e10000000" alone
    # took seconds to parse, and "1e-1000000" could not be printed back
    path = tmp_path / "inst.json"
    path.write_text(_one_sensor_doc(x))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad rational at $.sensors[0].x: {x!r}\n")


def test_cost_past_the_digit_limit_printed_in_full(tmp_path, capsys):
    # q_i = N i + 1 are pairwise coprime (a common prime divides i - j,
    # hence N), so the summed cost of the moves to (q_i + 1) / q_i has
    # their product, about 11000 digits, as its denominator
    N = math.factorial(60) * 10**100
    qs = [N * i + 1 for i in range(1, 61)]
    sensors = [Sensor(i, F(1), F(1), F(1)) for i in range(61)]
    path = tmp_path / "inst.json"
    path.write_text(serialize.write_instance(Configuration(
        F(2), F(2), tuple(sensors), mode="continuous")))
    sol = tmp_path / "sol.json"
    sol.write_text(serialize.write_solution(wcr.Solution(
        {i: (F(q + 1, q) if i < 60 else F(1), F(1))
         for i, q in enumerate(qs + [1])})))
    limit = sys.get_int_max_str_digits()
    assert main(["verify", str(path), "--solution", str(sol)]) == 0
    assert sys.get_int_max_str_digits() == limit  # the input guard stays
    out = json.loads(capsys.readouterr().out)
    p, q = out["sum_cost"].split("/")
    assert out["moved"] == 60 and len(q) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert F(int(p), int(q)) == sum(F(1, q) for q in qs)
    finally:
        sys.set_int_max_str_digits(limit)


def test_integer_side_past_the_limit_exit_3(tmp_path, capsys):
    path = cfg_file(tmp_path, [(1, 1)], a=INTEGER_SIDE_LIMIT + 1, b=1)
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr() == ("", f"resource limit: integer-mode side "
                                       f"past {INTEGER_SIDE_LIMIT}\n")


@pytest.mark.parametrize("n, height, states", [(2000, 2000, 2562564000),
                                                (320, 640, 30508480)])
def test_minsum_past_the_state_limit_exit_3(tmp_path, capsys, n, height,
                                             states):
    # range-1 sensors at p/997 on n x height.  2000: the x axis's 1279
    # residues mod 2 each reach all 1000+ lattice points of [0, 2000],
    # so n * |C| > 2.5 * 10^9.  320: the y axis keeps n * |C| = 30413440
    # states, the x axis is under the limit (its DP takes about 0.56 s
    # on a 2-core x86-64 host), and both are checked before either is
    # solved
    rng = random.Random(n)
    centers = [(F(rng.randint(0, 997 * n), 997),
                F(rng.randint(0, 997 * height), 997)) for _ in range(n)]
    path = continuous_file(tmp_path, n, height, centers, 1)
    start = time.perf_counter()
    assert main(["solve", "minsum", str(path)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", f"resource limit: the MinSum DP may keep {states} states, "
            f"past {MINSUM_STATE_LIMIT}\n")


def test_minsum_integer_grid_of_300_sensors_solves(tmp_path, capsys):
    # integer mode puts every base on one lattice: n * |C| is about
    # n * (side + 3), far under the limit
    rng = random.Random(300)
    cells = [(rng.randint(1, 300), rng.randint(1, 300)) for _ in range(300)]
    path = cfg_file(tmp_path, cells, a=300, b=300)
    out_path = tmp_path / "sol.json"
    assert main(["solve", "minsum", str(path), "-o", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["sum_cost"] == "3591"
    assert main(["verify", str(path), "--solution", str(out_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, a, b, metric, message", [
    ("decide", 3000, 3000, "manhattan",
     f"decide_vh would scan 9000000 grid cells, past {SCAN_LIMIT}"),
    ("oracle", 10**9, 1, "manhattan", "move-domain product exceeds 10^7"),
    ("oracle", 10**9, 1, "euclidean", "move-domain product exceeds 10^7"),
], ids=["decide", "oracle-manhattan", "oracle-euclidean"])
def test_line_blocking_scan_past_the_limit_exit_3(tmp_path, capsys, command,
                                                  a, b, metric, message):
    # the one sensor already blocks both lines, but its budget box is
    # the whole grid: the scan is refused before it starts
    obj = json.loads(cfg_file(tmp_path, [(1, 1)], a=a, b=b,
                              metric=metric).read_text())
    obj.update(v_lines=[1], h_lines=[1], max_move=str(max(a, b)))
    path = tmp_path / "vh.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main([command, "vh", str(path)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"resource limit: {message}\n")


def test_gen_minmax_past_the_side_limit_exit_3(tmp_path, capsys):
    # padding adds about two sensors per line that is not required: at
    # side 10^7 the padded side is refused before any list is built
    obj = json.loads(cfg_file(tmp_path, [(1, 1)], a=10**7,
                              b=10**7).read_text())
    obj.update(v_lines=[1], h_lines=[1], max_move="1")
    path = tmp_path / "vh.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["gen", "minmax", "--vh", str(path),
                 "-o", str(tmp_path / "p.json")]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", f"resource limit: padded side past {INTEGER_SIDE_LIMIT}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json",
                                                          "vh.json"]


@pytest.mark.parametrize("argv, message", [
    ("solve minmax INST --budget -3", "argument --budget: must be at least "
                                      "1: -3"),
    ("decide vh INST --budget 0", "argument --budget: must be at least 1: 0"),
    ("diff minnum --count -2", "argument --count: must be at least 0: -2"),
], ids=["solve-budget", "decide-budget", "diff-count"])
def test_numeric_option_below_its_bound_exit_2(tmp_path, capsys, argv,
                                               message):
    path = str(cfg_file(tmp_path, [(1, 1)]))
    with pytest.raises(SystemExit) as exc:
        main([path if word == "INST" else word for word in argv.split()])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: {message}\n")


def test_extract_minnum_past_t_moves_exit_2(tmp_path, capsys):
    # embed's blocking solution plus one more sensor moved onto a filled
    # diagonal spot: the first such move that keeps the solution blocking.
    # With t one below the optimum a satisfied clause keeps both sensors.
    inst, assign, gadget = _minnum_gadget(tmp_path)
    formula = tmp_path / "f.json"
    t = json.loads(formula.read_text())["t"] - 1
    _tampered(formula, t=t)
    assert main(["gen", "minnum", "--formula", str(formula),
                 "-o", str(inst)]) == 0
    embedded = tmp_path / "e.json"
    assert main(["embed", "minnum", *gadget, "--assignment", str(assign),
                 "-o", str(embedded)]) == 0
    config = serialize.read_instance(inst.read_text())
    positions = serialize.read_solution(embedded.read_text()).positions
    home = {s.id: (s.x, s.y) for s in config.sensors}
    moved = [sid for sid in positions if positions[sid] != home[sid]]
    sol = next(trial for sid in home if sid not in moved for spot in moved
               if is_blocking(config, trial := wcr.Solution(
                   {**positions, sid: positions[spot]})).blocking)
    path = tmp_path / "sol.json"
    path.write_text(serialize.write_solution(sol))
    capsys.readouterr()
    assert main(["extract", "minnum", *gadget, "--solution", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {t + 1} > t sensors moved\n")


@pytest.mark.parametrize("mode, h_lines, message", [
    ("continuous", [1], "line-blocking instances are integer mode"),
    ("integer", [4], "horizontal line index out of range"),
], ids=["continuous", "h-line-out-of-range"])
def test_line_blocking_instance_checks_exit_2(tmp_path, capsys, mode,
                                              h_lines, message):
    obj = json.loads(cfg_file(tmp_path, [(1, 1), (2, 2)]).read_text())
    obj.update(mode=mode, v_lines=[1], h_lines=h_lines, max_move="1")
    path = tmp_path / "vh.json"
    path.write_text(json.dumps(obj))
    for command in (["decide", "vh"], ["verify"]):
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("cell", [(4, 1), (1, 4)], ids=["column", "row"])
def test_gen_minmax_sensor_on_last_line_exit_2(tmp_path, capsys, cell):
    obj = json.loads(cfg_file(tmp_path, [(1, 1), cell], a=4, b=4).read_text())
    obj.update(v_lines=[1, 2], h_lines=[1, 2], max_move="1")
    vh = tmp_path / "vh.json"
    vh.write_text(json.dumps(obj))
    assert main(["gen", "minmax", "--vh", str(vh), "-o",
                 str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr() == (
        "", "error: last column/row must be free of sensors\n")
