"""The input checks that no other test reaches: each rejection with its
exit code and message, so that deleting the check fails its test."""

import json
from fractions import Fraction

import pytest

from wcr import serialize
from wcr.cli import main
from wcr.core import Configuration, Sensor, Solution, solution_costs
from wcr.errors import ValidationError
from wcr.matching import Graph

F = Fraction
H = F(1, 2)

INSTANCE = {"mode": "integer", "rect": {"width": "1", "height": "1"},
            "sensors": [{"id": 1, "x": "1", "y": "1", "range": "1/2"}]}
SAT22 = [[1, 2, 3], [-1, -2, -3], [1, -2, 3], [-1, 2, -3]]


def _sat22(clauses, variables=3):
    return {"dialect": "3sat22", "variables": variables, "clauses": clauses}


def _max2sat(clauses, variables=2):
    return {"dialect": "max2sat-3occ", "variables": variables, "t": 1,
            "clauses": clauses}


def _run(tmp_path, capsys, argv, **docs):
    """main on argv, whose upper-case words name files in tmp_path; docs
    gives the contents of some (a JSON value, or a str as it is)."""
    for name, doc in docs.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str)
                                     else json.dumps(doc))
    code = main([str(tmp_path / word) if word.isupper() else word
                 for word in argv.split()])
    return code, *capsys.readouterr()


@pytest.mark.parametrize("argv, docs, message", [
    ("extract vh --meta M --solution M", {"M": {"kind": "vh",
                                                "var_sensor": 5}},
     "$.var_sensor must be an array"),
    ("extract vh --meta M --solution M",
     {"M": {"kind": "vh", "n": 1, "m": 1, "var_sensor": [],
            "clause_sensor": [], "triples": [], "slot_row": [1]}},
     "$.slot_row must be an object"),
    ("verify I", {"I": []}, "instance must be a JSON object"),
    ("verify I --solution S", {"I": INSTANCE, "S": []},
     "solution must be a JSON object"),
    ("verify I --solution S", {"I": INSTANCE, "S": {"positions": {}}},
     "$.positions must be an array"),
    ("gen vh --formula F -o O", {"F": []}, "formula must be a JSON object"),
    ("gen vh --formula F -o O", {"F": _sat22({})},
     "$.clauses must be an array"),
    ("gen vh --formula F -o O", {"F": _sat22([[1, 0, 2], *SAT22[1:]])},
     "$.clauses[0] must be nonzero integers"),
    ("gen vh --formula F -o O", {"F": _sat22([[1, "2", 3], *SAT22[1:]])},
     "$.clauses[0] must be nonzero integers"),
    ("gen vh --formula F -o O",
     {"F": {"dialect": "cnf", "variables": 3, "clauses": []}},
     "unknown dialect 'cnf'"),
    ("gen minnum --formula F -o O",
     {"F": _max2sat([[1, 2, -1], [-1, 2], [1, -2]])},
     "clause 0 is not binary"),
    ("gen minnum --formula F -o O",
     {"F": _max2sat([[1, 3], [-1, 2], [1, -2]])}, "literal 3 out of range"),
    ("gen minnum --formula F -o O",
     {"F": _max2sat([[1, 2], [-1, 3], [1, 4], [-1, 2], [-2, 3], [-3, 4]],
                    variables=4)},
     "variable 1 occurs 4 times"),
    ("gen vh --formula F -o O", {"F": _sat22(SAT22[:3])},
     "clause count must be 4n/3"),
    ("gen vh --formula F -o O", {"F": _sat22([[1, 2], *SAT22[1:]])},
     "clause 0 is not ternary"),
    ("gen vh --formula F -o O", {"F": _sat22([[1, 2, 4], *SAT22[1:]])},
     "literal 4 out of range"),
], ids=["meta-table", "meta-int-map", "instance", "solution", "positions",
        "formula", "clauses", "zero-literal", "string-literal", "dialect",
        "max2sat-binary", "max2sat-literal", "max2sat-occurrences",
        "sat22-clause-count", "sat22-ternary", "sat22-literal"])
def test_malformed_document_exit_2(tmp_path, capsys, argv, docs, message):
    assert _run(tmp_path, capsys, argv, **docs) == (2, "",
                                                    f"error: {message}\n")


def _minmax_gadget(tmp_path, capsys):
    """gen minmax, into file M, of two sensors that block their lines
    where they stand: their home positions."""
    vh = {"mode": "integer", "rect": {"width": "4", "height": "4"},
          "sensors": [{"id": 1, "x": "1", "y": "1", "range": "1/2"},
                      {"id": 2, "x": "2", "y": "3", "range": "1/2"}],
          "v_lines": [1, 2], "h_lines": [1, 3], "max_move": "1"}
    assert _run(tmp_path, capsys, "gen minmax --vh V -o P --meta M",
                V=vh)[0] == 0
    return {1: ("1", "1"), 2: ("2", "3")}


def _solution(positions):
    return {"positions": [{"id": sid, "x": x, "y": y}
                          for sid, (x, y) in sorted(positions.items())]}


def test_embed_minmax_of_a_non_blocking_solution_exit_2(tmp_path, capsys):
    home = _minmax_gadget(tmp_path, capsys)
    # one step up leaves horizontal line 3 unblocked
    sol = _solution({**home, 2: ("2", "2")})
    assert _run(tmp_path, capsys, "embed minmax --meta M --solution S",
                S=sol) == (2, "", "error: input is not a unit-move "
                                  "line-blocking solution\n")


def test_extract_minmax_of_far_moves_exit_2(tmp_path, capsys):
    # the embedded solution with the two original sensors swapped still
    # blocks the padded grid, but each of them moves 3 > 1
    home = _minmax_gadget(tmp_path, capsys)
    assert _run(tmp_path, capsys, "embed minmax --meta M --solution S -o E",
                S=_solution(home))[0] == 0
    embedded = serialize.read_solution((tmp_path / "E").read_text())
    positions = dict(embedded.positions)
    positions[1], positions[2] = positions[2], positions[1]
    swapped = serialize.write_solution(Solution(positions))
    assert _run(tmp_path, capsys, "extract minmax --meta M --solution W",
                W=swapped) == (2, "", "error: stripped solution fails line "
                                      "verification\n")


def test_write_meta_of_a_non_meta():
    with pytest.raises(ValidationError,
                       match="not a serializable meta: <class 'object'>"):
        serialize.write_meta(object())


def test_graph_edge_endpoint_out_of_range():
    with pytest.raises(ValidationError, match="edge endpoint out of range"):
        Graph(vertex_count=2, edges=((0, 2, None),))


def test_euclidean_sum_interval_has_no_exact_value():
    config = Configuration(width=F(2), height=F(2),
                           sensors=(Sensor(1, F(1), F(1), H),),
                           mode="integer", metric="euclidean")
    report = solution_costs(config, Solution({1: (F(2), F(2))}))
    assert report.sum_low < report.sum_high  # sqrt(2), enclosed
    with pytest.raises(ValidationError,
                       match="euclidean sum is only known as an interval"):
        report.sum_cost
