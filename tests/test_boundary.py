"""The boundary layer on scaled ints against its all-Fraction reference.

`Configuration.__post_init__`, `Solution.validate`, `is_blocking`,
`solution_costs` and the point check of `Line1DInstance` check and
measure on numerators scaled by one lcm (`core.to_ints`) or
cross-multiplied by denominators; the versions in `brutes` are the
originals on Fractions.
Both must give the same reports, error types and messages.  `serialize`
parses each distinct rational string once per document and formats an
error location only when an item is bad; the messages must stay the
ones of the checked parse.
"""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from brutes import (reference_check_line, reference_is_blocking,
                    reference_rat, reference_solution_costs,
                    reference_validate_config, reference_validate_solution)
from wcr import minsum, serialize
from wcr.cli import main
from wcr.core import (MAX_DIGITS, Configuration, Sensor, Solution,
                      is_blocking, rat, solution_costs, to_ints)
from wcr.errors import ParseError, WcrError
from wcr.minsum import Line1DInstance, solve_minsum_manhattan
from wcr.oracle import random_integer_config

F = Fraction
HUGE = (10**110 + 1, 3 * 10**109 + 7)  # coprime denominators near 1e110
DENOMINATORS = (1, 3, 997) + HUGE
MODES = ("integer", "continuous")
METRICS = ("manhattan", "euclidean")


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except WcrError as e:
        return type(e), str(e)


def _config_outcome(*fields):
    return _outcome(lambda: Configuration(*fields))


def _reference_config_outcome(*fields):
    """The reference checks run on a Configuration built without its own;
    one that passes them lists its sensors in id order."""
    config = object.__new__(Configuration)
    for name, value in zip(("width", "height", "sensors", "mode", "metric"),
                           fields):
        object.__setattr__(config, name, value)

    def checked():
        reference_validate_config(config)
        object.__setattr__(config, "sensors",
                           tuple(sorted(config.sensors, key=lambda s: s.id)))
        return config
    return _outcome(checked)


def assert_same_boundary(config: Configuration, sol: Solution) -> None:
    """Validation, coverage and costs of sol agree with the reference."""
    assert _outcome(sol.validate, config) == \
        _outcome(reference_validate_solution, sol, config)
    assert _outcome(is_blocking, config, sol) == \
        _outcome(reference_is_blocking, config, sol)
    assert _outcome(solution_costs, config, sol) == \
        _outcome(reference_solution_costs, config, sol)


# -- seeded cases --------------------------------------------------------------

def _coordinate(rng, lo, hi, den):
    """A point of [lo, hi] with denominator den, sometimes a little
    outside it, sometimes exactly on an end."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice((lo, hi))
    if roll < 0.2:
        return rng.choice((lo - F(1, den), hi + F(1, den)))
    return lo + F(rng.randint(0, int((hi - lo) * den)), den)


def _random_case(rng):
    mode, metric = rng.choice(MODES), rng.choice(METRICS)
    n = rng.randint(0, 12)
    if mode == "integer":
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        sensors = [Sensor(i, F(rng.randint(1, a)), F(rng.randint(1, b)),
                          F(1, 2)) for i in range(n)]
        width, height, lo = F(a), F(b), F(1, 2)
    else:
        width = F(rng.randint(1, 30), rng.choice((1, 2, 3)))
        height = F(rng.randint(1, 30), rng.choice((1, 2, 7)))
        r = F(rng.randint(1, 9), rng.choice(DENOMINATORS[:3]))
        den = rng.choice(DENOMINATORS)
        sensors = [Sensor(i, F(rng.randint(0, int(width * den)), den),
                          F(rng.randint(0, int(height * den)), den), r)
                   for i in range(n)]
        lo = F(0)
    config = Configuration(width, height, tuple(sensors), mode, metric)
    hi_x, hi_y = config.x_extent[1], config.y_extent[1]
    positions = {}
    for s in sensors:
        den = rng.choice(DENOMINATORS if rng.random() < 0.3 else (1,))
        roll = rng.random()
        if roll < 0.3:  # axis-aligned
            x, y = s.x, _coordinate(rng, lo, hi_y, den)
        elif roll < 0.4:
            x, y = s.x, s.y
        else:
            x, y = (_coordinate(rng, lo, hi_x, den),
                    _coordinate(rng, lo, hi_y, den))
        if mode == "integer" and den == 1:
            x, y = round(x), round(y)  # mostly on the grid, some outside
        positions[s.id] = (F(x), F(y))
    if sensors and rng.random() < 0.05:
        del positions[sensors[0].id]
    elif rng.random() < 0.05:
        positions[10**6] = (lo, lo)
    return config, Solution(positions)


def test_boundary_matches_reference_on_seeded_cases():
    rng = random.Random(2024)
    errors = valid = 0
    for _ in range(3000):
        config, sol = _random_case(rng)
        assert_same_boundary(config, sol)
        if isinstance(_outcome(sol.validate, config), tuple):
            errors += 1
        else:
            valid += 1
    assert errors > 300 and valid > 300  # both paths are exercised


def test_costs_match_reference_on_large_mixed_denominators():
    rng = random.Random(7)
    for k in range(200):
        width, height = F(rng.randint(1, 20)), F(rng.randint(1, 20))
        dens = [rng.choice(DENOMINATORS) for _ in range(4)]
        n = rng.randint(1, 25)
        sensors = tuple(Sensor(i, F(rng.randint(0, int(width) * dens[0]),
                                    dens[0]),
                               F(rng.randint(0, int(height) * dens[1]),
                                 dens[1]), F(1)) for i in range(n))
        config = Configuration(width, height, sensors, "continuous",
                               METRICS[k % 2])
        sol = Solution({s.id: (F(rng.randint(0, int(width) * dens[2]),
                                 dens[2]) if i % 3 else s.x,
                               F(rng.randint(0, int(height) * dens[3]),
                                 dens[3]))
                        for i, s in enumerate(sensors)})
        assert_same_boundary(config, sol)


def test_costs_of_many_oblique_euclidean_moves_match_reference():
    # 1, 9 and 50 diagonal moves of irrational length next to exact ones
    for k in (1, 9, 50):
        sensors = tuple(Sensor(i, F(i + 1), F(1), F(1, 2)) for i in range(k))
        config = Configuration(F(k + 1), F(3), sensors, "integer",
                               "euclidean")
        sol = Solution({i: (F(i + 2), F(2 + i % 2)) for i in range(k)})
        assert_same_boundary(config, sol)


def test_configuration_checks_match_reference():
    rng = random.Random(99)
    half = F(1, 2)
    values = (F(0), F(1), F(2), F(3), half, F(5, 2), F(-1), F(7, 2),
              F(1, HUGE[0]), F(3 * HUGE[0] + 1, HUGE[0]))
    outcomes = set()
    for _ in range(4000):
        mode = rng.choice(MODES + ("grid",))
        metric = rng.choice(METRICS * 10 + ("taxicab",))
        width = rng.choice((F(3), F(3), F(5, 2), F(0)))
        height = rng.choice((F(2), F(2), F(-1)))
        sensors = [Sensor(rng.choice((0, 1, 2, 3, -1)), rng.choice(values),
                          rng.choice(values),
                          rng.choice((half, half, F(1), F(0), F(-1, 2))))
                   for _ in range(rng.randint(0, 3))]
        fields = (width, height, tuple(sensors), mode, metric)
        want = _reference_config_outcome(*fields)
        assert _config_outcome(*fields) == want
        outcomes.add("valid" if isinstance(want, Configuration)
                     else re.sub(r"-?\d+", "#", want[1]))
    assert len(outcomes) == 12  # all eleven messages, and valid ones


def _axis(rng, radii, side, den):
    """One coordinate per radius on [0, side]: mostly a chain whose
    closed intervals touch exactly, starting on 0, and otherwise on 0,
    on the side, a step of 1/den outside, or at some p/den."""
    coords, reach = [], F(0)
    for r in radii:
        roll = rng.random()
        if roll < 0.5:
            c = min(reach + r, side)  # starts where the last one ended
        elif roll < 0.65:
            c = F(0)
        elif roll < 0.8:
            c = side
        elif roll < 0.87:
            c = rng.choice((-F(1, den), side + F(1, den)))
        else:
            c = F(rng.randint(0, int(side * den)), den)
        coords.append(c)
        reach = max(reach, c + r)
    return coords


def _continuous_case(rng):
    """Fields of a continuous configuration, with mixed ranges, and a
    solution: coordinates on the ends, just outside them, and on chains
    of exactly touching intervals, some with HUGE denominators."""
    den = rng.choice(DENOMINATORS)
    width = F(rng.randint(1, 12), rng.choice((1, 2, 3)))
    height = F(rng.randint(1, 12), rng.choice((1, 3, 997)))
    kinds = [F(rng.randint(1, 5), rng.choice((1, 2, 3, 997)))
             for _ in range(rng.randint(1, 3))]
    n = rng.randint(0, 8)
    radii = [rng.choice(kinds) for _ in range(n)]
    ids = rng.sample(range(2 * n + 1), n)
    homes = zip(_axis(rng, radii, width, den), _axis(rng, radii, height, den))
    sensors = tuple(Sensor(i, x, y, r) for i, (x, y), r in
                    zip(ids, homes, radii))
    if rng.random() < 0.2:
        positions = {i: (x, y) for i, x, y, _ in sensors}
    else:
        den = rng.choice(DENOMINATORS)
        positions = dict(zip(ids, zip(_axis(rng, radii, width, den),
                                      _axis(rng, radii, height, den))))
    if sensors and rng.random() < 0.03:
        del positions[ids[0]]
    fields = (width, height, sensors, "continuous", rng.choice(METRICS))
    return fields, Solution(positions)


def _touches(centres, radii) -> bool:
    """Whether one closed interval [c - r, c + r] starts exactly where
    another ends."""
    ends = {c + r for c, r in zip(centres, radii)}
    return any(c - r in ends for c, r in zip(centres, radii))


def test_continuous_boundary_matches_reference_on_seeded_cases():
    rng = random.Random(1707)
    seen = Counter()
    for _ in range(2400):
        fields, sol = _continuous_case(rng)
        config = _config_outcome(*fields)
        assert config == _reference_config_outcome(*fields)
        if isinstance(config, tuple):
            seen["bad config"] += 1
            continue
        assert _outcome(is_blocking, config) == \
            _outcome(reference_is_blocking, config)
        assert_same_boundary(config, sol)
        report = _outcome(is_blocking, config, sol)
        if isinstance(report, tuple):
            seen["bad solution"] += 1
            continue
        finals = [sol.positions[s.id] for s in config.sensors]
        radii = [s.range for s in config.sensors]
        touching = any(_touches([p[axis] for p in finals], radii)
                       for axis in (0, 1))
        seen["blocking" if report.blocking else "gaps",
             "touching" if touching else "apart"] += 1
    # every path is taken often, and exactly touching intervals both
    # close a cover and sit next to gaps
    assert min(seen.values()) > 50 and len(seen) == 6, seen


def test_line_instance_checks_match_reference():
    # points just inside and just outside both ends, on denominators up
    # to HUGE, and non-positive radii and lengths
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(1500):
        length = F(rng.randint(-1, 9), rng.choice(DENOMINATORS))
        radius = F(rng.randint(-1, 3), rng.choice((1, 2, 997)))
        points = []
        for _ in range(rng.randint(0, 4)):
            den = rng.choice(DENOMINATORS)
            step = F(rng.choice((-1, 0, 0, 1)), den)
            points.append(rng.choice((F(0), length)) + step
                          if rng.random() < 0.6 else
                          F(rng.randint(-den, int(length * den) + den), den))
        want = _outcome(reference_check_line, points, radius, length)
        got = _outcome(lambda: Line1DInstance(tuple(points), radius, length))
        if isinstance(want, tuple):
            assert got == want
            outcomes.add(want[1].split()[0])
        else:
            assert isinstance(got, Line1DInstance)
            outcomes.add("valid")
    assert outcomes == {"valid", "point", "radius"}


def test_to_ints_scales_by_the_lcm():
    assert to_ints([]) == (1, [])
    assert to_ints([F(1, 2), F(-5, 4), F(7, 6), 3]) == (12, [6, -15, 14, 36])
    rng = random.Random(1818)
    dens = DENOMINATORS + (2, 4, 6, 8, 12, 10**12)
    for _ in range(400):
        values = [F(rng.randint(-10**6, 10**6), rng.choice(dens))
                  for _ in range(rng.randint(1, 8))]
        D, ints = to_ints(iter(values))
        assert D == reduce(lambda a, b: a * b // gcd(a, b),
                           (v.denominator for v in values), 1)
        assert [F(i, D) for i in ints] == values


def test_minsum_solve_scales_each_axis_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(1)
        return to_ints(values)

    monkeypatch.setattr(minsum, "to_ints", counted)
    sensors = tuple(Sensor(i, F(3 * i + 1, 997), F(i, 7), F(1))
                    for i in range(6))
    config = Configuration(F(11), F(12), sensors, "continuous")
    solve_minsum_manhattan(config)
    assert len(calls) == 2


def test_solve_minsum_moved_matches_reference_costs(tmp_path, capsys):
    rng = random.Random(3131)
    path, out_path = tmp_path / "inst.json", tmp_path / "sol.json"
    moved = set()
    for k in range(40):
        if k % 2:
            config = random_integer_config(rng, rng.randint(2, 7),
                                           rng.randint(2, 7),
                                           rng.randint(7, 12))
        else:
            width, height = F(rng.randint(2, 8)), F(rng.randint(2, 8))
            den = rng.choice(DENOMINATORS[:3])
            config = Configuration(width, height, tuple(
                Sensor(i, F(rng.randint(0, int(width) * den), den),
                       F(rng.randint(0, int(height) * den), den), F(1))
                for i in range(rng.randint(4, 9))), "continuous")
        path.write_text(serialize.write_instance(config))
        assert main(["solve", "minsum", str(path), "-o",
                     str(out_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        sol = serialize.read_solution(out_path.read_text())
        want = reference_solution_costs(config, sol).moved
        assert out["moved"] == want
        moved.add(0 < want < config.n)
    assert True in moved  # some solutions move some sensors, not all


# -- hypothesis ----------------------------------------------------------------

_den = st.sampled_from(DENOMINATORS)


@st.composite
def _case(draw):
    mode = draw(st.sampled_from(MODES))
    metric = draw(st.sampled_from(METRICS))
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = draw(st.integers(0, 6))
    if mode == "integer":
        homes = [(F(draw(st.integers(1, a))), F(draw(st.integers(1, b))))
                 for _ in range(n)]
        r = F(1, 2)
    else:
        homes = []
        for _ in range(n):
            p, q = draw(_den), draw(_den)
            homes.append((F(draw(st.integers(0, a * p)), p),
                          F(draw(st.integers(0, b * q)), q)))
        r = F(draw(st.integers(1, 4)), draw(st.sampled_from((1, 3, 997))))
    sensors = tuple(Sensor(i, x, y, r) for i, (x, y) in enumerate(homes))
    config = Configuration(F(a), F(b), sensors, mode, metric)
    positions = {}
    for s in sensors:
        kind = draw(st.sampled_from(("stay", "axis", "oblique", "any")))
        p, q = draw(_den), draw(_den)
        # final coordinates in [-1, side + 1]: off the grid and outside
        # the rectangle in both modes
        x = F(draw(st.integers(-p, (a + 1) * p)), p)
        y = F(draw(st.integers(-q, (b + 1) * q)), q)
        if kind == "stay":
            x, y = s.x, s.y
        elif kind == "axis":
            x = s.x
        positions[s.id] = (x, y)
    return config, Solution(positions)


@settings(max_examples=400, deadline=None)
@given(_case())
def test_boundary_matches_reference(case):
    assert_same_boundary(*case)


# -- rat ---------------------------------------------------------------------

def _rat_outcome(fn, text):
    """fn(text), or the type of the error it raised."""
    try:
        return fn(text)
    except Exception as e:
        return type(e)


_DIGITS = "9" * MAX_DIGITS


@settings(max_examples=400, deadline=None)
@given(st.text("0123456789/+-_ .eE\u0661\u0662\u00b2", max_size=12) |
       st.from_regex(r"\A[0-9]{1,30}(/[0-9]{1,30})?\Z"))
@example("")
@example("007/0030")
@example("3/0")
@example("+3")
@example(" 3")
@example("1_0/3")
@example("0.5")
@example("1e5")
@example("\u0661\u0662")  # Arabic-Indic digits: 12 through Fraction
@example("\u00b2")  # a superscript two: isdigit() but not a decimal
@example(_DIGITS)
@example("1" + _DIGITS)
@example(f"{_DIGITS}/{_DIGITS}")
@example(f"1/1{_DIGITS}")
@example(f"1{_DIGITS}/3")
@example("0" + _DIGITS)
def test_rat_matches_reference(text):
    got, want = _rat_outcome(rat, text), _rat_outcome(reference_rat, text)
    assert got == want, text
    if isinstance(want, Fraction):  # an int exactly when it is integral
        assert type(got) is (int if want.denominator == 1 else Fraction), text


# -- serialize -----------------------------------------------------------------

def _sensor(**fields):
    return {"id": 0, "x": "1", "y": "1", "range": "1/2", **fields}


def _config_doc(*sensors, rect=None):
    return json.dumps({"mode": "integer",
                       "rect": rect or {"width": "2", "height": "2"},
                       "sensors": list(sensors)})


def _position(**fields):
    return {"id": 0, "x": "1", "y": "1", **fields}


def _solution_doc(*entries):
    return json.dumps({"positions": list(entries)})


# each malformed document and the message of the checked parse, which
# names its first bad item and field
PARSE_ERRORS = [
    (_config_doc(1), "$.sensors[0] must be an object"),
    (_config_doc([1, 2]), "$.sensors[0] must be an object"),
    (_config_doc({"x": "1", "y": "1", "range": "1/2"}),
     "missing field $.sensors[0].id"),
    (_config_doc(_sensor(), {"id": 1, "x": "1", "range": "1/2"}),
     "missing field $.sensors[1].y"),
    (_config_doc(_sensor(id="1")), "expected integer at $.sensors[0].id: '1'"),
    (_config_doc(_sensor(id=True)), "expected integer at $.sensors[0].id: True"),
    (_config_doc(_sensor(id=[1])), "expected integer at $.sensors[0].id: [1]"),
    (_config_doc(_sensor(x=True)), "bad rational at $.sensors[0].x: True"),
    (_config_doc(_sensor(y=False)), "bad rational at $.sensors[0].y: False"),
    (_config_doc(_sensor(x=1.5)), "bad rational at $.sensors[0].x: 1.5"),
    (_config_doc(_sensor(x=[1])), "bad rational at $.sensors[0].x: [1]"),
    (_config_doc(_sensor(x="1/0")), "bad rational at $.sensors[0].x: '1/0'"),
    (_config_doc(_sensor(range="0x10")),
     "bad rational at $.sensors[0].range: '0x10'"),
    # "1" is memoized by sensor 0; True == 1 must not hit that entry
    (_config_doc(_sensor(), _sensor(id=1, x=True)),
     "bad rational at $.sensors[1].x: True"),
    (_config_doc(_sensor(x=1), _sensor(id=1, x=True)),
     "bad rational at $.sensors[1].x: True"),
    (_config_doc(_sensor(id=1, x=True), _sensor(id="2")),
     "bad rational at $.sensors[0].x: True"),
    (_config_doc(_sensor(id="a", x="bad")),
     "expected integer at $.sensors[0].id: 'a'"),
    (_config_doc(_sensor(), rect={"width": "abc", "height": "2"}),
     "bad rational at $.rect.width: 'abc'"),
    (_config_doc(_sensor(x="1/0"), rect={"width": "abc", "height": "2"}),
     "bad rational at $.sensors[0].x: '1/0'"),
    (_solution_doc(_position(), 2), "$.positions[1] must be an object"),
    (_solution_doc({"id": 0, "x": "1"}), "missing field $.positions[0].y"),
    (_solution_doc(_position(id=True)),
     "expected integer at $.positions[0].id: True"),
    # True == 1: the second id must still be rejected, not merged
    (_solution_doc(_position(id=1), _position(id=True)),
     "expected integer at $.positions[1].id: True"),
    (_solution_doc(_position(id=1), _position(id=1.0)),
     "expected integer at $.positions[1].id: 1.0"),
    (_solution_doc(_position(id=1), _position(id=1)),
     "$.positions[1]: duplicate id 1"),
    # the duplicate is named before the bad field of the same entry
    (_solution_doc(_position(id=1), _position(id=1, x="bad")),
     "$.positions[1]: duplicate id 1"),
    (_solution_doc(_position(x="1"), _position(id=1, x=True)),
     "bad rational at $.positions[1].x: True"),
    (_solution_doc(_position(y={})), "bad rational at $.positions[0].y: {}"),
]


def test_parse_errors_name_the_first_bad_field():
    for doc, message in PARSE_ERRORS:
        read = serialize.read_solution if '"positions"' in doc \
            else serialize.read_instance
        assert _outcome(read, doc) == (ParseError, message), doc


def test_repeated_strings_parse_to_their_values():
    doc = _config_doc(_sensor(x="1", y="0.5", range="1/2"),
                      _sensor(id=1, x=1, y="1/2", range="0.5"),
                      _sensor(id=2, x="1", y="1", range="1/2"),
                      rect={"width": "1", "height": "1"})
    config = serialize.read_instance(doc.replace('"integer"', '"continuous"'))
    assert [(s.x, s.y, s.range) for s in config.sensors] == \
        [(1, F(1, 2), F(1, 2)), (1, F(1, 2), F(1, 2)), (1, 1, F(1, 2))]
    sol = serialize.read_solution(_solution_doc(
        _position(x="3/6"), _position(id=1, x="1/2", y=2)))
    assert dict(sol.positions) == {0: (F(1, 2), 1), 1: (F(1, 2), 2)}


def test_string_one_and_true_on_two_sensors_exit_2(tmp_path, capsys):
    for doc, where in (
            (_config_doc(_sensor(x="1"), _sensor(id=1, x=True)), "[1].x"),
            (_config_doc(_sensor(x=True), _sensor(id=1, x="1")), "[0].x")):
        path = tmp_path / "inst.json"
        path.write_text(doc)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad rational at $.sensors{where}: " \
                               f"True\n"


def _without(item, key):
    return {k: v for k, v in item.items() if k != key}


# The second item repeats the first one's strings, so each is parsed
# before the fault is reached.  Ids 0 and true differ: a true id taken
# for an int would be used, not named.
_WARM = _config_doc(_sensor(), _sensor(id=1, x="2", y="2"))
WARM_ERRORS = [
    (_config_doc(_sensor(), _sensor(id=True)), None,
     "expected integer at $.sensors[1].id: True"),
    (_config_doc(_sensor(), _without(_sensor(id=1), "range")), None,
     "missing field $.sensors[1].range"),
    (_config_doc(_sensor(), _sensor(id=1, x=1.0)), None,
     "bad rational at $.sensors[1].x: 1.0"),
    (_config_doc(_sensor(), _sensor()), None, "duplicate sensor id"),
    (_WARM, _solution_doc(_position(), _position(id=True)),
     "expected integer at $.positions[1].id: True"),
    (_WARM, _solution_doc(_position(), _without(_position(id=1), "y")),
     "missing field $.positions[1].y"),
    (_WARM, _solution_doc(_position(), _position(id=1, x=1.0)),
     "bad rational at $.positions[1].x: 1.0"),
    (_WARM, _solution_doc(_position(), _position()),
     "$.positions[1]: duplicate id 0"),
]


@pytest.mark.parametrize("instance, solution, message", WARM_ERRORS, ids=[
    f"{kind}-{fault}" for kind in ("sensor", "position")
    for fault in ("true-id", "missing-field", "float-x", "duplicate-id")])
def test_faults_after_repeated_strings_exit_2(tmp_path, capsys, instance,
                                              solution, message):
    _verify_exits_2(tmp_path, capsys, instance, solution, message)


def _verify_exits_2(tmp_path, capsys, instance, solution, message):
    """wcr verify of the documents exits 2 and prints only message."""
    (tmp_path / "inst.json").write_text(instance)
    argv = ["verify", str(tmp_path / "inst.json")]
    if solution is not None:
        (tmp_path / "sol.json").write_text(solution)
        argv += ["--solution", str(tmp_path / "sol.json")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Each fault sits in the first item to bring its strings, so it is met
# on the one-step read before the field-by-field parse names it.
_NEW = {"x": "2", "y": "2"}
COLD_ERRORS = [
    (_config_doc(_sensor(), _sensor(id=1, x="2/0", y="2")), None,
     "bad rational at $.sensors[1].x: '2/0'"),
    (_config_doc(_sensor(), _sensor(id=1, x="2", y=2.5)), None,
     "bad rational at $.sensors[1].y: 2.5"),
    (_config_doc(_sensor(), _sensor(id=True, **_NEW)), None,
     "expected integer at $.sensors[1].id: True"),
    (_config_doc(_sensor(), _without(_sensor(id=1, **_NEW), "range")), None,
     "missing field $.sensors[1].range"),
    (_config_doc(_sensor(), ["2", "2"]), None,
     "$.sensors[1] must be an object"),
    (_config_doc(_sensor(), _sensor(**_NEW)), None, "duplicate sensor id"),
    (_WARM, _solution_doc(_position(), _position(id=1, x="2/0", y="3")),
     "bad rational at $.positions[1].x: '2/0'"),
    (_WARM, _solution_doc(_position(), _position(id=1, x="3", y=2.5)),
     "bad rational at $.positions[1].y: 2.5"),
    (_WARM, _solution_doc(_position(), _position(id=True, x="3", y="3")),
     "expected integer at $.positions[1].id: True"),
    (_WARM, _solution_doc(_position(), {"id": 1, "x": "3"}),
     "missing field $.positions[1].y"),
    (_WARM, _solution_doc(_position(), ["3", "3"]),
     "$.positions[1] must be an object"),
    (_WARM, _solution_doc(_position(), _position(x="3", y="3")),
     "$.positions[1]: duplicate id 0"),
]


@pytest.mark.parametrize("instance, solution, message", COLD_ERRORS, ids=[
    f"{kind}-{fault}" for kind in ("sensor", "position")
    for fault in ("bad-string-x", "float-y", "true-id", "missing-field",
                  "not-an-object", "duplicate-id")])
def test_faults_on_first_strings_exit_2(tmp_path, capsys, instance,
                                        solution, message):
    _verify_exits_2(tmp_path, capsys, instance, solution, message)
