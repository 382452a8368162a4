"""The templated writers against json.dumps of the objects they encode:
write_solution and write_instance must give exactly the text that
json.dumps(obj, indent=2) + "\\n" gives for the object built field by
field (tests/brutes.py)."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from brutes import reference_instance_obj, reference_solution_obj
from wcr import serialize
from wcr.core import Configuration, Sensor, Solution
from wcr.errors import ValidationError
from wcr.minmax import VHInstance

HUGE = F(10**4400 + 1, 3)  # numerator past the 4300-digit str limit


def _encoded(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _check_solution(sol: Solution) -> None:
    assert serialize.write_solution(sol) == \
        _encoded(reference_solution_obj(sol))


def _check_instance(inst) -> None:
    text = serialize.write_instance(inst)
    assert text == _encoded(reference_instance_obj(inst))
    assert serialize.instance_to_obj(inst) == reference_instance_obj(inst)


def _rational(rng, signed=False):
    value = F(rng.randint(0, 10**rng.randint(0, 12)),
              rng.choice((1, 1, 2, 3, 997, 10**20 + 1)))
    return -value if signed and rng.random() < 0.3 else value


def _continuous(rng, n) -> Configuration:
    w, h = F(rng.randint(1, 50)), F(rng.randint(1, 50), rng.randint(1, 4))
    return Configuration(w, h, tuple(
        Sensor(sid, _rational(rng) % w, _rational(rng) % h,
               _rational(rng) + F(1, 7))
        for sid in rng.sample(range(10**6), n)),
        mode="continuous", metric=rng.choice(("manhattan", "euclidean")))


def _grid(rng, n) -> Configuration:
    a, b = rng.randint(1, 40), rng.randint(1, 40)
    return Configuration(F(a), F(b), tuple(
        Sensor(sid, F(rng.randint(1, a)), F(rng.randint(1, b)), F(1, 2))
        for sid in rng.sample(range(3 * n + 1), n)))


def _lines(rng, config, k) -> VHInstance:
    a, b = int(config.width), int(config.height)
    return VHInstance(config,
                      frozenset(rng.sample(range(1, a + 1), min(a, k))),
                      frozenset(rng.sample(range(1, b + 1), min(b, k))),
                      _rational(rng))


def test_writers_match_dumps_on_seeded_documents():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(0, 12)
        _check_instance(_continuous(rng, n))
        grid = _grid(rng, n)
        _check_instance(grid)
        _check_instance(_lines(rng, grid, rng.choice((0, 1, 5))))
        _check_solution(Solution({
            sid: (_rational(rng, signed=True), _rational(rng, signed=True))
            for sid in rng.sample(range(10**9), n)}))


def test_empty_arrays():
    _check_solution(Solution({}))
    empty = Configuration(F(3), F(2), ())
    _check_instance(empty)
    _check_instance(VHInstance(empty, frozenset(), frozenset(), F(0)))
    assert serialize.write_solution(Solution({})) == \
        '{\n  "positions": []\n}\n'


def test_line_blocking_instances_with_and_without_lines():
    config = Configuration(F(4), F(3), (Sensor(2, F(1), F(3), F(1, 2)),
                                        Sensor(0, F(4), F(1), F(1, 2))))
    for v, h in (((), ()), ((1, 4), ()), ((), (2,)), ((4, 1, 3), (3, 1))):
        _check_instance(VHInstance(config, frozenset(v), frozenset(h),
                                   F(5, 2)))


def test_coordinates_past_the_digit_limit():
    _check_solution(Solution({0: (HUGE, -HUGE), 5: (F(1), HUGE / 7)}))
    side = F(10**4400)
    _check_instance(Configuration(side, side, (
        Sensor(0, HUGE, side - HUGE, HUGE / 11),
        Sensor(3, F(0), side, F(1))), mode="continuous"))


def test_ids_that_are_not_plain_ints_fall_back_to_dumps():
    sol = Solution({True: (F(1), F(2))})
    _check_solution(sol)
    assert '"id": true' in serialize.write_solution(sol)
    _check_solution(Solution({0: (F(1), F(2)), True: (F(-1, 3), F(0))}))
    # a Configuration refuses such ids, so write_instance never sees one
    with pytest.raises(ValidationError, match="sensor ids must be integers"):
        Configuration(F(2), F(2), (Sensor(True, F(1), F(2), F(1, 2)),
                                   Sensor(0, F(2), F(1), F(1, 2))))


def test_dumps_with_of_the_templated_solution():
    rng = random.Random(5)
    for n in (0, 1, 7):
        sol = Solution({sid: (_rational(rng, True), _rational(rng, True))
                        for sid in range(n)})
        out = {"problem": "minnum", "moved": n, "moves": [[1, "jump"]]}
        assert serialize.dumps_with(out, "solution",
                                    serialize.write_solution(sol)) == \
            _encoded({**out, "solution": reference_solution_obj(sol)})


_fractions = st.fractions() | st.integers().map(F)


@given(st.lists(st.tuples(st.integers(0),
                          st.sampled_from(("jump", "slide-row", "slide-col")),
                          st.tuples(_fractions | st.integers(),
                                    _fractions | st.integers())),
                max_size=6))
def test_fill_moves_matches_dumps(moves):
    sol = Solution({sid: xy for sid, _, xy in moves})
    out = {"problem": "minnum", "moved": len(moves)}
    text = serialize.dumps_with({**out, "moves": []}, "solution",
                                serialize.write_solution(sol))
    assert serialize.fill_moves(text, moves) == _encoded({**out, "moves": [
        {"id": sid, "kind": kind, "to": [str(x), str(y)]}
        for sid, kind, (x, y) in moves],
        "solution": reference_solution_obj(sol)})


@given(st.dictionaries(st.integers(), st.tuples(_fractions, _fractions),
                       max_size=8))
def test_write_solution_matches_dumps(positions):
    _check_solution(Solution(positions))


_coordinate = st.builds(lambda p, q: F(p % (9 * q + 1), q),
                        st.integers(0), st.integers(1, 10**30))


@given(st.lists(st.tuples(_coordinate, _coordinate,
                          st.builds(F, st.integers(1), st.integers(1))),
                max_size=8),
       st.sampled_from(("manhattan", "euclidean")))
def test_write_instance_matches_dumps(sensors, metric):
    _check_instance(Configuration(F(9), F(9), tuple(
        Sensor(sid, x, y, r) for sid, (x, y, r) in enumerate(sensors)),
        mode="continuous", metric=metric))


@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                max_size=8),
       st.frozensets(st.integers(1, 9)), st.frozensets(st.integers(1, 9)),
       st.fractions(min_value=0))
def test_write_line_instance_matches_dumps(cells, v_lines, h_lines, budget):
    config = Configuration(F(9), F(9), tuple(
        Sensor(sid, F(x), F(y), F(1, 2)) for sid, (x, y) in enumerate(cells)))
    _check_instance(VHInstance(config, v_lines, h_lines, budget))
