"""The encoder and the templated writers against json.dumps: dumps with
parts must give the text dumps gives for the object with the parts'
values in place, and write_solution, write_instance and write_meta
exactly the text that json.dumps(obj, indent=2) + "\\n" gives for the
object built field by field (tests/brutes.py)."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from brutes import random_sat22, reference_instance_obj, \
    reference_solution_obj
from wcr import serialize
from wcr.core import Configuration, Sensor, Solution
from wcr.errors import ValidationError
from wcr.minmax import VHInstance
from wcr.reductions import gen_minmax, gen_vh

HUGE = F(10**4400 + 1, 3)  # numerator past the 4300-digit str limit


def _encoded(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _check_solution(sol: Solution) -> None:
    assert serialize.write_solution(sol) == \
        _encoded(reference_solution_obj(sol))


def _check_instance(inst) -> None:
    assert serialize.write_instance(inst) == \
        _encoded(reference_instance_obj(inst))


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


def test_ids_that_are_not_plain_ints_are_refused():
    # so the writers never see an id they would print as True
    with pytest.raises(ValidationError, match="sensor ids must be integers"):
        Solution({True: (F(1), F(2))})
    with pytest.raises(ValidationError, match="sensor ids must be integers"):
        Solution({0: (1, 2), True: (2, 1)})  # True == 1 would pass as 1
    with pytest.raises(ValidationError, match="sensor ids must be integers"):
        Configuration(F(2), F(2), (Sensor(True, F(1), F(2), F(1, 2)),
                                   Sensor(0, F(2), F(1), F(1, 2))))

    class Id(int):  # only a library call can pass one
        pass

    with pytest.raises(ValidationError, match="sensor ids must be integers"):
        serialize.config_from_obj({
            "mode": "integer", "rect": {"width": "2", "height": "2"},
            "sensors": [{"id": Id(0), "x": "1", "y": "2", "range": "1/2"}]})


@pytest.mark.parametrize("make, read", [
    (lambda c: Solution({0: (c, 2)}), serialize.read_solution),
    (lambda c: Configuration(2, 2, (Sensor(0, c, 2, 1),), mode="continuous"),
     serialize.read_instance),
    (lambda c: Configuration(2, 2, (Sensor(0, 1, 2, c),), mode="continuous"),
     serialize.read_instance),
    (lambda c: Configuration(2, 2, (Sensor(0, 2, c, F(1, 2)),)),
     serialize.read_instance),
], ids=["solution-x", "continuous-x", "continuous-range", "integer-y"])
def test_bool_coordinates_and_ranges_are_refused(make, read):
    # the writers would print True as "True", which the readers refuse;
    # the int 1 in its place writes a document that reads back equal
    with pytest.raises(ValidationError, match="has a bool coordinate"):
        make(True)
    obj = make(1)
    write = serialize.write_solution if isinstance(obj, Solution) else \
        serialize.write_instance
    assert read(write(obj)) == obj


_texts = st.text(st.sampled_from('a\n"\\\u00e9\u2028 ') | st.characters(),
                 max_size=6)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(_texts, inner, max_size=3), max_leaves=12)


@given(st.dictionaries(_texts, _json, max_size=4), st.data())
def test_dumps_splices_parts_as_dumps_writes_them(obj, data):
    # keys of obj are spliced in place, other keys go last in parts order
    keys = data.draw(st.lists(
        (st.sampled_from(list(obj)) if obj else st.nothing()) | _texts,
        unique=True, max_size=4))
    values = {key: data.draw(_json) for key in keys}
    parts = {key: serialize.dumps(value) for key, value in values.items()}
    assert serialize.dumps(obj, parts) == serialize.dumps({**obj, **values})


@pytest.mark.parametrize("key", ['a', '"', "\n", "\u00e9", "\u2028", "\\",
                                 '", "a": null', ""])
def test_dumps_parts_at_escaped_keys_and_beside_a_nested_key(key):
    # the nested objects hold the key too, and the string values hold
    # what its top-level slot looks like; only the top level is spliced
    slot = f"\n  {json.dumps(key)}: null"
    obj = {"x": {key: None, "y": [{key: []}]}, key: None, slot: slot,
           "z": [], "w": {}}
    for value in ([], {}, None, [{key: [], slot: {}}], {key: {key: [1]}}):
        for parts in ({key: value}, {key: value, "z": [key]},
                      {"new": value, key: [], "z": {}}):
            assert serialize.dumps(obj, {
                k: serialize.dumps(v) for k, v in parts.items()}) == \
                serialize.dumps({**obj, **parts})
    assert serialize.dumps({}, {key: "[]\n"}) == \
        serialize.dumps({key: []})
    assert serialize.dumps(obj, {}) == serialize.dumps(obj)


def test_dumps_nests_the_templated_solution():
    rng = random.Random(5)
    for n in (0, 1, 7):
        sol = Solution({sid: (_rational(rng, True), _rational(rng, True))
                        for sid in range(n)})
        out = {"problem": "minnum", "moved": n, "moves": [[1, "jump"]]}
        assert serialize.dumps(out, {
            "solution": serialize.write_solution(sol)}) == \
            _encoded({**out, "solution": reference_solution_obj(sol)})


_fractions = st.fractions() | st.integers().map(F)


@given(st.lists(st.tuples(st.integers(0),
                          st.sampled_from(("jump", "slide-row", "slide-col")),
                          st.tuples(_fractions | st.integers(),
                                    _fractions | st.integers())),
                max_size=6))
def test_moves_array_matches_dumps(moves):
    # as cmd_solve writes a MinNum plan: moves, then the solution, last
    sol = Solution({sid: xy for sid, _, xy in moves})
    out = {"problem": "minnum", "moved": len(moves)}
    assert serialize.dumps(out, {
        "moves": serialize.moves_array(moves),
        "solution": serialize.write_solution(sol)}) == _encoded({
            **out, "moves": [{"id": sid, "kind": kind, "to": [str(x), str(y)]}
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


def test_write_meta_of_minmax_gadgets_matches_dumps():
    rng = random.Random(25)
    for n in (3, 3, 6, 6, 9, 12):
        _, meta = gen_minmax(gen_vh(random_sat22(rng, n))[0])
        assert serialize.write_meta(meta) == _encoded({
            "kind": "minmax",
            "vh": reference_instance_obj(meta.vh),
            "padded": reference_instance_obj(meta.padded),
            "dx": meta.dx, "dy": meta.dy,
            "v_ids": list(meta.v_ids), "h_ids": list(meta.h_ids)})
