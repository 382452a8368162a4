from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brutes import reflect_x, reflect_y, transpose, transpose_solution
from wcr import serialize
from wcr.core import (Configuration, Sensor, Solution, distance, int_gaps,
                      is_blocking, rat, rat_str, solution_costs, to_ints)
from wcr.errors import ParseError, ValidationError

F = Fraction
H = F(1, 2)


def grid(a, b, cells, metric="manhattan"):
    sensors = tuple(Sensor(id=i, x=F(x), y=F(y), range=H)
                    for i, (x, y) in enumerate(cells, start=1))
    return Configuration(width=F(a), height=F(b), sensors=sensors,
                         mode="integer", metric=metric)


# -- rationals ---------------------------------------------------------------

def test_rat_parsing():
    assert rat("3/7") == F(3, 7)
    assert rat("2") == F(2)
    assert rat(-5) == F(-5)
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(4, 2)) == "2"


@given(st.fractions())
def test_rat_str_roundtrip(q):
    assert rat(rat_str(q)) == q


def test_rat_rejects_floats():
    with pytest.raises(ValidationError):
        rat(0.5)
    with pytest.raises(ValidationError):
        rat(True)


# -- configuration validation ------------------------------------------------

def test_integer_mode_constraints():
    grid(3, 3, [(1, 1), (3, 2)])  # fine
    with pytest.raises(ValidationError):
        grid(3, 3, [(0, 1)])      # off-grid
    with pytest.raises(ValidationError):
        Configuration(width=F(5, 2), height=F(3),
                      sensors=(Sensor(1, F(1), F(1), H),),
                      mode="integer", metric="manhattan")
    with pytest.raises(ValidationError):
        Configuration(width=F(3), height=F(3),
                      sensors=(Sensor(1, F(1), F(1), F(1)),),
                      mode="integer", metric="manhattan")


def test_duplicate_ids_rejected():
    sensors = (Sensor(1, F(1), F(1), H), Sensor(1, F(2), F(2), H))
    with pytest.raises(ValidationError):
        Configuration(width=F(3), height=F(3), sensors=sensors,
                      mode="integer", metric="manhattan")


def test_sensors_kept_in_id_order():
    sensors = [Sensor(i, F(x), F(y), H)
               for i, x, y in [(4, 1, 2), (0, 3, 1), (7, 2, 3), (2, 2, 2)]]
    given = Configuration(F(3), F(3), tuple(sensors), "integer", "manhattan")
    shuffled = Configuration(F(3), F(3), tuple(reversed(sensors)),
                             "integer", "manhattan")
    assert given == shuffled
    assert [s.id for s in given.sensors] == [0, 2, 4, 7]


def test_continuous_mode_extent():
    s = Sensor(1, F(1, 3), F(5, 2), F(1))
    Configuration(width=F(4), height=F(4), sensors=(s,),
                  mode="continuous", metric="manhattan")
    with pytest.raises(ValidationError):
        Configuration(width=F(4), height=F(2), sensors=(s,),
                      mode="continuous", metric="manhattan")


# -- interval sweep ----------------------------------------------------------
# int_gaps is the sweep the continuous is_blocking runs on each axis,
# scaled to ints; tests/brutes.py keeps the Fraction sweep it replaced.

def test_interval_gaps_basic():
    assert int_gaps([(0, 1), (2, 3)], 0, 3) == [(1, 2)]
    # touching endpoints close the gap
    assert int_gaps([(0, 1), (1, 3)], 0, 3) == []
    assert not int_gaps([(0, 2), (1, 3)], 0, 3)


def test_interval_gaps_empty_input():
    assert int_gaps([], 0, 2) == [(0, 2)]


@st.composite
def intervals_and_window(draw):
    ints = st.integers(min_value=-40, max_value=40)
    n = draw(st.integers(min_value=0, max_value=6))
    ivs = []
    for _ in range(n):
        a, b = sorted((draw(ints), draw(ints)))
        ivs.append((a, b))
    lo, hi = sorted((draw(ints), draw(ints)))
    return ivs, lo, hi


@given(intervals_and_window())
def test_interval_gaps_match_point_samples(data):
    ivs, lo, hi = data
    gaps = int_gaps(ivs, lo, hi)
    # gaps are disjoint, ordered, inside the window
    for (a, b), nxt in zip(gaps, gaps[1:] + [(hi, hi)]):
        assert lo <= a < b <= hi
        assert b <= nxt[0]
    # sample ends and midpoints of gaps and of the claimed-covered rest
    probe = {lo, hi}
    for a, b in list(ivs) + list(gaps):
        probe |= {a, b, F(a + b, 2)}
    for p in probe:
        if not lo <= p <= hi:
            continue
        in_gap = any(a < p < b for a, b in gaps)
        covered = any(a <= p <= b for a, b in ivs)
        if in_gap:
            assert not covered
        # gap endpoints may touch coverage; strict interior may not
        if not covered and lo < p < hi:
            assert any(a <= p <= b for a, b in gaps)


@given(intervals_and_window(), st.integers(min_value=-30, max_value=30))
def test_interval_gaps_translation_equivariant(data, t):
    ivs, lo, hi = data
    shifted = [(a + t, b + t) for a, b in ivs]
    assert int_gaps(shifted, lo + t, hi + t) == [
        (a + t, b + t) for a, b in int_gaps(ivs, lo, hi)]


# -- blocking ----------------------------------------------------------------

def test_is_blocking_integer():
    assert is_blocking(grid(1, 1, [(1, 1)])).blocking
    rep = is_blocking(grid(3, 3, [(1, 1), (2, 1), (1, 2)]))
    assert not rep.blocking
    assert rep.x_gaps == (3,) and rep.y_gaps == (3,)
    assert is_blocking(grid(3, 3, [(1, 1), (2, 2), (3, 3)])).blocking


def test_is_blocking_with_solution():
    cfg = grid(2, 2, [(1, 1), (1, 2)])
    assert not is_blocking(cfg).blocking
    sol = Solution({1: (F(1), F(1)), 2: (F(2), F(2))})
    assert is_blocking(cfg, sol).blocking


def test_is_blocking_continuous():
    s = [Sensor(1, F(1), F(1), F(1)), Sensor(2, F(3), F(1), F(1))]
    cfg = Configuration(width=F(4), height=F(2), sensors=tuple(s),
                        mode="continuous", metric="manhattan")
    rep = is_blocking(cfg)
    assert rep.blocking          # projections touch at x = 2, closed cover
    assert rep.x_gaps == () and rep.y_gaps == ()
    narrower = Configuration(width=F(9, 2), height=F(2),
                             sensors=cfg.sensors, mode="continuous",
                             metric="manhattan")
    rep2 = is_blocking(narrower)
    assert not rep2.blocking and rep2.x_gaps == ((F(4), F(9, 2)),)


# -- costs -------------------------------------------------------------------

def test_costs_manhattan():
    cfg = grid(3, 3, [(1, 1), (2, 2)])
    sol = Solution({1: (F(3), F(1)), 2: (F(2), F(2))})
    rep = solution_costs(cfg, sol)
    assert rep.moved == 1
    assert rep.sum_cost == F(2)
    assert rep.max_cost == F(2)


def test_costs_euclidean_interval():
    cfg = grid(3, 3, [(1, 1), (2, 2)], metric="euclidean")
    sol = Solution({1: (F(2), F(2)), 2: (F(2), F(2))})
    rep = solution_costs(cfg, sol)
    assert rep.max_squared == F(2)
    assert rep.max_low < rep.max_high          # sqrt(2) is irrational
    assert rep.max_high - rep.max_low <= F(1, 10 ** 9)
    assert rep.max_low ** 2 <= F(2) <= rep.max_high ** 2
    with pytest.raises(ValidationError):
        rep.max_cost


@pytest.mark.parametrize("k", [30, 200])
def test_costs_euclidean_sum_enclosure_of_many_moves(k):
    # k diagonal unit moves: the sum is k * sqrt(2), known only as an
    # interval whose width must stay within 1e-9 whatever k is
    cfg = grid(k + 1, 2, [(x, 1) for x in range(1, k + 1)],
               metric="euclidean")
    sol = Solution({i: (F(i + 1), F(2)) for i in range(1, k + 1)})
    rep = solution_costs(cfg, sol)
    assert rep.sum_low ** 2 <= 2 * k * k <= rep.sum_high ** 2
    assert 0 < rep.sum_high - rep.sum_low <= F(1, 10 ** 9)


def test_costs_euclidean_perfect_square():
    cfg = grid(5, 5, [(1, 1)], metric="euclidean")
    sol = Solution({1: (F(4), F(5))})       # 3-4-5 triangle
    rep = solution_costs(cfg, sol)
    assert rep.max_low == rep.max_high == F(5)
    assert rep.sum_low <= F(5) <= rep.sum_high
    assert rep.sum_high - rep.sum_low <= F(1, 10 ** 9)


def test_distance_keys():
    assert distance("manhattan", (F(0), F(0)), (F(1), F(2))) == F(3)
    assert distance("euclidean", (F(0), F(0)), (F(1), F(2))) == F(5)


def test_to_ints_keeps_ints_at_scale_1():
    values = [3, -7, 0, 10**30]
    assert to_ints(values) == to_ints(iter(values)) == (1, values)
    assert to_ints([]) == (1, [])
    # a Fraction in the mix takes the lcm, an integral one scale 1
    assert to_ints([2, F(1, 6), -1, F(3, 4)]) == (12, [24, 2, -12, 9])
    assert to_ints([F(4), 5]) == (1, [4, 5])
    # bool is not int: it takes the ratios and comes back as an int
    D, ints = to_ints([True, False])
    assert (D, ints) == (1, [1, 0]) and {*map(type, ints)} == {int}


# -- transforms --------------------------------------------------------------

def test_transforms_preserve_blocking():
    cfg = grid(3, 2, [(1, 1), (2, 2), (3, 1)])
    base = is_blocking(cfg).blocking
    assert is_blocking(transpose(cfg)).blocking == base
    assert is_blocking(reflect_x(cfg)).blocking == base
    assert is_blocking(reflect_y(cfg)).blocking == base
    assert transpose(transpose(cfg)) == cfg
    assert reflect_x(reflect_x(cfg)) == cfg
    assert reflect_y(reflect_y(cfg)) == cfg


def test_transpose_solution():
    sol = Solution({1: (F(2), F(5))})
    assert transpose_solution(sol).positions[1] == (F(5), F(2))


def test_identity_solution_costs_nothing():
    cfg = grid(4, 4, [(1, 3), (2, 2)])
    rep = solution_costs(cfg, Solution({s.id: (s.x, s.y)
                                        for s in cfg.sensors}))
    assert rep.moved == 0 and rep.sum_cost == 0 and rep.max_cost == 0


# -- serialization -----------------------------------------------------------

def test_config_roundtrip():
    cfg = grid(3, 2, [(1, 1), (3, 2)], metric="euclidean")
    assert serialize.read_instance(serialize.write_instance(cfg)) == cfg


def test_solution_roundtrip_fractions():
    sol = Solution({7: (F(1, 2), F(5, 3)), 2: (F(4), F(1))})
    again = serialize.read_solution(serialize.write_solution(sol))
    assert dict(again.positions) == dict(sol.positions)


def test_parse_errors_carry_paths():
    with pytest.raises(ParseError, match=r"\$\.rect"):
        serialize.read_instance('{"mode": "integer", "sensors": []}')
    with pytest.raises(ParseError):
        serialize.read_instance("not json")
    bad = {"mode": "integer", "metric": "manhattan",
           "rect": {"width": 2, "height": 2},
           "sensors": [{"id": 1, "x": "1/0", "y": 1, "range": "1/2"}]}
    with pytest.raises(ParseError, match=r"\$\.sensors\[0\]\.x"):
        serialize.config_from_obj(bad)


def test_vh_instance_roundtrip():
    from wcr.minmax import VHInstance
    cfg = grid(3, 3, [(1, 1), (2, 2)])
    inst = VHInstance(cfg, frozenset({2}), frozenset({1, 3}), F(1))
    # dispatch picks the line-blocking reader
    assert serialize.read_instance(serialize.write_instance(inst)) == inst


def test_write_solution_sorted_and_stable():
    sol = Solution({3: (F(1), F(1)), 1: (F(2), F(2))})
    text = serialize.write_solution(sol)
    assert text.index('"id": 1') < text.index('"id": 3')
    assert text == serialize.write_solution(
        serialize.read_solution(text))
