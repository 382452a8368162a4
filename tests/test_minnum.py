import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brutes import (brute_max_free_set_size, certified_free_set_size,
                    reference_build_free_graph, reference_classify,
                    reference_max_free_set, reference_solve_minnum,
                    transpose)
from wcr.core import Configuration, Sensor, is_blocking, solution_costs
from wcr.errors import SizeLimit
from wcr.minnum import (TYPE0, TYPE1, TYPE2, TYPE3, TYPE4, brute_minnum,
                        build_free_graph, classify, max_free_set,
                        solve_minnum)
from wcr.oracle import random_minnum_instance

F = Fraction
H = F(1, 2)


def grid(a, b, cells):
    sensors = tuple(Sensor(id=i, x=F(x), y=F(y), range=H)
                    for i, (x, y) in enumerate(cells, start=1))
    return Configuration(width=F(a), height=F(b), sensors=sensors,
                         mode="integer", metric="manhattan")


def test_classify_corner_example():
    cfg = grid(3, 3, [(1, 1), (2, 1), (1, 2)])
    assert classify(cfg) == {1: TYPE2, 2: TYPE1, 3: TYPE1}


def test_classify_alone():
    assert classify(grid(2, 2, [(1, 1)])) == {1: TYPE0}
    # row-mate only: each is type-1
    assert classify(grid(2, 2, [(1, 1), (2, 1)])) == {1: TYPE1, 2: TYPE1}


def test_classify_type3_type4():
    # sensors 1,2 share a row; 3 shares a column with 1 and is otherwise
    # alone in its row except for 4, which pairs with it
    cfg = grid(4, 4, [(1, 1), (2, 1), (1, 2), (2, 2)])
    types = classify(cfg)
    assert all(t == TYPE4 for t in types.values())
    cfg2 = grid(4, 4, [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    types2 = classify(cfg2)
    assert types2[3] == TYPE1          # alone in its column
    assert types2[4] == types2[5] == TYPE4
    # a free sensor whose column holds only free sensors -> type 3
    cfg3 = grid(4, 4, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    assert set(classify(cfg3).values()) <= {TYPE3, TYPE4}


def random_cells(rng, a, b):
    return [(rng.randint(1, a), rng.randint(1, b))
            for _ in range(rng.randint(0, 20))]


def test_classify_matches_reference_on_seeded_grids():
    rng = random.Random(2026)
    for _ in range(3000):
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        cfg = grid(a, b, random_cells(rng, a, b))
        assert classify(cfg) == reference_classify(cfg)
    for k in range(1, 8):  # single rows and single columns
        for a, b in ((1, k), (k, 1)):
            for _ in range(20):
                cfg = grid(a, b, random_cells(rng, a, b))
                assert classify(cfg) == reference_classify(cfg)


@st.composite
def sparse_grids(draw):
    """Up to 20 sensors, possibly stacked, on a grid of side 1-7 whose
    rows and columns may stay empty."""
    a, b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = draw(st.lists(st.tuples(st.integers(1, a), st.integers(1, b)),
                          max_size=20))
    return grid(a, b, cells)


@settings(max_examples=300, deadline=None)
@given(sparse_grids())
def test_classify_matches_reference(cfg):
    assert classify(cfg) == reference_classify(cfg)


def test_gaps():
    rep = is_blocking(grid(3, 3, [(1, 1), (2, 1), (1, 2)]))
    assert rep.y_gaps == (3,) and rep.x_gaps == (3,)


def test_free_graph_structure():
    cfg = grid(3, 3, [(1, 1), (2, 1), (1, 2)])
    g, legend = build_free_graph(cfg)
    kinds = {entry[0] for entry in legend}
    assert "x" in kinds and "y" in kinds
    assert any(lbl is None for _, _, lbl in g.edges)  # the hub edge


def test_max_free_set_example():
    cfg = grid(3, 3, [(1, 1), (2, 1), (1, 2)])
    assert max_free_set(cfg) == frozenset({1})


def test_max_free_set_vs_brute():
    rng = random.Random(42)
    for _ in range(150):
        cfg = random_minnum_instance(rng)
        assert len(max_free_set(cfg)) == brute_max_free_set_size(cfg)


def test_solve_corner_example():
    cfg = grid(3, 3, [(1, 1), (2, 1), (1, 2)])
    plan = solve_minnum(cfg)
    assert plan.moved == 1 == brute_minnum(cfg)
    assert plan.moves == ((1, "jump", (F(3), F(3))),)
    assert is_blocking(cfg, plan.solution).blocking


def test_solve_formula_and_blocking():
    rng = random.Random(9)
    for _ in range(200):
        cfg = random_minnum_instance(rng)
        plan = solve_minnum(cfg)
        rep = is_blocking(cfg)
        r, c = sorted((len(rep.y_gaps), len(rep.x_gaps)), reverse=True)
        k = plan.k
        assert plan.moved == (r if k >= c else r + c - k)
        assert is_blocking(cfg, plan.solution).blocking
        assert solution_costs(cfg, plan.solution).moved == plan.moved


def test_solve_matches_brute():
    rng = random.Random(30)
    for _ in range(150):
        cfg = random_minnum_instance(rng, max_grid=5, max_n=9)
        assert solve_minnum(cfg).moved == brute_minnum(cfg)


INTS = [F(i) for i in range(41)]


def seeded_grid(rng, a, b, n, shape):
    """n sensors with distinct ids drawn from 0..3n on an a x b grid:
    uniform, blocking before any move, or all on one cell."""
    if shape == "uniform":
        cells = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
    elif shape == "blocking":  # a sensor on every line, the rest uniform
        cells = [(i % a + 1, i % b + 1) for i in range(max(a, b))] + \
            [(rng.randint(1, a), rng.randint(1, b))
             for _ in range(n - max(a, b))]
    else:
        cells = [(rng.randint(1, a), rng.randint(1, b))] * n
    ids = rng.sample(range(3 * n + 1), n)
    return Configuration(
        width=F(a), height=F(b), mode="integer", metric="manhattan",
        sensors=tuple(Sensor(sid, INTS[x], INTS[y], H)
                      for sid, (x, y) in zip(ids, cells)))


def test_planner_matches_reference_on_seeded_grids():
    """The whole plan, the free set and the free graph against the
    Fraction planner that re-solves the transposed configuration."""
    rng = random.Random(15)
    shapes = ["uniform"] * 8 + ["blocking", "one-cell"]
    swapped = 0
    grids = 3000
    for i in range(grids):
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        n = rng.randint(max(a, b), 4 * max(a, b))
        cfg = seeded_grid(rng, a, b, n, shapes[i % len(shapes)])
        report = is_blocking(cfg)
        swapped += len(report.y_gaps) < len(report.x_gaps)
        assert solve_minnum(cfg) == reference_solve_minnum(cfg)
        if i % 7 == 0:  # the public wrappers, in the given orientation
            assert build_free_graph(cfg) == reference_build_free_graph(cfg)
            assert max_free_set(cfg) == reference_max_free_set(cfg)
        if shapes[i % len(shapes)] == "blocking":
            assert report.blocking
    assert swapped >= grids // 3


def test_certified_free_set_size_matches_brute():
    rng = random.Random(16)
    for _ in range(300):
        cfg = random_minnum_instance(rng, max_grid=5, max_n=9)
        assert certified_free_set_size(cfg) == brute_max_free_set_size(cfg)


def test_free_set_size_certified_at_grid_scale():
    """solve_minnum's k against the certificate, which shares no code
    with the blossom, up to the 400 x 400 grids of 800 sensors that the
    minnum-grid benchmark solves."""
    rng = random.Random(29)
    for i in range(30):
        side = 400 if i < 2 else rng.randint(20, 400)
        n = side * (1 + i % 2)
        cfg = grid(side, side, [(rng.randint(1, side), rng.randint(1, side))
                                for _ in range(n)])
        assert solve_minnum(cfg).k == certified_free_set_size(cfg)


def test_transpose_symmetry():
    rng = random.Random(77)
    for _ in range(80):
        cfg = random_minnum_instance(rng, max_grid=5, max_n=8)
        assert solve_minnum(cfg).moved == solve_minnum(transpose(cfg)).moved


def test_already_blocking_moves_nothing():
    cfg = grid(2, 2, [(1, 1), (2, 2)])
    plan = solve_minnum(cfg)
    assert plan.moved == 0 and plan.moves == ()


def test_brute_size_limit():
    cells = [(x, y) for x in range(1, 5) for y in range(1, 5)]
    with pytest.raises(SizeLimit):
        brute_minnum(grid(5, 5, cells[:15]))
