import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from brutes import (random_sat22, reference_decide_vh,
                    reference_lines_blocked, reference_verify_vh, within)
from wcr import minmax
from wcr.core import Configuration, Sensor, Solution, budget_key, \
    is_blocking, solution_costs
from wcr.errors import SearchLimit, SizeLimit, ValidationError
from wcr.minmax import (VHInstance, decide_vh, full_lines, lines_blocked,
                        move_domain, oracle_minmax,
                        solve_minmax, verify_vh)
from wcr.oracle import random_integer_config, random_vh_instance
from wcr.reductions import gen_vh

F = Fraction
H = F(1, 2)


def grid(a, b, cells, metric="manhattan"):
    sensors = tuple(Sensor(id=i, x=F(x), y=F(y), range=H)
                    for i, (x, y) in enumerate(cells, start=1))
    return Configuration(width=F(a), height=F(b), sensors=sensors,
                         mode="integer", metric=metric)


def vh(cfg, v, h, d):
    return VHInstance(cfg, frozenset(v), frozenset(h), F(d))


def test_full_lines():
    v, h = full_lines(grid(3, 2, [(1, 1)]))
    assert v == frozenset({1, 2, 3}) and h == frozenset({1, 2})


def test_move_domain_sorted_by_distance():
    cfg = grid(3, 3, [(2, 2)])
    dom = move_domain(cfg, (2, 2), budget_key("manhattan", F(1)))
    assert dom == ((0, 2, 2), (1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2))


MOVE_BUDGETS = (F(0), H, F(1), F(3, 2), F(7, 5), F(99, 70), F(141, 100),
                F(5, 2))  # 99/70 and 141/100 sit just either side of sqrt 2


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_move_domain_matches_fraction_scan(metric):
    """move_domain equals a scan of the whole grid that tests each cell
    with the Fraction within, keyed by its own length formula, on
    homes at the corners, on the edges and inside grids from 1x1 to
    9x7 and on 1 x b and a x 1 strips, at fractional budgets and at
    budgets that reach past the grid's far corner."""
    rng = random.Random(18)
    shapes = [(1, 1), (9, 7), (1, 9), (8, 1)] + \
        [(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(10)]
    checked = 0
    for a, b in shapes:
        homes = {(1, 1), (a, 1), (1, b), (a, b), (rng.randint(1, a), 1),
                 (1, rng.randint(1, b)), (a, rng.randint(1, b)),
                 (rng.randint(1, a), b),
                 (rng.randint(1, a), rng.randint(1, b))}
        corner = a + b - 2  # the Manhattan length of the grid's diagonal
        far = (F(corner), F(corner + 1), F(2 * corner + 3, 2), F(4 * corner))
        for home in sorted(homes):
            cfg = grid(a, b, [home], metric)
            for d in MOVE_BUDGETS + far:
                dx_dy = [(x, y, abs(x - home[0]), abs(y - home[1]))
                         for x in range(1, a + 1) for y in range(1, b + 1)
                         if within(metric, home, (x, y), d)]
                expected = sorted(
                    (dx + dy if metric == "manhattan" else dx * dx + dy * dy,
                     x, y) for x, y, dx, dy in dx_dy)
                got = move_domain(cfg, home, budget_key(metric, d))
                assert list(got) == expected, (a, b, home, d)
                checked += 1
                if d >= corner:  # every cell is in reach
                    assert len(got) == a * b, (a, b, home, d)
    assert checked > 14 * 12


def test_budget_key_is_the_floor_per_metric():
    assert [budget_key("manhattan", d) for d in MOVE_BUDGETS] == \
        [0, 0, 1, 1, 1, 1, 1, 2]
    assert [budget_key("euclidean", d) for d in MOVE_BUDGETS] == \
        [0, 0, 1, 2, 1, 2, 1, 6]


def test_lines_blocked_unions():
    # two sensors half a line apart jointly block the line between them
    pos = [(F(3, 2), F(1)), (F(5, 2), F(1))]
    v, h = lines_blocked(pos, {2}, {1})
    assert v == {2} and h == {1}
    v, _ = lines_blocked([(F(3, 2), F(1))], {2}, set())
    assert v == set()


coords = st.builds(F, st.integers(0, 36), st.sampled_from([1, 2, 3, 4]))
lines = st.frozensets(st.integers(1, 8))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(coords, coords), max_size=8), lines, lines)
def test_lines_blocked_matches_reference(pos, v, h):
    assert lines_blocked(pos, v, h) == reference_lines_blocked(pos, v, h)


def test_lines_blocked_at_touching_gaps():
    # a gap that ends exactly at i - 1/2 or starts at i + 1/2 leaves
    # line i blocked; one reaching past either end does not
    pos = [(F(2), F(2)), (F(4), F(4)), (F(11, 2), F(6))]
    v, h = lines_blocked(pos, {1, 2, 3, 4, 5, 6}, {2, 3, 4, 6})
    assert v == {2, 4} and h == {2, 4, 6}
    assert (v, h) == reference_lines_blocked(pos, {1, 2, 3, 4, 5, 6},
                                             {2, 3, 4, 6})


def test_decide_trivial_and_infeasible():
    cfg = grid(2, 2, [(1, 1), (1, 2)])
    ok, wit = decide_vh(vh(cfg, {1, 2}, {1, 2}, 1))
    assert ok and verify_vh(vh(cfg, {1, 2}, {1, 2}, 1), dict(wit.positions))
    ok0, wit0 = decide_vh(vh(cfg, {1, 2}, {1, 2}, 0))
    assert not ok0 and wit0 is None


def test_decide_monotone_in_budget():
    rng = random.Random(13)
    for _ in range(100):
        inst = random_vh_instance(rng)
        ok, _ = decide_vh(inst)
        bigger = VHInstance(inst.config, inst.v_lines, inst.h_lines,
                            inst.max_move + 1)
        ok2, _ = decide_vh(bigger)
        assert ok2 or not ok


EUCLIDEAN_BUDGETS = (F(7, 5), F(99, 70), F(141, 100), F(3, 2), F(2),
                     F(11, 5), F(9, 4))  # either side of sqrt 2 and sqrt 5


def test_decide_matches_oracle():
    """On random Manhattan instances, and on Euclidean ones at budgets
    whose square's floor (the key) and floor (the reach along an axis)
    part ways: the oracle finds its reach from the budget itself."""
    rng = random.Random(21)
    for _ in range(150):
        inst = random_vh_instance(rng)
        assert decide_vh(inst)[0] == oracle_minmax(inst)
    answers = set()
    for i in range(350):
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        cfg = random_integer_config(rng, a, b, rng.randint(1, 4), "euclidean")
        inst = VHInstance(
            cfg, frozenset(x for x in range(1, a + 1) if rng.random() < 0.5),
            frozenset(y for y in range(1, b + 1) if rng.random() < 0.5),
            EUCLIDEAN_BUDGETS[i % len(EUCLIDEAN_BUDGETS)])
        got = decide_vh(inst)[0]
        assert got == oracle_minmax(inst), inst
        answers.add(got)
    assert answers == {True, False}


def run(decide, inst, budget=None):
    """decide's result as comparable data: the witness positions, or
    the node count, key and unsatisfied line count SearchLimit gave."""
    try:
        ok, wit = decide(inst, budget)
    except SearchLimit as e:
        return "limit", e.nodes, e.key, e.unsatisfied
    return ok, wit and dict(wit.positions)


def nodes_explored(decide, inst) -> int:
    """Least node budget under which decide finishes (budget 0 never
    does: the root is node 1)."""
    lo, hi = 0, 1
    while run(decide, inst, hi)[0] == "limit":
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run(decide, inst, mid)[0] == "limit":
            lo = mid
        else:
            hi = mid
    return hi


def seeded_vh_instances(seed: int, count: int):
    """Random line sets on random grids, alternating with all lines of
    an a x a grid and a sensors crowded into one corner, whose searches
    backtrack (up to a few hundred nodes)."""
    rng = random.Random(seed)
    for i in range(count):
        metric = ("manhattan", "euclidean")[i % 2]
        if i % 4 < 2:
            a, b = rng.randint(1, 7), rng.randint(1, 7)
            cfg = random_integer_config(rng, a, b, rng.randint(1, 9), metric)
            density = rng.choice([0.3, 0.7, 1.0])
            v = frozenset(x for x in range(1, a + 1) if rng.random() < density)
            h = frozenset(y for y in range(1, b + 1) if rng.random() < density)
            d = rng.choice([F(0), F(1), F(3, 2), F(2)])
        else:
            a = b = rng.randint(4, 6)
            corner = rng.randint(2, 4)
            cfg = grid(a, a, [(rng.randint(1, corner), rng.randint(1, corner))
                              for _ in range(a)], metric)
            v, h = full_lines(cfg)
            d = rng.choice([F(2), F(5, 2), F(3)])
        yield VHInstance(cfg, v, h, d)


def check_reference_search(inst, budgets=()):
    """decide_vh against the reference search: the same answer and
    witness within no more nodes, and under each budget (and one node
    short of the reference) a SearchLimit, at the same node and key,
    only where the reference hits one too."""
    full = run(reference_decide_vh, inst)
    assert run(decide_vh, inst) == full
    nodes = nodes_explored(reference_decide_vh, inst)
    assert nodes_explored(decide_vh, inst) <= nodes
    for budget in (*budgets, nodes - 1):
        ref = run(reference_decide_vh, inst, budget)
        if budget < nodes:
            assert ref[:2] == ("limit", budget + 1)
        got = run(decide_vh, inst, budget)
        assert got == full or got[:3] == ref[:3]


def test_decide_matches_reference_search():
    for inst in seeded_vh_instances(seed=31, count=300):
        check_reference_search(inst, (0, 1, 2, 3, 5, 8, 13))


def test_decide_matches_reference_on_gadgets():
    rng = random.Random(41)
    for _ in range(4):
        check_reference_search(gen_vh(random_sat22(rng, 3))[0])


def test_verify_rejections():
    cfg = grid(2, 2, [(1, 1), (1, 2)])
    inst = vh(cfg, {1, 2}, {1, 2}, 1)
    good = {1: (F(1), F(1)), 2: (F(2), F(2))}
    assert verify_vh(inst, good)
    assert not verify_vh(inst, {1: (F(1), F(1)), 2: (F(2), F(1))})  # line
    assert not verify_vh(inst, {1: (F(1), F(1)), 2: (F(2), F(3))})  # budget
    assert not verify_vh(inst, {1: (F(1), F(1))})                   # ids
    frac = {1: (F(1), F(1)), 2: (F(2), F(3, 2))}
    assert not verify_vh(inst, frac)
    assert not verify_vh(inst, frac, require_integer=False)         # budget


def _verify_case(rng):
    """A line-blocking instance under either metric with a budget of
    denominator d, and positions for its sensors: at home, on or just
    off the grid, at multiples of 1/2d (the rectangle's edges and just
    past them), or moved the budget or the budget plus 1/d along one
    axis; sometimes with one id missing or one extra."""
    a, b, d = rng.randint(1, 5), rng.randint(1, 5), rng.choice([1, 2, 3])
    cfg = Configuration(
        width=F(a), height=F(b), mode="integer",
        metric=rng.choice(["manhattan", "euclidean"]),
        sensors=tuple(Sensor(i, F(rng.randint(1, a)), F(rng.randint(1, b)),
                             H) for i in range(rng.randint(1, 6))))
    budget = F(rng.randint(0, 3 * d), d)
    inst = VHInstance(cfg, frozenset(rng.sample(range(1, a + 1),
                                                rng.randint(0, min(a, 2)))),
                      frozenset(rng.sample(range(1, b + 1),
                                           rng.randint(0, min(b, 2)))),
                      budget)
    positions = {}
    for s in cfg.sensors:
        kind = rng.randrange(4)
        if kind == 0:
            p = (s.x, s.y)
        elif kind == 1:
            p = (F(rng.randint(0, a + 1)), F(rng.randint(0, b + 1)))
        elif kind == 2:
            p = (F(rng.randint(0, 2 * d * (a + 1)), 2 * d),
                 F(rng.randint(0, 2 * d * (b + 1)), 2 * d))
        else:
            step = budget + rng.choice([0, F(1, d)])
            p = rng.choice([(s.x + step, s.y), (s.x - step, s.y),
                            (s.x, s.y + step), (s.x, s.y - step)])
        positions[s.id] = p
    if rng.random() < 0.1:
        del positions[0]
    elif rng.random() < 0.1:
        positions[len(cfg.sensors)] = (F(1), F(1))
    return inst, positions


def test_verify_vh_matches_reference_on_seeded_cases():
    rng = random.Random(1414)
    seen = set()
    for _ in range(3000):
        inst, positions = _verify_case(rng)
        for require_integer in (True, False):
            got = verify_vh(inst, positions, require_integer=require_integer)
            assert got == reference_verify_vh(
                inst, positions, require_integer=require_integer), \
                (inst, positions, require_integer)
            seen.add((require_integer, got))
    assert len(seen) == 4  # both answers, with and without the grid check


def test_search_limit():
    cfg = grid(4, 4, [(x, y) for x in (1, 2, 3) for y in (1, 2)
                      ][:6])
    inst = vh(cfg, {1, 2, 3, 4}, {1, 2, 3, 4}, 2)
    # the second node, one sensor committed, blocks two of the 8 lines
    with pytest.raises(SearchLimit, match="after 2 nodes, at key 2 with 6 "
                                          "lines unblocked") as info:
        decide_vh(inst, budget=1)
    assert (info.value.nodes, info.value.key, info.value.unsatisfied) == \
        (2, 2, 6)


def test_scan_limit_counts_clipped_boxes(monkeypatch):
    # budget boxes clipped to the 3 x 3 grid: 4 cells at the corner and
    # 9 at the centre; the limit admits a count equal to it
    inst = vh(grid(3, 3, [(1, 1), (2, 2)]), {1}, {1}, 1)
    monkeypatch.setattr(minmax, "SCAN_LIMIT", 13)
    assert decide_vh(inst)[0]
    monkeypatch.setattr(minmax, "SCAN_LIMIT", 12)
    with pytest.raises(SizeLimit, match="would scan 13 grid cells, past 12"):
        decide_vh(inst)


def test_diagonal_of_side_1000_solves_at_key_0():
    # 1000 sensors already blocking a 1000 x 1000 grid: the bound is 0,
    # the first probe a yes, its search 1000 commitments deep
    cells = [(i, i) for i in range(1, 1001)]
    cfg = grid(1000, 1000, cells)
    start = time.perf_counter()
    res = solve_minmax(cfg)
    assert time.perf_counter() - start < 1
    assert res.value == 0 and res.value_squared == 0
    assert res.solution.positions == {i: (F(x), F(y))
                                      for i, (x, y) in enumerate(cells, 1)}


def test_diagonal_of_side_5000_solves_in_linear_time():
    # each of the 5000 forced nodes costs the lines its sensor touches,
    # not a pass over the up to 10000 lines still unblocked
    cells = [(i, i) for i in range(1, 5001)]
    cfg = grid(5000, 5000, cells)
    start = time.perf_counter()
    res = solve_minmax(cfg)
    assert time.perf_counter() - start < 0.8
    assert res.value_squared == 0
    assert res.solution.positions == {i: (F(x), F(y))
                                      for i, (x, y) in enumerate(cells, 1)}


def test_solve_examples():
    res = solve_minmax(grid(2, 2, [(1, 1), (1, 2)]))
    assert res.value == F(1)
    sol_costs = solution_costs(grid(2, 2, [(1, 1), (1, 2)]), res.solution)
    assert sol_costs.max_cost == F(1)
    assert is_blocking(grid(2, 2, [(1, 1), (1, 2)]), res.solution).blocking
    res3 = solve_minmax(grid(3, 3, [(1, 1), (1, 2), (1, 3)]))
    assert res3.value == F(2)


def test_solve_zero_when_blocking():
    res = solve_minmax(grid(2, 2, [(1, 1), (2, 2)]))
    assert res.value == 0 and res.value_squared == 0


def test_solve_euclidean_squared():
    cfg = grid(3, 3, [(1, 1), (1, 2), (2, 1)], metric="euclidean")
    res = solve_minmax(cfg)
    man = solve_minmax(grid(3, 3, [(1, 1), (1, 2), (2, 1)]))
    # the three sensors must spread onto a permutation pattern; the
    # diagonal step costs 2 manhattan but only sqrt(2) euclidean
    assert man.value == F(2)
    assert res.value_squared == F(2) and res.value is None
    rep = solution_costs(cfg, res.solution)
    assert rep.max_squared == res.value_squared
    assert is_blocking(cfg, res.solution).blocking


def oracle_key(cfg) -> tuple[int, VHInstance]:
    """The least key at which oracle_minmax blocks every line, and its
    instance, scanning 0, 1, 2, ... with budgets of its own: the key
    under Manhattan, and under Euclidean the rational
    (isqrt(key s^2) + 1) / s for s = 4 key + 4, just above sqrt(key)
    and below sqrt(key + 1)."""
    v, h = full_lines(cfg)
    key = 0
    while True:
        s = 4 * key + 4
        d = F(key) if cfg.metric == "manhattan" else \
            F(isqrt(key * s * s) + 1, s)
        if oracle_minmax(inst := VHInstance(cfg, v, h, d)):
            return key, inst
        key += 1


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_solve_matches_an_ascending_oracle_scan(metric):
    """solve_minmax against oracle_minmax at every key from 0 up, on
    seeded grids up to 4 x 4, two thirds of them with the sensors
    crowded into a corner so that optima need long moves."""
    rng = random.Random(2001)
    optima = set()
    for i in range(150):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        n = rng.randint(max(a, b), 5)
        corner = (1, 2, 4)[i % 3]
        cells = [(rng.randint(1, min(a, corner)),
                  rng.randint(1, min(b, corner))) for _ in range(n)]
        cfg = grid(a, b, cells, metric)
        res = solve_minmax(cfg)
        key, inst = oracle_key(cfg)
        assert res.value_squared == (key * key if metric == "manhattan"
                                     else key), cfg
        # the witness is decide_vh's at the optimum's budget
        assert res.solution == decide_vh(inst)[1], cfg
        costs = solution_costs(cfg, res.solution)
        assert costs.max_squared == res.value_squared, cfg
        assert is_blocking(cfg, res.solution).blocking
        optima.add(key)
    # every optimum 0-3 under Manhattan; under Euclidean some scans pass
    # the keys 3, 6 and 7 that no move reaches
    assert len(optima) >= 4 and (metric == "manhattan" or max(optima) > 7)


def test_probes_stay_between_the_bound_and_twice_the_optimum(monkeypatch):
    """On tight grids (n = a = b, homes uniform) every key decided lies
    in [bound, 2 * optimum + 1], the bound being the line farthest from
    every home along its axis (squared under Euclidean), found here by
    a scan of the lines: the search gallops up from the bound.  The
    witness is the one _decide gave at the optimum's key, also where an
    earlier yes above it gave another."""
    probes, answers = [], {}
    decide = minmax._decide

    def spy(config, v_lines, h_lines, key, budget):
        probes.append(key)
        answers[key] = decide(config, v_lines, h_lines, key, budget)
        return answers[key]

    monkeypatch.setattr(minmax, "_decide", spy)
    rng = random.Random(20)
    answered = overshot = 0
    for i in range(24):
        side, metric = 6 + i % 3, ("manhattan", "euclidean")[i % 2]
        cfg = random_integer_config(rng, side, side, side, metric)
        t = max(min(abs(c - home) for home in homes)
                for homes in ({s.x for s in cfg.sensors},
                              {s.y for s in cfg.sensors})
                for c in range(1, side + 1))
        bound = t if metric == "manhattan" else t * t
        probes.clear()
        answers.clear()
        try:
            res = solve_minmax(cfg, budget=5000)
        except SearchLimit:
            assert min(probes) >= bound
            continue
        key = res.value if metric == "manhattan" else res.value_squared
        assert bound <= min(probes) and max(probes) <= 2 * key + 1, \
            (cfg, probes)
        assert res.solution == answers[key][1]
        first_yes = next(k for k in probes if answers[k][0])
        overshot += answers[first_yes][1] != res.solution
        answered += 1
    assert answered >= 20 and overshot


def test_euclidean_probes_are_keys_whose_domains_admit_exactly_them(
        monkeypatch):
    """solve_minmax decides each euclidean key (a squared distance) as
    that int, and move_domain at key k admits exactly the integer moves
    of squared length <= k.  The search starts at the key (its bound
    patched) and _decide says yes there with the already blocking
    diagonal, on int coordinates as read_instance gives them.  Checked
    for every integer key up to 2 * 60^2, and move_domain (whose box
    grows with the key) for every key up to 2 * 30^2, reached by a move
    or not."""
    decided = []

    def record(config, v_lines, h_lines, key, budget):
        decided.append(key)
        return True, Solution({sid: (x, y)
                               for sid, x, y, _ in config.sensors})

    monkeypatch.setattr(minmax, "_decide", record)
    keys = range(2 * 60 ** 2 + 1)
    diagonal = Configuration(61, 61, tuple(Sensor(i, i, i, H)
                                           for i in range(1, 62)),
                             metric="euclidean")
    for key in keys:
        monkeypatch.setattr(minmax, "_key_bound", lambda config: key)
        assert solve_minmax(diagonal).value_squared == key
    assert decided == list(keys)
    assert all(key.__class__ is int for key in decided)

    moves = sorted((dx * dx + dy * dy, dx, dy)
                   for dx in range(45) for dy in range(45))
    wide = grid(45, 45, [(1, 1)], metric="euclidean")
    count = 0
    for key in range(2 * 30 ** 2 + 1):
        while moves[count][0] <= key:
            count += 1
        admitted = {(sq, 1 + dx, 1 + dy) for sq, dx, dy in moves[:count]}
        assert set(move_domain(wide, (1, 1), key)) == admitted, key


def test_solve_minmax_builds_no_vh_instance(monkeypatch):
    """Probes search on integer keys: no budget document is built."""
    def refuse(self):
        raise AssertionError("solve_minmax built a VHInstance")

    monkeypatch.setattr(VHInstance, "__post_init__", refuse)
    cells = [(1, 1), (1, 2), (2, 1)]
    assert solve_minmax(grid(3, 3, cells)).value_squared == 4
    assert solve_minmax(grid(3, 3, cells, "euclidean")).value_squared == 2
    with pytest.raises(AssertionError, match="built a VHInstance"):
        vh(grid(3, 3, cells), {1}, {1}, 1)


def test_oracle_size_limit():
    cells = [(x, y) for x in range(1, 6) for y in range(1, 6)]
    cfg = grid(5, 5, cells)
    inst = vh(cfg, set(range(1, 6)), set(range(1, 6)), 2)
    with pytest.raises(SizeLimit):
        oracle_minmax(inst)


def test_vh_instance_validation():
    cfg = grid(2, 2, [(1, 1)])
    with pytest.raises(ValidationError):
        VHInstance(cfg, frozenset({3}), frozenset(), F(1))
    with pytest.raises(ValidationError):
        VHInstance(cfg, frozenset(), frozenset(), F(-1))


def test_oracle_scans_only_the_budget_box():
    # a scan of every grid point took seconds at side 2000
    cfg = grid(2000, 2000, [(1, 1), (2, 3)])
    start = time.perf_counter()
    assert oracle_minmax(vh(cfg, {1, 2}, {2, 3}, 1))
    assert not oracle_minmax(vh(cfg, {1, 4}, {2, 3}, 1))
    assert time.perf_counter() - start < 1


def test_oracle_domain_product_limit():
    # every sensor reaches the whole 300 x 300 grid: the second domain
    # passes the limit after 112 of its points
    cfg = grid(300, 300, [(1, 1), (2, 1), (3, 1)])
    with pytest.raises(SizeLimit, match=r"move-domain product exceeds 10\^7"):
        oracle_minmax(vh(cfg, {1}, set(), 600))
