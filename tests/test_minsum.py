import random
import tracemalloc
from fractions import Fraction
from hashlib import sha256
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from brutes import (reference_candidate_targets, reference_minsum_1d,
                    reference_oracle_minsum_1d)
from wcr import minsum
from wcr.core import Configuration, Sensor, is_blocking, solution_costs
from wcr.errors import (HeterogeneousRanges, Infeasible, ModeError,
                        SizeLimit, ValidationError, WcrError)
from wcr.minsum import (Line1DInstance, candidate_targets, check_minsum_1d,
                        oracle_minsum_1d, solve_minsum_1d,
                        solve_minsum_manhattan)
from wcr.oracle import random_integer_config, random_minsum_1d_instance

F = Fraction
H = F(1, 2)


def covers(targets, r, L):
    ivs = sorted((t - r, t + r) for t in targets)
    cur = F(0)
    for a, b in ivs:
        if a > cur:
            return False
        cur = max(cur, b)
    return cur >= L


def test_two_point_example():
    inst = Line1DInstance(points=(F(1, 2), F(7, 2)), radius=F(1), length=F(4))
    targets, cost = solve_minsum_1d(inst)
    assert targets == (F(1), F(3)) and cost == F(1)


def test_already_covering_costs_zero():
    inst = Line1DInstance(points=(F(1), F(3)), radius=F(1), length=F(4))
    assert solve_minsum_1d(inst) == ((F(1), F(3)), F(0))


def test_infeasible():
    inst = Line1DInstance(points=(F(1),), radius=F(1), length=F(4))
    assert not inst.feasible
    with pytest.raises(Infeasible):
        solve_minsum_1d(inst)


def test_candidate_grid_contains_optimum_anchors():
    inst = Line1DInstance(points=(F(1, 2), F(7, 2)), radius=F(1), length=F(4))
    cands = candidate_targets(inst)  # in units of 1/D, D = 2
    assert 2 in cands and 6 in cands
    assert all(0 <= v <= 8 for v in cands)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.fractions(min_value=0, max_value=6), min_size=3,
                max_size=5))
def test_targets_cover_and_preserve_order(pts):
    inst = Line1DInstance(points=tuple(pts), radius=F(1), length=F(6))
    targets, cost = solve_minsum_1d(inst)
    assert covers(targets, inst.radius, inst.length)
    assert cost == sum(abs(t - p) for t, p in zip(targets, pts))
    # sorted sensors get sorted targets: the exchange argument's no-crossing
    order = sorted(range(len(pts)), key=lambda i: (pts[i], i))
    ordered = [targets[i] for i in order]
    assert ordered == sorted(ordered)


def test_oracle_contract():
    rng = random.Random(5)
    delta = F(1, 8)
    for _ in range(60):
        inst = random_minsum_1d_instance(rng)
        _, exact = solve_minsum_1d(inst)
        a_cost, b_cost = oracle_minsum_1d(inst)
        assert a_cost == exact
        assert exact <= b_cost <= exact + len(inst.points) * delta


def _outcome(fn, inst):
    try:
        return fn(inst)
    except WcrError as e:
        return type(e), str(e)


def test_oracle_matches_reference_oracle():
    # the integer oracle against the all-Fraction one it replaced:
    # both estimates, and the errors with their messages
    rng = random.Random(23)
    kinds = set()
    for _ in range(60):
        den, n = rng.choice([1, 2, 3, 8, 12]), rng.randint(0, 7)
        length = F(rng.randint(1, 24), den)
        inst = Line1DInstance(
            points=tuple(F(rng.randint(0, int(length * den)), den)
                         for _ in range(n)),
            radius=F(rng.randint(1, 4), rng.choice([1, 2, 3])), length=length)
        new = _outcome(oracle_minsum_1d, inst)
        assert new == _outcome(reference_oracle_minsum_1d, inst)
        kinds.add(new[0] if isinstance(new[0], type) else "estimates")
    assert kinds == {"estimates", Infeasible, SizeLimit}


def tight_instance(n: int) -> Line1DInstance:
    """n sensors of radius 1 on a segment of length n, at p/997."""
    rng = random.Random(n)
    return Line1DInstance(
        points=tuple(F(rng.randint(0, 997 * n), 997) for _ in range(n)),
        radius=F(1), length=F(n))


def integer_axis(rng: random.Random, n: int) -> Line1DInstance:
    """An integer-mode axis: n sensors at cell centres of a side <= n."""
    side = rng.randint(1, n)
    return Line1DInstance(
        points=tuple(F(2 * rng.randint(1, side) - 1, 2) for _ in range(n)),
        radius=H, length=F(side))


def test_state_bound_is_an_upper_bound_on_the_dp(monkeypatch):
    # a limit one below n * |C| must refuse: the bound is never smaller
    rng = random.Random(41)
    for i in range(200):
        n = rng.randint(2, 12)
        inst = integer_axis(rng, n) if i % 2 else random_line_instance(
            rng, n, rng.choice([1, 3, 997]), rng.choice([F(1), H, F(3, 7)]))
        grid = len(candidate_targets(inst))
        monkeypatch.setattr(minsum, "MINSUM_STATE_LIMIT", n * grid - 1)
        with pytest.raises(SizeLimit, match="MinSum DP may keep"):
            solve_minsum_1d(inst)


def test_integer_axis_bound_is_one_lattice(monkeypatch):
    # every base of an integer-mode axis is odd in units of 1/2, so all
    # share one lattice of L + 1 points: the bound is n * (L + 3)
    monkeypatch.setattr(minsum, "MINSUM_STATE_LIMIT", 0)
    rng = random.Random(42)
    for n in (1, 2, 7, 300):
        inst = integer_axis(rng, n)
        states = n * (int(inst.length) + 3)
        with pytest.raises(SizeLimit, match=f"may keep {states} states"):
            check_minsum_1d(inst)


def test_tight_instance_of_320_sensors_is_under_the_limit(monkeypatch):
    # the check passes and the DP is asked for: the solve starts
    def reached(inst):
        raise RuntimeError("DP started")

    monkeypatch.setattr(minsum, "_solve_1d", reached)
    with pytest.raises(RuntimeError, match="DP started"):
        solve_minsum_1d(tight_instance(320))
    # its bound (n * |C| = 320 * 48002 = 15360640) would pass one below it
    monkeypatch.setattr(minsum, "MINSUM_STATE_LIMIT", 15456639)
    with pytest.raises(SizeLimit, match="may keep 15456640 states, past "
                                        "15456639"):
        solve_minsum_1d(tight_instance(320))


def test_tight_instance_of_320_sensors_solves_in_small_memory():
    # 76 800 options where a DP over the whole candidate grid keeps
    # 7.68 * 10^6 band states and a 66 MiB peak; the cost and the
    # targets' digest are that DP's
    inst = tight_instance(320)
    tracemalloc.start()
    try:
        targets, cost = solve_minsum_1d(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20, peak
    assert cost == Fraction(58263, 997)
    assert sha256(" ".join(map(str, targets)).encode()).hexdigest() == \
        "97e1394cd41a02759f7ffc189939c0ffba2434c1f2f1375ef80ab142c68883f8"
    assert covers(targets, inst.radius, inst.length)


def test_2d_separable():
    cells = [(1, 1), (1, 2), (4, 1), (2, 4)]
    sensors = tuple(Sensor(id=i, x=F(x), y=F(y), range=H)
                    for i, (x, y) in enumerate(cells, start=1))
    cfg = Configuration(width=F(4), height=F(4), sensors=sensors,
                        mode="integer", metric="manhattan")
    sol, cost = solve_minsum_manhattan(cfg)
    assert is_blocking(cfg, sol).blocking
    assert solution_costs(cfg, sol).sum_cost == cost
    # integer mode keeps the grid
    for x, y in sol.positions.values():
        assert x.denominator == 1 and y.denominator == 1
    xs = Line1DInstance(points=tuple(s.x - H for s in sensors),
                        radius=H, length=F(4))
    ys = Line1DInstance(points=tuple(s.y - H for s in sensors),
                        radius=H, length=F(4))
    assert cost == solve_minsum_1d(xs)[1] + solve_minsum_1d(ys)[1]


def test_2d_guards():
    with pytest.raises(HeterogeneousRanges):
        solve_minsum_manhattan(Configuration(
            width=F(2), height=F(2),
            sensors=(Sensor(1, F(1), F(1), F(1)),
                     Sensor(2, F(1, 2), F(1), F(3, 2))),
            mode="continuous", metric="manhattan"))
    cfg = Configuration(width=F(2), height=F(2),
                        sensors=(Sensor(1, F(1), F(1), H),
                                 Sensor(2, F(2), F(2), H)),
                        mode="integer", metric="euclidean")
    with pytest.raises(ModeError):
        solve_minsum_manhattan(cfg)


def test_continuous_mode():
    sensors = (Sensor(1, F(0), F(1), F(1)), Sensor(2, F(1, 3), F(3), F(1)))
    cfg = Configuration(width=F(4), height=F(4), sensors=sensors,
                        mode="continuous", metric="manhattan")
    sol, cost = solve_minsum_manhattan(cfg)
    assert is_blocking(cfg, sol).blocking
    assert cost == solution_costs(cfg, sol).sum_cost


def test_costs_are_exact_rationals():
    inst = Line1DInstance(points=(F(1, 3), F(11, 3)), radius=F(1),
                          length=F(4))
    targets, cost = solve_minsum_1d(inst)
    assert isinstance(cost, Fraction)
    assert targets == (F(1), F(3)) and cost == F(4, 3)


def test_line_instance_rejects_bad_input():
    with pytest.raises(ValidationError, match="must be positive"):
        Line1DInstance(points=(F(1),), radius=F(0), length=F(4))
    with pytest.raises(ValidationError, match="must be positive"):
        Line1DInstance(points=(), radius=F(1), length=F(-1))
    with pytest.raises(ValidationError, match=r"point 9/2 outside \[0, 4\]"):
        Line1DInstance(points=(F(1), F(9, 2)), radius=F(1), length=F(4))


def random_line_instance(rng: random.Random, n: int, den: int,
                         radius: Fraction) -> Line1DInstance:
    """Feasible instance with points and length on the 1/den lattice."""
    span = rng.randint(1, int(2 * radius * n * den))
    return Line1DInstance(
        points=tuple(F(rng.randint(0, span), den) for _ in range(n)),
        radius=radius, length=F(span, den))


@settings(deadline=None, max_examples=80)
@given(st.randoms(use_true_random=False), st.integers(1, 8),
       st.sampled_from([1, 3, 997]), st.sampled_from([F(1), H, F(3, 7)]))
def test_matches_reference_dp(rng, n, den, radius):
    assume(2 * radius * n * den >= 1)  # some lattice length is coverable
    inst = random_line_instance(rng, n, den, radius)
    # whole (targets, cost) tuple: the tie-break must agree as well
    assert solve_minsum_1d(inst) == reference_minsum_1d(inst)


@pytest.mark.parametrize("n,den,radius", [
    (40, 1, F(1)), (40, 3, F(3, 7)), (25, 997, F(1)), (40, 997, F(3, 7))])
def test_matches_reference_dp_large(n, den, radius):
    rng = random.Random(n * den)
    inst = random_line_instance(rng, n, den, radius)
    assert solve_minsum_1d(inst) == reference_minsum_1d(inst)


def reference_grid(inst: Line1DInstance) -> list[Fraction]:
    """The reference grid in counts of 1/D, D the lcm of the instance's
    denominators (the unit of candidate_targets)."""
    d = lcm(*(v.denominator for v in (inst.radius, inst.length,
                                      *inst.points)))
    return [v * d for v in reference_candidate_targets(inst)]


@settings(deadline=None, max_examples=80)
@given(st.randoms(use_true_random=False), st.integers(1, 8),
       st.sampled_from([1, 3, 997]), st.sampled_from([F(1), H, F(3, 7)]))
def test_candidate_grid_matches_reference(rng, n, den, radius):
    assume(2 * radius * n * den >= 1)
    inst = random_line_instance(rng, n, den, radius)
    assert candidate_targets(inst) == reference_grid(inst)


@pytest.mark.parametrize("inst", [
    Line1DInstance(points=(), radius=F(1), length=F(4)),
    Line1DInstance(points=(), radius=F(5, 2), length=F(2)),
    Line1DInstance(points=(F(1, 3),), radius=F(3, 7), length=F(1, 3)),
    Line1DInstance(points=(F(0),), radius=H, length=F(7))])
def test_candidate_grid_edge_cases(inst):
    # no sensor, a radius past the length, one sensor
    assert candidate_targets(inst) == reference_grid(inst)


def slack_instance(rng: random.Random, n: int, den: int, radius: Fraction,
                   slack: str) -> Line1DInstance:
    """n sensors at p/den on a segment whose slack 2rn - L is zero,
    below 2r or above L/2."""
    length = 2 * radius * n * {
        "zero": 1,
        "below 2r": 1 - F(rng.randint(1, 99), 100 * n),
        "above L/2": F(rng.randint(10, 60), 100)}[slack]
    return Line1DInstance(
        points=tuple(F(rng.randint(0, int(length * den)), den)
                     for _ in range(n)),
        radius=radius, length=length)


@pytest.mark.parametrize("slack", ["zero", "below 2r", "above L/2"])
@pytest.mark.parametrize("n,den,radius", [
    (1, 1, F(1)), (2, 3, H), (7, 997, F(3, 7)), (16, 7, F(1)),
    (30, 997, H)])
def test_band_edges_match_reference_dp(slack, n, den, radius):
    # the band's ends are exact: zero slack puts the optimum on the top
    # and the bottom state of every layer's band
    for seed in range(3):
        inst = slack_instance(random.Random(seed * 1000 + n), n, den,
                              radius, slack)
        assert solve_minsum_1d(inst) == reference_minsum_1d(inst)


def test_tight_instance_matches_reference_dp():
    inst = tight_instance(40)
    assert solve_minsum_1d(inst) == reference_minsum_1d(inst)


FAMILIES = ("zero", "below 2r", "above L/2", "equal", "ends", "lattice r",
            "integer", "p/997")


def family_instance(rng: random.Random, family: str, n: int,
                    radius: Fraction) -> Line1DInstance:
    """A feasible instance of one family: the slacks of slack_instance,
    all points equal, points only at 0 and L, points on the lattice of
    step r, an integer-mode axis (radius 1/2), or points at p/997."""
    if family in ("zero", "below 2r", "above L/2"):
        return slack_instance(rng, n, 997, radius, family)
    if family == "integer":
        return integer_axis(rng, n)
    if family == "p/997":
        return random_line_instance(rng, n, 997, radius)
    m = rng.randint(1, 2 * n)  # L = m * r <= 2rn
    if family == "equal":
        points = [radius * F(rng.randint(0, 12 * m), 12)] * n
    elif family == "ends":
        points = [rng.choice((0, m)) * radius for _ in range(n)]
    else:
        points = [rng.randint(0, m) * radius for _ in range(n)]
    return Line1DInstance(points=tuple(points), radius=radius,
                          length=m * radius)


def test_matches_reference_dp_on_seeded_families():
    # the whole (targets, cost) tuple: the chain anchors hold the least
    # optimal vector of the DP over the whole grid, ties included
    rng = random.Random(28)
    for family in FAMILIES:
        for radius in (F(1), H, F(3, 7), F(5, 2)):
            for _ in range(4):
                inst = family_instance(rng, family, rng.randint(1, 14),
                                       radius)
                assert solve_minsum_1d(inst) == reference_minsum_1d(inst), \
                    (family, inst)


@pytest.mark.parametrize("family, n, radius", [
    ("below 2r", 40, F(1)), ("lattice r", 48, F(3, 7)),
    ("integer", 50, H), ("p/997", 60, F(5, 2))])
def test_matches_reference_dp_on_large_families(family, n, radius):
    inst = family_instance(random.Random(n), family, n, radius)
    assert solve_minsum_1d(inst) == reference_minsum_1d(inst)


def test_common_denominator_beyond_float_range():
    dens = [10**110 + k for k in (3, 7, 13)]
    inst = Line1DInstance(points=tuple(F(q // k, q) for k, q in
                                       zip((2, 3, 4), dens)),
                          radius=F(1), length=F(4))
    assert solve_minsum_1d(inst) == reference_minsum_1d(inst)
    assert candidate_targets(inst) == reference_grid(inst)


def test_integer_mode_matches_reference_dp():
    rng = random.Random(11)
    keep = lambda v: (v + H).denominator == 1  # noqa: E731
    for _ in range(40):
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        cfg = random_integer_config(rng, a, b, rng.randint(max(a, b), 12))
        sensors = sorted(cfg.sensors, key=lambda s: s.id)
        tx, cx = reference_minsum_1d(Line1DInstance(
            points=tuple(s.x - H for s in sensors), radius=H,
            length=F(a)), keep=keep)
        ty, cy = reference_minsum_1d(Line1DInstance(
            points=tuple(s.y - H for s in sensors), radius=H,
            length=F(b)), keep=keep)
        sol, cost = solve_minsum_manhattan(cfg)
        assert cost == cx + cy
        assert sol.positions == {s.id: (tx[i] + H, ty[i] + H)
                                 for i, s in enumerate(sensors)}
