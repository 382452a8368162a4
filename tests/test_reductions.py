import random
from collections import Counter
from fractions import Fraction

import pytest

from brutes import random_max2sat3occ, random_sat22
from wcr.core import Solution, is_blocking, solution_costs
from wcr.errors import (DialectError, InconsistentSolution, NotASolution,
                        NotGadgetInstance, PropertyViolation, SizeLimit,
                        UnsatisfiedClause)
from wcr.minmax import VHInstance, decide_vh, full_lines, solve_minmax, \
    verify_vh
from wcr.reductions import (Max2Sat3Occ, Sat3_22, embed_minmax, embed_minnum,
                            embed_vh, eval_clause, extract_minmax,
                            extract_minnum, extract_vh, gen_minmax,
                            gen_minnum, gen_vh, integerize, sat_brute)

F = Fraction
H = F(1, 2)

SAT22 = Sat3_22(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))
M2S = Max2Sat3Occ(2, ((1, 2), (1, -2), (-1, 2)), 3)


# -- dialects ----------------------------------------------------------------

def test_dialect_guards():
    with pytest.raises(DialectError):
        Max2Sat3Occ(2, ((1, 2), (1, 2), (1, 2)), 1)     # single polarity
    with pytest.raises(DialectError):
        Max2Sat3Occ(2, ((1, 2), (1, -2)), 1)            # clause count
    with pytest.raises(DialectError):
        Max2Sat3Occ(2, ((1, 2), (1, -2), (-1, 2)), 9)   # t out of range
    with pytest.raises(DialectError):
        Max2Sat3Occ(3, ((1, 2), (1, -2), (-1, 2)), 1)   # odd n
    # three mixed occurrences per variable, but gen_minnum keys the
    # occurrence sensors by (variable, clause): a clause holding one
    # variable twice would lose a sensor's key
    for clauses in (((1, -1), (1, 2), (-2, 2)), ((1, 1), (-1, 2), (2, -2))):
        with pytest.raises(DialectError, match="clause 0 has variable 1"):
            Max2Sat3Occ(2, clauses, 2)
    with pytest.raises(DialectError):
        Sat3_22(3, ((1, 2, 3),) * 4)                    # 4 positive x1
    with pytest.raises(DialectError):
        Sat3_22(2, ((1, 2, 1),) * 3)                    # n not multiple of 3


def test_eval_and_brute():
    assert eval_clause((1, -2), (True, True))
    assert not eval_clause((-1, 2), (True, False))
    best, count = sat_brute(SAT22)
    assert count == 4
    assert all(eval_clause(c, best) for c in SAT22.clauses)
    # lexicographically smallest maximizer
    assert best == (False, False, True)
    best2, count2 = sat_brute(M2S)
    assert count2 == 3 and best2 == (True, True)


def test_brute_size_limit():
    f = Sat3_22.__new__(Sat3_22)  # bypass validation for the size check
    object.__setattr__(f, "n", 30)
    object.__setattr__(f, "clauses", ())
    with pytest.raises(SizeLimit):
        sat_brute(f)


# -- Max-2SAT -> minimum relocation count ------------------------------------

def test_gen_minnum_structure():
    cfg, meta = gen_minnum(M2S)
    assert cfg.width == cfg.height == F(6 * 2 + 2 * 3)
    assert cfg.n == 5 * 2
    assert cfg.mode == "continuous"
    assert all(s.range == 1 for s in cfg.sensors)
    assert not is_blocking(cfg).blocking      # the diagonal band is open


def test_minnum_roundtrip_and_exact_movers():
    cfg, meta = gen_minnum(M2S)
    alpha, best = sat_brute(M2S)
    sol = embed_minnum(cfg, meta, M2S, alpha)
    assert is_blocking(cfg, sol).blocking
    assert solution_costs(cfg, sol).moved == meta.t
    extracted = extract_minnum(cfg, meta, M2S, sol)
    assert sum(eval_clause(c, extracted) for c in M2S.clauses) >= meta.t


def test_minnum_guards():
    cfg, meta = gen_minnum(M2S)
    alpha, _ = sat_brute(M2S)
    sol = embed_minnum(cfg, meta, M2S, alpha)
    by_id = cfg.sensor_by_id()

    # an anchor may never relocate
    a = meta.alpha[1]
    other = dict(sol.positions)
    mover = next(sid for sid in other
                 if other[sid] != (by_id[sid].x, by_id[sid].y))
    other[a], other[mover] = other[mover], (by_id[mover].x, by_id[mover].y)
    with pytest.raises(InconsistentSolution):
        extract_minnum(cfg, meta, M2S, Solution(other))

    # a non-blocking relocation is rejected outright
    broken = dict(sol.positions)
    broken[mover] = (by_id[mover].x, by_id[mover].y)
    with pytest.raises(InconsistentSolution):
        extract_minnum(cfg, meta, M2S, Solution(broken))


def test_minnum_two_movers_same_clause_rejected():
    # n=4 gives t room below the clause count so a duplicate shows up
    rng = random.Random(2)
    f = random_max2sat3occ(rng, 4)
    cfg, meta = gen_minnum(f)
    alpha, _ = sat_brute(f)
    sol = embed_minnum(cfg, meta, f, alpha)
    by_id = cfg.sensor_by_id()
    movers = [sid for sid, p in sol.positions.items()
              if p != (by_id[sid].x, by_id[sid].y)]
    occ_of = {sid: key for key, sid in meta.occ_sensor.items()}
    idx = occ_of[movers[0]][1]
    twin = next(sid for sid, (v, j) in occ_of.items()
                if j == idx and sid not in movers)
    # relocate the clause's other sensor onto the same diagonal spot:
    # either the duplicate-clause guard or the t-mover cap must fire
    bad = dict(sol.positions)
    bad[twin] = sol.positions[movers[0]]
    with pytest.raises(InconsistentSolution):
        extract_minnum(cfg, meta, f, Solution(bad))


# -- 3-SAT(2,2) -> line blocking ----------------------------------------------

def test_random_sat22_refuses_n_not_a_positive_multiple_of_3():
    # 4n literals in threes leave a short last clause, which the
    # distinct-variables test would reject on every shuffle
    for n in (4, 0, -3):
        with pytest.raises(ValueError, match="positive multiple of 3"):
            random_sat22(random.Random(0), n)


def test_gen_vh_structure():
    inst, meta = gen_vh(SAT22)
    n, m = 3, 4
    assert inst.config.width == 16 * n + 4 * m
    assert inst.config.height == 24 * n
    assert inst.config.n == 8 * n + 3 * m
    assert len(inst.v_lines) == 4 * n + m
    assert len(inst.h_lines) == 8 * n
    assert inst.max_move == 1
    assert inst.config.mode == "integer"


def test_vh_roundtrip():
    inst, meta = gen_vh(SAT22)
    alpha, _ = sat_brute(SAT22)
    sol = embed_vh(inst, meta, SAT22, alpha)
    assert verify_vh(inst, dict(sol.positions))
    assert extract_vh(inst, meta, SAT22, sol) == alpha


def test_vh_unsatisfying_assignment_rejected():
    inst, meta = gen_vh(SAT22)
    bad = next(a for a in
               [(x, y, z) for x in (False, True) for y in (False, True)
                for z in (False, True)]
               if not all(eval_clause(c, a) for c in SAT22.clauses))
    with pytest.raises(UnsatisfiedClause):
        embed_vh(inst, meta, SAT22, bad)


def test_vh_decide_agrees_with_sat():
    inst, _ = gen_vh(SAT22)
    ok, wit = decide_vh(inst)
    assert ok
    assert verify_vh(inst, dict(wit.positions))


def test_extract_requires_clause_left_mover():
    inst, meta = gen_vh(SAT22)
    alpha, _ = sat_brute(SAT22)
    sol = embed_vh(inst, meta, SAT22, alpha)
    by_id = inst.config.sensor_by_id()
    j = 0
    bad = dict(sol.positions)
    for pos in range(3):
        sid = meta.clause_sensor[(j, pos)]
        bad[sid] = (by_id[sid].x, by_id[sid].y)   # undo any left move
    with pytest.raises(NotASolution):
        extract_vh(inst, meta, SAT22, Solution(bad))


# -- fractional -> integer normalization --------------------------------------

def _embed_base():
    inst, meta = gen_vh(SAT22)
    alpha, _ = sat_brute(SAT22)
    sol = embed_vh(inst, meta, SAT22, alpha)
    return inst, meta, sol


def test_integerize_fixpoint_on_integer_input():
    inst, meta, sol = _embed_base()
    assert integerize(inst, meta, sol).positions == sol.positions


def test_integerize_local_rewrites():
    inst, meta, sol = _embed_base()
    by_id = inst.config.sensor_by_id()
    p, q, r, h = meta.triples[0]
    px, py = by_id[p].x, by_id[p].y
    qx, qy = by_id[q].x, by_id[q].y
    rx, ry = by_id[r].x, by_id[r].y

    def trial(changes):
        positions = dict(sol.positions)
        positions.update(changes)
        return Solution(positions)

    def run(changes):
        out = integerize(inst, meta, trial(changes))
        assert all(x.denominator == y.denominator == 1
                   for x, y in out.positions.values())
        assert out.positions == integerize(inst, meta, out).positions
        assert verify_vh(inst, dict(out.positions))
        return out

    # none of these leaves a blocking solution, so none is normalized:
    # p half up; p half down with q and r half up; q half up with p
    # already down; q half down; r half down; p half a column left
    for changes in ({p: (px, py - H)},
                    {p: (px, py + H), q: (qx, qy - H), r: (rx, ry - H)},
                    {p: (px, py + 1), q: (qx, qy - H), r: (rx, ry - 1)},
                    {p: (px, py + 1), q: (qx, qy + H), r: (rx, ry - 1)},
                    {r: (rx, ry + H)},
                    {p: (px - H, py)}):
        with pytest.raises(NotASolution,
                           match="not a unit-move blocking solution"):
            integerize(inst, meta, trial(changes))

    # an r whose step up its column is redundant: a fractional row
    # returns to row h+3, a partial column drift to its home column
    _, _, r, h = next(t for t in meta.triples if verify_vh(
        inst, trial({t[2]: (by_id[t[2]].x, by_id[t[2]].y - H)}).positions,
        require_integer=False))
    rx, ry = by_id[r].x, by_id[r].y
    assert ry == h + 3
    for changes in ({r: (rx, ry - H)}, {r: (rx - H, ry)},
                    {r: (rx + H, ry - H)}, {r: (rx, ry - F(1, 3))}):
        assert run(changes).positions[r] == (rx, ry)


def test_integerize_guards():
    inst, meta, sol = _embed_base()
    by_id = inst.config.sensor_by_id()
    p, q, r, h = meta.triples[0]
    qx, qy = by_id[q].x, by_id[q].y
    # fractional q-up while p sits on its V-line does not block
    trial = dict(sol.positions)
    trial[p] = (by_id[p].x - 1, by_id[p].y)
    trial[q] = (qx, qy - H)
    with pytest.raises(NotASolution):
        integerize(inst, meta, Solution(trial))
    # budget violations are rejected
    far = dict(sol.positions)
    far[q] = (qx, qy + 2)
    with pytest.raises(NotASolution):
        integerize(inst, meta, Solution(far))
    # wrong ids are not a gadget solution
    with pytest.raises(NotGadgetInstance):
        integerize(inst, meta, Solution({1: (F(1), F(1))}))


def test_integerize_random_valid_fractional_inputs():
    # perturb redundant up-movers by half a step: inputs stay blocking,
    # so outputs must re-verify
    inst, meta, sol = _embed_base()
    by_id = inst.config.sensor_by_id()
    hits = 0
    for p, q, r, h in meta.triples:
        if sol.positions[r][1] != by_id[r].y - 1:
            continue
        trial = dict(sol.positions)
        trial[r] = (by_id[r].x, by_id[r].y - H)
        if not verify_vh(inst, trial, require_integer=False):
            continue
        out = integerize(inst, meta, Solution(trial))
        assert verify_vh(inst, dict(out.positions))
        hits += 1
    assert hits >= 1


def _planted_sat22(rng, n):
    """A random 3-SAT(2,2) formula on n variables that a random
    assignment satisfies, so its gadget has a blocking solution: each
    clause is dealt one literal the assignment makes true, then two of
    the remaining literals."""
    value = [rng.random() < 0.5 for _ in range(n)]
    m = 4 * n // 3
    while True:
        lits = [s * v for v in range(1, n + 1) for s in (1, 1, -1, -1)]
        rng.shuffle(lits)
        true, false = [], []
        for lit in lits:
            (true if (lit > 0) == value[abs(lit) - 1] else false).append(lit)
        rest = true[m:] + false
        rng.shuffle(rest)
        clauses = [(true[j], *rest[2 * j:2 * j + 2]) for j in range(m)]
        if all(len({abs(lit) for lit in c}) == 3 for c in clauses):
            return Sat3_22(n, tuple(clauses))


def test_gadget_answer_keys():
    # keys of satisfiable formulas catch a wrong "no" of the search
    rng = random.Random(2207)
    for n in (6, 12, 24):
        f = _planted_sat22(rng, n)
        inst, meta = gen_vh(f)
        feasible, witness = decide_vh(inst)
        assert feasible
        assignment = extract_vh(inst, meta, f, witness)
        assert all(eval_clause(c, assignment) for c in f.clauses)
        assert integerize(inst, meta, witness).positions == witness.positions
    # the padded gadget blocks every line at budget 1 but not at budget 0
    for n in (3, 6, 9, 12):
        padded, _ = gen_minmax(gen_vh(_planted_sat22(rng, n))[0])
        v_lines, h_lines = full_lines(padded)
        assert decide_vh(VHInstance(padded, v_lines, h_lines, F(1)))[0]
        assert not decide_vh(VHInstance(padded, v_lines, h_lines, F(0)))[0]


def test_minmax_answer_keys():
    # a satisfiable formula's padded gadget has MinMax optimum exactly 1,
    # and the optimal solution strips back to a line-blocking witness
    rng = random.Random(2020)
    for n in (3, 6, 12):
        f = random_sat22(rng, n)
        assert sat_brute(f)[1] == len(f.clauses)
        inst, _ = gen_vh(f)
        padded, mapping = gen_minmax(inst)
        result = solve_minmax(padded)
        assert result.value == 1 and result.value_squared == 1
        assert is_blocking(padded, result.solution).blocking
        assert verify_vh(inst, extract_minmax(mapping, result.solution)
                         .positions)


# -- padding into a full MinMax instance ---------------------------------------

def test_gen_minmax_dims_and_borders():
    inst, meta = gen_vh(SAT22)
    padded, mapping = gen_minmax(inst)
    a, b = 64, 72
    assert padded.width == a + b - len(inst.h_lines) + 7 == 119
    assert padded.height == b + a - len(inst.v_lines) + 7 == 127
    # one duplicated border position and one triple per side
    counts = Counter((s.x, s.y) for s in padded.sensors)
    assert sorted(counts.values())[-4:] == [2, 2, 3, 3]
    # first v-sensor row position from the construction
    av = a - len(inst.v_lines)
    first_non_v = next(c for c in range(1, a + 1) if c not in inst.v_lines)
    v1 = padded.sensor_by_id()[mapping.v_ids[0]]
    assert (v1.x, v1.y) == (first_non_v + mapping.dx, av)


def test_gen_minmax_guards():
    inst, _ = gen_vh(SAT22)
    with pytest.raises(PropertyViolation):
        gen_minmax(VHInstance(inst.config, inst.v_lines, inst.h_lines, F(2)))
    bad_v = frozenset(inst.v_lines | {int(inst.config.width)})
    with pytest.raises(PropertyViolation):
        gen_minmax(VHInstance(inst.config, bad_v, inst.h_lines, F(1)))


def test_minmax_embed_extract_identity():
    inst, meta = gen_vh(SAT22)
    alpha, _ = sat_brute(SAT22)
    vh_sol = embed_vh(inst, meta, SAT22, alpha)
    padded, mapping = gen_minmax(inst)
    full = embed_minmax(mapping, vh_sol)
    assert is_blocking(padded, full).blocking
    assert solution_costs(padded, full).max_cost <= 1
    back = extract_minmax(mapping, full)
    assert back.positions == vh_sol.positions


def test_minmax_extract_rejects_non_blocking():
    inst, meta = gen_vh(SAT22)
    alpha, _ = sat_brute(SAT22)
    vh_sol = embed_vh(inst, meta, SAT22, alpha)
    padded, mapping = gen_minmax(inst)
    full = embed_minmax(mapping, vh_sol)
    bad = dict(full.positions)
    v1 = mapping.v_ids[0]
    s = padded.sensor_by_id()[v1]
    bad[v1] = (s.x, s.y)          # undo the forced step down
    with pytest.raises(NotASolution):
        extract_minmax(mapping, Solution(bad))


def test_random_formulas_roundtrip():
    rng = random.Random(99)
    for _ in range(5):
        f = random_sat22(rng, 3)
        inst, meta = gen_vh(f)
        alpha, count = sat_brute(f)
        if count < len(f.clauses):
            continue
        sol = embed_vh(inst, meta, f, alpha)
        assert extract_vh(inst, meta, f, sol) == alpha
