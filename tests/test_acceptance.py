"""Acceptance gate: one test per criterion, one printed PASS/FAIL line
each.  Everything is seeded and exact; no tolerances beyond the 1e-9
euclidean reporting interval used by the cost report."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from brutes import (brute_max_free_set_size, brute_max_matching_size,
                    coverage_feasible, interval_gaps, random_graph,
                    random_max2sat3occ, random_sat22, reflect_x, reflect_y,
                    transpose)
from wcr.core import (Configuration, Sensor, Solution, is_blocking,
                      solution_costs)
from wcr.errors import InconsistentSolution, NotASolution
from wcr.matching import Graph, maximum_matching, minimum_edge_cover
from wcr.minmax import VHInstance, decide_vh, oracle_minmax, solve_minmax, \
    verify_vh
from wcr.minnum import brute_minnum, max_free_set, solve_minnum
from wcr.minsum import (Line1DInstance, oracle_minsum_1d, solve_minsum_1d,
                        solve_minsum_manhattan)
from wcr.oracle import (differential_suite, random_integer_config,
                        random_minnum_instance, random_minsum_1d_instance,
                        random_vh_instance)
from wcr.reductions import (Sat3_22, embed_minmax, embed_minnum, embed_vh,
                            eval_clause, extract_minmax, extract_minnum,
                            extract_vh, gen_minmax, gen_minnum, gen_vh,
                            integerize, sat_brute)
from wcr.serialize import write_solution

F = Fraction
H = F(1, 2)


def report(k: int, ok: bool, note: str) -> None:
    print(f"\nACCEPTANCE {k:2d}: {'PASS' if ok else 'FAIL'} - {note}")
    assert ok, f"criterion {k}: {note}"


def grid(a, b, cells, metric="manhattan"):
    sensors = tuple(Sensor(id=i, x=F(x), y=F(y), range=H)
                    for i, (x, y) in enumerate(cells, start=1))
    return Configuration(width=F(a), height=F(b), sensors=sensors,
                         mode="integer", metric=metric)


@pytest.fixture(scope="module")
def minnum_sweep():
    """All 3x3 configurations with 3-6 distinct sensors, plus 1000
    seeded 6x6 instances; shared by criteria 1 and 2."""
    configs = []
    cells = [(x, y) for x in range(1, 4) for y in range(1, 4)]
    for k in range(3, 7):
        for combo in combinations(cells, k):
            configs.append(grid(3, 3, combo))
    rng = random.Random(20240)
    for _ in range(1000):
        configs.append(random_minnum_instance(rng, max_grid=6, max_n=12))
    return configs


def test_criterion_1_minnum_optimality(minnum_sweep):
    t0 = time.perf_counter()
    bad = 0
    for cfg in minnum_sweep:
        if solve_minnum(cfg).moved != brute_minnum(cfg):
            bad += 1
    elapsed = time.perf_counter() - t0
    report(1, bad == 0 and elapsed < 60,
           f"{len(minnum_sweep)} instances (420 exhaustive 3x3 + 1000 "
           f"seeded 6x6), {bad} mismatches, {elapsed:.1f}s")


def test_criterion_2_minnum_formula(minnum_sweep):
    bad = 0
    for cfg in minnum_sweep:
        plan = solve_minnum(cfg)
        rep = is_blocking(cfg)
        r, c = sorted((len(rep.y_gaps), len(rep.x_gaps)), reverse=True)
        expected = r if plan.k >= c else r + c - plan.k
        if plan.moved != expected:
            bad += 1
    report(2, bad == 0,
           f"moved = r if k >= c else r+c-k on all "
           f"{len(minnum_sweep)} instances, {bad} violations")


def test_criterion_3_max_free_set_and_gallai():
    rng = random.Random(314)
    bad_free = sum(
        1 for _ in range(500)
        if len(max_free_set(cfg := random_minnum_instance(rng)))
        != brute_max_free_set_size(cfg))
    bad_gallai = 0
    rng2 = random.Random(159)
    for _ in range(500):
        n, edges = random_graph(rng2)
        g = Graph(n, tuple((u, v, None) for u, v in edges))
        matching = brute_max_matching_size(n, edges)
        if len(maximum_matching(g)) != matching or \
                len(minimum_edge_cover(g)) + matching != n:
            bad_gallai += 1
    report(3, bad_free == 0 and bad_gallai == 0,
           f"free set vs brute on 500 instances ({bad_free} bad); "
           f"Gallai |cover|+|matching|=|V| on 500 graphs ({bad_gallai} bad)")


def test_criterion_4_minsum():
    rng = random.Random(271)
    delta = F(1, 8)
    bad_1d = 0
    for _ in range(300):
        inst = random_minsum_1d_instance(rng)
        _, exact = solve_minsum_1d(inst)
        a_cost, b_cost = oracle_minsum_1d(inst)
        if not (exact == a_cost and
                exact <= b_cost <= exact + len(inst.points) * delta):
            bad_1d += 1
    bad_2d = 0
    rng2 = random.Random(828)
    done = 0
    while done < 200:
        a, b = rng2.randint(2, 6), rng2.randint(2, 6)
        n = rng2.randint(max(a, b), max(a, b) + 4)
        cfg = random_integer_config(rng2, a, b, n, "manhattan")
        if not coverage_feasible(cfg):
            continue
        done += 1
        sol, cost = solve_minsum_manhattan(cfg)
        xs = Line1DInstance(points=tuple(s.x - H for s in cfg.sensors),
                            radius=H, length=F(a))
        ys = Line1DInstance(points=tuple(s.y - H for s in cfg.sensors),
                            radius=H, length=F(b))
        if cost != solve_minsum_1d(xs)[1] + solve_minsum_1d(ys)[1] or \
                not is_blocking(cfg, sol).blocking or \
                solution_costs(cfg, sol).sum_cost != cost:
            bad_2d += 1
    report(4, bad_1d == 0 and bad_2d == 0,
           f"1D exact = candidate oracle and within grid+n/8 on 300 "
           f"instances ({bad_1d} bad); 2D separability + re-verification "
           f"on 200 instances ({bad_2d} bad)")


def test_criterion_5_decide_vs_oracle():
    rng = random.Random(653)
    bad = mono_bad = 0
    for _ in range(1000):
        inst = random_vh_instance(rng)
        ok, wit = decide_vh(inst)
        if ok != oracle_minmax(inst):
            bad += 1
        if ok and wit is not None and \
                not verify_vh(inst, dict(wit.positions)):
            bad += 1
        bigger = VHInstance(inst.config, inst.v_lines, inst.h_lines,
                            inst.max_move + 1)
        if ok and not decide_vh(bigger)[0]:
            mono_bad += 1
    report(5, bad == mono_bad == 0,
           f"decide_vh vs exhaustive oracle on 1000 seeded instances "
           f"({bad} bad); monotone in D ({mono_bad} violations)")


def test_criterion_6_vh_reduction_end_to_end():
    rng = random.Random(589)
    formulas, seen = [], set()
    while len(formulas) < 25:
        f = random_sat22(rng, 3)
        if f.clauses not in seen:
            seen.add(f.clauses)
            formulas.append(f)
    bad, unsat_seen, worst = 0, 0, 0.0
    for f in formulas:
        t0 = time.perf_counter()
        alpha, count = sat_brute(f)
        satisfiable = count == len(f.clauses)
        inst, meta = gen_vh(f)
        if satisfiable:
            sol = embed_vh(inst, meta, f, alpha)
            if not verify_vh(inst, dict(sol.positions)) or \
                    extract_vh(inst, meta, f, sol) != alpha:
                bad += 1
        else:
            unsat_seen += 1
        if decide_vh(inst)[0] != satisfiable:
            bad += 1
        worst = max(worst, time.perf_counter() - t0)
    side = ("both outcomes exercised" if unsat_seen else
            "satisfiability-side only: every sampled n=3 formula with "
            "distinct-variable clauses is satisfiable")
    report(6, bad == 0 and worst < 120,
           f"{len(formulas)} formulas, {bad} failures, worst "
           f"{worst:.1f}s/formula; {side}")


def test_criterion_7_minmax_padding():
    rng = random.Random(846)
    bad = 0
    checked = []
    for i in range(4):
        f = random_sat22(rng, 3) if i else Sat3_22(
            3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))
        inst, meta = gen_vh(f)
        padded, mapping = gen_minmax(inst)
        a, b = int(inst.config.width), int(inst.config.height)
        want = (a + b - len(inst.h_lines) + 7, b + a - len(inst.v_lines) + 7)
        checked.append((int(padded.width), int(padded.height)))
        if (int(padded.width), int(padded.height)) != want:
            bad += 1
            continue
        alpha, count = sat_brute(f)
        if count < len(f.clauses):
            continue
        vh_sol = embed_vh(inst, meta, f, alpha)
        full = embed_minmax(mapping, vh_sol)
        costs = solution_costs(padded, full)
        if not is_blocking(padded, full).blocking or costs.max_cost > 1 \
                or extract_minmax(mapping, full).positions \
                != vh_sol.positions:
            bad += 1
    report(7, bad == 0 and checked[0] == (119, 127),
           f"dims formula on {len(checked)} instances (n=3,m=4 gives "
           f"{checked[0][0]}x{checked[0][1]}); embed blocks the full grid "
           f"with max move <= 1; extract(embed) identity; {bad} failures")


def test_criterion_8_minnum_construction():
    rng = random.Random(432)
    bad = guards = 0
    total = 0
    for n in (2, 4):
        for _ in range(10):
            f = random_max2sat3occ(rng, n)
            cfg, meta = gen_minnum(f)
            alpha, best = sat_brute(f)
            total += 1
            sol = embed_minnum(cfg, meta, f, alpha)
            by_id = cfg.sensor_by_id()
            movers = [sid for sid, p in sol.positions.items()
                      if p != (by_id[sid].x, by_id[sid].y)]
            extracted = extract_minnum(cfg, meta, f, sol)
            if len(movers) != meta.t or \
                    not is_blocking(cfg, sol).blocking or \
                    sum(eval_clause(c, extracted)
                        for c in f.clauses) < meta.t:
                bad += 1
            # structural guards must fire on corrupted solutions
            corrupt = dict(sol.positions)
            anchor = meta.alpha[1]
            corrupt[anchor] = sol.positions[movers[0]]
            corrupt[movers[0]] = (by_id[movers[0]].x, by_id[movers[0]].y)
            try:
                extract_minnum(cfg, meta, f, Solution(corrupt))
                guards += 1
            except InconsistentSolution:
                pass
            occ_of = {sid: key for key, sid in meta.occ_sensor.items()}
            twin_clause = occ_of[movers[0]][1]
            twin = next(sid for sid, (v, j) in occ_of.items()
                        if j == twin_clause and sid != movers[0])
            corrupt2 = dict(sol.positions)
            corrupt2[twin] = sol.positions[movers[0]]
            try:
                extract_minnum(cfg, meta, f, Solution(corrupt2))
                guards += 1
            except InconsistentSolution:
                pass
    report(8, bad == 0 and guards == 0,
           f"{total} formulas (n in {{2,4}}): exactly t movers, blocking, "
           f"extract >= t satisfied ({bad} bad); anchor/duplicate guards "
           f"({guards} missed)")


# -- criterion 9 ----------------------------------------------------------

# half-step moves of a gadget sensor in (column, doubled row): stay,
# one column left, a full or a half row up or down
_MOVES = ((0, 0), (-1, 0), (0, -2), (0, 2), (0, -1), (0, 1))


def _pattern_feasible(inst, pins: dict) -> bool:
    """Can the sensors of the gen vh gadget inst block every required
    line under budget 1 while the pinned sensors sit at the given
    (column, doubled row)?  The others take half-step moves only: the
    six of _MOVES.  Rows are doubled so that a half step is an integer;
    an H-line i then has two halves, the segments [2i-1, 2i] and
    [2i, 2i+1], which a sensor at doubled row y covers when it lies in
    [y-1, y+1].  A column drift short of a full left step blocks no
    V-line (each sensor's is one column to its left), so no other move
    is needed.  Exhaustive: a depth-first search over the sensors in
    column order, keeping only the maximal moves of each and memoizing
    the failed (sensor, covered lines) states."""
    bit = {("v", v): 1 << i for i, v in enumerate(sorted(inst.v_lines))}
    for h in sorted(inst.h_lines):
        for seg in (2 * h - 1, 2 * h):
            bit[("h", seg)] = 1 << len(bit)
    full = (1 << len(bit)) - 1
    a, b = int(inst.config.width), int(inst.config.height)

    def mask(x, y2):
        return bit.get(("v", x), 0) | bit.get(("h", y2 - 1), 0) | \
            bit.get(("h", y2), 0)

    base, free = 0, []
    for s in sorted(inst.config.sensors, key=lambda s: (s.x, s.y)):
        x, y2 = int(s.x), 2 * int(s.y)
        if s.id in pins:
            base |= mask(*pins[s.id])
            continue
        masks = {mask(x + dx, y2 + dy) for dx, dy in _MOVES
                 if 1 <= x + dx <= a and 2 <= y2 + dy <= 2 * b}
        maximal = [m for m in masks if not any(
            m != o and m & o == m for o in masks)]
        if maximal != [0]:
            free.append(maximal)
    suffix = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = suffix[i + 1]
        for m in free[i]:
            suffix[i] |= m
    failed = set()

    def dfs(i, acc):
        if acc == full:
            return True
        if acc | suffix[i] != full or (i, acc & suffix[i]) in failed:
            return False
        if any(dfs(i + 1, acc | m) for m in free[i]):
            return True
        failed.add((i, acc & suffix[i]))
        return False

    return dfs(0, base)


def _certify_triples(inst, meta) -> list:
    """The (sensor id, half-row step) patterns of the switch triples of
    inst that break what integerize relies on.  A p half a row up or
    down (p sits on row h) and a q half a row up or down (q sits on
    H-line h+2) must each be infeasible; an r half a row up (r sits on
    row h+3) must be feasible, so that the certificate can tell.  The
    certificate covers half steps; finer fractions (thirds, quarters,
    tenths) are covered by the equivalence run recorded in CHANGES.md
    and by the golden integerize-blocking groups."""
    by_id = inst.config.sensor_by_id()
    bad = []
    for p, q, r, h in meta.triples:
        for sid, row, dy, feasible in ((p, h, -1, False), (p, h, 1, False),
                                       (q, h + 2, -1, False),
                                       (q, h + 2, 1, False),
                                       (r, h + 3, -1, True)):
            assert by_id[sid].y == row
            pins = {sid: (int(by_id[sid].x), 2 * row + dy)}
            if _pattern_feasible(inst, pins) != feasible:
                bad.append((sid, dy))
    return bad


def test_criterion_9_integerize():
    f = Sat3_22(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3)))
    inst, meta = gen_vh(f)
    alpha, _ = sat_brute(f)
    base = embed_vh(inst, meta, f, alpha)
    by_id = inst.config.sensor_by_id()
    bad = []

    def run(tag, changes, expect):
        trial = dict(base.positions)
        trial.update(changes)
        sol = Solution(trial)
        if not verify_vh(inst, trial, require_integer=False):
            bad.append(f"{tag}: input unexpectedly invalid")
            return
        out = integerize(inst, meta, sol)
        ok = all(x.denominator == y.denominator == 1
                 for x, y in out.positions.values())
        ok &= all(out.positions[sid] == p for sid, p in expect.items())
        ok &= integerize(inst, meta, out).positions == out.positions
        ok &= verify_vh(inst, dict(out.positions))
        if not ok:
            bad.append(tag)

    def refused(tag, changes):
        trial = dict(base.positions)
        trial.update(changes)
        try:
            integerize(inst, meta, Solution(trial))
            bad.append(f"{tag}: non-blocking input accepted")
        except NotASolution:
            pass

    # half-step p and q moves leave this solution non-blocking
    p, q, r, h = meta.triples[0]
    px, py = by_id[p].x, by_id[p].y
    qx, qy = by_id[q].x, by_id[q].y
    rx, ry = by_id[r].x, by_id[r].y
    refused("p-up", {p: (px, py - H)})
    refused("p-down", {p: (px, py + H), q: (qx, qy - H), r: (rx, ry - H)})
    refused("q-up", {p: (px, py + 1), q: (qx, qy - H), r: (rx, ry - 1)})
    refused("q-down", {p: (px, py + 1), q: (qx, qy + H), r: (rx, ry - 1)})

    # the r cases admit globally valid fractional inputs: a clause
    # sensor whose slot row is already blocked by a left-stayer
    hosts = 0
    for tp, tq, tr, th in meta.triples:
        for dy in (-H, H):
            trial = dict(base.positions)
            trial[tr] = (by_id[tr].x, by_id[tr].y + dy)
            if not verify_vh(inst, trial, require_integer=False):
                continue
            hosts += 1
            run("r-up" if dy < 0 else "r-down", {tr: trial[tr]},
                {tr: (by_id[tr].x, by_id[tr].y)})
    if hosts < 2:
        bad.append("no valid fractional r-case hosts found")

    # integer inputs are fixed points
    run("integer-fixpoint", {}, dict(base.positions))

    # certify on every switch triple of this gadget and of seeded 3-
    # and 6-variable gadgets that no blocking input has a half-step p
    # or q row, while one has a half-step r row: integerize needs no
    # pass for p or q
    rng = random.Random(909)
    gadgets = [(inst, meta)] + [gen_vh(random_sat22(rng, n))
                                for n in (3, 3, 6)]
    triples = 0
    for g_inst, g_meta in gadgets:
        bad += [f"pattern {sid}{dy:+d}/2 misjudged"
                for sid, dy in _certify_triples(g_inst, g_meta)]
        triples += len(g_meta.triples)
    if not _pattern_feasible(inst, {}):
        bad.append("feasibility certifier is broken")

    report(9, not bad,
           "non-blocking p/q inputs refused; outputs integer, fixpoints "
           "and re-verified on every fractional r input (r-up, r-down) "
           f"and on integer input; on all {triples} switch triples of "
           f"{len(gadgets)} gadgets (3 and 6 variables) half-step p/q "
           "rows are certified impossible in blocking inputs, r-up rows "
           "possible" + (f"; failures: {bad}" if bad else ""))


def test_criterion_10_invariance_and_determinism():
    rng = random.Random(505)
    bad = 0
    for _ in range(40):
        cfg = random_minnum_instance(rng, max_grid=5, max_n=8)
        ref = brute_minnum(cfg)
        for tr in (transpose, reflect_x, reflect_y):
            other = tr(cfg)
            if is_blocking(other).blocking != is_blocking(cfg).blocking \
                    or brute_minnum(other) != ref:
                bad += 1
        if coverage_feasible(cfg):
            cost = solve_minsum_manhattan(cfg)[1]
            for tr in (transpose, reflect_x, reflect_y):
                if solve_minsum_manhattan(tr(cfg))[1] != cost:
                    bad += 1
    rng2 = random.Random(606)
    for _ in range(15):
        a, b = rng2.randint(2, 4), rng2.randint(2, 4)
        cfg = random_integer_config(rng2, a, b,
                                    rng2.randint(max(a, b), max(a, b) + 2),
                                    "manhattan")
        val = solve_minmax(cfg).value_squared
        for tr in (transpose, reflect_x, reflect_y):
            if solve_minmax(tr(cfg)).value_squared != val:
                bad += 1
    # continuous configurations: the gaps move with the transform, and
    # the MinSum optimum (same range everywhere) stays
    rng5 = random.Random(909)
    for _ in range(40):
        a, b = (F(rng5.randint(2, 12), rng5.randint(1, 3)) for _ in "ab")
        r = F(rng5.randint(1, 4), 2)
        cfg = Configuration(a, b, tuple(
            Sensor(i, a * F(rng5.randint(0, 12), 12),
                   b * F(rng5.randint(0, 12), 12), r)
            for i in range(rng5.randint(1, 8))), mode="continuous")
        rep = is_blocking(cfg)
        flip_x = tuple((a - hi, a - lo) for lo, hi in reversed(rep.x_gaps))
        flip_y = tuple((b - hi, b - lo) for lo, hi in reversed(rep.y_gaps))
        expected = {transpose: (rep.y_gaps, rep.x_gaps),
                    reflect_x: (flip_x, rep.y_gaps),
                    reflect_y: (rep.x_gaps, flip_y)}
        cost = solve_minsum_manhattan(cfg)[1] if coverage_feasible(cfg) \
            else None
        for tr, gaps in expected.items():
            other = is_blocking(tr(cfg))
            if (other.x_gaps, other.y_gaps) != gaps or cost is not None and \
                    solve_minsum_manhattan(tr(cfg))[1] != cost:
                bad += 1
    # translation: covering targets shift with the segment
    rng3 = random.Random(707)
    for _ in range(50):
        inst = random_minsum_1d_instance(rng3)
        targets, _ = solve_minsum_1d(inst)
        t = F(rng3.randint(-20, 20), rng3.randint(1, 7))
        ivs = [(v - inst.radius + t, v + inst.radius + t) for v in targets]
        if interval_gaps(ivs, t, inst.length + t):
            bad += 1
    # determinism: repeated solver runs are byte-identical
    rng4 = random.Random(808)
    for _ in range(20):
        cfg = random_minnum_instance(rng4)
        first = write_solution(solve_minnum(cfg).solution)
        if write_solution(solve_minnum(cfg).solution) != first:
            bad += 1
    suite = differential_suite("minnum", seed=11, count=50)
    if suite != differential_suite("minnum", seed=11, count=50):
        bad += 1
    report(10, bad == 0,
           f"transpose/reflect preserve blocking and the minnum/minsum/"
           f"minmax optima, and move the gaps of continuous configurations; "
           f"translated 1D solutions still cover; "
           f"repeated runs byte-identical ({bad} violations)")
