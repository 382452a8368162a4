"""Golden CLI corpus: exit codes, stdout and written files of every
subcommand on seeded inputs, compared with checked-in sha256 digests.

The corpus covers integer and continuous mode, both metrics, line-
blocking instances, the gen/embed/extract/integerize round trips of the
three gadget constructions, `oracle` and `diff`.  A refactor that must
keep the CLI output byte-identical keeps every digest.  After a change
that alters output on purpose, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each group whose digest it changed, added or
dropped.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

from brutes import random_max2sat3occ, random_sat22
from wcr import reductions, serialize
from wcr.cli import main
from wcr.minmax import verify_vh
from wcr.reductions import Sat3_22, sat_brute

GOLDEN = Path(__file__).with_name("golden_cli.json")
METRICS = ("manhattan", "euclidean")


def _other(metric):
    return METRICS[1 - METRICS.index(metric)]


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _config(mode, metric, width, height, sensors, **extra) -> str:
    obj = {"mode": mode, "metric": metric,
           "rect": {"width": str(width), "height": str(height)},
           "sensors": [{"id": i, "x": str(x), "y": str(y), "range": str(r)}
                       for i, (x, y, r) in enumerate(sensors)]}
    obj.update(extra)
    return _dumps(obj)


def _solution(points) -> str:
    return _dumps({"positions": [{"id": i, "x": str(x), "y": str(y)}
                                 for i, (x, y) in enumerate(points)]})


def _frac(rng, hi):
    q = rng.choice((1, 2, 3, 4, 8))
    return Fraction(rng.randint(0, int(hi * q)), q)


def _integer_cases():
    for i in range(40):
        rng = random.Random(f"integer:{i}")
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        n = rng.randint(0, 8)
        metric = rng.choice(METRICS)
        cells = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        moved = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        files = {"inst.json": _config("integer", metric, a, b,
                                      [(x, y, "1/2") for x, y in cells]),
                 "rand.json": _solution(moved)}
        other = _other(metric)
        steps = [["verify", "inst.json"],
                 ["verify", "inst.json", "--metric", other],
                 ["verify", "inst.json", "--solution", "rand.json"],
                 ["verify", "inst.json", "--solution", "rand.json",
                  "--metric", "euclidean"],
                 ["solve", "minnum", "inst.json", "-o", "minnum.json"],
                 ["verify", "inst.json", "--solution", "minnum.json"],
                 ["solve", "minsum", "inst.json", "-o", "minsum.json"],
                 ["solve", "minmax", "inst.json", "-o", "minmax.json"],
                 ["solve", "minmax", "inst.json", "--metric", other,
                  "-o", "minmax2.json"],
                 ["verify", "inst.json", "--solution", "minmax.json"],
                 ["verify", "inst.json", "--solution", "minmax2.json",
                  "--metric", other],
                 ["oracle", "minnum", "inst.json"],
                 ["oracle", "minsum", "inst.json"]]
        yield f"integer-{i}", files, steps


def _minmax_cases():
    """Sensors crowded into one corner, so optima need long moves and
    the euclidean search probes keys that are not perfect squares."""
    for i in range(12):
        rng = random.Random(f"minmax:{i}")
        a, b = rng.randint(3, 6), rng.randint(3, 6)
        n = max(a, b) + rng.randint(0, 2)
        corner = rng.randint(1, 3)
        cells = [(rng.randint(1, min(a, corner)), rng.randint(1, min(b, corner)))
                 for _ in range(n)]
        metric = rng.choice(METRICS)
        files = {"inst.json": _config("integer", metric, a, b,
                                      [(x, y, "1/2") for x, y in cells])}
        steps = [["solve", "minmax", "inst.json", "-o", "sol.json",
                  "--budget", "20000"],
                 ["verify", "inst.json", "--solution", "sol.json"],
                 ["solve", "minmax", "inst.json", "--metric", _other(metric),
                  "--budget", "20000"]]
        yield f"minmax-{i}", files, steps


def _minnum_large_cases():
    """12x12 to 40x40 grids whose plans use jumps, free slides, non-free
    slides on both axes and the transposed path (more column gaps)."""
    for i in range(8):
        rng = random.Random(f"minnum-large:{i}")
        a, b = rng.randint(12, 40), rng.randint(12, 40)
        side = max(a, b)
        n = rng.randint(side, 3 * side)
        if i % 2:
            # one or two crowded lines: free sensors are scarce, so
            # non-free sensors slide into the remaining gaps
            n = min(n, side + side // 4)
            if rng.random() < 0.5:
                rows = rng.sample(range(1, b + 1), rng.randint(1, 2))
                cells = [(rng.randint(1, a), rng.choice(rows))
                         for _ in range(n)]
            else:
                cols = rng.sample(range(1, a + 1), rng.randint(1, 2))
                cells = [(rng.choice(cols), rng.randint(1, b))
                         for _ in range(n)]
        else:
            # sensors crowd a random block, so gaps pile up on both axes
            w, h = rng.randint(a // 3, a), rng.randint(b // 3, b)
            x0, y0 = rng.randint(1, a - w + 1), rng.randint(1, b - h + 1)
            cells = [(rng.randint(x0, x0 + w - 1), rng.randint(y0, y0 + h - 1))
                     for _ in range(n)]
        files = {"inst.json": _config("integer", "manhattan", a, b,
                                      [(x, y, "1/2") for x, y in cells])}
        steps = [["verify", "inst.json"],
                 ["solve", "minnum", "inst.json", "-o", "sol.json"],
                 ["verify", "inst.json", "--solution", "sol.json"]]
        yield f"minnum-large-{i}", files, steps


def _continuous_cases():
    for i in range(24):
        rng = random.Random(f"continuous:{i}")
        w = Fraction(rng.randint(4, 16), 2)
        h = Fraction(rng.randint(4, 16), 2)
        n = rng.randint(0, 6)
        metric = rng.choice(METRICS)
        radii = ("1/2", "1", "3/4", "5/3", "2")
        shared = rng.choice(radii)
        mixed = rng.random() < 0.25
        sensors = [(_frac(rng, w), _frac(rng, h),
                    rng.choice(radii) if mixed else shared)
                   for _ in range(n)]
        moved = [(_frac(rng, w), _frac(rng, h)) for _ in range(n)]
        files = {"inst.json": _config("continuous", metric, w, h, sensors),
                 "rand.json": _solution(moved)}
        other = _other(metric)
        steps = [["verify", "inst.json"],
                 ["verify", "inst.json", "--metric", other],
                 ["verify", "inst.json", "--solution", "rand.json"],
                 ["verify", "inst.json", "--solution", "rand.json",
                  "--metric", other],
                 ["solve", "minsum", "inst.json", "-o", "minsum.json"],
                 ["verify", "inst.json", "--solution", "minsum.json",
                  "--metric", "euclidean"],
                 ["oracle", "minsum", "inst.json"],
                 ["solve", "minnum", "inst.json"],
                 ["solve", "minmax", "inst.json"]]
        yield f"continuous-{i}", files, steps


def _vh_cases():
    budgets = ("0", "1", "2", "3/2", "5/2", "3")
    for i in range(30):
        rng = random.Random(f"vh:{i}")
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        n = rng.randint(0, 5)
        metric = rng.choice(METRICS)
        cells = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        moved = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        v = [c for c in range(1, a + 1) if rng.random() < 0.5]
        h = [r for r in range(1, b + 1) if rng.random() < 0.5]
        files = {"vh.json": _config("integer", metric, a, b,
                                    [(x, y, "1/2") for x, y in cells],
                                    v_lines=v, h_lines=h,
                                    max_move=rng.choice(budgets)),
                 "rand.json": _solution(moved)}
        steps = [["verify", "vh.json"],
                 ["verify", "vh.json", "--solution", "rand.json"],
                 ["decide", "vh", "vh.json", "-o", "wit.json"],
                 ["verify", "vh.json", "--solution", "wit.json"],
                 ["oracle", "vh", "vh.json"],
                 ["decide", "vh", "vh.json", "--budget", "3"],
                 ["solve", "minmax", "vh.json"]]
        yield f"vh-{i}", files, steps


def _formula_json(f) -> str:
    obj = {"dialect": "3sat22" if isinstance(f, Sat3_22) else "max2sat-3occ",
           "variables": f.n, "clauses": [list(c) for c in f.clauses]}
    if not isinstance(f, Sat3_22):
        obj["t"] = f.t
    return _dumps(obj)


def _vh_gadget_cases():
    for i in range(6):
        rng = random.Random(f"vh-gadget:{i}")
        f = random_sat22(rng, 3 if i < 4 else 6)
        best, _ = sat_brute(f)
        inst, meta = reductions.gen_vh(f)
        # about a third of the embedded unit moves cut to half
        # length: a fractional solution for integerize
        sol = reductions.embed_vh(inst, meta, f, best)
        half = {}
        for s in inst.config.sensors:
            x, y = sol.positions[s.id]
            if rng.random() < 0.3:
                x, y = Fraction(s.x + x, 2), Fraction(s.y + y, 2)
            half[s.id] = (x, y)
        text = serialize.write_instance(inst)
        files = {"f.json": _formula_json(f),
                 "a.json": json.dumps(list(best)),
                 "false.json": json.dumps([False] * f.n),
                 "half.json": _solution(half[k] for k in sorted(half)),
                 "ge.json": text.replace('"manhattan"', '"euclidean"'),
                 "ge.json.meta": serialize.write_meta(meta)}
        gadget = ["--meta", "g.json.meta", "--instance", "g.json",
                  "--formula", "f.json"]
        steps = [["gen", "vh", "--formula", "f.json", "-o", "g.json"],
                 ["verify", "g.json"],
                 ["decide", "vh", "g.json", "-o", "w.json"],
                 ["verify", "g.json", "--solution", "w.json"],
                 ["extract", "vh", *gadget, "--solution", "w.json"],
                 ["embed", "vh", *gadget, "--assignment", "a.json",
                  "-o", "e.json"],
                 ["embed", "vh", *gadget, "--assignment", "false.json"],
                 ["extract", "vh", *gadget, "--solution", "e.json"],
                 ["integerize", "--meta", "g.json.meta", "--instance",
                  "g.json", "--solution", "e.json", "-o", "i.json"],
                 ["integerize", "--meta", "g.json.meta", "--instance",
                  "g.json", "--solution", "half.json", "-o", "ih.json"],
                 ["integerize", "--meta", "ge.json.meta", "--instance",
                  "ge.json", "--solution", "half.json"],
                 ["verify", "ge.json", "--solution", "i.json"],
                 ["decide", "vh", "ge.json"],
                 ["gen", "minmax", "--vh", "g.json", "-o", "p.json"],
                 ["embed", "minmax", "--meta", "p.json.meta", "--solution",
                  "e.json", "-o", "pe.json"],
                 ["verify", "p.json", "--solution", "pe.json"],
                 ["extract", "minmax", "--meta", "p.json.meta",
                  "--solution", "pe.json", "-o", "x.json"],
                 ["extract", "minmax", "--meta", "p.json.meta",
                  "--solution", "e.json"]]
        yield f"vh-gadget-{i}", files, steps


def _blocking_walk(rng, inst, meta, start, snapshots):
    """Random walk of fractional moves (halves, thirds, quarters and
    tenths) from the solution start that keeps a move only while the
    solution still blocks: r sensors of the switch triples step along
    their column, any sensor drifts along its row.  Returns snapshots
    states, taken at the first multiples of ten accepted moves that
    leave both a fractional r row and a fractional column."""
    by_id = inst.config.sensor_by_id()
    ids = sorted(by_id)
    rs = [r for _, _, r, _ in meta.triples]
    cur, out, accepted = dict(start), [], 0
    while len(out) < snapshots:
        sid = rng.choice(rs) if rng.random() < 0.5 else rng.choice(ids)
        s, q = by_id[sid], rng.choice((2, 3, 4, 10))
        d = Fraction(rng.randint(-q, q), q)
        x, y = cur[sid]
        trial = dict(cur)
        trial[sid] = (x, s.y + d) if sid in rs and rng.random() < 0.7 \
            else (s.x + d, y)
        if not verify_vh(inst, trial, require_integer=False):
            continue
        cur, accepted = trial, accepted + 1
        if accepted % 10 == 0 and \
                any(cur[r][1].denominator != 1 for r in rs) and \
                any(x.denominator != 1 for x, _ in cur.values()):
            out.append(cur)
    return out


def _integerize_cases():
    """Blocking fractional solutions of 3- and 6-variable gadgets:
    integerize normalizes them, and its output verifies and is a
    fixpoint."""
    for i in range(4):
        rng = random.Random(f"integerize:{i}")
        f = random_sat22(rng, 3 if i < 2 else 6)
        inst, meta = reductions.gen_vh(f)
        best, _ = sat_brute(f)
        sol = reductions.embed_vh(inst, meta, f, best)
        walked = _blocking_walk(rng, inst, meta, sol.positions, 3)
        text = serialize.write_instance(inst)
        files = {"g.json": text, "g.json.meta": serialize.write_meta(meta),
                 "ge.json": text.replace('"manhattan"', '"euclidean"')}
        steps = []
        for k, positions in enumerate(walked):
            files[f"w{k}.json"] = _solution(positions[sid]
                                            for sid in sorted(positions))
            steps += [["integerize", "--meta", "g.json.meta", "--instance",
                       "g.json", "--solution", f"w{k}.json",
                       "-o", f"i{k}.json"],
                      ["verify", "g.json", "--solution", f"i{k}.json"],
                      ["integerize", "--meta", "g.json.meta", "--instance",
                       "g.json", "--solution", f"i{k}.json"],
                      ["integerize", "--meta", "g.json.meta", "--instance",
                       "ge.json", "--solution", f"w{k}.json"]]
        yield f"integerize-blocking-{i}", files, steps


def _minnum_gadget_cases():
    for i in range(6):
        rng = random.Random(f"minnum-gadget:{i}")
        f = random_max2sat3occ(rng, 2 if i < 3 else 4)
        best, _ = sat_brute(f)
        files = {"f.json": _formula_json(f),
                 "a.json": json.dumps(list(best)),
                 "false.json": json.dumps([False] * f.n)}
        gadget = ["--meta", "g.json.meta", "--instance", "g.json",
                  "--formula", "f.json"]
        steps = [["gen", "minnum", "--formula", "f.json", "-o", "g.json"],
                 ["verify", "g.json"],
                 ["embed", "minnum", *gadget, "--assignment", "a.json",
                  "-o", "e.json"],
                 ["embed", "minnum", *gadget, "--assignment", "false.json"],
                 ["verify", "g.json", "--solution", "e.json"],
                 ["verify", "g.json", "--solution", "e.json",
                  "--metric", "euclidean"],
                 ["extract", "minnum", *gadget, "--solution", "e.json"],
                 ["solve", "minsum", "g.json"],
                 ["gen", "vh", "--formula", "f.json", "-o", "bad.json"]]
        yield f"minnum-gadget-{i}", files, steps


def _minmax_gadget_cases():
    """Padding of small budget-1 line-blocking instances whose last
    column and row are free, as gen minmax requires."""
    for i in range(8):
        rng = random.Random(f"minmax-gadget:{i}")
        a, b = rng.randint(3, 5), rng.randint(3, 5)
        n = rng.randint(1, 4)
        cells = [(rng.randint(1, a - 1), rng.randint(1, b - 1))
                 for _ in range(n)]
        v = [c for c in range(1, a) if rng.random() < 0.5]
        h = [r for r in range(1, b) if rng.random() < 0.5]
        files = {"vh.json": _config("integer", rng.choice(METRICS), a, b,
                                    [(x, y, "1/2") for x, y in cells],
                                    v_lines=v, h_lines=h, max_move="1")}
        steps = [["gen", "minmax", "--vh", "vh.json", "-o", "p.json",
                  "--meta", "p.meta"],
                 ["decide", "vh", "vh.json", "-o", "w.json"],
                 ["embed", "minmax", "--meta", "p.meta", "--solution",
                  "w.json", "-o", "pe.json"],
                 ["verify", "p.json", "--solution", "pe.json"],
                 ["extract", "minmax", "--meta", "p.meta",
                  "--solution", "pe.json"],
                 ["solve", "minnum", "p.json"]]
        yield f"minmax-gadget-{i}", files, steps


def _reorder(text, rng=None) -> str:
    """The instance document text with its sensors listed in reverse
    order, or shuffled by rng."""
    obj = json.loads(text)
    if rng is None:
        obj["sensors"].reverse()
    else:
        rng.shuffle(obj["sensors"])
    return _dumps(obj)


def _sensor_order_cases():
    """Instances whose sensors are listed out of id order, reversed and
    shuffled: plain ones of both modes, line-blocking ones and the
    minnum and vh gadgets.  Each must give the output of its id-ordered
    listing."""
    for i in range(4):
        rng = random.Random(f"sensor-order:{i}")
        a, b = rng.randint(3, 5), rng.randint(3, 5)
        n = max(a, b) + rng.randint(0, 3)
        cells = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        w, h = Fraction(rng.randint(4, 12), 2), Fraction(rng.randint(4, 12), 2)
        homes = [(_frac(rng, w), _frac(rng, h)) for _ in range(n)]
        v = [c for c in range(1, a) if rng.random() < 0.5]
        hl = [r for r in range(1, b) if rng.random() < 0.5]
        texts = {
            "int": _config("integer", "manhattan", a, b,
                           [(x, y, "1/2") for x, y in cells]),
            "cont": _config("continuous", "manhattan", w, h,
                            [(x, y, "1") for x, y in homes]),
            "vh": _config("integer", rng.choice(METRICS), a, b,
                          [(x, y, "1/2") for x, y in cells
                           if x < a and y < b],
                          v_lines=v, h_lines=hl,
                          max_move="1")}
        moved = {"int": [(rng.randint(1, a), rng.randint(1, b))
                         for _ in range(n)],
                 "cont": [(_frac(rng, w), _frac(rng, h)) for _ in range(n)]}
        for order in ("reversed", "shuffled"):
            shuffle = rng if order == "shuffled" else None
            files = {f"{kind}.json": _reorder(text, shuffle)
                     for kind, text in texts.items()}
            steps = []
            for kind, problems in (("int", ("minnum", "minsum", "minmax")),
                                   ("cont", ("minsum",))):
                inst = f"{kind}.json"
                files[f"{kind}-rand.json"] = _solution(moved[kind])
                steps += [["verify", inst],
                          ["verify", inst, "--solution", f"{kind}-rand.json"],
                          ["verify", inst, "--solution", f"{kind}-rand.json",
                           "--metric", "euclidean"]]
                for problem in problems:
                    sol = f"{kind}-{problem}.json"
                    steps += [["solve", problem, inst, "-o", sol],
                              ["verify", inst, "--solution", sol]]
                steps.append(["oracle", "minsum", inst])
            steps += [["solve", "minmax", "int.json", "--metric", "euclidean"],
                      ["oracle", "minnum", "int.json"],
                      ["verify", "vh.json"],
                      ["decide", "vh", "vh.json", "-o", "vh-w.json"],
                      ["oracle", "vh", "vh.json"],
                      ["gen", "minmax", "--vh", "vh.json", "-o", "vh-p.json"],
                      ["embed", "minmax", "--meta", "vh-p.json.meta",
                       "--solution", "vh-w.json", "-o", "vh-pe.json"],
                      ["extract", "minmax", "--meta", "vh-p.json.meta",
                       "--solution", "vh-pe.json"]]
            yield f"sensor-order-{order}-{i}", files, steps
    for i in range(2):
        rng = random.Random(f"sensor-order-gadget:{i}")
        f22 = random_sat22(rng, 3)
        f23 = random_max2sat3occ(rng, 2 * (i + 1))
        best22, _ = sat_brute(f22)
        best23, _ = sat_brute(f23)
        inst, meta = reductions.gen_vh(f22)
        sol = reductions.embed_vh(inst, meta, f22, best22)
        half = {s.id: (Fraction(s.x + x, 2), Fraction(s.y + y, 2))
                if rng.random() < 0.3 else (x, y)
                for s in inst.config.sensors
                for x, y in [sol.positions[s.id]]}
        mn, mn_meta = reductions.gen_minnum(f23)
        for order in ("reversed", "shuffled"):
            shuffle = rng if order == "shuffled" else None
            files = {"vh.json": _reorder(serialize.write_instance(inst),
                                         shuffle),
                     "vh.json.meta": serialize.write_meta(meta),
                     "f22.json": _formula_json(f22),
                     "a22.json": json.dumps(list(best22)),
                     "half.json": _solution(half[k] for k in sorted(half)),
                     "mn.json": _reorder(serialize.write_instance(mn),
                                         shuffle),
                     "mn.json.meta": serialize.write_meta(mn_meta),
                     "f23.json": _formula_json(f23),
                     "a23.json": json.dumps(list(best23))}
            vh = ["--meta", "vh.json.meta", "--instance", "vh.json",
                  "--formula", "f22.json"]
            minnum = ["--meta", "mn.json.meta", "--instance", "mn.json",
                      "--formula", "f23.json"]
            steps = [["embed", "vh", *vh, "--assignment", "a22.json",
                      "-o", "e.json"],
                     ["extract", "vh", *vh, "--solution", "e.json"],
                     ["decide", "vh", "vh.json", "-o", "w.json"],
                     ["extract", "vh", *vh, "--solution", "w.json"],
                     ["integerize", "--meta", "vh.json.meta", "--instance",
                      "vh.json", "--solution", "half.json", "-o", "ih.json"],
                     ["verify", "vh.json", "--solution", "ih.json"],
                     ["integerize", "--meta", "vh.json.meta", "--instance",
                      "vh.json", "--solution", "e.json"],
                     ["gen", "minmax", "--vh", "vh.json", "-o", "p.json"],
                     ["embed", "minmax", "--meta", "p.json.meta",
                      "--solution", "e.json", "-o", "pe.json"],
                     ["extract", "minmax", "--meta", "p.json.meta",
                      "--solution", "pe.json"],
                     ["embed", "minnum", *minnum, "--assignment", "a23.json",
                      "-o", "me.json"],
                     ["verify", "mn.json", "--solution", "me.json"],
                     ["extract", "minnum", *minnum, "--solution", "me.json"],
                     ["solve", "minsum", "mn.json"]]
            yield f"sensor-order-gadget-{order}-{i}", files, steps


def _diff_cases():
    for problem in ("minnum", "minsum", "vh", "minmax"):
        for seed in (0, 7):
            steps = [["diff", problem, "--seed", str(seed), "--count", "12"]]
            if problem != "minsum":  # its generator takes no grid bound
                steps.append(["diff", problem, "--seed", str(seed),
                              "--count", "6", "--max-grid", "3"])
            yield f"diff-{problem}-{seed}", {}, steps


_HUGE = (10**110 + 1, 3 * 10**109 + 7)  # coprime denominators near 1e110


def _mixed(rng, hi):
    q = rng.choice((1, 3, 997) + _HUGE)
    return Fraction(rng.randint(0, int(hi * q)), q)


def _boundary_cases():
    """verify on continuous solutions with large mixed denominators, on
    many oblique euclidean moves, and on each rejected final position,
    configuration and rational."""
    for i in range(8):
        rng = random.Random(f"boundary:{i}")
        w, h = Fraction(rng.randint(3, 12)), Fraction(rng.randint(6, 30), 2)
        n = rng.randint(1, 10)
        radius = rng.choice(("1", "5/3", f"1/{_HUGE[0]}"))
        homes = [(_mixed(rng, w), _mixed(rng, h)) for _ in range(n)]
        moved = [(_mixed(rng, w), _mixed(rng, h)) for _ in range(n)]
        # axis-aligned moves keep the euclidean sum exact
        axis = [(x, y) if j % 2 else (hx, y)
                for j, ((x, y), (hx, _)) in enumerate(zip(moved, homes))]
        files = {"inst.json": _config("continuous", rng.choice(METRICS), w, h,
                                      [(x, y, radius) for x, y in homes]),
                 "rand.json": _solution(moved),
                 "axis.json": _solution(axis)}
        steps = [["verify", "inst.json"]]
        for sol in ("rand.json", "axis.json"):
            for metric in METRICS:
                steps.append(["verify", "inst.json", "--solution", sol,
                              "--metric", metric])
        yield f"boundary-mixed-{i}", files, steps
    for i in range(4):
        rng = random.Random(f"boundary-oblique:{i}")
        a, b = rng.randint(5, 40), rng.randint(5, 40)
        n = rng.randint(max(a, b), 2 * max(a, b))
        cells = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        moved = [(rng.randint(1, a), rng.randint(1, b)) for _ in range(n)]
        files = {"inst.json": _config("integer", "euclidean", a, b,
                                      [(x, y, "1/2") for x, y in cells]),
                 "rand.json": _solution(moved)}
        steps = [["verify", "inst.json", "--solution", "rand.json"],
                 ["verify", "inst.json", "--solution", "rand.json",
                  "--metric", "manhattan"],
                 ["solve", "minnum", "inst.json", "-o", "mn.json"],
                 ["verify", "inst.json", "--solution", "mn.json"]]
        yield f"boundary-oblique-{i}", files, steps
    # every Solution.validate exit, in integer and continuous mode; the
    # final positions are fine except at the index named in the file
    grid = _config("integer", "euclidean", 3, 2,
                   [(1, 1, "1/2"), (2, 2, "1/2"), (3, 1, "1/2")])
    box = _config("continuous", "manhattan", 3, 2,
                  [(0, 0, "1"), (f"3/{_HUGE[0]}", 2, "1"), (3, "3/2", "1")])
    files = {"grid.json": grid, "box.json": box}
    steps = []
    tiny = Fraction(1, _HUGE[1])
    bad = {"ids-missing": [(1, 1), (2, 2)],
           "ids-extra": [(1, 1), (2, 2), (3, 1), (1, 2)],
           "ok-edges": [(1, 1), (3, 2), (3, 1)],
           "ok-half": [(Fraction(1, 2), 1), (3, 2), (3, 1)],
           "x-low": [(1, 1), (Fraction(1, 2) - tiny, 2), (3, 1)],
           "x-high": [(1, 1), (2, 2), (Fraction(7, 2) + tiny, 1)],
           "y-low": [(1, 1), (2, Fraction(1, 4)), (3, 1)],
           "y-high": [(1, 1), (2, 2), (3, Fraction(5, 2) + tiny)],
           "x-off": [(1, 1), (Fraction(5, 3), 2), (3, 1)],
           "y-off": [(1, 1), (2, 2), (3, Fraction(3, 2))],
           "x-edge-off": [(Fraction(7, 2), 1), (2, 2), (3, 1)],
           "y-edge-off": [(1, Fraction(1, 2)), (2, 2), (3, 1)],
           "off-then-out": [(Fraction(3, 2), 1), (2, 5), (3, 1)],
           "out-then-off": [(0, 1), (Fraction(3, 2), 2), (3, 1)],
           "neg": [(-1, 1), (2, 2), (3, 1)],
           "box-edges": [(0, 0), (3, 2), (tiny, 2 - tiny)]}
    for name, points in bad.items():
        files[f"{name}.json"] = _solution(points)
        for inst in ("grid.json", "box.json"):
            steps.append(["verify", inst, "--solution", f"{name}.json"])
    yield "boundary-solutions", files, steps
    # configurations and rationals the boundary layer must reject
    sensor = '{"id": %s, "x": %s, "y": %s, "range": %s}'
    rect = '{"mode": "%s", "rect": {"width": "%s", "height": "%s"}, ' \
           '"sensors": [%s]}\n'
    cfgs = {
        "good": ("integer", 3, 2, [(0, '"1"', 1, '"1/2"'), (1, 3, 2, '"0.5"')]),
        "x-true": ("integer", 3, 2, [(0, '"1"', 1, '"1/2"'),
                                     (1, "true", 2, '"1/2"')]),
        "y-false": ("continuous", 3, 2, [(0, '"1"', "false", '"1"')]),
        "id-true": ("integer", 3, 2, [("true", 1, 1, '"1/2"')]),
        "range": ("integer", 3, 2, [(0, 1, 1, '"1"')]),
        "range-zero": ("continuous", 3, 2, [(0, 1, 1, '"0"')]),
        "range-neg": ("continuous", 3, 2, [(0, 1, 1, '"-1/2"')]),
        "off-grid": ("integer", 3, 2, [(0, 1, '"3/2"', '"1/2"')]),
        "x-zero": ("integer", 3, 2, [(0, 0, 1, '"1/2"')]),
        "y-over": ("integer", 3, 2, [(0, 1, 3, '"1/2"')]),
        "off-and-out": ("integer", 3, 2, [(0, '"7/2"', 1, '"1/2"')]),
        "dims": ("integer", "3/2", 2, []),
        "dims-zero": ("continuous", 0, 2, []),
        "dup": ("integer", 3, 2, [(0, 1, 1, '"1/2"'), (0, 2, 2, '"1/2"')]),
        "neg-id": ("integer", 3, 2, [(-1, 1, 1, '"1/2"')]),
        "box-out": ("continuous", 3, 2, [(0, '"%d/%d"' % (3 * _HUGE[0] + 1,
                                                         _HUGE[0]), 1, 1)]),
        "box-edge": ("continuous", 3, 2, [(0, 3, '"2"', 1), (1, 0, 0, 1)]),
        "mode": ("grid", 3, 2, []),
    }
    files, steps = {}, []
    for name, (mode, width, height, sensors) in cfgs.items():
        body = ", ".join(sensor % s for s in sensors)
        files[f"{name}.json"] = rect % (mode, width, height, body)
        steps.append(["verify", f"{name}.json"])
        steps.append(["solve", "minnum", f"{name}.json"])
    yield "boundary-configs", files, steps


def _bench_scale_cases():
    """At benchmark scale: solve minnum and verify on a 400x400 grid of
    800 sensors, and verify a 200-sensor continuous solution."""
    rng = random.Random("bench-scale:minnum")
    cells = [(rng.randint(1, 400), rng.randint(1, 400)) for _ in range(800)]
    yield "bench-scale-minnum", {
        "inst.json": _config("integer", "manhattan", 400, 400,
                             [(x, y, "1/2") for x, y in cells])}, [
        ["solve", "minnum", "inst.json", "-o", "sol.json"],
        ["verify", "inst.json", "--solution", "sol.json"]]
    rng = random.Random("bench-scale:continuous")
    homes = [(_frac(rng, 60), _frac(rng, 50), "1/3") for _ in range(200)]
    # the first 90 on a diagonal that blocks, the rest anywhere
    moved = [(Fraction(2 * i + 1, 3), Fraction(5 * (2 * i + 1), 18))
             for i in range(90)]
    moved += [(_frac(rng, 60), _frac(rng, 50)) for _ in homes[90:]]
    yield "bench-scale-continuous", {
        "inst.json": _config("continuous", "euclidean", 60, 50, homes),
        "sol.json": _solution(moved)}, [
        ["verify", "inst.json", "--solution", "sol.json"],
        ["verify", "inst.json", "--solution", "sol.json",
         "--metric", "manhattan"]]


def _error_cases():
    plain = _config("integer", "manhattan", 2, 2, [(1, 1, "1/2")])
    yield "errors", {
        "bad.json": "{nope",
        "plain.json": plain,
        "lines.json": plain[:-2] + ', "v_lines": 1, "h_lines": []}\n',
        "meta.json": '{"kind": "other"}',
        "frac.json": _solution([(Fraction(3, 2), 1)]),
        "ids.json": _solution([(1, 1), (2, 2)]),
    }, [["verify", "bad.json"],
        ["verify", "missing.json"],
        ["verify", "lines.json"],
        ["verify", "plain.json", "--solution", "frac.json"],
        ["verify", "plain.json", "--solution", "ids.json"],
        ["decide", "vh", "plain.json"],
        ["oracle", "vh", "plain.json"],
        ["gen", "vh", "--formula", "plain.json", "-o", "g.json"],
        ["gen", "minmax", "--vh", "plain.json", "-o", "g.json"],
        ["embed", "minmax", "--meta", "meta.json", "--solution", "ids.json"],
        ["integerize", "--meta", "plain.json", "--instance", "plain.json",
         "--solution", "ids.json"]]


def corpus():
    for group in (_integer_cases, _minmax_cases, _minnum_large_cases,
                  _continuous_cases,
                  _vh_cases, _vh_gadget_cases, _integerize_cases,
                  _minnum_gadget_cases,
                  _minmax_gadget_cases, _diff_cases, _error_cases,
                  _boundary_cases, _sensor_order_cases, _bench_scale_cases):
        yield from group()


def run_case(workdir: Path, files, steps) -> str:
    """sha256 over each step's argv, exit code and stdout and over every
    file left in the working directory."""
    workdir.mkdir()
    for name, text in files.items():
        (workdir / name).write_text(text)
    record = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in steps:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            record.append([argv, code, out.getvalue()])
    finally:
        os.chdir(cwd)
    written = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    payload = json.dumps([record, written], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def digests(root: Path) -> dict[str, str]:
    return {name: run_case(root / name, files, steps)
            for name, files, steps in corpus()}


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    import tempfile

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = digests(Path(tmp))
    GOLDEN.write_text(_dumps(new))
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(name)
