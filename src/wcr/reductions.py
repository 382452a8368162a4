"""Hardness-gadget instance generators with forward/backward solution
mappings, plus the fractional-to-integer normalization and a SAT oracle.

Three constructions:

* Max-2SAT with 3 occurrences per variable  ->  minimum-relocation
  instances (continuous, unit range): variable columns anchor rows, one
  sensor per literal occurrence, and a t-step uncovered diagonal band
  that exactly t relocated occurrence sensors can fill.
* 3-SAT with two positive / two negative occurrences per variable  ->
  line-blocking instances with move budget 1 (variable gadgets of eight
  sensors, one clause sensor per literal occurrence).
* Padding of a line-blocking instance into a full MinMax instance:
  border sensors force the required-line structure of the core.

Rows are numbered top-down; "up" means row index - 1.

Embeddings and extractions regenerate the gadget and meta from the
formula and require both to equal the ones given; a Configuration keeps
its sensors in id order, so an instance may list them in any order.
`integerize` takes a unit-move blocking solution of a line-blocking
gadget, positions possibly fractional, and raises NotASolution on any
other.  Input a construction cannot handle raises a WcrError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product

from .core import HALF, INTEGER_SIDE_LIMIT, Configuration, Sensor, \
    Solution, is_blocking
from .errors import DialectError, InconsistentSolution, NotASolution, \
    NotEnoughSatisfied, NotGadgetInstance, PropertyViolation, SizeLimit, \
    UnsatisfiedClause
from .minmax import VHInstance, verify_vh


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class Max2Sat3Occ:
    """2-CNF, every variable in exactly 3 clauses with mixed polarity;
    t = target number of satisfied clauses."""
    n: int
    clauses: tuple
    t: int

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise DialectError("variable count must be positive and even")
        if len(self.clauses) != 3 * self.n // 2:
            raise DialectError("clause count must be 3n/2")
        if not 0 <= self.t <= len(self.clauses):
            raise DialectError("t out of range")
        occ = {v: [] for v in range(1, self.n + 1)}
        for idx, clause in enumerate(self.clauses):
            if len(clause) != 2:
                raise DialectError(f"clause {idx} is not binary")
            for lit in clause:
                if not 1 <= abs(lit) <= self.n:
                    raise DialectError(f"literal {lit} out of range")
                occ[abs(lit)].append((idx, lit > 0))
            if abs(clause[0]) == abs(clause[1]):
                raise DialectError(
                    f"clause {idx} has variable {abs(clause[0])} twice")
        for v, entries in occ.items():
            if len(entries) != 3:
                raise DialectError(f"variable {v} occurs {len(entries)} times")
            signs = {s for _, s in entries}
            if len(signs) != 2:
                raise DialectError(f"variable {v} occurs single-polarity")

    def occurrences(self, v: int):
        return [(idx, lit > 0) for idx, clause in enumerate(self.clauses)
                for lit in clause if abs(lit) == v]


@dataclass(frozen=True)
class Sat3_22:
    """3-CNF, every variable with exactly two positive and two negative
    occurrences (hence 3m = 4n)."""
    n: int
    clauses: tuple

    def __post_init__(self):
        if self.n <= 0 or self.n % 3:
            raise DialectError("variable count must be a positive multiple of 3")
        if 3 * len(self.clauses) != 4 * self.n:
            raise DialectError("clause count must be 4n/3")
        pos = {v: 0 for v in range(1, self.n + 1)}
        neg = {v: 0 for v in range(1, self.n + 1)}
        for idx, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise DialectError(f"clause {idx} is not ternary")
            for lit in clause:
                if not 1 <= abs(lit) <= self.n:
                    raise DialectError(f"literal {lit} out of range")
                (pos if lit > 0 else neg)[abs(lit)] += 1
        for v in range(1, self.n + 1):
            if pos[v] != 2 or neg[v] != 2:
                raise DialectError(
                    f"variable {v} has {pos[v]}+/{neg[v]}- occurrences")


def eval_clause(clause, assignment) -> bool:
    return any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)


def sat_brute(f) -> tuple[tuple[bool, ...], int]:
    """Exhaustive best assignment (lexicographically smallest among the
    maximizers, False < True, variable 1 most significant)."""
    if f.n > 24:
        raise SizeLimit("sat oracle limited to 24 variables")
    best_count = -1
    best = None
    for assignment in product((False, True), repeat=f.n):
        satisfied = sum(1 for c in f.clauses if eval_clause(c, assignment))
        if satisfied > best_count:
            best_count, best = satisfied, assignment
    return best, best_count


def _check_gadget(inst, meta, gadget, gadget_meta) -> None:
    """Reject an instance or meta that differs from the gadget and meta
    gen builds from the formula (rectangle, mode, metric, sensors and,
    for VH, lines and budget), before an embedding or extraction
    indexes into them."""
    if meta != gadget_meta:
        raise NotGadgetInstance("meta was not generated from this formula")
    if inst != gadget:
        raise NotGadgetInstance("instance is not the gadget of this formula")


def _adder(sensors: list, first: int, r):
    """add(x, y): append a sensor of range r at (x, y) to sensors and
    return its id, first on the first call and one more on each next."""
    ids = count(first)

    def add(x: int, y: int) -> int:
        sensors.append(Sensor(next(ids), x, y, r))
        return sensors[-1].id
    return add


def _record(assignment: list, lit: int, error: type) -> None:
    """Set the variable of lit to lit's polarity in assignment; error
    when it already holds the other one."""
    value = lit > 0
    if assignment[abs(lit) - 1] not in (None, value):
        raise error(f"variable {abs(lit)} forced to both polarities")
    assignment[abs(lit) - 1] = value


# ---------------------------------------------------------------------------
# Max-2SAT(3 occ) -> minimum-relocation instances (continuous, range 1)

@dataclass(frozen=True)
class MinNumMeta:
    n: int
    m: int
    t: int
    side: int
    occ_sensor: dict  # (variable, clause index) -> sensor id
    alpha: dict       # variable -> sensor id
    beta: dict        # variable -> sensor id


def gen_minnum(f: Max2Sat3Occ) -> tuple[Configuration, MinNumMeta]:
    n, m, t = f.n, len(f.clauses), f.t
    side = 6 * n + 2 * t
    sensors = []
    occ_sensor = {}
    alpha = {}
    beta = {}
    add = _adder(sensors, 0, 1)
    for v in range(1, n + 1):
        z = 6 * (v - 1)
        occ = f.occurrences(v)
        # the two same-polarity occurrences flank the odd one out
        by_sign = {True: [], False: []}
        for idx, sign in occ:
            by_sign[sign].append(idx)
        pair_sign = True if len(by_sign[True]) == 2 else False
        j1, j2 = sorted(by_sign[pair_sign])
        k = by_sign[not pair_sign][0]
        alpha[v] = add(2 * m + 3 * (v - 1) + 1, z + 1)
        occ_sensor[(v, j1)] = add(2 * j1 + 1, z + 2)
        occ_sensor[(v, k)] = add(2 * k + 1, z + 3)
        occ_sensor[(v, j2)] = add(2 * j2 + 1, z + 4)
        beta[v] = add(2 * m + 3 * (v - 1) + 2, z + 5)

    config = Configuration(width=side, height=side,
                           sensors=tuple(sensors), mode="continuous",
                           metric="manhattan")
    assert config.n == 5 * n
    return config, MinNumMeta(n=n, m=m, t=t, side=side,
                              occ_sensor=occ_sensor, alpha=alpha, beta=beta)


def embed_minnum(config: Configuration, meta: MinNumMeta, f: Max2Sat3Occ,
                 assignment) -> Solution:
    """Move one occurrence sensor per counted satisfied clause onto the
    diagonal of the uncovered band; exactly t sensors move, those of the
    first true literal of each of the first t satisfied clauses."""
    _check_gadget(config, meta, *gen_minnum(f))
    satisfied = [idx for idx, c in enumerate(f.clauses)
                 if eval_clause(c, assignment)]
    if len(satisfied) < meta.t:
        raise NotEnoughSatisfied(
            f"assignment satisfies {len(satisfied)} < t={meta.t} clauses")
    positions = {s.id: (s.x, s.y) for s in config.sensors}
    for i, idx in enumerate(satisfied[:meta.t]):
        v = next(abs(l) for l in f.clauses[idx]
                 if (l > 0) == assignment[abs(l) - 1])
        spot = 6 * meta.n + 2 * i + 1  # on the uncovered diagonal
        positions[meta.occ_sensor[(v, idx)]] = (spot, spot)
    sol = Solution(positions)
    assert is_blocking(config, sol).blocking
    return sol


def extract_minnum(config: Configuration, meta: MinNumMeta, f: Max2Sat3Occ,
                   sol: Solution):
    """Read an assignment off a blocking solution that relocated at most
    t sensors; relocations must be structurally consistent (only
    occurrence sensors, one per clause, one polarity per variable)."""
    _check_gadget(config, meta, *gen_minnum(f))
    if not is_blocking(config, sol).blocking:
        raise InconsistentSolution("solution is not blocking")
    moved = [s.id for s in config.sensors
             if sol.positions[s.id] != (s.x, s.y)]
    if len(moved) > meta.t:
        raise InconsistentSolution(f"{len(moved)} > t sensors moved")
    anchors = set(meta.alpha.values()) | set(meta.beta.values())
    occ_of = {sid: key for key, sid in meta.occ_sensor.items()}
    assignment = [None] * meta.n
    clauses_used = set()
    for sid in moved:
        if sid in anchors:
            raise InconsistentSolution("an anchor sensor was relocated")
        v, idx = occ_of[sid]
        if idx in clauses_used:
            raise InconsistentSolution(
                f"two sensors of clause {idx} were relocated")
        clauses_used.add(idx)
        _record(assignment, next(l for l in f.clauses[idx] if abs(l) == v),
                InconsistentSolution)
    result = tuple(bool(a) for a in assignment)
    satisfied = sum(1 for c in f.clauses if eval_clause(c, result))
    if satisfied < meta.t:
        raise InconsistentSolution(
            "extracted assignment misses the clause target")
    return result


# ---------------------------------------------------------------------------
# 3-SAT(2,2) -> line-blocking instances with move budget 1

# variable gadget, local coordinates (column, row) within a 16x24 block
_H_LOCAL = (3, 4, 9, 10, 15, 16, 21, 22)
_V_LOCAL = (2, 6, 10, 14)
_VAR_SENSORS = (          # role -> (local column, local row)
    ("sx_a", 3, 4), ("sx_b", 3, 10),
    ("sxp_a", 7, 16), ("sxp_b", 7, 22),
    ("c1_a", 11, 2), ("c1_b", 11, 14),
    ("c2_a", 15, 8), ("c2_b", 15, 20),
)
_POS_SLOTS = (10, 16)     # shared H-rows hosting positive occurrences
_NEG_SLOTS = (4, 22)
# per-variable switch triples: slot -> roles of p and q; p sits on row
# slot - 2, the 3-clause sensor r of the slot on row slot + 1, and rows
# slot - 1, slot are the H-lines
_TRIPLES = {4: ("c1_a", "sx_a"), 10: ("c2_a", "sx_b"),
            16: ("c1_b", "sxp_a"), 22: ("c2_b", "sxp_b")}

# unit moves encoding a truth value; "up" decreases the row index; false
# moves each role's _a as true moves its _b, and the other way round
_EMBED_TRUE = {"sx_b": (-1, 0), "sx_a": (0, -1), "sxp_a": (-1, 0),
               "sxp_b": (0, -1), "c1_b": (0, 1), "c1_a": (-1, 0),
               "c2_a": (0, 1), "c2_b": (-1, 0)}
_EMBED_FALSE = {role[:-1] + ("b" if role.endswith("a") else "a"): move
                for role, move in _EMBED_TRUE.items()}


@dataclass(frozen=True)
class VHMeta:
    n: int
    m: int
    var_sensor: dict     # (variable, role) -> sensor id
    clause_sensor: dict  # (clause index, literal position) -> sensor id
    slot_row: dict       # clause sensor id -> absolute row of its sensor
    triples: tuple       # (p id, q id, r id, absolute row h)


def gen_vh(f: Sat3_22) -> tuple[VHInstance, VHMeta]:
    n, m = f.n, len(f.clauses)
    a, b = 16 * n + 4 * m, 24 * n
    sensors = []
    var_sensor = {}
    clause_sensor = {}
    slot_row = {}
    triples = []
    add = _adder(sensors, 0, HALF)
    v_lines, h_lines = set(), set()
    for v in range(1, n + 1):
        cb, rb = 16 * (v - 1), 24 * (v - 1)
        v_lines.update(cb + c for c in _V_LOCAL)
        h_lines.update(rb + r for r in _H_LOCAL)
        for role, lx, ly in _VAR_SENSORS:
            var_sensor[(v, role)] = add(cb + lx, rb + ly)

    slots = {v: {True: list(_POS_SLOTS), False: list(_NEG_SLOTS)}
             for v in range(1, n + 1)}
    for j, clause in enumerate(f.clauses):
        ccb = 16 * n + 4 * j
        v_lines.add(ccb + 2)
        for pos, lit in enumerate(clause):
            v = abs(lit)
            slot = slots[v][lit > 0].pop(0)
            row = 24 * (v - 1) + slot + 1  # one row below the shared H-line
            sid = clause_sensor[(j, pos)] = add(ccb + 3, row)
            slot_row[sid] = row
            p_role, q_role = _TRIPLES[slot]
            triples.append((var_sensor[(v, p_role)], var_sensor[(v, q_role)],
                            sid, row - 3))

    config = Configuration(width=a, height=b,
                           sensors=tuple(sensors), mode="integer",
                           metric="manhattan")
    assert config.n == 8 * n + 3 * m
    assert len(v_lines) == 4 * n + m and len(h_lines) == 8 * n
    triples.sort(key=lambda triple: triple[3])

    inst = VHInstance(config=config, v_lines=frozenset(v_lines),
                      h_lines=frozenset(h_lines), max_move=1)
    return inst, VHMeta(n=n, m=m, var_sensor=var_sensor,
                        clause_sensor=clause_sensor, slot_row=slot_row,
                        triples=tuple(triples))


def embed_vh(inst: VHInstance, meta: VHMeta, f: Sat3_22,
             assignment) -> Solution:
    """Canonical unit-move solution encoding a satisfying assignment."""
    _check_gadget(inst, meta, *gen_vh(f))
    config = inst.config
    by_id = config.sensor_by_id()
    positions = {s.id: (s.x, s.y) for s in config.sensors}

    def move(sid, dx, dy):
        s = by_id[sid]
        positions[sid] = (s.x + dx, s.y + dy)

    for v in range(1, meta.n + 1):
        table = _EMBED_TRUE if assignment[v - 1] else _EMBED_FALSE
        for role, (dx, dy) in table.items():
            move(meta.var_sensor[(v, role)], dx, dy)
    for j, clause in enumerate(f.clauses):
        true_pos = next((pos for pos, lit in enumerate(clause)
                         if (lit > 0) == assignment[abs(lit) - 1]), None)
        if true_pos is None:
            raise UnsatisfiedClause(f"clause {j} unsatisfied")
        for pos in range(3):
            sid = meta.clause_sensor[(j, pos)]
            if pos == true_pos:
                move(sid, -1, 0)  # onto the clause's V-line
            else:
                move(sid, 0, -1)  # up onto its shared H-line
    sol = Solution(positions)
    assert verify_vh(inst, sol.positions)
    return sol


def extract_vh(inst: VHInstance, meta: VHMeta, f: Sat3_22, sol: Solution):
    """Assignment read off an integer unit-move solution: a literal is
    made true iff its clause sensor moved one column left."""
    _check_gadget(inst, meta, *gen_vh(f))
    if not verify_vh(inst, sol.positions):
        raise NotASolution("not an integer unit-move blocking solution")
    by_id = inst.config.sensor_by_id()
    assignment = [None] * meta.n
    for j, clause in enumerate(f.clauses):
        left_movers = []
        for pos, lit in enumerate(clause):
            s = by_id[meta.clause_sensor[(j, pos)]]
            x, _ = sol.positions[s.id]
            if x == s.x - 1:
                left_movers.append(lit)
        if not left_movers:
            raise NotASolution(f"clause {j} has no sensor on its V-line")
        for lit in left_movers:
            _record(assignment, lit, NotASolution)
    result = tuple(bool(x) for x in assignment)
    assert all(eval_clause(c, result) for c in f.clauses)
    return result


def integerize(inst: VHInstance, meta: VHMeta, sol: Solution) -> Solution:
    """Rewrite a unit-move blocking solution of a gen vh gadget, whose
    positions may be fractional, into an integer one that blocks the
    same lines.  A solution that does not block every required line
    within budget 1 is not a solution: NotASolution.

    The first pass squares up horizontal moves: every gadget sensor has
    its unique useful V-line one column to its left, so anything but a
    full left step returns to the home column (a full left step spends
    the budget, so the row is home).  The second pass returns a
    fractional row of a switch triple's r (the 3-clause sensor on row
    h+3) home.  The rows of p (row h) and q (H-line h+2) need no pass:
    in a blocking solution they are integer (acceptance criterion 9
    certifies it for half steps; the equivalence run in CHANGES.md
    covers thirds, quarters and tenths).
    """
    by_id = inst.config.sensor_by_id()
    if inst.max_move != 1:
        raise PropertyViolation("integerize requires budget 1")
    if set(sol.positions) != set(by_id):
        raise NotGadgetInstance("solution ids do not match the instance")
    if not {sid for triple in meta.triples for sid in triple[:3]} <= set(by_id):
        raise NotGadgetInstance("meta names sensors the instance lacks")
    if not verify_vh(inst, sol.positions, require_integer=False):
        raise NotASolution("not a unit-move blocking solution")
    pos = {}
    for sid, (x, y) in sol.positions.items():  # first pass
        home = by_id[sid].x
        pos[sid] = (x, y) if x == home - 1 else (home, y)
    for _, _, r, h in meta.triples:  # second pass
        if pos[r][1].denominator != 1:
            pos[r] = (pos[r][0], h + 3)
    # on the gadget of the meta the result blocks; a meta of another
    # instance can break that
    if not verify_vh(inst, pos):
        raise NotGadgetInstance("meta does not fit the instance")
    return Solution(pos)


# ---------------------------------------------------------------------------
# padding a line-blocking instance into a full MinMax instance

@dataclass(frozen=True)
class MinMaxMapping:
    vh: VHInstance
    padded: Configuration
    dx: int
    dy: int
    v_ids: tuple  # a - |V| + 4 border sensors for the non-V columns
    h_ids: tuple


def gen_minmax(vh: VHInstance) -> tuple[Configuration, MinMaxMapping]:
    config = vh.config
    a, b = int(config.width), int(config.height)
    if vh.max_move != 1:
        raise PropertyViolation("padding construction requires budget 1")
    if a in vh.v_lines or b in vh.h_lines:
        raise PropertyViolation("last column/row must not be required")
    if any(s.x == a or s.y == b for s in config.sensors):
        raise PropertyViolation("last column/row must be free of sensors")
    dx = b - len(vh.h_lines) + 4
    dy = a - len(vh.v_lines) + 4
    width, height = a + dx + 3, b + dy + 3
    if max(width, height) > INTEGER_SIDE_LIMIT:
        raise SizeLimit(f"padded side past {INTEGER_SIDE_LIMIT}")

    non_v = [c for c in range(1, a + 1) if c not in vh.v_lines]
    non_h = [r for r in range(1, b + 1) if r not in vh.h_lines]

    sensors = [Sensor(s.id, s.x + dx, s.y + dy, s.range)
               for s in config.sensors]
    add = _adder(sensors, max((s.id for s in config.sensors), default=-1) + 1,
                 HALF)
    av = a - len(vh.v_lines)
    v_ids = [add(c + dx, av + 1 - i) for i, c in enumerate(non_v, start=1)]
    v_ids.append(add(non_v[-1] + dx, 1))         # colocated duplicate
    v_ids += [add(width, av + 3) for _ in range(3)]

    bh = b - len(vh.h_lines)
    h_ids = [add(bh + 1 - j, c + dy) for j, c in enumerate(non_h, start=1)]
    h_ids.append(add(1, non_h[-1] + dy))
    h_ids += [add(bh + 3, height) for _ in range(3)]

    padded = Configuration(width=width, height=height,
                           sensors=tuple(sensors), mode="integer",
                           metric=config.metric)
    return padded, MinMaxMapping(vh=vh, padded=padded, dx=dx, dy=dy,
                                 v_ids=tuple(v_ids), h_ids=tuple(h_ids))


# forced border moves: every v-sensor for a non-V column steps one line
# down; the duplicate goes right and the final three go left/up/down;
# h-sensors mirror this with the axes swapped.  Per axis: (step, tail)
_V_MOVES = ((0, 1), ((1, 0), (-1, 0), (0, -1), (0, 1)))
_H_MOVES = ((1, 0), ((0, 1), (0, -1), (-1, 0), (1, 0)))


def embed_minmax(mapping: MinMaxMapping, sol: Solution) -> Solution:
    vh = mapping.vh
    if mapping != gen_minmax(vh)[1]:
        raise NotGadgetInstance("meta was not generated by gen minmax")
    if not verify_vh(vh, sol.positions):
        raise NotASolution("input is not a unit-move line-blocking solution")
    by_id = mapping.padded.sensor_by_id()
    positions = {sid: (x + mapping.dx, y + mapping.dy)
                 for sid, (x, y) in sol.positions.items()}
    for ids, (step, tail) in ((mapping.v_ids, _V_MOVES),
                              (mapping.h_ids, _H_MOVES)):
        for sid, (ddx, ddy) in zip(ids, (step,) * (len(ids) - 4) + tail):
            s = by_id[sid]
            positions[sid] = (s.x + ddx, s.y + ddy)
    out = Solution(positions)
    if not is_blocking(mapping.padded, out).blocking:
        raise NotASolution("padded solution is not blocking")
    return out


def extract_minmax(mapping: MinMaxMapping, sol: Solution) -> Solution:
    """Strip the padding: shift the original sensors back; the forced-
    move analysis guarantees the result blocks V and H."""
    report = is_blocking(mapping.padded, sol)
    if not report.blocking:
        raise NotASolution("input does not block the padded grid")
    orig_ids = {s.id for s in mapping.vh.config.sensors}
    inner = Solution({sid: (x - mapping.dx, y - mapping.dy)
                      for sid, (x, y) in sol.positions.items()
                      if sid in orig_ids})
    if not verify_vh(mapping.vh, inner.positions):
        raise NotASolution("stripped solution fails line verification")
    return inner
