"""Independent brute-force references and seeded generators shared by
the test modules.  Everything here is deliberately naive."""

import random
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

from wcr.core import HALF, MAX_DIGITS, Configuration, CostReport, \
    CoverageReport, Sensor, Solution, _sqrt_bounds, distance, exact_sqrt, \
    is_blocking, rat_str
from wcr.errors import Infeasible, KeyMismatch, SearchLimit, SizeLimit, \
    ValidationError
from wcr.matching import Graph, minimum_edge_cover
from wcr.minmax import DEFAULT_NODE_BUDGET, VHInstance, verify_vh
from wcr.minnum import TYPE0, TYPE1, TYPE2, TYPE3, TYPE4, MinNumPlan, \
    _require_integer
from wcr.minsum import ORACLE_GRID_CELLS, Line1DInstance, oracle_step
from wcr.reductions import Max2Sat3Occ, Sat3_22


def brute_max_matching_size(vertex_count: int, edges) -> int:
    """Exhaustive maximum matching (edge-subset recursion)."""
    edges = list(edges)

    def go(i, used):
        if i == len(edges):
            return 0
        best = go(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + go(i + 1, used | {u, v}))
        return best

    return go(0, frozenset())


def coverage_feasible(config) -> bool:
    """Whether the sensors' diameters add up to the longer side, which
    any blocking configuration needs."""
    return sum(2 * s.range for s in config.sensors) >= max(config.width,
                                                             config.height)


def interval_gaps(intervals, lo: Fraction, hi: Fraction
                  ) -> list[tuple[Fraction, Fraction]]:
    """Maximal open sub-intervals of [lo, hi] not covered by the union of
    the given closed Fraction intervals (endpoint-sorted sweep): the
    sweep is_blocking ran before it scaled each axis to ints."""
    spans = sorted((a, b) for a, b in intervals if b >= lo and a <= hi)
    gaps = []
    cursor = lo
    for a, b in spans:
        if a > cursor:
            gaps.append((cursor, min(a, hi)))
        if b > cursor:
            cursor = b
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def occupancy(config, removed=frozenset()):
    rows, cols = set(), set()
    for s in config.sensors:
        if s.id not in removed:
            rows.add(s.y)
            cols.add(s.x)
    return rows, cols


def _line_members(config):
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for s in config.sensors:
        rows.setdefault(int(s.y), []).append(s.id)
        cols.setdefault(int(s.x), []).append(s.id)
    return rows, cols


def reference_classify(config) -> dict[int, int]:
    """The three-pass 0-4 taxonomy as first written (type 2 = a free
    sensor with a type-1 mate in its row and in its column, type 4 = a
    free sensor whose row and column hold only free sensors, type 3 =
    the other free sensors); `wcr.minnum.classify` must agree."""
    rows, cols = _line_members(config)

    free = {}
    for s in config.sensors:
        free[s.id] = (len(rows[int(s.y)]) > 1 and len(cols[int(s.x)]) > 1)

    types: dict[int, int] = {}
    for s in config.sensors:
        row_mates = [i for i in rows[int(s.y)] if i != s.id]
        col_mates = [i for i in cols[int(s.x)] if i != s.id]
        if not row_mates and not col_mates:
            types[s.id] = TYPE0
        elif not free[s.id]:
            types[s.id] = TYPE1
    for s in config.sensors:
        if s.id in types:
            continue
        row_has_t1 = any(types.get(i) == TYPE1
                         for i in rows[int(s.y)] if i != s.id)
        col_has_t1 = any(types.get(i) == TYPE1
                         for i in cols[int(s.x)] if i != s.id)
        row_all_free = all(free[i] for i in rows[int(s.y)])
        col_all_free = all(free[i] for i in cols[int(s.x)])
        if row_has_t1 and col_has_t1:
            types[s.id] = TYPE2
        elif row_all_free and col_all_free:
            types[s.id] = TYPE4
        else:
            types[s.id] = TYPE3
    assert len(types) == config.n
    return types


def brute_max_free_set_size(config) -> int:
    """Largest set of free sensors (each shares its row and its column
    with another sensor) whose removal leaves every occupied row and
    column occupied."""
    free = [s.id for s in config.sensors
            if sum(t.y == s.y for t in config.sensors) > 1
            and sum(t.x == s.x for t in config.sensors) > 1]
    rows0, cols0 = occupancy(config)
    best = 0
    for k in range(len(free), 0, -1):
        for sub in combinations(free, k):
            if occupancy(config, frozenset(sub)) == (rows0, cols0):
                return k
    return best


def certified_free_set_size(config) -> int:
    """The size k of a maximum free set, by a certificate that runs at
    any scale: k = |free| - |all-free rows| - |all-free columns| + nu(B),
    B the bipartite graph of all-free rows x all-free columns with one
    edge per free sensor on both (type 4).  (The free graph's hub y has
    one edge, so its matching number is 1 + nu(B); Gallai's identity
    gives the edge cover.)  nu(B) is certified by a matching (Kuhn's
    augmenting paths) and a König vertex cover of the same size, found
    from the alternating paths out of the unmatched rows and checked
    with one pass over B's edges.  Shares no code with wcr.matching."""
    cells = [(int(s.y), int(s.x)) for s in config.sensors]
    rows, cols = Counter(y for y, _ in cells), Counter(x for _, x in cells)
    free = [rows[y] > 1 and cols[x] > 1 for y, x in cells]
    free_rows = set(rows) - {y for (y, _), f in zip(cells, free) if not f}
    free_cols = set(cols) - {x for (_, x), f in zip(cells, free) if not f}
    edges = [(y, x) for y, x in cells if y in free_rows and x in free_cols]
    adj = {y: [] for y in free_rows}
    for y, x in edges:
        adj[y].append(x)
    row_of = {}  # matched column -> its row

    def augment(y, seen) -> bool:  # as deep as there are rows
        for x in adj[y]:
            if x not in seen:
                seen.add(x)
                if x not in row_of or augment(row_of[x], seen):
                    row_of[x] = y
                    return True
        return False

    for y in sorted(free_rows):
        augment(y, set())
    # König: Z holds what alternating paths from unmatched rows reach
    z_rows = free_rows - set(row_of.values())
    z_cols = set()
    todo = deque(z_rows)
    while todo:
        for x in adj[todo.popleft()]:
            if x not in z_cols:
                assert x in row_of, "an augmenting path: matching not maximum"
                z_cols.add(x)
                z_rows.add(row_of[x])
                todo.append(row_of[x])
    cover_rows = free_rows - z_rows  # the cover: these rows and z_cols
    edge_set = set(edges)
    assert len(set(row_of.values())) == len(row_of) == \
        len(cover_rows) + len(z_cols)
    assert all((y, x) in edge_set for x, y in row_of.items())
    assert all(y in cover_rows or x in z_cols for y, x in edges)
    return sum(free) - len(free_rows) - len(free_cols) + len(row_of)


def random_graph(rng: random.Random, max_vertices: int = 10):
    """Random simple graph without isolated vertices, as an edge list."""
    while True:
        n = rng.randint(2, max_vertices)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.35]
        if all(any(x in e for e in edges) for x in range(n)):
            return n, edges


def random_sat22(rng: random.Random, n: int) -> Sat3_22:
    """Random 3-SAT(2,2) formula on n variables (a positive multiple of
    3, else ValueError): 4n/3 clauses, each variable with two positive
    and two negative occurrences in three distinct clauses."""
    if n <= 0 or n % 3:
        raise ValueError(f"n must be a positive multiple of 3, not {n}")
    while True:
        lits = [s * v for v in range(1, n + 1) for s in (1, 1, -1, -1)]
        rng.shuffle(lits)
        clauses = [tuple(lits[i:i + 3]) for i in range(0, len(lits), 3)]
        if all(len({abs(l) for l in c}) == 3 for c in clauses):
            return Sat3_22(n, tuple(clauses))


def random_max2sat3occ(rng: random.Random, n: int,
                       t: int | None = None) -> Max2Sat3Occ:
    """Random 3-occurrence Max-2SAT formula; t defaults to the true
    optimum so embeddings are always possible."""
    from wcr.reductions import sat_brute
    while True:
        lits = []
        for v in range(1, n + 1):
            signs = rng.choice(((1, 1, -1), (1, -1, -1)))
            lits.extend(s * v for s in signs)
        rng.shuffle(lits)
        clauses = [tuple(lits[i:i + 2]) for i in range(0, 3 * n, 2)]
        if any(abs(a) == abs(b) for a, b in clauses):
            continue
        f = Max2Sat3Occ(n, tuple(clauses), 0)
        if t is None:
            _, best = sat_brute(f)
            return Max2Sat3Occ(n, tuple(clauses), best)
        return Max2Sat3Occ(n, tuple(clauses), t)


# --- MinSum 1D: the original all-Fraction candidate-grid DP, kept as the
# reference that the integer solver must match output for output.

INF = None  # sentinel: Fractions compare poorly with float inf


def _lt(a, b) -> bool:
    """a < b with None acting as +infinity."""
    if a is INF:
        return False
    if b is INF:
        return True
    return a < b


def reference_candidate_targets(inst: Line1DInstance,
                                keep=lambda v: True) -> list[Fraction]:
    r, L = inst.radius, inst.length
    n = len(inst.points)
    raw = set()
    for k in range(-n, n + 1):
        raw.add(r + 2 * r * k)
        raw.add(L - r - 2 * r * k)
        for p in inst.points:
            raw.add(p + 2 * r * k)
    clamped = {min(max(v, Fraction(0)), L) for v in raw}
    return sorted(v for v in clamped if keep(v))


def reference_minsum_1d(inst: Line1DInstance, *, keep=lambda v: True
                         ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal targets (aligned to input order) and their total cost.

    `keep` optionally filters the candidate grid (used by the integer-
    mode caller to stay on lattice points; safe whenever an optimum
    exists within the filtered set).
    """
    if not inst.feasible:
        raise Infeasible("sum of diameters shorter than the segment")
    n = len(inst.points)
    r, L = inst.radius, inst.length
    order = sorted(range(n), key=lambda i: (inst.points[i], i))
    pts = [inst.points[i] for i in order]
    C = reference_candidate_targets(inst, keep)
    m = len(C)
    done_from = next((c for c in range(m) if C[c] >= L - r), m)

    # suffix DP: best[c] = min cost of sensors i..n-1 given the last
    # placed target is C[c] (chain valid so far); best[m] = nothing
    # placed yet (the next placed target must be <= r).
    # A state c >= done_from is terminal: remaining sensors stay put.
    upper = []  # upper[c] = last c' with C[c'] <= C[c] + 2r
    hi = 0
    for c in range(m):
        hi = max(hi, c)
        while hi + 1 < m and C[hi + 1] <= C[c] + 2 * r:
            hi += 1
        upper.append(hi)
    start_ub = -1
    while start_ub + 1 < m and C[start_ub + 1] <= r:
        start_ub += 1

    best = [Fraction(0) if c >= done_from else INF for c in range(m)]
    best.append(INF)  # start state
    layers = [list(best)]
    for i in range(n - 1, -1, -1):
        nxt = best
        cur = [Fraction(0)] * m + [INF]
        # sliding-window minimum of place-cost f(c') over c' in [c, upper[c]]
        window: deque[int] = deque()

        def f(cp):
            return INF if nxt[cp] is INF else abs(pts[i] - C[cp]) + nxt[cp]

        pushed = -1
        for c in range(min(done_from, m)):
            while pushed < upper[c]:
                pushed += 1
                while window and not _lt(f(window[-1]), f(pushed)):
                    window.pop()
                window.append(pushed)
            while window[0] < c:
                window.popleft()
            placed = f(window[0])
            cur[c] = placed if _lt(placed, nxt[c]) else nxt[c]
        start_best = nxt[m]
        for cp in range(start_ub + 1):
            v = f(cp)
            if _lt(v, start_best):
                start_best = v
        cur[m] = start_best
        best = cur
        layers.append(list(best))
    layers.reverse()  # layers[i] = DP values before placing sensor i

    total = layers[0][m]
    if total is INF:
        raise Infeasible("no covering assignment exists")  # pragma: no cover

    # forward reconstruction; ties broken toward the smallest target,
    # then toward leaving the sensor where it is
    targets_sorted: list[Fraction] = []
    state = m
    for i in range(n):
        nxt = layers[i + 1]
        needed = layers[i][state]
        if state < m and state >= done_from:
            targets_sorted.append(pts[i])
            continue
        options = []
        if nxt[state] is not INF and not _lt(needed, nxt[state]):
            options.append((pts[i], 0, state))  # stay put
        lo = 0 if state == m else state
        hi = start_ub if state == m else upper[state]
        for cp in range(lo, hi + 1):
            if nxt[cp] is INF:
                continue
            if abs(pts[i] - C[cp]) + nxt[cp] == needed:
                options.append((C[cp], 1, cp))
        assert options, "reconstruction lost the optimum"
        t, _, state = min(options, key=lambda o: (o[0], o[1]))
        targets_sorted.append(t)

    targets = [Fraction(0)] * n
    for rank, i in enumerate(order):
        targets[i] = targets_sorted[rank]
    cost = sum((abs(t - p) for t, p in zip(targets, inst.points)),
               Fraction(0))
    assert cost == total
    return tuple(targets), cost


def reference_oracle_minsum_1d(inst: Line1DInstance
                               ) -> tuple[Fraction, Fraction]:
    """The all-Fraction oracle_minsum_1d as first written, on
    reference_candidate_targets: the integer oracle must return the same
    (A, B) and raise the same errors."""
    n = len(inst.points)
    if n > 6:
        raise SizeLimit("1D oracle limited to 6 sensors")
    if not inst.feasible:
        raise Infeasible("sum of diameters shorter than the segment")
    r, L = inst.radius, inst.length
    pts = sorted(inst.points)

    delta = oracle_step(inst)
    gq = int(L / delta)
    cells = n * (gq + 1) * (int(2 * r / delta) + 1)
    if cells > ORACLE_GRID_CELLS:
        raise SizeLimit(f"grid oracle limited to {ORACLE_GRID_CELLS} cells, "
                        f"step {delta} needs {cells}")
    done_at = L - r
    prev: dict = {None: Fraction(0)}
    covers = []
    for i in range(n):
        cur: dict = {}
        for state, cost in prev.items():
            if state is not None and state * delta >= done_at:
                covers.append(cost + sum(
                    (max(Fraction(0), state * delta - pts[j])
                     for j in range(i, n)), Fraction(0)))
                continue
            lo = 0 if state is None else state
            hi_abs = r if state is None else state * delta + 2 * r
            q = lo
            while q <= gq and q * delta <= hi_abs:
                c2 = cost + abs(pts[i] - q * delta)
                if q not in cur or c2 < cur[q]:
                    cur[q] = c2
                q += 1
        prev = cur
    covers += [cost for state, cost in prev.items()
               if state * delta >= done_at]
    if not covers:
        raise Infeasible("grid oracle found no covering assignment")
    b_cost = min(covers)

    C = reference_candidate_targets(inst)
    best = [b_cost]

    def dfs(i: int, cost: Fraction, min_c: int, reach: Fraction):
        if best[0] < cost:
            return
        if reach >= L:
            if cost < best[0]:
                best[0] = cost
            return
        if i == n:
            return
        for c in range(min_c, len(C)):
            t = C[c]
            if t - r > reach:
                break
            dfs(i + 1, cost + abs(pts[i] - t), c, max(reach, t + r))

    dfs(0, Fraction(0), 0, Fraction(0))
    return best[0], b_cost


# --- Line blocking: the original decide_vh, which rescans every sensor's
# move domain for every unsatisfied line at every node, the
# lines_blocked that tests every line against every gap, and the
# verify_vh that compares Fractions.  The indexed solver must explore
# the same nodes and return the same witness.

def reference_lines_blocked(positions, v_lines, h_lines):
    """Required lines blocked by the given (possibly fractional)
    positions: line i is blocked when the unit intervals around the
    coordinates cover [i - 1/2, i + 1/2], i.e. when no gap of their
    union over the span of the required lines meets that interval."""
    def blocked(coords, lines):
        if not lines:
            return set()
        gaps = interval_gaps(((c - HALF, c + HALF) for c in coords),
                             min(lines) - HALF, max(lines) + HALF)
        return {i for i in lines
                if not any(lo < i + HALF and hi > i - HALF for lo, hi in gaps)}

    return (blocked([x for x, _ in positions], v_lines),
            blocked([y for _, y in positions], h_lines))


def within(metric: str, p, q, budget: Fraction) -> bool:
    """Whether the move p -> q has length at most budget, on Fractions:
    the Manhattan length, or the squared euclidean one against budget
    squared."""
    dx, dy = Fraction(p[0] - q[0]), Fraction(p[1] - q[1])
    if metric == "manhattan":
        return abs(dx) + abs(dy) <= budget
    return dx * dx + dy * dy <= budget * budget


def reference_move_domain(config: Configuration, home, budget: Fraction
                          ) -> list:
    """The (x, y) grid cells within budget of home: a scan of the cells
    at most budget away along each axis, each tested with within."""
    reach = int(budget)
    return [(x, y)
            for x in range(max(1, home[0] - reach),
                           min(int(config.width), home[0] + reach) + 1)
            for y in range(max(1, home[1] - reach),
                           min(int(config.height), home[1] + reach) + 1)
            if within(config.metric, home, (x, y), budget)]


def reference_verify_vh(inst: VHInstance, positions: dict, *,
                        require_integer: bool = True) -> bool:
    """The verify_vh that compares Fraction points with the extents and
    tests each move with within."""
    config = inst.config
    if set(positions) != {s.id for s in config.sensors}:
        return False
    (lo_x, hi_x), (lo_y, hi_y) = config.x_extent, config.y_extent
    for s in config.sensors:
        x, y = positions[s.id]
        if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
            return False
        if require_integer and (x.denominator != 1 or y.denominator != 1):
            return False
        if not within(config.metric, (s.x, s.y), (x, y), inst.max_move):
            return False
    return reference_lines_blocked(positions.values(), inst.v_lines,
                                   inst.h_lines) == (inst.v_lines,
                                                     inst.h_lines)


def reference_decide_vh(inst: VHInstance, budget: int | None = None
                        ) -> tuple[bool, Solution | None]:
    """Backtracking decision: can every required line be blocked with
    per-sensor moves at most max_move?

    Lines are branched on in MRV order (fewest candidate blockers,
    ties (axis, index) with vertical first); candidates are
    (uncommitted sensor, destination on the line) pairs tried by
    smallest displacement.  Raises SearchLimit past the node budget,
    with the floor of the move budget (of its square under Euclidean)
    and the count of unsatisfied lines at that node.
    """
    config = inst.config
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    d = inst.max_move
    key = int(d) if config.metric == "manhattan" else int(d * d)
    domains = {s.id: reference_move_domain(config, (int(s.x), int(s.y)),
                                            inst.max_move)
               for s in config.sensors}
    required = [("v", v) for v in sorted(inst.v_lines)] + \
               [("h", h) for h in sorted(inst.h_lines)]
    committed: dict[int, tuple[int, int]] = {}
    nodes = [0]

    def on_line(q, line) -> bool:
        axis, idx = line
        return (q[0] if axis == "v" else q[1]) == idx

    def candidates(line):
        out = []
        for s in config.sensors:
            if s.id in committed:
                continue
            for q in domains[s.id]:
                if on_line(q, line):
                    out.append((distance(config.metric,
                                         (int(s.x), int(s.y)), q),
                                q[0], q[1], s.id))
        out.sort()
        return out

    def search(unsat: frozenset) -> bool:
        nodes[0] += 1
        if nodes[0] > limit:
            raise SearchLimit(nodes[0], key, len(unsat))
        if not unsat:
            return True
        axis_rank = {"v": 0, "h": 1}
        best = None
        for line in sorted(unsat, key=lambda l: (axis_rank[l[0]], l[1])):
            cands = candidates(line)
            if not cands:
                return False
            if best is None or len(cands) < len(best[1]):
                best = (line, cands)
                if len(cands) == 1:
                    break
        line, cands = best
        for _, x, y, sid in cands:
            committed[sid] = (x, y)
            now_sat = {l for l in unsat if on_line((x, y), l)}
            if search(unsat - now_sat):
                return True
            del committed[sid]
        return False

    feasible = search(frozenset(required))
    if not feasible:
        return False, None
    sol = Solution({s.id: (Fraction(committed[s.id][0]),
                           Fraction(committed[s.id][1]))
                    if s.id in committed else (s.x, s.y)
                    for s in config.sensors})
    assert verify_vh(inst, dict(sol.positions))
    return True, sol


# ---------------------------------------------------------------------------
# The boundary checks and costs as first written, on Fractions only:
# rat, Configuration.__post_init__, Solution.validate, is_blocking,
# solution_costs (which validated the solution itself) and the point
# check of Line1DInstance.  The scaled-int versions in wcr must agree on
# every report, error type and message.

def reference_rat(value) -> Fraction:
    """The rat that sends every string through Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ValidationError(f"exponent past {MAX_DIGITS} digits")
        q = Fraction(value)
        if max(abs(q.numerator), q.denominator) >= 10 ** MAX_DIGITS:
            raise ValidationError(f"rational past {MAX_DIGITS} digits")
        return q
    raise ValidationError(f"cannot interpret {value!r} as an exact rational")


def reference_validate_config(self) -> None:
    """Configuration.__post_init__ as first written (self: the config)."""
    if self.mode not in ("integer", "continuous"):
        raise ValidationError(f"unknown mode {self.mode!r}")
    if self.metric not in ("manhattan", "euclidean"):
        raise ValidationError(f"unknown metric {self.metric!r}")
    if self.width <= 0 or self.height <= 0:
        raise ValidationError("rectangle dimensions must be positive")
    ids = [s.id for s in self.sensors]
    if len(ids) != len(set(ids)):
        raise ValidationError("duplicate sensor id")
    if any(s.id < 0 for s in self.sensors):
        raise ValidationError("sensor ids must be non-negative")
    if any(s.range <= 0 for s in self.sensors):
        raise ValidationError("sensor range must be positive")
    if self.mode == "integer":
        if self.width.denominator != 1 or self.height.denominator != 1:
            raise ValidationError("integer mode requires integer dimensions")
        for s in self.sensors:
            if s.range != HALF:
                raise ValidationError(
                    f"integer mode requires range 1/2, sensor {s.id} has "
                    f"{rat_str(s.range)}")
            if s.x.denominator != 1 or s.y.denominator != 1:
                raise ValidationError(
                    f"sensor {s.id} not on the integer grid")
            if not (1 <= s.x <= self.width and 1 <= s.y <= self.height):
                raise ValidationError(f"sensor {s.id} outside the grid")
    else:
        lo_x, hi_x = self.x_extent
        lo_y, hi_y = self.y_extent
        for s in self.sensors:
            if not (lo_x <= s.x <= hi_x and lo_y <= s.y <= hi_y):
                raise ValidationError(
                    f"sensor {s.id} outside the covered rectangle")


def reference_validate_solution(self, config) -> None:
    """Solution.validate as first written (self: the solution)."""
    if set(self.positions) != {s.id for s in config.sensors}:
        raise KeyMismatch("solution ids differ from configuration ids")
    lo_x, hi_x = config.x_extent
    lo_y, hi_y = config.y_extent
    for sid, (x, y) in self.positions.items():
        if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
            raise ValidationError(
                f"final position of sensor {sid} outside the rectangle")
        if config.mode == "integer" and (
                x.denominator != 1 or y.denominator != 1):
            raise ValidationError(
                f"final position of sensor {sid} not on the integer grid")


def reference_check_line(points, radius, length) -> None:
    """Line1DInstance.__post_init__ as first written, on Fractions."""
    if radius <= 0 or length <= 0:
        raise ValidationError("radius and length must be positive")
    for p in points:
        if not (0 <= p <= length):
            raise ValidationError(f"point {p} outside [0, {length}]")


def _reference_positions(config, solution):
    if solution is None:
        return [(s.x, s.y, s.range) for s in config.sensors]
    reference_validate_solution(solution, config)
    return [(solution.positions[s.id][0], solution.positions[s.id][1], s.range)
            for s in config.sensors]


def reference_is_blocking(config, solution=None) -> CoverageReport:
    pos = _reference_positions(config, solution)
    if config.mode == "integer":
        cols = {int(x) for x, _, _ in pos}
        rows = {int(y) for _, y, _ in pos}
        x_gaps = tuple(i for i in range(1, int(config.width) + 1)
                       if i not in cols)
        y_gaps = tuple(j for j in range(1, int(config.height) + 1)
                       if j not in rows)
    else:
        lo_x, hi_x = config.x_extent
        lo_y, hi_y = config.y_extent
        x_gaps = tuple(interval_gaps(((x - r, x + r) for x, _, r in pos),
                                     lo_x, hi_x))
        y_gaps = tuple(interval_gaps(((y - r, y + r) for _, y, r in pos),
                                     lo_y, hi_y))
    return CoverageReport(blocking=not x_gaps and not y_gaps,
                          x_gaps=x_gaps, y_gaps=y_gaps)


_EUCLID_EPS = Fraction(1, 10**10)


def reference_solution_costs(config, sol) -> CostReport:
    reference_validate_solution(sol, config)
    moved = 0
    sum_lo = sum_hi = Fraction(0)
    max_key = Fraction(0)  # largest distance, squared under euclidean
    oblique = []  # squared lengths of the euclidean moves off both axes
    for s in config.sensors:
        home, dest = (s.x, s.y), sol.positions[s.id]
        key = distance(config.metric, home, dest)
        if key:
            moved += 1
        max_key = max(max_key, key)
        if config.metric == "manhattan":
            exact = key
        elif home[0] == dest[0] or home[1] == dest[1]:  # axis-aligned: exact
            exact = distance("manhattan", home, dest)
        else:
            oblique.append(key)
            continue
        sum_lo += exact
        sum_hi += exact
    # k enclosures of width <= 1e-9 / max(10, k) sum to a width <= 1e-9
    eps = Fraction(1, 10**9 * max(10, len(oblique)))
    for key in oblique:
        d_lo, d_hi = _sqrt_bounds(key, eps)
        sum_lo += d_lo
        sum_hi += d_hi
    if config.metric == "manhattan":
        max_sq, max_lo, max_hi = max_key * max_key, max_key, max_key
    else:
        max_sq, root = max_key, exact_sqrt(max_key)
        max_lo, max_hi = (root, root) if root is not None \
            else _sqrt_bounds(max_key, _EUCLID_EPS)
    return CostReport(moved=moved, sum_low=sum_lo, sum_high=sum_hi,
                      max_low=max_lo, max_high=max_hi, max_squared=max_sq)


# ---------------------------------------------------------------------------
# symmetry transforms of the invariance tests

def transpose(config: Configuration) -> Configuration:
    return Configuration(
        width=config.height, height=config.width,
        sensors=tuple(Sensor(s.id, s.y, s.x, s.range) for s in config.sensors),
        mode=config.mode, metric=config.metric)


def transpose_solution(sol: Solution) -> Solution:
    return Solution({sid: (y, x) for sid, (x, y) in sol.positions.items()})


def _mirror(value: Fraction, config: Configuration, side: Fraction) -> Fraction:
    if config.mode == "integer":
        return side + 1 - value
    return side - value


def reflect_x(config: Configuration) -> Configuration:
    """Mirror across the vertical axis of the rectangle."""
    return Configuration(
        width=config.width, height=config.height,
        sensors=tuple(Sensor(s.id, _mirror(s.x, config, config.width), s.y,
                             s.range) for s in config.sensors),
        mode=config.mode, metric=config.metric)


def reflect_y(config: Configuration) -> Configuration:
    return Configuration(
        width=config.width, height=config.height,
        sensors=tuple(Sensor(s.id, s.x, _mirror(s.y, config, config.height),
                             s.range) for s in config.sensors),
        mode=config.mode, metric=config.metric)


# ---------------------------------------------------------------------------
# the MinNum planner on Fraction sensors, re-solving on the transposed
# configuration when column gaps outnumber row gaps; `wcr.minnum` must
# give the same plans, free sets and free graphs

def reference_line_table(config):
    """(sensors per row, sensors per column, ids of the free sensors,
    rows holding only free sensors, columns holding only free sensors)."""
    _require_integer(config)
    rows = Counter(int(s.y) for s in config.sensors)
    cols = Counter(int(s.x) for s in config.sensors)
    free = {s.id for s in config.sensors
            if rows[int(s.y)] > 1 and cols[int(s.x)] > 1}
    free_rows = rows.keys() - {int(s.y) for s in config.sensors
                               if s.id not in free}
    free_cols = cols.keys() - {int(s.x) for s in config.sensors
                               if s.id not in free}
    return rows, cols, free, free_rows, free_cols


def reference_build_free_graph(config):
    """Auxiliary graph whose minimum edge cover (minus the hub edge)
    labels a minimum blocking set for the all-free rows and columns.

    Vertices: one per row/column containing only free sensors, plus two
    hubs x, y.  A free sensor on an all-free row and an all-free column
    (type 4) is an edge row-column; one on exactly one all-free line
    (type 3) is an edge from that line to hub x; hub edge x-y always
    present (label None).  Returns (Graph, legend) where legend[i] is
    ("row", idx) | ("col", idx) | ("x",) | ("y",).
    """
    _, _, _, free_rows, free_cols = reference_line_table(config)
    legend = [("row", i) for i in sorted(free_rows)] + \
        [("col", j) for j in sorted(free_cols)]
    index = {v: k for k, v in enumerate(legend)}
    legend += [("x",), ("y",)]
    hub_x, hub_y = len(legend) - 2, len(legend) - 1

    edges = []
    for s in config.sensors:  # by id
        row_v = index.get(("row", int(s.y)))
        col_v = index.get(("col", int(s.x)))
        if row_v is not None and col_v is not None:
            edges.append((row_v, col_v, s.id))
        elif row_v is not None or col_v is not None:
            edges.append((col_v if row_v is None else row_v, hub_x, s.id))
    edges.append((hub_x, hub_y, None))
    return Graph(vertex_count=len(legend), edges=tuple(edges)), legend


def reference_max_free_set(config) -> frozenset[int]:
    """Largest simultaneously-removable set of free sensors."""
    free = reference_line_table(config)[2]
    if not free:
        return frozenset()
    g, _ = reference_build_free_graph(config)
    cover = minimum_edge_cover(g)
    return frozenset(free - {g.edges[i][2] for i in cover})


def reference_solve_minnum(config) -> MinNumPlan:
    """Relocate the fewest sensors to make the configuration blocking.

    Moves exactly r sensors when |M| >= c and r + c - |M| otherwise
    (axes oriented so the row-gap count r >= the column-gap count c).
    """
    _require_integer(config)
    if config.n < max(config.width, config.height):
        raise Infeasible("fewer sensors than the longer side")

    report = is_blocking(config)
    row_gaps, col_gaps = list(report.y_gaps), list(report.x_gaps)
    r, c = len(row_gaps), len(col_gaps)
    if r < c:
        plan = reference_solve_minnum(transpose(config))
        return MinNumPlan(
            free_set=plan.free_set, k=plan.k,
            moves=tuple((sid, {"slide-row": "slide-col",
                               "slide-col": "slide-row"}.get(kind, kind),
                         (ty, tx)) for sid, kind, (tx, ty) in plan.moves),
            solution=transpose_solution(plan.solution))

    M = reference_max_free_set(config)
    k = len(M)
    # movers and slides are picked in (row, column, id) order, on ints
    cells = sorted((int(s.y), int(s.x), s.id) for s in config.sensors)
    movers = [cell for cell in cells if cell[2] in M]
    moves: list[tuple[int, str, tuple[int, int]]] = []

    # jumping moves: pair sorted column gaps with sorted row gaps
    jumps = min(k, c)
    for idx in range(jumps):
        moves.append((movers[idx][2], "jump", (col_gaps[idx], row_gaps[idx])))
    row_gaps = row_gaps[jumps:]
    col_gaps = col_gaps[jumps:]

    # leftover free sensors fill row gaps vertically, column unchanged
    fills = min(k - jumps, len(row_gaps))
    for idx in range(fills):
        _, x, sid = movers[jumps + idx]
        moves.append((sid, "slide-row", (x, row_gaps[idx])))
    row_gaps = row_gaps[fills:]

    # remaining gaps are repaired by sliding non-free sensors off lines
    # that still hold another sensor, so no slide creates a fresh gap; gap
    # lines hold no unmoved sensor, so their counts are never read
    at = {sid: (x, y) for y, x, sid in cells}
    for sid, _, target in moves:
        at[sid] = target
    rows = Counter(y for _, y in at.values())
    cols = Counter(x for x, _ in at.values())
    moved_ids = set(M)

    def slide(gap: int, vertical: bool) -> None:
        counts = rows if vertical else cols
        cell = next((cell for cell in cells if cell[2] not in moved_ids
                     and counts[cell[0 if vertical else 1]] > 1), None)
        assert cell, "no slide candidate: pigeonhole guarantee broken"
        y, x, sid = cell
        counts[y if vertical else x] -= 1
        moves.append((sid, "slide-row", (x, gap)) if vertical else
                     (sid, "slide-col", (gap, y)))
        moved_ids.add(sid)

    for gap in row_gaps:
        slide(gap, vertical=True)
    for gap in col_gaps:
        slide(gap, vertical=False)

    moves = [(sid, kind, (Fraction(x), Fraction(y)))
             for sid, kind, (x, y) in moves]
    sol = Solution({s.id: (s.x, s.y) for s in config.sensors}
                   | {sid: target for sid, _, target in moves})
    assert is_blocking(config, sol).blocking, \
        "planner produced a non-blocking solution"
    expected = r if k >= c else r + c - k
    assert len(moves) == expected, "move count deviates from the formula"
    return MinNumPlan(free_set=M, k=k, moves=tuple(moves), solution=sol)


def reference_match_array(n: int, adj: list[list[int]], stats=None
                          ) -> list[int]:
    """match[v] = partner of v or -1: the blossom search with fresh
    p, base and used arrays for each root, which matching._match_array
    allocates once per matching.  A verbatim copy, plus the count of
    contractions in stats["contractions"] when stats is given."""
    match = [-1] * n

    def find_augmenting(root: int) -> bool:
        p = [-1] * n  # p[v]: the vertex from which the odd vertex v was seen
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if match[a] == -1:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if seen[b]:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int, blossom: list[bool]):
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # found an odd cycle; contract the blossom
                    if stats is not None:
                        stats["contractions"] += 1
                    b = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, b, to, blossom)
                    mark_path(to, b, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = b
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augmenting path found: flip it
                        u = to
                        while u != -1:
                            pv = p[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return match


def reference_solution_obj(sol: Solution) -> dict:
    """The object write_solution's text encodes: a verbatim copy of the
    function serialize encoded it from before its writers used
    per-item templates."""
    return {"positions": [
        {"id": sid, "x": rat_str(x), "y": rat_str(y)}
        for sid, (x, y) in sorted(sol.positions.items())]}


def reference_instance_obj(inst) -> dict:
    """A Configuration, or a VHInstance: its configuration's object plus
    its lines and budget; the object write_instance's text encodes (a
    verbatim copy, as for reference_solution_obj)."""
    if not isinstance(inst, Configuration):
        return {**reference_instance_obj(inst.config),
                "v_lines": sorted(inst.v_lines),
                "h_lines": sorted(inst.h_lines),
                "max_move": rat_str(inst.max_move)}
    return {
        "mode": inst.mode,
        "metric": inst.metric,
        "rect": {"width": rat_str(inst.width),
                 "height": rat_str(inst.height)},
        "sensors": [
            {"id": s.id, "x": rat_str(s.x), "y": rat_str(s.y),
             "range": rat_str(s.range)}
            for s in inst.sensors],
    }
