"""Canonical JSON serialization for instances, solutions and formulas.

Rationals are written as "p/q" (or a bare integer string) and parsed
exactly by core.rat, each distinct string once per document, into an int
when integral and a Fraction otherwise; decimal strings like "0.5" are
accepted on input.  A sensor or position is read in one step: its
strings are looked up in the document's cache inline and a Sensor is
built by tuple.__new__.  An item on which that step fails (an id that is
not exactly an int, a missing field, a bad rational) goes to _fault,
which checks it field by field and raises the first error in field
order.  The location of a bad array item is only formatted once its
parse has failed.  Output is canonical: sensors in the id order a
Configuration keeps, fixed key order, so identical values serialize to
identical bytes.

dumps is the one encoder.  Its parts are texts it has already written,
each spliced in at its key's top-level slot, so a document is encoded
once however deep it is nested.  The bulk arrays (a solution's
positions, an instance's sensors, the moves of a MinNum plan) are
written from one f-string template per item in dumps' layout, and the
text is the same: Configuration and Solution hold only plain int ids
and values come from rat_str, which writes only digits, "-" and "/"
(past the int/str digit limit too), so nothing needs escaping.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .core import Configuration, Sensor, Solution, rat, rat_str
from .errors import ParseError, ValidationError
from .minmax import VHInstance
from .reductions import Max2Sat3Occ, MinMaxMapping, MinNumMeta, Sat3_22, \
    VHMeta


def _at(where: str, i: int | None) -> str:
    """The location where[i] (or where), formatted only for an error."""
    return where if i is None else f"{where}[{i}]"


def _get(obj: dict, key: str, where: str, i: int | None = None):
    if key not in obj:
        raise ParseError(f"missing field {_at(where, i)}.{key}")
    return obj[key]


def _rational(value, rats: dict) -> int | Fraction:
    """rat(value), parsing each distinct string of a document once into
    rats.  Only str values are keys: True == 1 and they hash alike."""
    if value.__class__ is not str:
        return rat(value)
    parsed = rats.get(value)
    if parsed is None:
        parsed = rats[value] = rat(value)
    return parsed


_new = tuple.__new__  # _new(Sensor, fields): a Sensor, with no Python call
_BAD_RATIONAL = (ValueError, ZeroDivisionError, ValidationError)
# what an item read in one step can raise: a missing key, a non-object
# item or a bad rational; _fault then names the fault
_FAULTS = (KeyError, TypeError) + _BAD_RATIONAL


def _rat_field(obj: dict, key: str, where: str, rats: dict,
               i: int | None = None) -> int | Fraction:
    value = _get(obj, key, where, i)
    try:
        return _rational(value, rats)
    except _BAD_RATIONAL:
        raise ParseError(
            f"bad rational at {_at(where, i)}.{key}: {value!r}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(obj: dict, key: str, where: str, i: int | None = None) -> int:
    value = _get(obj, key, where, i)
    if not _is_int(value):
        raise ParseError(
            f"expected integer at {_at(where, i)}.{key}: {value!r}")
    return value


def _int_list_field(obj: dict, key: str, where: str) -> list[int]:
    value = _get(obj, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{where}.{key} must be an array")
    for i, item in enumerate(value):
        if not _is_int(item):
            raise ParseError(
                f"expected integer at {where}.{key}[{i}]: {item!r}")
    return value


def _meta_rows(obj: dict, key: str, *kinds: type) -> list:
    """$.key: an array of arrays whose items have the types in kinds."""
    value = _get(obj, key, "$")
    if not isinstance(value, list):
        raise ParseError(f"$.{key} must be an array")
    for i, row in enumerate(value):
        if not (isinstance(row, list) and len(row) == len(kinds) and all(
                _is_int(v) if kind is int else isinstance(v, kind)
                for v, kind in zip(row, kinds))):
            names = ", ".join(kind.__name__ for kind in kinds)
            raise ParseError(f"$.{key}[{i}] must be [{names}]: {row!r}")
    return value


def _meta_int_map(obj: dict, key: str) -> dict[int, int]:
    """$.key: an object mapping integers (as strings) to integers."""
    value = _get(obj, key, "$")
    if not isinstance(value, dict):
        raise ParseError(f"$.{key} must be an object")
    for k, v in value.items():
        if not (k.removeprefix("-").isdecimal() and _is_int(v)):
            raise ParseError(
                f"$.{key} must map integers to integers: {k!r}: {v!r}")
    return {int(k): v for k, v in value.items()}


def _loads(data) -> Any:
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # also too many digits or levels
        raise ParseError(f"invalid JSON: {e}") from None


def _fault(item, i: int, where: str, rats: dict, keys: tuple, seen=()):
    """Raise the first error of where[i], an item the one-step read
    refused, in the order: not an object, id, an id in seen, then the
    rational fields keys.  An item with none of these faults has an id
    of an int subclass, which a library call can pass: it is refused as
    Configuration and Solution refuse it."""
    if not isinstance(item, dict):
        raise ParseError(f"{where}[{i}] must be an object")
    sid = _int_field(item, "id", where, i)
    if sid in seen:
        raise ParseError(f"{where}[{i}]: duplicate id {sid}")
    for key in keys:
        _rat_field(item, key, where, rats, i)
    raise ValidationError("sensor ids must be integers")


def config_from_obj(obj: dict) -> Configuration:
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    rect = _get(obj, "rect", "$")
    if not isinstance(rect, dict):
        raise ParseError("$.rect must be an object")
    sensors_obj = _get(obj, "sensors", "$")
    if not isinstance(sensors_obj, list):
        raise ParseError("$.sensors must be an array")
    rats = {}
    sensors = []
    for i, s in enumerate(sensors_obj):
        try:  # an int id and good rationals: read in one step
            sid, x, y, r = s["id"], s["x"], s["y"], s["range"]
            if sid.__class__ is int:
                sensors.append(_new(Sensor, (
                    sid, rats[x] if x in rats else _rational(x, rats),
                    rats[y] if y in rats else _rational(y, rats),
                    rats[r] if r in rats else _rational(r, rats))))
                continue
        except _FAULTS:
            pass
        _fault(s, i, "$.sensors", rats, ("x", "y", "range"))
    return Configuration(
        width=_rat_field(rect, "width", "$.rect", rats),
        height=_rat_field(rect, "height", "$.rect", rats),
        sensors=tuple(sensors),
        mode=_get(obj, "mode", "$"),
        metric=obj.get("metric", "manhattan"))


def dumps(obj, parts: dict[str, str] | None = None) -> str:
    """json.dumps(obj, indent=2) + "\\n", where each key of parts holds
    the dumps text of that key's value: the text goes in at obj's slot
    for the key, or last (in parts order) when obj lacks it, with every
    line after its first indented two more spaces.  A slot is found as
    the encoder writes the key at the top level; the encoder writes no
    raw newline inside a string, so nothing nested can match."""
    if not parts:
        return json.dumps(obj, indent=2) + "\n"
    text = json.dumps({**obj, **dict.fromkeys(parts)}, indent=2) + "\n"
    for key, part in parts.items():
        slot = f"\n  {json.dumps(key)}: "
        head, _, tail = text.partition(slot + "null")
        text = head + slot + part[:-1].replace("\n", "\n  ") + tail
    return text


def _array(items: list[str]) -> str:
    """The dumps text of an array whose items, each an object at depth
    1 (indent 2), are written as items."""
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


def read_solution(data) -> Solution:
    obj = _loads(data)
    if not isinstance(obj, dict):
        raise ParseError("solution must be a JSON object")
    entries = _get(obj, "positions", "$")
    if not isinstance(entries, list):
        raise ParseError("$.positions must be an array")
    rats = {}
    positions = {}
    for i, e in enumerate(entries):
        try:  # as in config_from_obj, plus a new id
            sid, x, y = e["id"], e["x"], e["y"]
            if sid.__class__ is int and sid not in positions:
                positions[sid] = (rats[x] if x in rats else _rational(x, rats),
                                  rats[y] if y in rats else _rational(y, rats))
                continue
        except _FAULTS:
            pass
        _fault(e, i, "$.positions", rats, ("x", "y"), positions)
    return Solution(positions)


def write_solution(sol: Solution) -> str:
    return dumps({}, {"positions": _array([
        f'  {{\n    "id": {sid},\n    "x": "{rat_str(x)}",\n'
        f'    "y": "{rat_str(y)}"\n  }}'
        for sid, (x, y) in sorted(sol.positions.items())])})


def moves_array(moves) -> str:
    """The dumps text of {"id": id, "kind": kind, "to": [x, y]} for each
    (id, kind, (x, y)) of moves, a MinNum plan's: the kinds need no
    escaping."""
    return _array([
        f'  {{\n    "id": {sid},\n    "kind": "{kind}",\n'
        f'    "to": [\n      "{rat_str(x)}",\n      "{rat_str(y)}"\n'
        f'    ]\n  }}' for sid, kind, (x, y) in moves])


# VH instances reuse the configuration schema plus v_lines/h_lines/max_move.

def vh_from_obj(obj: dict):
    config = config_from_obj(obj)
    return VHInstance(config=config,
                      v_lines=frozenset(_int_list_field(obj, "v_lines", "$")),
                      h_lines=frozenset(_int_list_field(obj, "h_lines", "$")),
                      max_move=_rat_field(obj, "max_move", "$", {}))


def _head(inst) -> dict:
    """The object of a Configuration, or of a VHInstance (its
    configuration's object plus its lines and budget), with None in
    the slot of the sensors array."""
    if not isinstance(inst, Configuration):
        return {**_head(inst.config),
                "v_lines": sorted(inst.v_lines),
                "h_lines": sorted(inst.h_lines),
                "max_move": rat_str(inst.max_move)}
    return {"mode": inst.mode, "metric": inst.metric,
            "rect": {"width": rat_str(inst.width),
                     "height": rat_str(inst.height)},
            "sensors": None}


def read_instance(data):
    """Dispatch: VHInstance if line sets are present, else Configuration."""
    obj = _loads(data)
    if isinstance(obj, dict) and "v_lines" in obj:
        return vh_from_obj(obj)
    return config_from_obj(obj)


def write_instance(inst) -> str:
    config = inst if isinstance(inst, Configuration) else inst.config
    return dumps(_head(inst), {"sensors": _array([
        f'  {{\n    "id": {sid},\n    "x": "{rat_str(x)}",\n'
        f'    "y": "{rat_str(y)}",\n    "range": "{rat_str(r)}"\n  }}'
        for sid, x, y, r in config.sensors])})


def read_formula(data):
    obj = _loads(data)
    if not isinstance(obj, dict):
        raise ParseError("formula must be a JSON object")
    dialect = _get(obj, "dialect", "$")
    n = _int_field(obj, "variables", "$")
    clauses = _get(obj, "clauses", "$")
    if not isinstance(clauses, list):
        raise ParseError("$.clauses must be an array")
    parsed = []
    for i, clause in enumerate(clauses):
        if not isinstance(clause, list) or not all(
                _is_int(l) and l != 0 for l in clause):
            raise ParseError(f"$.clauses[{i}] must be nonzero integers")
        parsed.append(tuple(clause))
    if dialect == "max2sat-3occ":
        return Max2Sat3Occ(n=n, clauses=tuple(parsed),
                           t=_int_field(obj, "t", "$"))
    if dialect == "3sat22":
        return Sat3_22(n=n, clauses=tuple(parsed))
    raise ParseError(f"unknown dialect {dialect!r}")


def read_assignment(data, n: int) -> tuple[bool, ...]:
    """A truth assignment of n variables: a JSON array of n values, each
    0, 1, false or true."""
    obj = _loads(data)
    if not isinstance(obj, list) or not all(
            isinstance(v, int) and v in (0, 1) for v in obj):
        raise ParseError("assignment must be a JSON array of booleans")
    if len(obj) != n:
        raise ParseError(f"assignment has {len(obj)} values for {n} variables")
    return tuple(bool(v) for v in obj)


def read_meta(data):
    """Reduction metadata (forward/backward mapping tables)."""
    obj = _loads(data)
    if not isinstance(obj, dict):
        raise ParseError("meta must be a JSON object")

    def num(key):
        return _int_field(obj, key, "$")

    kind = _get(obj, "kind", "$")
    if kind == "minnum":
        occ = _meta_rows(obj, "occ_sensor", int, int, int)
        return MinNumMeta(
            n=num("n"), m=num("m"), t=num("t"), side=num("side"),
            occ_sensor={(v, c): sid for v, c, sid in occ},
            alpha=_meta_int_map(obj, "alpha"), beta=_meta_int_map(obj, "beta"))
    if kind == "vh":
        var = _meta_rows(obj, "var_sensor", int, str, int)
        clause = _meta_rows(obj, "clause_sensor", int, int, int)
        triples = _meta_rows(obj, "triples", int, int, int, int)
        return VHMeta(
            n=num("n"), m=num("m"),
            var_sensor={(v, role): sid for v, role, sid in var},
            clause_sensor={(j, p): sid for j, p, sid in clause},
            slot_row=_meta_int_map(obj, "slot_row"),
            triples=tuple(map(tuple, triples)))
    if kind == "minmax":
        return MinMaxMapping(
            vh=vh_from_obj(_get(obj, "vh", "$")),
            padded=config_from_obj(_get(obj, "padded", "$")),
            dx=num("dx"), dy=num("dy"),
            v_ids=tuple(_int_list_field(obj, "v_ids", "$")),
            h_ids=tuple(_int_list_field(obj, "h_ids", "$")))
    raise ParseError(f"unknown meta kind {kind!r}")


def write_meta(meta) -> str:
    parts = None
    if isinstance(meta, MinNumMeta):
        obj = {"kind": "minnum", "n": meta.n, "m": meta.m, "t": meta.t,
               "side": meta.side,
               "occ_sensor": [[v, c, sid] for (v, c), sid
                              in sorted(meta.occ_sensor.items())],
               "alpha": {str(k): v for k, v in sorted(meta.alpha.items())},
               "beta": {str(k): v for k, v in sorted(meta.beta.items())}}
    elif isinstance(meta, VHMeta):
        obj = {"kind": "vh", "n": meta.n, "m": meta.m,
               "var_sensor": [[v, role, sid] for (v, role), sid
                              in sorted(meta.var_sensor.items())],
               "clause_sensor": [[j, p, sid] for (j, p), sid
                                 in sorted(meta.clause_sensor.items())],
               "slot_row": {str(k): v for k, v
                            in sorted(meta.slot_row.items())},
               "triples": [list(t) for t in meta.triples]}
    elif isinstance(meta, MinMaxMapping):
        obj = {"kind": "minmax", "vh": None, "padded": None,
               "dx": meta.dx, "dy": meta.dy,
               "v_ids": list(meta.v_ids), "h_ids": list(meta.h_ids)}
        parts = {"vh": write_instance(meta.vh),
                 "padded": write_instance(meta.padded)}
    else:
        raise ValidationError(f"not a serializable meta: {type(meta)}")
    return dumps(obj, parts)
