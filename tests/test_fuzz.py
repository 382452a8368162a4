"""Fuzz the CLI on small generated documents, valid and mutated: every
command ends in a documented exit code, no exception escapes main, and
a second run prints the same stdout."""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from brutes import random_max2sat3occ, random_sat22
from wcr import reductions, serialize
from wcr.cli import main

HUGE = "9" * 5000  # a JSON integer past the digits Python reads in one int
JUNK = [None, True, False, "x", "", [], {}, 1.5, -1, 0, 3, "1/0", "-1/2",
        "1e-99999", "1e99999999", "1e4300", "1e-4300", HUGE]
COMMANDS = [["verify", "I"], ["verify", "I", "--solution", "S"],
            ["solve", "minnum", "I"], ["solve", "minsum", "I"],
            ["decide", "vh", "I"], ["oracle", "minsum", "I"]]


def _coords(draw, integer, a, b):
    if integer:
        return str(draw(st.integers(1, a))), str(draw(st.integers(1, b)))
    return (str(Fraction(draw(st.integers(0, 4 * a)), 4)),
            str(Fraction(draw(st.integers(0, 4 * b)), 4)))


@st.composite
def documents(draw):
    """An instance (plain or line-blocking) and a solution for it."""
    integer = draw(st.booleans())
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ids = range(draw(st.integers(0, 4)))
    inst = {"mode": "integer" if integer else "continuous",
            "metric": draw(st.sampled_from(["manhattan", "euclidean"])),
            "rect": {"width": str(a), "height": str(b)},
            "sensors": [dict(zip(("x", "y"), _coords(draw, integer, a, b)),
                             id=i, range="1/2" if integer else "1")
                        for i in ids]}
    if integer and draw(st.booleans()):
        inst.update(v_lines=sorted(draw(st.sets(st.integers(1, a)))),
                    h_lines=sorted(draw(st.sets(st.integers(1, b)))),
                    max_move=draw(st.sampled_from(["0", "1", "3/2", "2"])))
    sol = {"positions": [dict(zip(("x", "y"), _coords(draw, integer, a, b)),
                              id=i) for i in ids]}
    return inst, sol


def _places(doc):
    """Every (container, key) pair of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _places(value)


@st.composite
def mutated(draw, doc):
    """doc, or doc with one field deleted or replaced by junk."""
    doc = json.loads(json.dumps(doc))  # a copy to mutate
    places = list(_places(doc))
    if not places or draw(st.booleans()):
        return json.dumps(doc)
    container, key = draw(st.sampled_from(places))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(st.sampled_from(JUNK))
    return json.dumps(doc).replace(f'"{HUGE}"', HUGE)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMANDS), documents().flatmap(
    lambda docs: st.tuples(mutated(docs[0]), mutated(docs[1]))))
def test_cli_exit_codes_and_determinism(command, texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"I": Path(tmp, "inst.json"), "S": Path(tmp, "sol.json")}
        for path, text in zip(paths.values(), texts):
            path.write_text(text)
        argv = [str(paths.get(word, word)) for word in command]
        code, out = _run(argv)
        assert code in (0, 1, 2, 3)
        assert _run(argv) == (code, out)


def _gadget_documents() -> dict:
    """Seeded formulas of 3 (vh) and 2 (minnum) variables and, by name,
    the documents gen, embed and integerize read: each gadget, its meta,
    a satisfying assignment and the embedded solution, and the minmax
    padding of the vh gadget with its embedded solution."""
    sat22 = random_sat22(random.Random(7), 3)
    max2sat = random_max2sat3occ(random.Random(7), 2)
    vh, vh_meta = reductions.gen_vh(sat22)
    vh_assignment = reductions.sat_brute(sat22)[0]
    vh_sol = reductions.embed_vh(vh, vh_meta, sat22, vh_assignment)
    plain, minnum_meta = reductions.gen_minnum(max2sat)
    minnum_assignment = reductions.sat_brute(max2sat)[0]
    _, mapping = reductions.gen_minmax(vh)
    return {name: json.loads(text) for name, text in {
        "F3": json.dumps({"dialect": "3sat22", "variables": sat22.n,
                          "clauses": sat22.clauses}),
        "V": serialize.write_instance(vh),
        "VM": serialize.write_meta(vh_meta),
        "A3": json.dumps(vh_assignment),
        "VS": serialize.write_solution(vh_sol),
        "F2": json.dumps({"dialect": "max2sat-3occ", "variables": max2sat.n,
                          "t": max2sat.t, "clauses": max2sat.clauses}),
        "G": serialize.write_instance(plain),
        "GM": serialize.write_meta(minnum_meta),
        "A2": json.dumps(minnum_assignment),
        "GS": serialize.write_solution(reductions.embed_minnum(
            plain, minnum_meta, max2sat, minnum_assignment)),
        "MM": serialize.write_meta(mapping),
        "MS": serialize.write_solution(reductions.embed_minmax(mapping,
                                                               vh_sol)),
    }.items()}


GADGET_DOCS = _gadget_documents()
GADGET_COMMANDS = [
    "gen vh --formula F3 -o O", "gen minnum --formula F2 -o O",
    "gen minmax --vh V -o O",
    "embed vh --meta VM --instance V --formula F3 --assignment A3",
    "extract vh --meta VM --instance V --formula F3 --solution VS",
    "embed minnum --meta GM --instance G --formula F2 --assignment A2",
    "extract minnum --meta GM --instance G --formula F2 --solution GS",
    "embed minmax --meta MM --solution VS",
    "extract minmax --meta MM --solution MS",
    "integerize --meta VM --instance V --solution VS",
    "oracle vh V", "oracle minnum G"]


@st.composite
def gadget_calls(draw):
    """A gadget command and its documents, at most one of them mutated:
    a mutation in each would leave few calls that get past the reader."""
    command = draw(st.sampled_from(GADGET_COMMANDS)).split()
    texts = {word: json.dumps(GADGET_DOCS[word])
             for word in command if word in GADGET_DOCS}
    word = draw(st.sampled_from(sorted(texts)))
    texts[word] = draw(mutated(GADGET_DOCS[word]))
    return command, texts


@settings(max_examples=100, deadline=None)
@given(gadget_calls())
def test_gadget_commands_exit_codes_and_determinism(call):
    command, texts = call
    with tempfile.TemporaryDirectory() as tmp:
        for word, text in texts.items():
            Path(tmp, word).write_text(text)
        argv = [str(Path(tmp, word)) if word.isupper() else word
                for word in command]
        code, out = _run(argv)
        assert code in (0, 1, 2, 3)
        assert _run(argv) == (code, out)
