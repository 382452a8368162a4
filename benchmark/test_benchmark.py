"""Self-tests of the benchmark, at tiny sizes.

    python -m pytest benchmark -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from checks import CheckError
from workloads import WORKLOADS, Step

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(run, "SETUPS", 2)
    yield
    shutil.rmtree(ROOT / run.WORK, ignore_errors=True)


def tiny_workload(name):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, sizes=wl.tiny)


def tiny(name, trace=False):
    return run.measure(tiny_workload(name), 3, 0, trace)


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_checks_every_op(name):
    result, metrics, _ = tiny(name)
    assert result.outcomes and "error" not in result.outcomes
    assert set(result.records) == set(result.dirs)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_account_for_op_time(name):
    result, metrics, tracer = tiny(name, trace=True)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".share"))
    # self times (cli.self_ms included) cover the traced op time, less
    # the benchmark's own output capture around each call
    assert 0.9 < shares <= 1.0
    own_ms = sum(v for k, (v, _) in metrics.items() if k.endswith("self_ms"))
    ops = len(result.dirs)
    assert own_ms * ops * 1e6 == pytest.approx(sum(
        span[2] - span[1] for span in tracer.spans if span[3] < 0), rel=1e-9)
    assert all(span[4] >= 0 for span in tracer.spans)
    wcr = sys.modules["wcr.cli"]
    for fn in (wcr.main, wcr.is_blocking, wcr.minmax.decide_vh,
               wcr.Configuration.__post_init__):
        assert not hasattr(fn, "__wrapped__")  # originals are back


def test_same_seed_same_inputs_and_stdout():
    wl = tiny_workload("vh-gadget")
    texts = []
    for _ in range(2):
        dirs, _ = run.write_inputs(wl, 5)
        texts.append([Path(d, "formula.json").read_text() for d in dirs])
    assert texts[0] == texts[1]
    assert tiny("minsum-frac")[0].digest() == tiny("minsum-frac")[0].digest()


def test_op_p50_is_the_median_instance_mean():
    result = run.Run(WORKLOADS["minsum-frac"], None, ["a", "b", "c"])
    result.durations = [6e6, 1e6, 9e6, 2e6, 3e6, 3e6, 7e6]
    # mean per instance: a (6+2+7)/3 = 5, b (1+3)/2 = 2, c (9+3)/2 = 6 ms
    assert run.op_p50(result) == 5


def one_op(name):
    wl = tiny_workload(name)
    cli = run.import_cli()
    dirs, _ = run.write_inputs(wl, 3)
    return wl, dirs[0], run.run_op(cli, wl, dirs[0])


def test_checker_rejects_an_emptied_row():
    wl, d, steps = one_op("minnum-grid")
    wl.check(d, steps)
    solved = json.loads(steps[0].out)
    positions = solved["solution"]["positions"]
    row = positions[0]["y"]
    other = str(int(row) % wl.sizes["side"] + 1)
    for p in positions:
        if p["y"] == row:
            p["y"] = other
    Path(d, "solution.json").write_text(
        json.dumps(solved["solution"], indent=2) + "\n")
    bad = [Step(0, json.dumps(solved), "")] + steps[1:]
    with pytest.raises(CheckError, match="does not block"):
        wl.check(d, bad)


def test_checker_rejects_a_cost_off_by_one_step():
    wl, d, steps = one_op("minsum-frac")
    wl.check(d, steps)
    solved = json.loads(steps[0].out)
    cost = Fraction(solved["sum_cost"]) + Fraction(1, 997)
    solved["sum_cost"] = f"{cost.numerator}/{cost.denominator}"
    with pytest.raises(CheckError, match="sum_cost"):
        wl.check(d, [Step(0, json.dumps(solved), "")] + steps[1:])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "results",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "minnum-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout
