"""Run one benchmark workload through ``wcr.cli.main`` and print its metrics.

    python3 benchmark/run.py --workload minnum-grid --seed 1 --seconds 30 --trace 0

A closed loop: one client, one thread, in this process.  Each op is the
workload's fixed sequence of CLI calls on one pool instance, timed as a
whole.  Ops go through the pool in order, at least one whole pass and
until ``--seconds`` of op time have been measured.  Every output is
checked outside the timed region.
The last line of stdout is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
Exit status 1 means an output check failed, 2 that the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import CheckError
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Step

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = "benchmark/.work"
RESULTS = "benchmark/results"
SETUPS = 11  # set-up repetitions; setup_s is their median
COLD_CALLS = 3  # cold interpreter calls; import and call times are medians


def forget_wcr() -> None:
    """Drop the wcr modules a previous set-up imported and free them, so
    the next set-up imports afresh from the same memory state."""
    for name in [n for n in sys.modules if n == "wcr" or n.startswith("wcr.")]:
        del sys.modules[name]
    gc.collect()


def import_cli():
    """Import wcr.cli from this checkout's sources."""
    cli = importlib.import_module("wcr.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wcr imported from {cli.__file__}, not {SRC}")
    return cli


def write_inputs(wl, seed: int) -> tuple[list[str], str]:
    """Write the seeded pool and the fixed warm-up instance; return the
    pool's instance directories and the warm-up directory."""
    work = f"{WORK}/{wl.name}"
    shutil.rmtree(work, ignore_errors=True)
    rng = random.Random(f"{wl.name}:{seed}")
    jobs = [(i, f"{work}/i{i:02d}", rng) for i in range(wl.pool)]
    jobs.append((wl.pool, f"{work}/warm-up",
                 random.Random(f"{wl.name}:warm-up")))
    dirs = []
    for index, d, source in jobs:
        os.makedirs(d)
        for name, text in wl.make(source, index, wl.sizes).items():
            with open(f"{d}/{name}", "w", encoding="utf-8") as fh:
                fh.write(text)
        dirs.append(d)
    return dirs[:-1], dirs[-1]


def check_op(wl, d: str, steps: list[Step]) -> dict:
    """The per-instance record of one op after its output checks.  An op
    that hit a resource limit (exit 3) only has its message checked."""
    if steps[-1].code == 3:
        if not steps[-1].err.startswith("resource limit"):
            raise CheckError(f"{d}: exit 3 without a resource-limit message")
        return {"limit": True}
    try:
        return wl.check(d, steps)
    except (CheckError, KeyError, ValueError, TypeError) as exc:
        raise CheckError(f"{d}: {exc}") from None


def run_op(cli, wl, d: str) -> list[Step]:
    """One op: the workload's CLI calls, stopping at the first nonzero
    exit.  ``cli.main`` is looked up per call so a tracer can wrap it."""
    steps = []
    for argv in wl.argvs(d, wl.sizes):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        steps.append(Step(code, out.getvalue(), err.getvalue()))
        if code != 0:
            break
    return steps


class Run:
    """Timed ops of one workload run and the checked results per instance."""

    def __init__(self, wl, cli, dirs: list[str]):
        self.wl, self.cli, self.dirs = wl, cli, dirs
        self.first_out: dict[str, str] = {}
        self.records: dict[str, dict] = {}
        self.durations: list[int] = []  # ns, every op in order
        self.outcomes: list[str] = []   # "ok" | "limit" | "error"

    def op(self, d: str, tracer: Tracer | None = None) -> int:
        """Run one op on instance ``d``; return its op time in ns.
        Raises CheckError naming the instance on a wrong output."""
        if tracer is not None:
            tracer.op = len(self.durations)
        error = None
        start = time.perf_counter_ns()
        try:
            steps = run_op(self.cli, self.wl, d)
        except Exception as exc:  # an uncaught exception fails the op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        self.durations.append(elapsed)
        if error is not None:
            self.outcomes.append("error")
            self.records.setdefault(d, {"error": error})
        else:
            self.outcomes.append("limit" if steps[-1].code == 3 else "ok")
            self.settle(d, steps)
        return elapsed

    def answered_ratio(self) -> float:
        """Share of pool instances whose op ends with an answer, neither
        a resource limit (exit 3) nor an uncaught exception."""
        return sum(1 for r in self.records.values()
                   if "limit" not in r and "error" not in r) / len(self.dirs)

    def settle(self, d: str, steps: list[Step]) -> None:
        out = "".join(s.out for s in steps)
        if d in self.first_out:
            if out != self.first_out[d]:
                raise CheckError(f"{d}: stdout differs from the first pass")
            return
        self.records[d] = check_op(self.wl, d, steps)
        self.first_out[d] = out

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.dirs:
            h.update(self.first_out.get(d, "").encode())
        return h.hexdigest()


def set_up(wl, seed: int):
    """Import, write the inputs and run the warm-up op; timed as a whole."""
    forget_wcr()
    start = time.perf_counter()
    cli = import_cli()
    dirs, warm = write_inputs(wl, seed)
    steps = run_op(cli, wl, warm)
    elapsed = time.perf_counter() - start
    check_op(wl, warm, steps)
    return elapsed, cli, dirs


def op_p50(run: Run) -> float:
    """Median over the pool's instances of each instance's mean op time,
    in ms.  On a shared host the same op runs up to twice as slowly in
    bursts of seconds; a median over single ops jumps with the share of
    ops in such bursts, while each instance's mean over its passes moves
    only in proportion to it."""
    count = len(run.dirs)
    return statistics.median(
        statistics.fmean(run.durations[i::count]) for i in range(count)) / 1e6


def quantile(ns: list[int], q: float) -> float:
    """Nearest-rank q-quantile in ms."""
    ordered = sorted(ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def end_to_end(run: Run, setup_s: float) -> dict:
    completed = sum(1 for o in run.outcomes if o != "error")
    return {
        "ops_per_s": (completed / (sum(run.durations) / 1e9), "1/s"),
        "op_p50_ms": (op_p50(run), "ms"),
        "op_tail_ms": (quantile(run.durations, run.wl.tail_quantile), "ms"),
        "answered_ratio": (run.answered_ratio(), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def cold_cli(instance: str) -> dict:
    """Import time of wcr.cli and wall time of one ``python -m wcr.cli
    verify`` call, each in a fresh interpreter; medians of COLD_CALLS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, calls = [], []
    for _ in range(COLD_CALLS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wcr.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        line = next(l for l in proc.stderr.splitlines()
                    if l.split("|")[-1].strip() == "wcr.cli")
        imports.append(int(line.split("|")[1]) / 1e3)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wcr.cli", "verify", instance],
            env=env, capture_output=True, timeout=60)
        calls.append((time.perf_counter() - start) * 1e3)
        if proc.returncode not in (0, 1):
            raise CheckError(f"cold verify of {instance} exited "
                             f"{proc.returncode}")
    return {"cli.import_ms": (statistics.median(imports), "ms"),
            "cli.subprocess_ms": (statistics.median(calls), "ms")}


def measure(wl, seed: int, seconds: float, trace: bool):
    """Set up, then run ops over the pool in order, at least one pass and
    until ``seconds`` of op time are measured; return (run, metrics,
    tracer).  Raises CheckError."""
    setup_s, cli, dirs = set_up(wl, seed)
    run = Run(wl, cli, dirs)
    count, budget_ns = len(dirs), seconds * 1e9
    if not trace:
        # The set-up is repeated at even steps of the measured time, so
        # the median of the SETUPS set-up times sees the same host speed
        # as the ops.  Each repeat re-imports wcr and rewrites the same
        # inputs, and the ops go on with the fresh module.
        setup_times = [setup_s]
        measured = i = 0
        while i < count or measured < budget_ns:
            if (len(setup_times) < SETUPS
                    and measured >= len(setup_times) * budget_ns / SETUPS):
                setup_s, run.cli, _ = set_up(wl, seed)
                setup_times.append(setup_s)
            measured += run.op(dirs[i % count])
            i += 1
        while len(setup_times) < SETUPS:
            setup_s, run.cli, _ = set_up(wl, seed)
            setup_times.append(setup_s)
        return run, end_to_end(run, statistics.median(setup_times)), None
    # Each instance runs untraced and then traced, so the overhead ratio
    # pairs ops on the same input at nearly the same moment; the
    # per-layer figures come from the traced ops only.
    tracer = Tracer()
    plain_ns = traced_ns = i = 0
    while i < count or plain_ns + traced_ns < budget_ns:
        d = dirs[i % count]
        plain_ns += run.op(d)
        with tracer.installed():
            traced_ns += run.op(d, tracer)
        i += 1
    metrics = layer_metrics(tracer, i, traced_ns)
    metrics.update(cold_cli(f"{dirs[0]}/instance.json"))
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    return run, metrics, tracer


def failed(run: Run) -> int:
    """Ops ending in exit 3 or an uncaught exception."""
    return len(run.outcomes) - run.outcomes.count("ok")


def report(wl, seed: int, trace: bool, run: Run, metrics: dict,
           tracer: Tracer | None) -> None:
    """Human-readable lines, the results file, and (traced) the spans."""
    ops = len(run.durations)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not trace:
        print(f"op_tail_ms is p{100 * wl.tail_quantile:g} over {ops} ops")
    print(f"failed_ratio {1 - run.answered_ratio():.6g} of the pool; "
          f"{run.outcomes.count('limit')} ops hit a resource limit (exit 3), "
          f"{run.outcomes.count('error')} raised")
    print(f"stdout digest {run.digest()}")
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{RESULTS}/{wl.name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "sizes": wl.sizes,
                   "ops": ops, "tail_percentile": 100 * wl.tail_quantile,
                   "stdout_sha256": run.digest(),
                   "op_ms": [ns / 1e6 for ns in run.durations],
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "instances": {Path(d).name: run.records.get(d)
                                 for d in run.dirs}}, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.jsonl")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wcr" / "cli.py").is_file():
        print(f"error: no wcr sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    try:
        run, metrics, tracer = measure(wl, args.seed, args.seconds,
                                       bool(args.trace))
    except CheckError as exc:
        print(f"output check failed: {wl.name} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(f"{WORK}/{wl.name}", ignore_errors=True)
    report(wl, args.seed, bool(args.trace), run, metrics, tracer)
    print(json.dumps({
        "correct": True, "attempted": len(run.durations),
        "failed": failed(run),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
