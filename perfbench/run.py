"""Benchmark of the atomspec CLI, run the way a user runs it.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, and the run fails without it.  A cell is one verb on one ring,
`cli.run([verb, "--ring", r, ..., "--format", "json"])`, in a fresh
interpreter, so no lru_cache carries over between cells.  Cells run one
after another, one child at a time: a closed loop with a single client.

With `--trace 0` a run makes passes over the workload's cells, at least
two, and starts another only while it is predicted to end within
`--seconds`.  It reports

  wall_s       sum over cells of the median child wall time, spawn to exit;
  setup_s      median over all children of spawn until atomspec.cli is
               imported;
  peak_rss_mb  largest child ru_maxrss.

With `--trace 1` it makes one pass in which each cell runs twice: once
untraced, to read the cache counters and time a warm second cli.run, and
once with each layer's public functions called and timed from outside the
program (see child.py).  Per-layer values are summed over the cells.

A cell fails on a timeout (its elapsed time is kept), a traceback, a
wrong exit code or known answer (workloads.py), or stdout that differs
from the cell's first pass.  Before the result, one line per cell gives its
median time and the sha256 of its stdout, the behaviour fingerprint.  The
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Cell, WrongAnswer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

CELL_TIMEOUT_S = 60.0
# The whole run must end within 180 s; no cell may run past this.
RUN_LIMIT_S = 170.0
# Every cell runs at least twice, so its stdout can be compared.
MIN_PASSES = 2


@dataclass
class Execution:
    wall_s: float
    maxrss_kb: int
    stdout: str
    meta: dict = field(default_factory=dict)
    problem: str | None = None


def _wait(pid: int, timeout: float) -> tuple[float, int, int, bool]:
    """Wait for pid, killing it after `timeout` seconds.

    Returns (exit time, exit code, child ru_maxrss in kB, killed).  The
    child is left a zombie until the timer can no longer fire, so the
    kill never reaches a reused pid.
    """
    lock = threading.Lock()
    exited = killed = False

    def kill():
        nonlocal killed
        with lock:
            if not exited:
                os.kill(pid, signal.SIGKILL)
                killed = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic()
        with lock:
            exited = True
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(pid, 0)
    return end, os.waitstatus_to_exitcode(status), usage.ru_maxrss, killed


class Runner:
    """Spawns cell children, one at a time, into a scratch directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.spawned = 0

    def run(self, cell: Cell, mode: str) -> Execution:
        self.spawned += 1
        base = self.work / f"child{self.spawned}"
        out_path, err_path, meta_path = (
            base.with_suffix(s) for s in (".out", ".err", ".json"))
        timeout = max(1.0, min(CELL_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            argv = [sys.executable, str(CHILD), repr(start), mode, str(meta_path),
                    str(SRC), *cell.args, "--format", "json"]
            pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ])
            end, code, maxrss, killed = _wait(pid, timeout)
        ex = Execution(end - start, maxrss, out_path.read_text(errors="replace"))
        stderr = err_path.read_text(errors="replace")
        try:
            ex.meta = json.loads(meta_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            pass  # the child died before writing it; reported below
        if killed:
            ex.problem = f"timed out after {timeout:.1f} s"
        elif "Traceback" in stderr:
            ex.problem = "traceback: " + stderr.strip().splitlines()[-1]
        elif "setup_s" not in ex.meta:
            ex.problem = f"exit {code} before importing atomspec: {stderr.strip()}"
        elif mode == "layers":
            if code != 0:
                ex.problem = f"layer trace exited {code}: {stderr.strip()}"
        else:
            try:
                cell.verify(code, ex.stdout)
            except WrongAnswer as exc:
                ex.problem = str(exc)
        return ex


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_cell(name: str, execs: list[Execution]) -> None:
    walls = " ".join(f"{e.wall_s:.3f}" for e in execs)
    print(f"cell {name!r}: wall {walls} s, stdout sha256 {_sha(execs[0].stdout)}")
    for e in execs:
        if e.problem:
            print(f"  FAILED: {e.problem}")


def measure(cells: list[Cell], runner: Runner, seconds: float):
    runs: dict[str, list[Execution]] = {cell.name: [] for cell in cells}
    start = time.monotonic()
    passes = 0
    while True:
        for cell in cells:
            runs[cell.name].append(runner.run(cell, "cli"))
        passes += 1
        elapsed = time.monotonic() - start
        next_end = elapsed * (passes + 1) / passes
        if next_end > RUN_LIMIT_S or (passes >= MIN_PASSES and next_end > seconds):
            break
    for name, execs in runs.items():
        first = _sha(execs[0].stdout)
        for i, e in enumerate(execs[1:], 2):
            if e.problem is None and _sha(e.stdout) != first:
                e.problem = f"stdout of pass {i} differs from pass 1"
        _report_cell(name, execs)
    every = [e for execs in runs.values() for e in execs]
    setups = [e.meta["setup_s"] for e in every if "setup_s" in e.meta]
    if not setups:
        raise SystemExit("no child got as far as importing atomspec")
    metrics = {
        "wall_s": sum(statistics.median(e.wall_s for e in execs)
                      for execs in runs.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(e.maxrss_kb for e in every) / 1024,
    }
    return metrics, every


def trace(cells: list[Cell], runner: Runner, names: list[str]):
    totals = dict.fromkeys(names, 0.0)
    overhead = 0.0
    every = []
    for cell in cells:
        counted = runner.run(cell, "counters")
        layered = runner.run(cell, "layers")
        _report_cell(cell.name, [counted])
        if layered.problem:
            print(f"  FAILED layer trace: {layered.problem}")
        every += [counted, layered]
        for key, value in (counted.meta | layered.meta).items():
            if key in totals:
                totals[key] += value
        overhead += layered.wall_s - counted.meta.get("cold_s", counted.wall_s)
    tested = totals["monoform.ideals_tested"]
    totals["monoform.comonoform_ratio"] = (
        totals["monoform.comonoform_count"] / tested if tested else 0.0)
    totals["trace.overhead_s"] = overhead
    return totals, every


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "atomspec" / "cli.py").is_file():
        print(f"no atomspec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # Byte-compile once, so no child's set-up includes compiling.
    compileall.compile_dir(str(SRC), quiet=1)

    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cells = WORKLOADS[args.workload](args.seed, Path(tmp))
        runner = Runner(Path(tmp), start + RUN_LIMIT_S)
        if args.trace:
            values, every = trace(cells, runner, list(units))
        else:
            values, every = measure(cells, runner, args.seconds)
    failed = sum(e.problem is not None for e in every)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
