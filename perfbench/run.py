"""Benchmark of the model checker: time-to-verdict, CPU and memory.

    python3 perfbench/run.py --workload verify-c2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/repro`` must exist). The
workloads, metrics and bounds are declared in ``BENCHMARK.json``; what
each workload stresses and why is in ``perfbench/README.md``.

Every job runs in a fresh interpreter (``perfbench/job.py``). With
``--trace 0`` a run first repeats the workload's set-up alone a few
times, then runs whole jobs, one at a time, as many as end within
``--seconds`` (at least one), and reports the end-to-end metrics as
medians. With ``--trace 1`` it runs one traced and one untraced job and
reports the per-layer metrics, including the tracing overhead; the
traced job's spans are written to ``perfbench/out/``.

The seed sets the jobs' hash seed (``PYTHONHASHSEED``), which orders
every string-keyed set and dict the program builds; the instance of
each workload is fixed (README.md, "Seed").

Every job's outcome (verdicts and state/transition/terminal counts) is
checked against ``perfbench/reference.json``. A job that raises or
disagrees counts as failed and its timings are discarded. The last line
on stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: every run must end within 180 s; children are killed past this mark
DEADLINE_S = 170.0
#: set-up-only jobs per untraced run, before the timed jobs
SETUP_SAMPLES = 4


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONHASHSEED"] = str(seed % (2**32))
    return env


def launch(mode: str, args: list[str], env: dict, timeout: float) -> dict:
    """Run one job to completion; its result plus ``cpu_s``.

    ``cpu_s`` is the user + system time of the job and of every worker
    process it reaped, from ``wait4``. A job still running after
    ``timeout`` seconds is killed with its whole process group.
    """
    cmd = [
        sys.executable, str(HERE / "job.py"), "--mode", mode,
        "--launched", repr(time.monotonic()), *args,
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True,
    )
    killer = threading.Timer(timeout, _kill_group, args=(proc.pid,))
    killer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
    except BaseException:
        _kill_group(proc.pid)
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"job exited with {proc.returncode}"
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def gate(reference: dict, workload: str, result: dict) -> list[str]:
    """Why ``result`` must not count: an error or a differing outcome."""
    if "error" in result:
        return [result["error"]]
    if "outcome" not in result:
        return []
    want = reference[workload]
    got = result["outcome"]
    return [
        f"{key}: expected {want[key]!r}, got {got.get(key)!r}"
        for key in want
        if got.get(key) != want[key]
    ]


class Run:
    """The jobs of one benchmark run and their gate verdicts."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.args = ["--workload", workload]
        self.env = child_env(seed)
        self.reference = reference
        self.t0 = time.monotonic()
        self.attempted = 0
        self.passed: list[tuple[str, dict]] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def job(self, mode: str) -> dict | None:
        self.attempted += 1
        result = launch(
            mode, self.args, self.env, max(DEADLINE_S - self.elapsed(), 1.0)
        )
        problems = gate(self.reference, self.workload, result)
        if problems:
            print(
                f"{self.workload} {mode} job FAILED: " + "; ".join(problems),
                file=sys.stderr,
            )
            return None
        self.passed.append((mode, result))
        return result

    def results(self, *modes: str) -> list[dict]:
        return [r for m, r in self.passed if m in modes]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.passed)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def untraced(run: Run, seconds: float) -> dict:
    for _ in range(SETUP_SAMPLES):
        run.job("setup")
    while True:
        t = run.elapsed()
        run.job("job")
        # start another job only if one more of the same length still
        # ends within the window
        if 2 * run.elapsed() - t > min(seconds, DEADLINE_S):
            break
    jobs = run.results("job")
    return {
        "wall_s": _median([r["wall_s"] for r in jobs]),
        "cpu_s": _median([r["cpu_s"] for r in jobs]),
        "setup_s": _median([r["setup_s"] for r in run.results("setup", "job")]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in jobs]),
        "pass_rate": 1.0 - run.failed / run.attempted,
    }


def traced(run: Run, seed: int) -> dict:
    traced_job = run.job("trace")
    if traced_job is None:
        return {}
    layers = dict(traced_job["layers"])
    # the untraced twin gives the overhead; skipped (overhead reads 0)
    # when it could not finish before the deadline
    if run.elapsed() + 1.5 * traced_job["wall_s"] < DEADLINE_S:
        plain = run.job("job")
        if plain is not None:
            layers["trace.untraced_wall_s"] = plain["wall_s"]
            layers["trace.overhead_s"] = (
                layers["trace.wall_s"] - plain["wall_s"]
            )
    else:
        print("no time left for the untraced job: overhead not measured",
              file=sys.stderr)
    if "lts.certreduce.reduced_states" in layers:
        unreduced = run.reference["verify-c2"]["plain"][0]
        layers["lts.certreduce.unreduced_states"] = unreduced
        layers["lts.certreduce.reduction_factor"] = (
            unreduced / layers["lts.certreduce.reduced_states"]
        )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{run.workload}-seed{seed}-spans.json", "w") as fh:
        json.dump(traced_job["spans"], fh, indent=1)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    # byte-compile the program up front so no job pays the one-time compile
    compileall.compile_dir(ROOT / "src", quiet=1)

    run = Run(args.workload, args.seed, reference)
    if args.trace:
        values = traced(run, args.seed)
        declared = bench["per_layer"]
    else:
        values = untraced(run, args.seconds)
        declared = bench["end_to_end"]
    counts = {mode: len(run.results(mode)) for mode in ("setup", "job", "trace")}
    print(f"{args.workload} seed {args.seed}: {run.attempted} jobs attempted, "
          f"{run.failed} failed, passed per mode {counts}")
    metrics = {}
    for m in declared:
        # a layer a workload does not exercise reads 0 (README.md)
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
