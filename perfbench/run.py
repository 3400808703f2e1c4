"""Benchmark entry point for pmp_thermo, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: engine-curve, deadline-plan, plan-simulate, oracle-search (see
README.md).  With --trace 0 the last line of standard output is the
end-to-end result; with --trace 1 it holds the per-layer metrics of a
traced run.  Set-up time is measured here, from starting a worker process
until it reports READY, three times (two set-up-only workers plus the
measuring one), and reported as the median.  Result and trace files go to
perfbench/out/.  Exits 2 without a result when the program source is
missing, 1 when the worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_ONLY_WORKERS = 2
TIME_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def _wait_ready(proc: subprocess.Popen, deadline: float) -> tuple[float, bytes]:
    """Block until the worker prints READY; returns the time and any bytes read past it."""
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while b"READY\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailed("worker set-up overran the time limit")
            if not sel.select(remaining):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerFailed(f"worker exited during set-up with code {proc.wait()}")
            buf += chunk
    t_ready = time.perf_counter()
    return t_ready, buf.split(b"READY\n", 1)[1]


def _start(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    return proc, t0


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    setup_s: list[float] = []
    procs: list[subprocess.Popen] = []
    try:
        if not args.trace:
            for _ in range(SETUP_ONLY_WORKERS):
                proc, t0 = _start(cmd + ["--setup-only"], env)
                procs.append(proc)
                t_ready, _ = _wait_ready(proc, deadline)
                setup_s.append(t_ready - t0)
                proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
        proc, t0 = _start(cmd, env)
        procs.append(proc)
        t_ready, head = _wait_ready(proc, deadline)
        setup_s.append(t_ready - t0)
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker overran the time limit") from exc
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            p.stdout.close()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = (head + rest).decode().strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"}, **result["metrics"]}
        result["detail"]["setup_samples_s"] = setup_s
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pmp_thermo" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (WorkerFailed, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result.pop("detail")}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
