"""The entcover benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-desk --seed 1 --seconds 20 --trace 0

Run it from the repository root; it benchmarks the package under ``src``.
Workloads, their generator parameters and tail percentiles are in
``perfbench/workloads.json``; metric names and units in ``BENCHMARK.json``.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` is the
median over several set-ups, each a fresh interpreter that imports
entcover, draws the instances and writes the instance files, timed from
outside; the rest come from one closed-loop client process
(``client.py run``).  With ``--trace 1`` it sets up once and reports the
per-layer metrics of a traced run, and writes its spans to
``perfbench/out/``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT = os.path.join(HERE, "client.py")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60.0
DEADLINE_S = 170.0


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _timed_setup(cmd: list, env: dict) -> float:
    """Seconds from starting ``cmd`` to its exit.  A blocking wait keeps
    the full clock resolution (``wait(timeout=...)`` polls every 50 ms);
    a timer kills a set-up that hangs."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    finally:
        guard.cancel()
    seconds = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "entcover", "__init__.py")):
        return _fail("no src/entcover under the working directory; "
                     "run from the repository root")
    with open(os.path.join(HERE, "workloads.json")) as fh:
        if args.workload not in json.load(fh):
            return _fail(f"unknown workload '{args.workload}'")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            setups.append(_timed_setup(
                [sys.executable, CLIENT, "setup", "--workload", args.workload,
                 "--seed", str(args.seed), "--dir", os.path.join(work, str(k))],
                env))
        cmd = [sys.executable, CLIENT, "run", "--dir", os.path.join(work, str(k)),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")]
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True,
                              text=True,
                              timeout=DEADLINE_S - (perf_counter() - t_start))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(getattr(exc, "stderr", None) or "")
        return _fail(f"client failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed; op_tail_ms is p{result['tail_percentile']} "
          f"of {result['attempted']} samples")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
