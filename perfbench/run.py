"""gkdv benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gkdv checkout; it times the package in ``src``.
Every workload runs in fresh worker processes (``worker.py``) with BLAS and
OpenMP pinned to one thread. With ``--trace 0`` it measures set-up in
several fresh processes, then runs whole rounds of the workload's
operations for ``--seconds`` seconds and reports the end-to-end metrics
named in ``BENCHMARK.json``; times are in reference seconds (see
``calibrate.py``). With ``--trace 1`` it runs the workload twice for half
the time each, untraced and then traced, and reports the per-layer metrics
together with the tracing overhead. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import KERNELS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7        # set-up-only processes; set-up time is their median
BUDGET_S = 170.0        # the whole invocation must end within 180 s
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({name: THREADS for name in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env: dict, deadline: float, *args: str) -> dict:
    """Run worker.py with args in a fresh process and parse its result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    env = dict(env, PERFBENCH_T0=repr(time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_sample(env: dict, deadline: float, common: tuple) -> float:
    """Set-up time of one fresh worker, in reference seconds."""
    kernel = KERNELS["python"]
    before = kernel.time()
    setup = spawn(env, deadline, *common, "--seconds", "0", "--setup-only")["setup_s"]
    return setup * kernel.scale(before, kernel.time())[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "gkdv" / "__init__.py").is_file():
        print(f"no gkdv sources under {src}; run from the root of a gkdv checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # compile the package once, so no set-up sample pays for byte-compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True,
                   stdout=subprocess.DEVNULL, timeout=deadline - time.monotonic())
    env = worker_env(src)
    out = HERE / "out" / f"{args.workload}-trace{args.trace}"
    common = ("--workload", args.workload, "--seed", str(args.seed), "--out", str(out))

    if not args.trace:
        setups = [setup_sample(env, deadline, common) for _ in range(SETUP_PROBES)]
        res = spawn(env, deadline, *common, "--seconds", str(args.seconds))
        runs = [res]
        values = {"wall_s": statistics.median(res["round_wall_s"]),
                  "cpu_s": statistics.median(res["round_cpu_s"]),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        wanted = spec["end_to_end"]
        print(f"{args.workload} seed {args.seed}: rounds {res['round_wall_s']} reference s, "
              f"{res['round_raw_wall_s']} raw s; set-up samples {setups}", file=sys.stderr)
    else:
        half = str(0.5 * args.seconds)
        ref = spawn(env, deadline, *common, "--seconds", half, "--trace", "0")
        res = spawn(env, deadline, *common, "--seconds", half, "--trace", "1")
        runs = [ref, res]
        values = dict(res["layers"])
        values["trace.overhead_s"] = (statistics.median(res["round_wall_s"])
                                      - statistics.median(ref["round_wall_s"]))
        wanted = spec["per_layer"]
        print(f"{args.workload} seed {args.seed}: untraced rounds {ref['round_wall_s']}, "
              f"traced rounds {res['round_wall_s']}, spans in {res['trace_file']}",
              file=sys.stderr)

    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {err}", file=sys.stderr)
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
