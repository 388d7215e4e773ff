"""One workload in one fresh process; started by run.py, never by hand.

It imports gkdv from the checkout's ``src``, builds the workload's configs
(set-up ends here, just before the first ``execute()``), then runs whole
rounds of the workload's operations until ``--seconds`` have passed. Each
operation is one ``execute()`` call plus its check, bracketed by runs of the
workload's calibration kernel (see calibrate.py). The last line of stdout is
one JSON object with the set-up time, per-round wall and CPU times (raw and
in reference seconds), peak RSS, operation counts and, when traced, the
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from calibrate import KERNELS
from tracer import Tracer, format_table, instrument, span_table
from workloads import CALIBRATION, WORKLOADS

def build_config(harness, spec: dict):
    """An ExperimentConfig from a workload's plain-dict spec; validates it."""
    sub = {"grid": harness.GridConfig, "perturbation": harness.PerturbationConfig,
           "sponge": harness.SpongeSettings, "track": harness.TrackSettings}
    kwargs = {k: sub[k](**v) if k in sub else v for k, v in spec.items()}
    return harness.ExperimentConfig(**kwargs)


def layer_metrics(tracer: Tracer, first: int, rounds: int):
    """Per-layer figures per round from the spans of the measured rounds, and
    their span table; harness.config.validate.s is taken from the set-up
    spans instead."""
    trace = tracer.arrays()
    table = span_table(trace, first)
    setup = span_table(trace, 0)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def row(name):
        return table.get(name, zero)

    def per_call(name, scale):
        r = row(name)
        return scale * r["self_s"] / r["calls"] if r["calls"] else 0.0

    validate_setup = (setup.get("harness.config.validate", zero)["s"]
                      - row("harness.config.validate")["s"])
    out = {
        "solver.step_hat.calls": row("solver.step_hat")["calls"] / rounds,
        "solver.step_hat.us_per_call": per_call("solver.step_hat", 1e6),
        "solver.step_hat.s": row("solver.step_hat")["s"] / rounds,
        "solver.fft.calls": row("solver.fft")["calls"] / rounds,
        "solver.fft.s": row("solver.fft")["s"] / rounds,
        "solver.evolve.self_s": row("solver.evolve")["self_s"] / rounds,
        "solver.conserved.calls": row("solver.conserved")["calls"] / rounds,
        "solver.conserved.s": row("solver.conserved")["s"] / rounds,
        "modulation.decompose.calls": row("modulation.decompose")["calls"] / rounds,
        "modulation.decompose.s": row("modulation.decompose")["s"] / rounds,
        "modulation.newton_iterations": tracer.newton_iterations / rounds,
        "modulation.ortho_jacobian.calls": row("modulation.ortho_jacobian")["calls"] / rounds,
        "modulation.decompose.failures": tracer.decompose_failures / rounds,
        "profiles.eval_Qc.calls": row("profiles.eval_Qc")["calls"] / rounds,
        "profiles.eval_Qc.s": row("profiles.eval_Qc")["s"] / rounds,
        "grid.wrap.calls": row("grid.wrap")["calls"] / rounds,
        "grid.wrap.s": row("grid.wrap")["s"] / rounds,
        "functionals.psi.calls": row("functionals.psi")["calls"] / rounds,
        "functionals.psi.s": row("functionals.psi")["s"] / rounds,
        "functionals.localized_masses.s": row("functionals.localized_masses")["s"] / rounds,
        "functionals.rate_terms.s": row("functionals.rate_terms")["s"] / rounds,
        "functionals.linearized_energy_form.s":
            row("functionals.linearized_energy_form")["s"] / rounds,
        "functionals.constrained_spectrum.calls":
            row("functionals.constrained_spectrum")["calls"] / rounds,
        "functionals.constrained_spectrum.s": row("functionals.constrained_spectrum")["s"] / rounds,
        "harness.collector.snapshots": row("harness.collector")["calls"] / rounds,
        "harness.collector.ms_per_snapshot": per_call("harness.collector", 1e3),
        "harness.collector.s": row("harness.collector")["s"] / rounds,
        "harness.write_series_csv.s": row("harness.write_series_csv")["s"] / rounds,
        "harness.config.validate.s": validate_setup,
        "harness.execute.s": row("harness.execute")["s"] / rounds,
        "trace.spans": (len(tracer.start) - first) / rounds,
    }
    return out, table


def run_operation(harness, op, cfg, opdir):
    """One execute() call plus its check: (measures, problems, raised)."""
    try:
        harness.execute(cfg, opdir)
    except Exception as exc:   # a raising operation counts as failed
        return {}, [f"raised {type(exc).__name__}: {exc}"], True
    try:
        measures, problems = op.check(opdir, op.config)
    except (OSError, ValueError, KeyError) as exc:   # missing or malformed output
        return {}, [f"unreadable output: {type(exc).__name__}: {exc}"], False
    return measures, problems, False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    t0 = float(os.environ["PERFBENCH_T0"])   # CLOCK_MONOTONIC just before spawn

    import gkdv.harness as harness   # from the checkout's src, via PYTHONPATH

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    ops = [(op, build_config(harness, op.config)) for op in WORKLOADS[args.workload](args.seed)]
    setup_s = time.monotonic() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Path(args.out)
    kernel = KERNELS[CALIBRATION[args.workload]]
    kernel.time()                      # first-call costs stay out of the rounds
    first_span = len(tracer.start) if tracer else 0
    walls, cpus, raw_walls, errors, measures = [], [], [], [], {}
    attempted = failed = 0
    correct = True
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        wall = cpu = raw = 0.0
        for op, cfg in ops:
            opdir = out / op.name
            shutil.rmtree(opdir, ignore_errors=True)
            attempted += 1
            before = kernel.time()
            w0, c0 = time.perf_counter(), time.process_time()
            measures[op.name], problems, raised = run_operation(harness, op, cfg, opdir)
            w, c = time.perf_counter() - w0, time.process_time() - c0
            wall_scale, cpu_scale = kernel.scale(before, kernel.time())
            wall, cpu, raw = wall + w * wall_scale, cpu + c * cpu_scale, raw + w
            if problems:
                failed += 1
                if not raised:     # the call returned, and its output is wrong
                    correct = False
                errors.extend(f"{op.name}: {p}" for p in problems)
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw)

    result = {"setup_s": setup_s, "round_wall_s": walls, "round_cpu_s": cpus,
              "round_raw_wall_s": raw_walls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": attempted, "failed": failed, "correct": correct,
              "errors": errors[:20], "measures": measures}
    if tracer is not None:
        result["layers"], table = layer_metrics(tracer, first_span, len(walls))
        trace_path = out / f"trace-{args.workload}.npz"
        tracer.save(trace_path, rounds=len(walls), first_round_span=first_span)
        result["trace_file"] = str(trace_path)
        total = result["layers"]["harness.execute.s"] * len(walls)
        print(f"{args.workload}: per round over {len(walls)} traced round(s); "
              f"shares of harness.execute", file=sys.stderr)
        print(format_table(table, len(walls), total), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
