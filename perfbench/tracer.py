"""Span tracing of gkdv's layers from outside the program.

``instrument(tracer)`` replaces the public functions of each layer with
wrappers, under the names their callers look them up by: class attributes
(``Stepper.step_hat``, ``Grid.wrap``, ``PsiWeight.psi``,
``DiagnosticsCollector.__call__``), every gkdv module global bound to a
wrapped function (``gkdv.modulation.decompose``, ``gkdv.profiles.eval_Qc``,
...), and ``numpy.fft.rfft``/``irfft``. The source of the program is not
touched.

A span is (name, start, end, parent): parent is the index of the span that
was open when it started, or -1. Spans are kept in compact arrays in memory
and written out once, at the end, as an ``.npz`` file. Self time is a span's
duration minus the durations of its direct children.

Run this file on a trace to print its per-span table:

    python3 perfbench/tracer.py perfbench/out/limb-sweep-trace1/trace-limb-sweep.npz
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.newton_iterations = 0
        self.decompose_failures = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """A callable that records a span named `name` around each call of fn."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch_attribute(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def patch_function(self, fn, name: str, **hooks) -> None:
        """Rebind every gkdv module global that refers to fn."""
        traced = self.wrap(name, fn, **hooks)
        for mod in [m for key, m in sys.modules.items()
                    if key == "gkdv" or key.startswith("gkdv.")]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path, **extra) -> None:
        np.savez(path, **self.arrays(), **{k: np.asarray(v) for k, v in extra.items()})


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every gkdv layer the benchmark reports on."""
    import gkdv.functionals as functionals
    import gkdv.harness.config as config
    import gkdv.harness.runs as runs
    import gkdv.modulation as modulation
    import gkdv.profiles as profiles
    import gkdv.solver as solver
    from gkdv.errors import GkdvError
    from gkdv.grid import Grid

    def count_iterations(dec):
        tracer.newton_iterations += dec.iterations

    def count_failure():
        if isinstance(sys.exc_info()[1], GkdvError):
            tracer.decompose_failures += 1

    tracer.patch_attribute(solver.Stepper, "step_hat", "solver.step_hat")
    tracer.patch_attribute(Grid, "wrap", "grid.wrap")
    tracer.patch_attribute(functionals.PsiWeight, "psi", "functionals.psi")
    tracer.patch_attribute(runs.DiagnosticsCollector, "__call__", "harness.collector")
    tracer.patch_attribute(np.fft, "rfft", "numpy.fft")
    tracer.patch_attribute(np.fft, "irfft", "numpy.fft")
    for fn, name, hooks in (
            (solver.evolve, "solver.evolve", {}),
            (solver.conserved, "solver.conserved", {}),
            (modulation.decompose, "modulation.decompose",
             {"on_result": count_iterations, "on_error": count_failure}),
            (modulation.ortho_jacobian, "modulation.ortho_jacobian", {}),
            (profiles.eval_Qc, "profiles.eval_Qc", {}),
            (functionals.localized_masses, "functionals.localized_masses", {}),
            (functionals.localized_mass_rate_terms, "functionals.rate_terms", {}),
            (functionals.linearized_energy_form, "functionals.linearized_energy_form", {}),
            (functionals.constrained_spectrum, "functionals.constrained_spectrum", {}),
            (runs.write_series_csv, "harness.write_series_csv", {}),
            (config.validate, "harness.config.validate", {}),
            (runs.execute, "harness.execute", {})):
        tracer.patch_function(fn, name, **hooks)


def span_table(trace: dict, first: int = 0) -> dict:
    """Per span name over spans[first:]: calls, inclusive seconds, self seconds,
    and, for numpy.fft, the part called directly from Stepper.step_hat."""
    names = list(trace["names"])
    nid = trace["name_id"]
    parent = trace["parent"]
    dur = trace["end"] - trace["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    keep = np.arange(dur.size) >= first
    table = {}
    for i, name in enumerate(names):
        sel = keep & (nid == i)
        table[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                       "self_s": float(own[sel].sum())}
    if "numpy.fft" in names and "solver.step_hat" in names:
        in_step = keep & (nid == names.index("numpy.fft")) & has_parent
        in_step[in_step] = nid[parent[in_step]] == names.index("solver.step_hat")
        table["solver.fft"] = {"calls": int(in_step.sum()), "s": float(dur[in_step].sum()),
                               "self_s": float(own[in_step].sum())}
    return table


def layer_shares(table: dict, total_s: float) -> dict:
    """Self time summed per layer (the span name up to its last dot, with
    numpy.fft a layer of its own), as a share of total_s."""
    shares: dict = {}
    for name, row in table.items():
        if name == "solver.fft":        # a subset of numpy.fft, not a span
            continue
        layer = name if name == "numpy.fft" else name.rsplit(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / total_s
    return shares


def format_table(table: dict, rounds: int, total_s: float) -> str:
    """Rows per round, sorted by self time, with each span's share of total_s,
    followed by the layer shares."""
    lines = [f"{'span':36s} {'calls':>9s} {'incl s':>9s} {'self s':>9s} "
             f"{'incl %':>7s} {'self %':>7s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"] == 0:
            continue
        lines.append(f"{name:36s} {row['calls'] / rounds:9.0f} {row['s'] / rounds:9.4f} "
                     f"{row['self_s'] / rounds:9.4f} {100 * row['s'] / total_s:7.1f} "
                     f"{100 * row['self_s'] / total_s:7.1f}")
    shares = sorted(layer_shares(table, total_s).items(), key=lambda kv: -kv[1])
    lines.append("layer self-time shares: "
                 + ", ".join(f"{layer} {100 * share:.1f}%" for layer, share in shares))
    return "\n".join(lines)


def main(argv) -> int:
    for path in argv:
        with np.load(path) as data:
            trace = {k: data[k] for k in data.files}
        rounds = int(trace.get("rounds", 1))
        first = int(trace.get("first_round_span", 0))
        table = span_table(trace, first)
        total = table.get("harness.execute", {"s": 0.0})["s"] or 1.0
        print(f"{path}: {rounds} traced round(s), per round; shares of harness.execute")
        print(format_table(table, rounds, total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
