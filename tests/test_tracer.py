"""The benchmark's span tracer must still find every name it patches.

perfbench/tracer.py wraps gkdv functions under the names their callers look
them up by; a rename in gkdv would leave a span that never records and break
traced benchmark runs. The tracer patches numpy.fft process-wide, so it runs
in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import json, sys
from tracer import Tracer, instrument, span_table
tracer = Tracer()
instrument(tracer)
from gkdv.harness import ExperimentConfig, GridConfig, PerturbationConfig, execute, preset
out = sys.argv[1]
execute(ExperimentConfig(
    family="simulate", speeds=(1.0, 2.0), positions=(-20.0, 20.0),
    grid=GridConfig(1024, 128.0, -64.0), dt=1e-3, t_final=0.02, cadence=0.01,
    perturbation=PerturbationConfig(kind="bump", amplitude=1e-3, location="gap:1"),
    y0=10.0), out + "/simulate")
execute(preset("newton-recovery"), out + "/decompose")
execute(ExperimentConfig(family="spectrum", speeds=(1.0, 2.0), positions=(-20.0, 20.0),
                         grid=GridConfig(512, 128.0, -64.0)), out + "/spectrum")
table = span_table(tracer.arrays())
print(json.dumps({name: row["calls"] for name, row in table.items()}))
"""


def test_every_traced_span_records(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(calls) >= 17
    silent = sorted(name for name, n in calls.items() if n == 0)
    assert not silent, f"spans that recorded no call: {silent}"
