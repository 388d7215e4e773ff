"""The longest runs of the suite that depend on no other test.

When collection finishes, conftest.py starts the runs that the selected tests
use in one worker process, so that they go on beside the other tests; each
test then waits for its result through a fixture of the same name. Every run
is a function of no arguments that returns picklable data.
"""

import os
import tempfile
import threading
import time

from gkdv import Grid, ModelParams, SolitonState, evolve, soliton_sum
from gkdv.harness import preset
from gkdv.harness.runs import execute

P2 = ModelParams(2)


def exit_with_parent(parent_pid: int) -> None:
    """Worker initializer: end the worker once the process that started it is
    gone, so that a test run killed from outside leaves no run behind."""
    def watch():
        while os.getppid() == parent_pid:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def radiation_escape() -> tuple:
    """The radiation-escape preset run: its report and its wall seconds.
    Its artifacts go to a temporary directory, removed afterwards."""
    with tempfile.TemporaryDirectory() as outdir:
        t0 = time.monotonic()
        report = execute(preset("radiation-escape"), outdir)
        return report, time.monotonic() - t0


def conservation_drift() -> tuple[float, float]:
    """Max relative mass and energy drift of one soliton at the reference
    configuration (n = 4096, L = 256, dt = 1e-4) over t = 50."""
    grid = Grid(4096, 256.0, -128.0)
    u0 = soliton_sum(P2, SolitonState((1.0,), (-100.0,)), grid)
    traj = evolve(u0, 50.0, P2, 1e-4, cadence=5.0, keep_fields=False)
    return traj.relative_drift()

