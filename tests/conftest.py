"""Shared fixtures: cached preset runs, the long runs started in the
background, and the acceptance-gate summary."""

import multiprocessing
import os
import time

import pytest

import longruns
from gkdv.harness import preset
from gkdv.harness.runs import execute

# criterion id -> (passed, one-line detail); printed after the run
_GATE = {}


def record_criterion(cid: int, passed: bool, detail: str) -> None:
    _GATE[cid] = (bool(passed), detail)


_TITLES = {
    1: "solver fidelity",
    2: "integrable two-soliton oracle",
    3: "modulation correctness",
    4: "quadratic-form positivity",
    5: "localized-mass monotonicity",
    6: "quadratic speed control",
    7: "asymptotic decay probe",
    8: "interaction-tail exponent fits",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _GATE:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_GATE):
        ok, detail = _GATE[cid]
        tag = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"[{tag}] criterion {cid} ({_TITLES[cid]}): {detail}")


@pytest.fixture(scope="session")
def preset_run(tmp_path_factory):
    """Run a named preset once per session; returns (report, outdir, seconds)."""
    cache = {}

    def run(name: str):
        if name not in cache:
            outdir = tmp_path_factory.mktemp(f"run-{name}")
            t0 = time.monotonic()
            report = execute(preset(name), outdir)
            cache[name] = (report, outdir, time.monotonic() - t0)
        return cache[name]

    return run


def check_map(report):
    return {c.name: c for c in report.checks}


# ---------------------------------------------------------------------------
# long runs in the background

# fixture name -> run in longruns.py. When collection ends, the runs behind
# the fixtures that the selected tests use start in one worker process, in
# this order (the one needed first at the top), and go on beside the others.
_LONG_RUNS = {
    "radiation_escape": longruns.radiation_escape,
    "conservation_drift": longruns.conservation_drift,
}
# how long a fixture waits for its run, counted from the run's submission;
# the two runs take about 8 minutes together
_LONG_RUN_LIMIT_S = 1800.0
_started = {}   # fixture name -> (AsyncResult, submission time)
_worker = []    # the Pool, while it runs


def pytest_collection_finish(session):
    if session.config.option.collectonly:
        return
    names = [name for name in _LONG_RUNS
             if any(name in getattr(item, "fixturenames", ()) for item in session.items)]
    if not names:
        return
    pool = multiprocessing.get_context("spawn").Pool(
        1, initializer=longruns.exit_with_parent, initargs=(os.getpid(),))
    _worker.append(pool)
    for name in names:
        _started[name] = (pool.apply_async(_LONG_RUNS[name]), time.monotonic())


def pytest_sessionfinish(session, exitstatus):
    while _worker:
        pool = _worker.pop()
        pool.terminate()
        pool.join()


def _long_run(name: str):
    """The result of a run in longruns.py: waited for when it was started in
    the background, computed here otherwise."""
    if name not in _started:
        return _LONG_RUNS[name]()
    result, submitted = _started[name]
    return result.get(timeout=max(submitted + _LONG_RUN_LIMIT_S - time.monotonic(), 1.0))


@pytest.fixture(scope="session")
def radiation_escape():
    """(report, seconds) of the radiation-escape preset run."""
    return _long_run("radiation_escape")


@pytest.fixture(scope="session")
def conservation_drift():
    return _long_run("conservation_drift")
