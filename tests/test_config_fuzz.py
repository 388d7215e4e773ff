"""Validation keeps its promise under fuzzing: a config that validates runs.

Each example takes a preset, shrunk to a small grid and a short run, and
sets one or two of its fields to a number, NaN, an infinity, 1e300, a bool,
a string, a list, None or {}. config_from_dict must then raise
ConfigValidationError, or execute() must return a report or raise a
GkdvError; no other exception may escape. Validated configs whose runs
would take many steps are not executed.
"""

import copy
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gkdv.errors import ConfigValidationError, GkdvError
from gkdv.harness import execute, preset, preset_names
from gkdv.harness.config import STATIC_FAMILIES, config_from_dict, config_to_dict
from gkdv.solver import step_counts

_SMALL_GRID = {"n": 512, "length": 256.0, "x0": -128.0}
_SHORT_RUN = {"dt": 1e-3, "t_final": 0.5, "cadence": 0.25}

# per preset, what makes it small and short; each base validates and runs
_SHRINK = {
    "drift-scaling": {**_SHORT_RUN, "grid": {"n": 1024, "length": 512.0, "x0": -256.0},
                      "positions": [-90.0, 90.0], "alphas": [0.03, 0.1, 0.3, 1.0]},
    "mass-monotonicity": {**_SHORT_RUN, "grid": _SMALL_GRID, "identity_t": 0.015,
                          "identity_cadence": 0.003},
    "newton-recovery": {"grid": _SMALL_GRID},
    "positivity": {"grid": _SMALL_GRID},
    "radiation-escape": {**_SHORT_RUN, "grid": _SMALL_GRID, "positions": [-30.0, 30.0]},
    "single-soliton": {**_SHORT_RUN, "grid": _SMALL_GRID},
    "stability-bound": {**_SHORT_RUN, "grid": {**_SMALL_GRID, "x0": -80.0}},
    "tau-collision": {**_SHORT_RUN, "grid": _SMALL_GRID},
}

# a run is executed only below these counts, so that the test stays fast
_MAX_STEPS = 1000
_MAX_SNAPSHOTS = 10

_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, 3, -1, 0.5, 1e-3, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(-100.0, 100.0))
_VALUES = st.one_of(_NUMBERS, st.booleans(), st.sampled_from(["abc", "1", "gap:1", None, {}]),
                    st.lists(_NUMBERS, max_size=3))


def _base(name: str) -> dict:
    data = config_to_dict(preset(name))
    for key, value in _SHRINK[name].items():
        data[key] = {**data[key], **value} if isinstance(value, dict) else value
    return data


def _fields(data: dict) -> list:
    """Every field of a config dict, a sub-config's as 'key.field'."""
    fields = []
    for key, value in data.items():
        if isinstance(value, dict) and key != "thresholds":
            fields += [f"{key}.{sub}" for sub in value]
        else:
            fields.append(key)
    return fields


def _short(t_final: float, dt: float, cadence: float) -> bool:
    n_steps, every = step_counts(t_final, dt, cadence)
    return n_steps <= _MAX_STEPS and n_steps // every <= _MAX_SNAPSHOTS


def _cheap(cfg) -> bool:
    if cfg.family in STATIC_FAMILIES:
        return True
    return _short(cfg.t_final, cfg.dt, cfg.cadence) and (
        cfg.family != "monotonicity" or _short(cfg.identity_t, cfg.dt, cfg.identity_cadence))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_a_config_that_validates_runs_or_raises_a_library_error(data):
    name = data.draw(st.sampled_from(preset_names()), label="preset")
    config = _base(name)
    for field in data.draw(st.lists(st.sampled_from(_fields(config)), min_size=1, max_size=2,
                                    unique=True), label="fields"):
        head, _, key = field.partition(".")
        target = config[head] if key else config
        target[key or head] = data.draw(_VALUES, label=field)
    try:
        cfg = config_from_dict(copy.deepcopy(config))
    except ConfigValidationError:
        return
    if not _cheap(cfg):
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            report = execute(cfg, out)
        except GkdvError:
            return
    assert report.family == cfg.family
