"""Experiment harness: configs, perturbations, run drivers, CLI."""

from .config import (ExperimentConfig, GridConfig, SpongeSettings,
                     TrackSettings, load_config, preset, preset_names)
from .perturbations import PerturbationConfig, make_perturbation
from .runs import CheckResult, RunReport, execute

__all__ = [
    "ExperimentConfig", "GridConfig", "PerturbationConfig", "SpongeSettings",
    "TrackSettings", "load_config", "preset", "preset_names",
    "make_perturbation",
    "CheckResult", "RunReport", "execute",
]
