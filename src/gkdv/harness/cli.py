"""Command line front end: one subcommand per experiment family.

Each subcommand starts from a JSON config (--config) or the family preset,
applies any overrides, runs the experiment into --out, prints one line per
check, and exits 0 exactly when every check passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import GkdvError
from .config import (ExperimentConfig, GridConfig, load_config, preset)
from .runs import execute

_FAMILY_PRESET = {
    "simulate": "single-soliton",
    "decompose": "newton-recovery",
    "spectrum": "positivity",
    "stability": "stability-bound",
    "monotonicity": "mass-monotonicity",
    "quadratic-control": "drift-scaling",
    "asymptotic": "radiation-escape",
    "nsoliton": "tau-collision",
}


def _floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON experiment config; defaults to the family preset")
    sub.add_argument("--out", type=Path, default=None,
                     help="output directory (default out/<label>)")
    sub.add_argument("--p", type=int, default=None, help="nonlinearity exponent")
    sub.add_argument("--speeds", type=_floats, default=None,
                     help="comma-separated soliton speeds")
    sub.add_argument("--positions", type=_floats, default=None,
                     help="comma-separated soliton positions (or phase parameters)")
    sub.add_argument("--alpha", type=float, default=None,
                     help="perturbation H1 amplitude")
    sub.add_argument("--alphas", type=_floats, default=None,
                     help="amplitude limbs (stability, quadratic-control)")
    sub.add_argument("--separations", type=_floats, default=None,
                     help="separation sweep (monotonicity)")
    sub.add_argument("--grid", type=int, default=None, help="number of grid points")
    sub.add_argument("--domain", type=float, default=None, help="domain length")
    sub.add_argument("--x0", type=float, default=None, help="left edge of the domain")
    sub.add_argument("--dt", type=float, default=None, help="time step")
    sub.add_argument("--tfinal", type=float, default=None, help="final time")
    sub.add_argument("--cadence", type=float, default=None, help="snapshot interval")
    sub.add_argument("--seed", type=int, default=None, help="perturbation seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkdv",
        description="Multi-soliton stability experiments for generalized KdV")
    subs = parser.add_subparsers(dest="family", required=True)
    for family, preset_name in _FAMILY_PRESET.items():
        sub = subs.add_parser(family, help=f"run the {family} family "
                                           f"(preset: {preset_name})")
        _add_common(sub)
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.p is not None:
        updates["p"] = args.p
    if args.speeds is not None:
        updates["speeds"] = args.speeds
        if args.positions is None and len(args.speeds) != len(cfg.positions):
            raise GkdvError("--speeds changed the soliton count; pass --positions too")
    if args.positions is not None:
        updates["positions"] = args.positions
    if args.alphas is not None:
        updates["alphas"] = args.alphas
    if args.separations is not None:
        updates["sweep_separations"] = args.separations
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.tfinal is not None:
        updates["t_final"] = args.tfinal
    if args.cadence is not None:
        updates["cadence"] = args.cadence
    if args.grid is not None or args.domain is not None or args.x0 is not None:
        updates["grid"] = GridConfig(
            n=args.grid if args.grid is not None else cfg.grid.n,
            length=args.domain if args.domain is not None else cfg.grid.length,
            x0=args.x0 if args.x0 is not None else cfg.grid.x0)
    pert_updates = {}
    if args.alpha is not None:
        pert_updates["amplitude"] = args.alpha
        if cfg.perturbation.kind == "none":
            pert_updates["kind"] = "bump"
    if args.seed is not None:
        pert_updates["seed"] = args.seed
    if pert_updates:
        from dataclasses import replace
        updates["perturbation"] = replace(cfg.perturbation, **pert_updates)
    return cfg.with_updates(**updates) if updates else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
            if cfg.family != args.family:
                print(f"error: config family {cfg.family!r} does not match "
                      f"subcommand {args.family!r}", file=sys.stderr)
                return 2
        else:
            cfg = preset(_FAMILY_PRESET[args.family])
        cfg = _apply_overrides(cfg, args)
        outdir = args.out if args.out is not None else Path("out") / (cfg.label or cfg.family)
        report = execute(cfg, outdir)
    except GkdvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        value = "n/a" if c.value is None else f"{c.value:.6e}"
        threshold = "n/a" if c.threshold is None else f"{c.threshold:.6e}"
        line = f"[{status}] {c.name}: value={value} {c.comparison} threshold={threshold}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
    for f in report.fits:
        print(f"[fit] {f.name}: slope={f.slope:.4f}")
    print(f"report: {Path(outdir) / 'report.json'}")
    print("PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
