"""Command line front end: one subcommand per experiment family.

Each subcommand starts from a JSON config (--config) or the family preset,
applies any overrides, runs the experiment into --out, prints one line per
check, and exits 0 exactly when every check passed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..errors import GkdvError
from .config import ExperimentConfig, load_config, preset
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


# the override flags in --help order: (flag, help, type, config field); a
# dotted field is a field of that sub-config
_FLAGS = (
    ("--p", "nonlinearity exponent", int, "p"),
    ("--speeds", "comma-separated soliton speeds", _floats, "speeds"),
    ("--positions", "comma-separated soliton positions (or phase parameters)", _floats, "positions"),
    ("--alpha", "perturbation H1 amplitude", float, "perturbation.amplitude"),
    ("--alphas", "amplitude limbs (stability, quadratic-control)", _floats, "alphas"),
    ("--separations", "separation sweep (monotonicity)", _floats, "sweep_separations"),
    ("--grid", "number of grid points", int, "grid.n"),
    ("--domain", "domain length", float, "grid.length"),
    ("--x0", "left edge of the domain", float, "grid.x0"),
    ("--dt", "time step", float, "dt"),
    ("--tfinal", "final time", float, "t_final"),
    ("--cadence", "snapshot interval", float, "cadence"),
    ("--seed", "perturbation seed", int, "perturbation.seed"),
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON experiment config; defaults to the family preset")
    sub.add_argument("--out", type=Path, default=None,
                     help="output directory (default out/<label>)")
    for flag, help_text, kind, _ in _FLAGS:
        sub.add_argument(flag, type=kind, default=None, help=help_text)


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
    updates, sub_updates = {}, {}
    for flag, _, _, name in _FLAGS:
        value = getattr(args, flag[2:])
        if value is None:
            continue
        head, _, key = name.rpartition(".")
        if head:
            sub_updates.setdefault(head, {})[key] = value
        else:
            updates[key] = value
    if (args.speeds is not None and args.positions is None
            and len(args.speeds) != len(cfg.positions)):
        raise GkdvError("--speeds changed the soliton count; pass --positions too")
    if args.alpha is not None and cfg.perturbation.kind == "none":
        sub_updates["perturbation"]["kind"] = "bump"
    for head, kw in sub_updates.items():
        updates[head] = replace(getattr(cfg, head), **kw)
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
    except (GkdvError, OSError) as exc:
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
