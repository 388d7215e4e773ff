#!/usr/bin/env python3
"""Fit the pairwise interaction-tail exponent of a two-soliton state.

Measures, across a range of separations L, how fast two couplings decay:
the cross-speed entry of the orthogonality Jacobian at the exact sum, and
the energy-expansion residual after evolving the unperturbed pair. Both
should decay like exp(-rate * L) with rate at least sqrt(sigma0)/2.

    python3 scripts/tail_exponents.py --speeds 0.25 0.75 --seps 20 30 40
"""

import argparse

import numpy as np

from gkdv import (Grid, ModelParams, SolitonState, decompose,
                  energy_expansion_residual, evolve, ortho_jacobian,
                  soliton_sum)


def fit_tail_exponents(params: ModelParams, grid: Grid, speeds, seps,
                       t_final: float, dt: float):
    """(|J_cross|, |energy residual|) per separation, then their fitted decay
    rates (jacobian, energy residual)."""
    static_vals, dynamic_vals = [], []
    for L in seps:
        state = SolitonState(tuple(speeds), (-L / 2, L / 2))
        u0 = soliton_sum(params, state, grid)
        static_vals.append(abs(ortho_jacobian(u0, state, params)[0, 2]))

        traj = evolve(u0, t_final, params, dt, cadence=t_final)
        seed = SolitonState(state.speeds,
                            tuple(state.position_array
                                  + state.speed_array * t_final))
        dec = decompose(traj.fields[-1], seed, params)
        dynamic_vals.append(abs(energy_expansion_residual(
            traj.fields[-1], dec, state, params)))
    rate_static = -float(np.polyfit(seps, np.log(static_vals), 1)[0])
    rate_dynamic = -float(np.polyfit(seps, np.log(dynamic_vals), 1)[0])
    return static_vals, dynamic_vals, rate_static, rate_dynamic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2, choices=(2, 3, 4))
    parser.add_argument("--speeds", type=float, nargs=2, default=(0.25, 0.75))
    parser.add_argument("--seps", type=float, nargs="+",
                        default=(20.0, 30.0, 40.0))
    parser.add_argument("--tfinal", type=float, default=10.0)
    parser.add_argument("--dt", type=float, default=2e-3)
    parser.add_argument("--grid-n", type=int, default=2048)
    parser.add_argument("--domain", type=float, default=256.0)
    args = parser.parse_args()

    grid = Grid(args.grid_n, args.domain, -args.domain / 2)
    sigma0 = SolitonState(tuple(args.speeds), (0.0, args.seps[0])).sigma0
    static_vals, dynamic_vals, rate_static, rate_dynamic = fit_tail_exponents(
        ModelParams(args.p), grid, args.speeds, args.seps, args.tfinal, args.dt)
    for L, js, er in zip(args.seps, static_vals, dynamic_vals):
        print(f"L={L:5.1f}  |J_cross|={js:.6e}  |energy residual|={er:.6e}")
    print(f"jacobian exponent:        {rate_static:.4f}")
    print(f"energy-residual exponent: {rate_dynamic:.4f}")
    print(f"sqrt(sigma0)/2 floor:     {np.sqrt(sigma0) / 2:.4f}")


if __name__ == "__main__":
    main()
