#!/usr/bin/env python3
"""Two-dimensional demo: simulate a truth path, filter it, run an ensemble,
and export everything as CSV.

Usage:
    python scripts/vector_demo.py [--out DIR] [--n-particles N] [--seed U64]

Exercises the vector (d = m = 2) code paths end to end and leaves
truth.csv (time, state), filter.csv (time, mean, upper-triangle covariance)
and ensemble_snapshot.csv (one particle per row, at the final time) in the
output directory, next to constants.txt.
"""

import argparse
from pathlib import Path

import numpy as np

from enkbf_lab.ensemble import (
    PURPOSE_INIT,
    PURPOSE_PROCESS,
    STOCHASTIC_FPF,
    ensemble_moments,
    particle_increments,
    particle_normals,
    particle_step,
    prior_states,
)
from enkbf_lab.kalman import kb_filter
from enkbf_lab.linmodel import (
    ModelParams,
    NoiseBundle,
    TimeGrid,
    simulate_observations,
    simulate_truth,
    validate_assumptions,
)
from enkbf_lab.riccati import solve_are


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out")
    ap.add_argument("--n-particles", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    model = ModelParams(
        A=[[-1.0, 0.5], [0.0, -2.0]],
        H=np.eye(2),
        sigma_B=np.eye(2),
        m0=[1.0, -1.0],
        Sigma0=np.eye(2),
    )
    grid = TimeGrid(T=2.0, dt=1e-3)
    report = validate_assumptions(model)
    print(f"assumptions: detectable/stabilizable={report.a1} "
          f"noise={report.a2} stable={report.a3} (mu_A={report.mu_A:.3f})")
    consts = solve_are(model)
    print(f"steady-state covariance:\n{consts.sigma_inf}")
    print(f"lambda0={consts.lambda0:.4f} beta={consts.beta:.4f} alpha={consts.alpha:.4f}")

    b = NoiseBundle(args.seed, (0,))
    truth = simulate_truth(model, grid, b.child(0))
    obs = simulate_observations(model, grid, truth, b.child(1))
    fp = kb_filter(model, grid, obs)

    # Particle i draws its prior sample and its process increments from
    # sub-streams of pb.child(i).
    pb = b.child(2)
    N = args.n_particles
    x = prior_states(model, particle_normals(pb, N, PURPOSE_INIT, (1, model.d))[0])
    dB = particle_increments(pb, N, grid, model.d_B, PURPOSE_PROCESS)
    for k in range(grid.n_steps):
        mean, cov = ensemble_moments(x)
        x = particle_step(x, mean, cov, obs[k], grid.dt, model, STOCHASTIC_FPF, dB=dB[k])
    mean, cov = ensemble_moments(x)
    print(f"final filter mean    : {fp.means[-1]}")
    print(f"final ensemble mean  : {mean}")
    print(f"final filter cov diag: {np.diag(fp.covs[-1])}")
    print(f"final ensemble cov diag: {np.diag(cov)}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    d = model.d
    iu = np.triu_indices(d)
    as_csv = dict(delimiter=",", fmt="%.17g", comments="")
    np.savetxt(out / "truth.csv", np.column_stack([grid.times(), truth]),
               header=",".join(["time"] + [f"x{j}" for j in range(d)]), **as_csv)
    np.savetxt(out / "filter.csv",
               np.column_stack([fp.times, fp.means, fp.covs[:, iu[0], iu[1]]]),
               header=",".join(["time"] + [f"m{i}" for i in range(d)]
                               + [f"cov{i}{j}" for i, j in zip(*iu)]), **as_csv)
    np.savetxt(out / "ensemble_snapshot.csv", x,
               header=",".join(f"x{j}" for j in range(d)), **as_csv)
    (out / "constants.txt").write_text(consts.to_text(), encoding="utf-8")
    print(f"wrote {out}/truth.csv, filter.csv, ensemble_snapshot.csv, constants.txt")


if __name__ == "__main__":
    main()
