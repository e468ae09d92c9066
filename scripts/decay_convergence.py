"""Grid-refinement sweep for the branching-amplitude decay model.

For a constant per-bin firing probability gamma*dt the squared branching
amplitudes should approach the exponential density gamma*exp(-gamma t);
the leftover is first order in dt.  Writes one CSV row per step size so
the slope is easy to eyeball.

    python3 scripts/decay_convergence.py --gamma 1.0 --out decay.csv
"""

import argparse
import csv
import sys

from eventstates import (
    BranchingSchedule,
    continuum_limit_check,
    exponential_grid,
    exponential_profile,
)

DEFAULT_STEPS = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def convergence_row(gamma, dt):
    grid = exponential_grid(gamma, dt)
    schedule = BranchingSchedule.constant(grid, gamma * dt)
    err = continuum_limit_check(schedule, exponential_profile(gamma, grid))
    return dt, grid.n_bins, err, err / dt


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma", type=float, default=1.0, help="decay rate")
    parser.add_argument(
        "--dt", type=float, nargs="*", default=None, help="step sizes to sweep (default: built-in ladder)"
    )
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()

    steps = args.dt if args.dt else DEFAULT_STEPS
    rows = []
    for dt in steps:
        # the library refuses a rate or step that is not positive and finite,
        # and a per-bin probability gamma * dt outside [0, 1)
        try:
            rows.append(convergence_row(args.gamma, dt))
        except ValueError as exc:
            parser.error(f"--gamma {args.gamma:g} with --dt {dt:g}: {exc}")

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh)
    writer.writerow(["dt", "n_bins", "max_rel_error", "error_over_dt"])
    for dt, n, err, ratio in rows:
        writer.writerow([f"{dt:g}", n, f"{err:.6e}", f"{ratio:.4f}"])
    if args.out:
        fh.close()
        print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
