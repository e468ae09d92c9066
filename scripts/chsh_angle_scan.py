"""CHSH value of the singlet as one measurement angle sweeps its range.

Settings are polar angles in the x-z plane (degrees).  Three of the four
stay at the optimal choice (a=0, a'=90, b=45) while b' scans; the peak
2*sqrt(2) sits at b' = -45.

    python3 scripts/chsh_angle_scan.py --points 181 --out scan.csv
"""

import argparse
import csv
import sys

import numpy as np

from eventstates import build_sl_instant, chsh_scenarios, chsh_value

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def scan(points):
    rows = []
    for bp_deg in np.linspace(-180.0, 180.0, points):
        angles_a = np.radians([0.0, 90.0])
        angles_b = np.radians([45.0, bp_deg])
        family = [build_sl_instant(s) for s in chsh_scenarios(SINGLET, angles_a, angles_b)]
        report = chsh_value(family)
        rows.append((bp_deg, report.value, report.tsirelson_ok))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=181, help="samples across [-180, 180]")
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()
    if args.points < 1:
        parser.error(f"argument --points: must be at least 1, got {args.points}")

    rows = scan(args.points)
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh)
    writer.writerow(["bprime_deg", "S", "tsirelson_ok"])
    for bp, s, ok in rows:
        writer.writerow([f"{bp:.4f}", f"{s:.10f}", str(ok).lower()])
    if args.out:
        fh.close()
        best = max(rows, key=lambda r: r[1])
        print(f"wrote {args.out}; peak S = {best[1]:.6f} at b' = {best[0]:.1f} deg")


if __name__ == "__main__":
    main()
