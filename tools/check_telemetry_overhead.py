#!/usr/bin/env python3
"""Assert the always-on telemetry layer costs <= 2% on perfbench's hot path.

CI builds the perfbench driver twice from one tree: as is (telemetry ON) and
with -DCMAKE_CXX_FLAGS=-DPERFQ_TELEMETRY_OFF=1 (bare-uint64 counter slots, no
clock reads). It runs seed-1 hot-serial on both sides in interleaved rounds,
the first side alternating, so machine-load drift hits both sides equally,
and saves each run's stdout. This script reads each file's last line (the
driver's JSON result), takes the best run per side on two rows and fails if
ON is more than 2% worse than OFF on either:

  throughput_mfps  higher is better: best OFF / best ON - 1 <= 0.02
  burst_p50_us     lower is better:  best ON / best OFF - 1 <= 0.02

The best run is the noise filter: every run is the true cost plus
non-negative interference.

Usage:
  check_telemetry_overhead.py --on on_1.log on_2.log ... --off off_1.log ...

Exit status 0 iff every run is correct with no failed operation and both rows
are within budget, 1 otherwise, 2 on unreadable input. Stdlib only.
"""

import argparse
import json
import sys

BUDGET = 0.02
ROWS = (("throughput_mfps", "higher"), ("burst_p50_us", "lower"))


def load(path):
    """The driver's result: the last line of its stdout, one JSON object."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError(f"{path}: no perfbench result line")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--on", nargs="+", required=True,
                        help="driver logs of the telemetry-ON build")
    parser.add_argument("--off", nargs="+", required=True,
                        help="driver logs of the PERFQ_TELEMETRY_OFF build")
    args = parser.parse_args()

    try:
        runs = {side: {p: load(p) for p in paths}
                for side, paths in (("on", args.on), ("off", args.off))}
        table = []
        for row, better in ROWS:
            pick = max if better == "higher" else min
            off, on = (pick(r["metrics"][row]["value"] for r in runs[side].values())
                       for side in ("off", "on"))
            table.append((row, off, on, off / on - 1 if better == "higher" else on / off - 1))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return 2

    wrong = [p for results in runs.values() for p, r in results.items()
             if r.get("correct") is not True or r.get("failed") != 0]
    for path in wrong:
        print(f"error: {path}: run not correct or with failed operations",
              file=sys.stderr)

    over = False
    print(f"{'row':18s} {'best off':>10s} {'best on':>10s} {'overhead':>9s}")
    for row, off, on, overhead in table:
        over |= overhead > BUDGET
        print(f"{row:18s} {off:10.4g} {on:10.4g} {overhead:+8.2%} "
              f"{'FAIL' if overhead > BUDGET else 'ok'}")
    if wrong or over:
        print(f"\ntelemetry gate failed ({BUDGET:.0%} budget, "
              f"{len(args.on)} ON / {len(args.off)} OFF runs)", file=sys.stderr)
        return 1
    print(f"\nboth rows within the {BUDGET:.0%} telemetry budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
