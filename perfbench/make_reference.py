"""Write the reference CSVs the benchmark checks every pass against.

    python3 perfbench/make_reference.py [--workload NAME ...] [--seeds 0-23,42]

Each CSV comes from one ``workers=1`` pass of the code in ``src/`` and lands
in perfbench/reference/<workload>/seed<N>.csv. Regenerate only when a change
is allowed to move the numbers, and say so where the change is described.
"""
from __future__ import annotations

import argparse
import sys

from run import REFERENCE, session
import workloads


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", default=str(workloads.DEFAULT_SEED))
    args = ap.parse_args()
    for name in args.workload or list(workloads.WORKLOADS):
        (REFERENCE / name).mkdir(parents=True, exist_ok=True)
        for seed in _seeds(args.seeds):
            rec = session(name, seed, "--workers", "1", "--min-passes", "1",
                          timeout=600.0)["passes"][0]
            if rec["error"]:
                print(f"{name} seed {seed}: {rec['error']}", file=sys.stderr)
                return 1
            (REFERENCE / name / f"seed{seed}.csv").write_text(rec["csv"])
            print(f"{name} seed {seed}: {rec['wall_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
