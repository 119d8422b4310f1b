#!/usr/bin/env python3
"""Exact-count check for the benchmark's traced run.

    python3 perfbench/test_counts.py [--workload NAME ...] [--seed N]

Runs the traced replay of each named workload (default: all four) twice at
the same seed and fails unless the layer work counters and the output
digests are identical between the two runs. Only then may a change cite
these counters as counts rather than timings. Run it from the repository
root; it builds perfbench/main.exe first, like run.py.
"""

import argparse
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

COUNTS = [
    "async.steps", "async.deliveries", "async.sends", "byz.rounds",
    "sim.rounds", "sim.kill_rounds", "sim.kills", "sim.plan_calls",
    "sim.phase_a_calls",
]


def traced(workload, seed):
    _, seed_args = run.seeds_for(workload, seed)
    raw = run.run_exe(["--workload", workload, "--seconds", "0", "--trace", "1"]
                      + seed_args, 600)
    counts = {k: raw["layers"][k] for k in COUNTS}
    digests = {it["id"]: it["digest"] for it in raw["items"]}
    return counts, digests, raw["replay_failed"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run.check_checkout()
    run.build()
    ok = True
    for w in args.workload or run.WORKLOADS:
        first, second = traced(w, args.seed), traced(w, args.seed)
        same = first == second and first[2] == 0
        ok = ok and same
        print("%-12s %s counts=%s" % (w, "same" if same else "DIFFERENT", first[0]))
        if not same:
            print("  first:  %s\n  second: %s" % (first, second))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
