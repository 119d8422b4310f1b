#!/usr/bin/env python3
"""Repository benchmark: build perfbench/main.exe from source, run one
workload, check its outputs against the recorded digests, and print the
metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a human-readable report with provenance. The exit code is 0
only when every output matched its digest.

    python3 perfbench/run.py --record --seed N [--workload NAME]

runs the workloads once at the given seed and writes their digests into
perfbench/expected_digests.json (use it only when the outputs are meant to
change, and say so in the change).

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
DIGESTS = os.path.join(HERE, "expected_digests.json")

WORKLOADS = ["async-benor", "byz", "sync-tables", "large-n"]

# The seeds the benchmark supports: --seed N selects entry N mod 10. The
# last entry of each list is held out: never tune a change on it, so that a
# claimed gain can be re-checked on inputs it was not fitted to.
#
# SEEDS are E-table seeds; 42 is the seed of the published tables.
SEEDS = [42, 1, 2, 3, 4, 5, 6, 7, 8, 7919]
# async-benor runs E9 at seed 42 only: E9's work is heavy-tailed in the
# seed (its quick table allocates 2.5-15 GB over seeds 32-43, 6.0 GB at
# 42), so other seeds would measure the seed, not the program. Its fair
# n=16 run takes FAIR_SEEDS: 42, then the first nine seeds in 1-445 whose
# four trials make within 3% of the deliveries seed 42's make (4 x 40426);
# the fair run's work is heavy-tailed in the seed too (4 x 4833 to
# 4 x 57065 over seeds 1-445).
FAIR_SEEDS = [42, 2, 23, 41, 50, 107, 197, 202, 230, 424]

# Setup is timed in this many extra processes that stop at the first
# engine call, plus the measuring process itself; the median is reported.
SETUP_SAMPLES = 19

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "alloc_mb": "MB",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# Units of the traced run's metrics that are not in seconds.
LAYER_UNITS = {
    "async.steps": "count",
    "async.deliveries": "count",
    "async.sends": "count",
    "async.self_us_per_step.splitter": "us",
    "async.self_us_per_step.fair": "us",
    "byz.rounds": "count",
    "sim.rounds": "count",
    "sim.kill_rounds": "count",
    "sim.kills": "count",
    "sim.self_ns_per_process_round": "ns",
    "sim.plan_calls": "count",
    "sim.phase_a_calls": "count",
    "bitkernel.scalar_phase_a_share": "ratio",
}

# The traced metrics the result line carries (BENCHMARK.json's per_layer):
# the exact work counts, and the times that no workload reads as 0. A layer
# time such as byz.phase_b_s.eig is exactly 0 on every workload that does
# not run its layer, so it is printed in the report only.
PER_LAYER = [
    "async.steps", "async.deliveries", "async.sends", "byz.rounds",
    "sim.rounds", "sim.kill_rounds", "sim.kills", "sim.plan_calls",
    "sim.phase_a_calls", "bitkernel.scalar_phase_a_share",
    "items_s", "engine.self_s", "callbacks_s", "trace.overhead_s",
]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(path):
            die("run from the repository root: %s is missing" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed", 1)


def run_exe(args, timeout):
    """Run main.exe and return its PERFBENCH_RAW object. At each timed pass
    (a PERFBENCH_PASS line) move it to the next core of this process's
    affinity set, so that every timed call runs on more than one core."""
    cores = sorted(os.sched_getaffinity(0))
    t0 = time.time()
    proc = subprocess.Popen([EXE] + args + ["--t0", repr(t0)],
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    raw = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH_PASS ") and len(cores) > 1:
                k = int(line.split()[1])
                try:
                    os.sched_setaffinity(proc.pid, {cores[k % len(cores)]})
                except OSError:
                    pass
            elif line.startswith("PERFBENCH_RAW "):
                raw = json.loads(line[len("PERFBENCH_RAW "):])
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        die("main.exe exited with %d" % proc.returncode, 1)
    if raw is None:
        die("main.exe printed no result", 1)
    return raw


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None if out.returncode == 0 else None


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def score_items(items, expected, bad_engine):
    """Return (attempted, failed, problems) for one pass over the items."""
    attempted = failed = 0
    problems = []
    for it in items:
        attempted += it["trials"]
        want = expected.get(it["id"])
        if it["error"] is not None:
            problems.append("%s raised: %s" % (it["id"], it["error"]))
        elif want is None:
            problems.append("%s: no expected digest for this seed" % it["id"])
        elif it["digest"] != want:
            problems.append("%s: digest %s, expected %s" % (it["id"], it["digest"], want))
        elif it["id"] in bad_engine:
            problems.append("%s: ran on %s, expected bitkernel"
                            % (it["id"], bad_engine[it["id"]]))
        else:
            continue
        failed += it["trials"]
    return attempted, failed, problems


def seeds_for(workload, seed):
    """The digest label and main.exe seed arguments that --seed selects."""
    table_seed = SEEDS[seed % len(SEEDS)]
    if workload == "async-benor":
        fair_seed = FAIR_SEEDS[seed % len(FAIR_SEEDS)]
        return ("42,fair=%d" % fair_seed, ["--seed", "42", "--fair-seed", str(fair_seed)])
    return (str(table_seed), ["--seed", str(table_seed)])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    # Let a SIGTERM unwind through run_exe, which stops main.exe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    check_checkout()
    if args.workload is not None and args.workload not in WORKLOADS:
        die("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.workload is None and not args.record:
        die("--workload is required")
    build()

    if args.record:
        digests = load_digests() if os.path.exists(DIGESTS) else {}
        for w in [args.workload] if args.workload else WORKLOADS:
            label, seed_args = seeds_for(w, args.seed)
            base = ["--workload", w] + seed_args
            items = (run_exe(base + ["--items-only"], 900)["items"]
                     + run_exe(base + ["--seconds", "0", "--min-passes", "1"],
                               900)["reps"][0]["items"])
            errors = [i for i in items if i["error"] is not None]
            if errors:
                die("cannot record %s: %s" % (w, errors), 1)
            digests.setdefault(w, {})[label] = {i["id"]: i["digest"] for i in items}
            print("recorded %s seed %s" % (w, label))
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0

    started = time.time()
    label, seed_args = seeds_for(args.workload, args.seed)
    expected = load_digests().get(args.workload, {}).get(label, {})
    base = ["--workload", args.workload, "--seconds", repr(args.seconds)] + seed_args
    setups = [run_exe(base + ["--setup-only"], 60)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    # Leave the measuring process what remains of a 175 s budget.
    raw = run_exe(base + ["--trace", str(args.trace)],
                  max(10.0, 175.0 - (time.time() - started)))
    setups.append(raw["setup_s"])

    bad_engine = {k: v for k, v in raw["engine_used"].items() if v != "bitkernel"}
    if args.trace == 0:
        attempted = failed = 0
        problems = []
        for rep in raw["reps"]:
            a, f, p = score_items(rep["items"], expected, bad_engine)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        # The first pass pays for growing the heap; the median of the rest
        # counts.
        warm = raw["reps"][1:] or raw["reps"]
        values = {
            "wall_s": statistics.median(r["adjusted_s"] for r in warm),
            "setup_s": statistics.median(setups),
            "alloc_mb": statistics.median(r["alloc_mb"] for r in warm),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        values["ok_share"] = 1.0 - failed / attempted
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
        report = dict(metrics, unadjusted_wall_s=metric(
            statistics.median(r["wall_s"] for r in warm), "s"))
        item_times = {it["id"]: statistics.median(
            r["items"][k]["adjusted_s"] for r in warm)
            for k, it in enumerate(warm[0]["items"])}
    else:
        attempted, failed, problems = score_items(raw["items"], expected, bad_engine)
        attempted += 2 * raw["replay_trials"]
        failed += raw["replay_failed"]
        if raw["replay_failed"]:
            problems.append("%d replayed trials raised" % raw["replay_failed"])
        report = {k: metric(v, LAYER_UNITS.get(k, "s"))
                  for k, v in raw["layers"].items()}
        metrics = {k: report[k] for k in PER_LAYER}
        item_times = {it["id"]: it["seconds"] for it in raw["items"]}

    correct = not problems
    provenance = {
        "workload": args.workload, "seed": args.seed, "table_seeds": label,
        # The timed passes run at one domain; main.exe's jobs is the width
        # of the traced run's table calls.
        "trace": args.trace, "jobs": raw["jobs"] if args.trace else 1,
        "nproc": raw["nproc"],
        "ocaml": raw["ocaml"], "git_commit": git_commit(),
        "source_digest": source_digest(), "engine_used": raw["engine_used"],
    }
    if args.trace == 0:
        provenance["passes"] = len(raw["reps"])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for item_id, seconds in item_times.items():
        print("item %-14s %10.4f s" % (item_id, seconds))
    for name, m in report.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-34s %14.6g %s" % ("failed_share", failed / attempted, "ratio"))
    for p in problems:
        print("FAILED " + p)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
