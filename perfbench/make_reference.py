#!/usr/bin/env python3
"""Regenerates perfbench/reference.json, the exact-count gate's reference.

    python3 perfbench/make_reference.py [--seeds 0-63] [--jobs 2]

Runs one pass of every workload per seed at the default sizes and stores,
per workload, the full verdict counts of seed 0 and a digest of the counts
of every seed. Regenerate only when a change is meant to alter verdicts,
and say so in the change: the gate exists to catch changes that do it by
accident.
"""

import argparse
import concurrent.futures
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def one(driver, workload, seed):
    records = run.run_driver(driver, ["--workload", workload, "--seed",
                                      str(seed), "--seconds", "0"], 900)
    config = next(r for r in records if r["kind"] == "config")
    counts = next(r for r in records if r["kind"] == "pass")["counts"]
    return workload, seed, config, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-63")
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    target_dir = os.path.join(os.getcwd(),
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = run.build(target_dir)
    out = {}
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        jobs = [pool.submit(one, driver, w, s)
                for w in run.WORKLOADS for s in seeds]
        for job in concurrent.futures.as_completed(jobs):
            workload, seed, config, counts = job.result()
            entry = out.setdefault(workload, {
                "sizes": run.reference_key(config), "seed": 0,
                "counts": None, "digests": {}})
            entry["digests"][str(seed)] = run.digest(counts)
            if seed == entry["seed"]:
                entry["counts"] = counts
            print(f"{workload} seed {seed}: {run.digest(counts)}", flush=True)
    for entry in out.values():
        entry["digests"] = dict(sorted(entry["digests"].items(),
                                       key=lambda kv: int(kv[0])))
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as f:
        json.dump({w: out[w] for w in run.WORKLOADS if w in out}, f,
                  indent=1, sort_keys=False)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
