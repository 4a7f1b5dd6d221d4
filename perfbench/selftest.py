#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root (about a minute; builds the driver first):
  1. At a tiny size, the paper_cold pipeline driven call by call reproduces
     AssessmentLab::compare_all's per-workload results and aggregate bit
     for bit.
  2. A doctored reference fails the run and counts exactly the operations
     behind the doctored unit as failed; the true reference passes.
  3. Every metric in BENCHMARK.json has a name matching [A-Za-z0-9_.-]+
     and a unit, and a run prints exactly those metrics with those units.
Exits non-zero on the first failure.
"""

import copy
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Tiny paper_cold: 2 faults/component, 24-run sessions, 72-run calibration
# (seed 0 measures L1Pattern SDCs at this size, so FIT_raw is defined).
TINY = ["--faults", "2", "--beam-runs", "24", "--calibration-beam-runs", "24"]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok: {what}", flush=True)


def run_benchmark(args):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")]
                         + args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"selftest FAILED: run.py {' '.join(args)}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def tiny_args(workload, trace, reference):
    args = ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--reference", reference]
    return args + [f"--driver-arg={a}" for a in TINY]


def main():
    target_dir = os.path.join(os.getcwd(),
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = run.build(target_dir)
    work = os.path.join(target_dir, "selftest")
    os.makedirs(work, exist_ok=True)

    # 1. Decomposed pipeline == AssessmentLab::compare_all.
    records = run.run_driver(driver, ["--workload", "paper_cold", "--seed",
                                      "0", "--seconds", "0",
                                      "--compare-lab"] + TINY, 600)
    lab = next(r for r in records if r["kind"] == "lab")["counts"]
    config = next(r for r in records if r["kind"] == "config")
    counts = next(r for r in records if r["kind"] == "pass")["counts"]
    check(set(lab) == {"beam", "fi", "calibration", "fit_raw", "fi_fit",
                       "gaps"}, "compare_all counts cover every unit")
    check(counts == lab, "call-by-call paper_cold == compare_all, bit for bit")

    # 2. Exact-count gate against a reference for the tiny size.
    good = {"paper_cold": {"sizes": run.reference_key(config), "seed": 0,
                           "counts": counts,
                           "digests": {"0": run.digest(counts)}}}
    good_path = os.path.join(work, "reference-good.json")
    with open(good_path, "w") as f:
        json.dump(good, f)
    result = run_benchmark(tiny_args("paper_cold", 0, good_path))
    ops = result["attempted"]
    check(result["correct"] and result["failed"] == 0 and ops > 0,
          "true reference: correct, no failed operations")

    for unit, doctor, expect in (
            ("FI cell", lambda c: c["fi"]["CRC32"]["L1D"].__setitem__(
                1, c["fi"]["CRC32"]["L1D"][1] + 1), 2),
            ("beam session", lambda c: c["beam"]["Qsort"].__setitem__(
                5, c["beam"]["Qsort"][5] + 1), 24),
            ("Fig. 10 gap", lambda c: c["gaps"].__setitem__(
                "sdc", c["gaps"]["sdc"] * 2), ops)):
        bad = copy.deepcopy(good)
        doctor(bad["paper_cold"]["counts"])
        bad_path = os.path.join(work, "reference-bad.json")
        with open(bad_path, "w") as f:
            json.dump(bad, f)
        result = run_benchmark(tiny_args("paper_cold", 0, bad_path))
        check(not result["correct"] and result["failed"] == expect,
              f"doctored {unit}: incorrect, {expect} of {ops} operations "
              f"failed (got {result['failed']})")

    # 3. Metric names and units, declared and printed.
    with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            check(NAME.match(m["name"]) and UNIT.match(m["unit"]),
                  f"{group} metric {m['name']} [{m['unit']}] is well formed")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[group]}
        for workload in run.WORKLOADS:
            args = tiny_args(workload, trace, good_path)
            result = run_benchmark(args)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == declared and result["failed"] == 0,
                  f"{workload} --trace {trace} prints every {group} metric "
                  "with its unit")
    print("selftest passed")


if __name__ == "__main__":
    main()
