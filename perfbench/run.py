#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source, runs one workload,
checks every verdict count and prints the metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json and perfbench/README.md):
    paper_cold      the calls AssessmentLab::compare_all makes, one by one
    fi_classify     13 FI campaigns with prune=classify at 2 threads
    beam_coldboard  13 beam sessions that power-cycle before every run

Run from the repository root. The driver is built with CMake under
$CARGO_TARGET_DIR (default .bench_build). Progress and a summary go to
stdout; the last line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones (and writes a Chrome trace next to the build). Exits
non-zero without a result when the build or the driver fails.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_cold", "fi_classify", "beam_coldboard")
COUNTED_TIMEOUT_S = 170  # the whole run must end within 180 s
BUILD_TIMEOUT_S = 850    # a first run in a fresh checkout builds

# Calls that make up a workload's wall time, its set-up and its busy time
# (the time its resolved operations are divided by).
WALL_CALLS = {"core.fit_raw_per_bit", "beam.run_beam_session",
              "fi.InjectionRig", "fi.run_fi_campaign", "core.convert_to_fit"}
SETUP_CALLS = {"fi.InjectionRig", "beam.session_setup"}
BUSY_CALLS = {"core.fit_raw_per_bit", "beam.run_beam_session",
              "fi.run_fi_campaign"}

# Time metrics are scaled to a host whose probe sample (HostProbe in
# driver.cpp, sampled before every timed call) takes this long: each pass's
# call times are multiplied by PROBE_REF_S / median(probe samples of the
# pass). This divides out the minute-scale swings in speed of a shared VM,
# which no statistic over passes can (perfbench/README.md). 3.5 ms is a
# typical probe time on a 4-vCPU Xeon VM at 2.1 GHz.
PROBE_REF_S = 3.5e-3

_children = set()  # running subprocesses, killed on SIGTERM / SIGINT


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def _stop_children(signum, _frame):
    for proc in list(_children):
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(128 + signum)


def run_bounded(cmd, timeout, env=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env,
                            start_new_session=True)
    _children.add(proc)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    finally:
        _children.discard(proc)
    return proc.returncode, out


def build(target_dir):
    """Configures and builds the driver; returns its path."""
    binary_dir = os.path.join(target_dir, "cmake")
    tmp = os.path.join(target_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in (["cmake", "-S", HERE, "-B", binary_dir],
                ["cmake", "--build", binary_dir, "--target",
                 "perfbench_driver", "-j", jobs]):
        code, out = run_bounded(cmd, deadline - time.monotonic(), env=env)
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail(f"build step failed ({code}): {' '.join(cmd)}")
    return os.path.join(binary_dir, "perfbench_driver")


def run_driver(driver, args, timeout):
    code, out = run_bounded([driver] + args, timeout)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"driver exited with {code}")
    records = []
    for line in out.splitlines():
        if line.startswith("{"):
            records.append(json.loads(line))
    return records


# -- correctness -------------------------------------------------------------

def digest(counts):
    text = json.dumps(counts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_key(config):
    """Sizes a committed reference is valid for."""
    return {k: config[k] for k in ("faults_per_component", "beam_runs",
                                   "calibration_runs", "prune",
                                   "power_cycle_every_run", "harden",
                                   "fi_campaigns", "beam_sessions",
                                   "calibration", "suite")}


def unit_ops(config):
    """Operations (sampled sites or beam runs) behind each count unit."""
    return {"site": config["faults_per_component"],
            "session": config["beam_runs"],
            "calibration": config["calibration_runs"]}


def failed_ops(counts, ref, config, pass_ops):
    """Operations whose verdict counts differ from the reference. Units are
    FI (workload, component) cells, beam sessions and the calibration;
    derived values charge the units they come from."""
    if set(counts) != set(ref):
        return pass_ops
    ops = unit_ops(config)
    failed = 0
    for wl, cells in counts.get("fi", {}).items():
        ref_cells = ref["fi"].get(wl)
        if ref_cells is None or set(cells) != set(ref_cells):
            failed += ops["site"] * len(cells)
            continue
        failed += ops["site"] * sum(cells[c] != ref_cells[c] for c in cells)
    for wl, session in counts.get("beam", {}).items():
        if session != ref["beam"].get(wl):
            failed += ops["session"]
    if "calibration" in counts:
        if (counts["calibration"] != ref["calibration"]
                or counts["fit_raw"] != ref["fit_raw"]):
            failed += ops["calibration"]
        for wl, fit in counts["fi_fit"].items():
            if fit != ref["fi_fit"].get(wl):
                failed += ops["site"] * len(counts["fi"][wl])
        if failed == 0 and counts["gaps"] != ref["gaps"]:
            failed = pass_ops
    return min(failed, pass_ops)


def load_reference(path, workload, config):
    """The committed reference entry for these sizes, or None."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        entry = json.load(f).get(workload)
    if entry is None or entry["sizes"] != reference_key(config):
        return None
    return entry


def check_counts(passes, entry, config):
    """Exact-count gate. Every pass is checked against the committed
    reference for its seed (full counts or a digest) and against any
    earlier pass of the same seed. Returns (attempted, failed, notes)."""
    attempted = failed = 0
    notes = []
    seen = {}
    for p in passes:
        counts, t, seed = p["counts"], p["tally"], p["seed"]
        pass_ops = ops_of(t)
        attempted += pass_ops
        # Harness errors and unresolved runs fail directly; a wrong golden
        # console voids the whole pass. Counts that differ from the
        # reference, or from an earlier pass of the same seed, fail their
        # units.
        lost = t["harness_errors"] + t["lost_runs"]
        if t["golden_mismatch"]:
            lost = pass_ops
        mismatch = 0
        ref_digest = entry["digests"].get(str(seed)) if entry else None
        if entry and seed == entry["seed"]:
            mismatch = failed_ops(counts, entry["counts"], config, pass_ops)
        elif ref_digest is not None and digest(counts) != ref_digest:
            mismatch = pass_ops
        if seed in seen and counts != seen[seed]:
            mismatch = max(mismatch, failed_ops(counts, seen[seed], config,
                                                pass_ops) or pass_ops)
        seen.setdefault(seed, counts)
        failed += min(pass_ops, max(lost, mismatch))
        if ref_digest is None and (entry is None or seed != entry["seed"]):
            notes.append(f"seed {seed}: counts digest {digest(counts)} "
                         "(no committed reference; compare across commits)")
        else:
            notes.append(f"seed {seed}: counts digest {digest(counts)} "
                         "checked against the committed reference")
    return attempted, failed, notes


# -- metrics -----------------------------------------------------------------

def host_scale(record):
    """Factor that scales a pass's call times to the reference host."""
    return PROBE_REF_S / statistics.median(record["probes"])


def per_call_medians(passes):
    """Median host-scaled time of each (call, guest workload) pair over
    the passes."""
    times = {}
    for p in passes:
        scale = host_scale(p)
        for name, wl, sec in p["calls"]:
            times.setdefault((name, wl), []).append(sec * scale)
    return {k: statistics.median(v) for k, v in times.items()}


def total(medians, names):
    return sum(v for (name, _), v in medians.items() if name in names)


def ops_of(tally):
    return tally["sites"] + tally["beam_runs"]


def end_to_end(passes, end):
    med = per_call_medians(passes)
    tally = passes[0]["tally"]
    busy = total(med, BUSY_CALLS)
    return {
        "wall_s": (total(med, WALL_CALLS), "s"),
        "setup_s": (total(med, SETUP_CALLS), "s"),
        "ops_per_s": (ops_of(tally) / busy, "1/s"),
        "peak_rss_mb": (end["peak_rss_mb"], "MB"),
    }


def span_self_times(trace_path):
    """Self time per span name over the traced passes, from the trace."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + e["dur"]
    self_s = {}
    for e in events:
        own = (e["dur"] - child.get(e["args"]["id"], 0.0)) / 1e6
        self_s[e["name"]] = self_s.get(e["name"], 0.0) + own
    return self_s


def per_layer(config, untraced, traced, probe, trace_path):
    """Times are per-call medians over the traced passes; counts are the
    first traced pass's (the --seed's own, so they repeat exactly)."""
    med = per_call_medians(traced)
    plain = per_call_medians(untraced)
    t = traced[0]["tally"]
    campaign_s = total(med, {"fi.run_fi_campaign"})
    session_s = total(med, {"beam.run_beam_session"})
    calibration_s = total(med, {"core.fit_raw_per_bit"})
    beam_runs = t["beam_runs"]
    probe_med = per_call_medians([probe])
    power_on_s = host_scale(probe) * statistics.median(
        [sec for name, _, sec in probe["calls"] if name == "sim.power_on"])
    golden_s = total(probe_med, {"sim.golden_run"})
    if config["power_cycle_every_run"]:
        power_ons = beam_runs + t["reboots"]
    else:
        power_ons = t["reboots"]
    self_s = span_self_times(trace_path)
    n_traced = len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "fi.rig_s": (total(med, {"fi.InjectionRig"}), "s"),
        "fi.ladder_mb": (t["ladder_bytes"] / 2**20, "MB"),
        "fi.campaign_s": (campaign_s, "s"),
        "fi.ms_per_executed": (ratio(campaign_s * 1e3, t["executed"]), "ms"),
        "fi.sites_per_s": (ratio(t["sites"], campaign_s), "1/s"),
        "fi.executed": (t["executed"], "count"),
        "fi.pruned_fraction": (ratio(t["pruned"], t["sites"]), "ratio"),
        "fi.masked_executed_share": (
            ratio(t["masked_executed"], t["executed"]), "ratio"),
        "fi.guest_minstr": (t["guest_instructions"] / 1e6, "Minstr"),
        "fi.replay_mcycles": (t["replay_cycles"] / 1e6, "Mcycles"),
        "fi.restore_mb": (t["restore_bytes"] / 2**20, "MB"),
        "sim.guest_mips": (
            ratio(t["guest_instructions"] / 1e6, campaign_s), "MIPS"),
        "sim.uop_hit_rate": (ratio(t["uop_hits"], t["uop_steps"]), "ratio"),
        "sim.golden_mips": (
            ratio(probe["golden_instructions"] / 1e6, golden_s), "MIPS"),
        "sim.power_on_ms": (power_on_s * 1e3, "ms"),
        "beam.session_s": (session_s, "s"),
        "beam.ms_per_run": (
            ratio(session_s * 1e3, beam_runs - config["calibration_runs"]),
            "ms"),
        "beam.runs_per_s": (ratio(beam_runs, session_s + calibration_s),
                            "1/s"),
        "beam.runs": (beam_runs, "count"),
        "beam.strikes": (t["strikes"], "count"),
        "beam.reboots": (t["reboots"], "count"),
        "beam.power_ons": (power_ons, "count"),
        "beam.power_on_share": (
            ratio(power_ons * power_on_s, session_s + calibration_s),
            "ratio"),
        "core.calibration_s": (calibration_s, "s"),
        "exec.retries": (t["retries"], "count"),
        "exec.harness_errors": (t["harness_errors"], "count"),
        "exec.watchdog_hits": (t["watchdog_hits"], "count"),
        "driver.self_s": (self_s.get("pass", 0.0) / n_traced, "s"),
        "host.probe_ms": (1e3 * statistics.median(
            [x for p in traced for x in p["probes"]]), "ms"),
        "trace.overhead": (
            ratio(total(med, WALL_CALLS), total(plain, WALL_CALLS)),
            "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"),
                    help="committed verdict counts to check against")
    ap.add_argument("--driver-arg", action="append", default=[],
                    help="extra driver argument (sizes, for self-tests)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number")
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop_children)
    started = time.monotonic()

    target_dir = os.path.join(os.getcwd(),
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(target_dir)
    trace_path = os.path.join(target_dir, f"trace-{args.workload}.json")
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--trace-file", trace_path] + args.driver_arg
    remaining = COUNTED_TIMEOUT_S - (time.monotonic() - started)
    records = run_driver(driver, driver_args,
                         max(remaining, args.seconds + 60))

    config = next(r for r in records if r["kind"] == "config")
    passes = [r for r in records if r["kind"] == "pass"]
    end = next(r for r in records if r["kind"] == "end")
    log("effective config: " + json.dumps(config, sort_keys=True))
    if not passes:
        fail("driver ran no pass")

    entry = load_reference(args.reference, args.workload, config)
    attempted, failed, notes = check_counts(passes, entry, config)
    for note in dict.fromkeys(notes):
        log(note)

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        probe = next(r for r in records if r["kind"] == "probe")
        metrics = per_layer(config, untraced, traced, probe, trace_path)
        log(f"trace: {trace_path}")
    else:
        metrics = end_to_end(untraced, end)
    log(f"{len(passes)} passes ({len(traced)} traced) in "
        f"{time.monotonic() - started:.1f} s")
    for p in passes:
        by_name = {}
        for name, _, sec in p["calls"]:
            by_name[name] = by_name.get(name, 0.0) + sec
        log(f"  pass {p['pass']} seed {p['seed']}"
            f"{' traced' if p['traced'] else ''}: " +
            " ".join(f"{k}={v:.3f}" for k, v in sorted(by_name.items())))
    log(f"  host probe median {1e3 * statistics.median([x for p in passes for x in p['probes']]):.3f} ms "
        f"(reference {1e3 * PROBE_REF_S:.3f} ms); metrics are host-scaled")
    for name, (value, unit) in metrics.items():
        log(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
