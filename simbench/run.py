#!/usr/bin/env python3
"""Simulator benchmark: builds the simulator, runs one workload, checks it.

    python3 simbench/run.py --workload server|pod|fleet --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
simbench/ (the repository's library plus simbench/workload.cc) into
.bench_build/simbench; later calls only re-check the build.

A run's inputs are SUBSEEDS simulations: repetition i simulates seed
N * SUBSEEDS + (i mod SUBSEEDS), so the same --seed always gives the
same inputs, and EMU, which is deterministic per simulation seed but
moves from seed to seed, is averaged over several of them.

Untraced (--trace 0), repetitions run one fresh process each, cycling
through the sub-seeds, until --seconds have passed and every sub-seed
ran. Host-time metrics are medians over the repetitions; emu is the
mean over the sub-seeds. Every repetition must pass the workload binary's
output gate and reproduce, bit for bit, the metrics record of the
sub-seed's first repetition.

Traced (--trace 1), one untraced and one traced repetition of the first
sub-seed run. The traced one reports the per-layer metrics, its spans
are written to .bench_build/spans/, and its record must equal the
untraced one bit for bit; trace.overhead_s is the difference of their
wall times.

The last line on standard output is one JSON object with the keys
correct, attempted, failed and metrics. A repetition that fails the
output gate, crashes, runs past the deadline or prints no valid result
counts as failed; the exit code is then 1, and 0 only when every
repetition passed. Exit code 2, with no result printed, means the
benchmark could not run at all: no sources, or a failed build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "simbench_workload")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("server", "pod", "fleet")
SUBSEEDS = 3
# Every run must end within 180 s; stop starting repetitions well before.
DEADLINE_S = 150.0


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print("simbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenarios", "runner.h")):
        raise BenchError("no simulator sources next to simbench/; "
                         "run from the root of a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", BUILD_DIR, "--target",
                    "simbench_workload", "-j", str(nproc())],
                   stdout=sys.stderr, check=True)


def child_env():
    # Thread counts are pinned per workload inside the workload binary;
    # never let an inherited HERACLES_JOBS reach a library default.
    env = dict(os.environ)
    env.pop("HERACLES_JOBS", None)
    return env


# Keys every result object of the workload binary carries.
RESULT_KEYS = ("workload", "scenario", "seed", "jobs", "time_scale",
               "build_type", "sim_servers", "sim_seconds",
               "target_run_sim_s", "warmup_sim_s", "ok", "fails", "wall_s",
               "setup_s", "run_s", "sim_speed", "peak_rss_mb", "emu",
               "record")


def repeat(workload, seed, trace, deadline):
    """Runs the workload binary once; returns its parsed result object.

    Returns None for a failed repetition that left no result: the binary
    ended by a signal or with a code other than 0 or 1, ran past the
    deadline, or printed no valid result line.
    """
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=child_env(), timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        log("%s seed %d: killed after %.0f s" % (workload, seed, timeout))
        return None
    if proc.returncode not in (0, 1):
        log("%s seed %d: workload binary exited with %d"
            % (workload, seed, proc.returncode))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        keys = RESULT_KEYS + (("layers", "spans") if trace else ())
        missing = [k for k in keys if k not in result]
    except (IndexError, ValueError, TypeError):
        missing = ["<a JSON object>"]
    if missing:
        log("%s seed %d: no valid result line (missing %s)"
            % (workload, seed, ", ".join(missing)))
        return None
    if (proc.returncode == 0) != result["ok"]:
        log("%s seed %d: exit code disagrees with the verdict"
            % (workload, seed))
        return None
    for why in result["fails"]:
        log("%s seed %d: %s" % (workload, seed, why))
    return result


def write_spans(result):
    # The workload binary is single-threaded, so child spans nest inside
    # their parent without overlapping: a span's self time is its
    # duration minus the sum of its children's.
    spans = result["spans"]
    for s in spans:
        s["self_s"] = s["end_s"] - s["start_s"]
    for s in spans:
        if s["parent"] >= 0:
            spans[s["parent"]]["self_s"] -= s["end_s"] - s["start_s"]
    by_layer = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s["self_s"]
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, "%s-seed%d.json"
                        % (result["workload"], result["seed"]))
    with open(path, "w") as f:
        json.dump({"workload": result["workload"], "seed": result["seed"],
                   "self_s_by_layer": by_layer, "spans": spans}, f,
                  indent=1)
    log("spans written to " + os.path.relpath(path, ROOT))


def describe(result):
    keys = ("workload", "scenario", "jobs", "time_scale", "sim_servers",
            "sim_seconds", "target_run_sim_s", "warmup_sim_s", "build_type")
    info = {k: result[k] for k in keys}
    info["nproc"] = nproc()
    print("# simbench " + json.dumps(info, sort_keys=True), flush=True)


def load_metrics():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_untraced(workload, seed, seconds, deadline, end_to_end):
    runs = []  # (sub-seed, result or None)
    start = time.monotonic()
    while (len(runs) < SUBSEEDS
           or time.monotonic() - start < seconds):
        longest = max((r["wall_s"] for _, r in runs if r), default=0.0)
        if (time.monotonic() >= deadline
                or (len(runs) >= SUBSEEDS
                    and time.monotonic() > deadline - 2 * longest)):
            break
        sub = seed * SUBSEEDS + len(runs) % SUBSEEDS
        runs.append((sub, repeat(workload, sub, False, deadline)))
    first = {}  # sub-seed -> its first result
    failed = 0
    for sub, r in runs:
        if r is None:
            failed += 1
            continue
        if sub not in first:
            first[sub] = r
        elif r["record"] != first[sub]["record"]:
            log("seed %d: repetition record differs from the first: "
                "the run is not deterministic" % sub)
            r["ok"] = False
        failed += not r["ok"]
    done = [r for _, r in runs if r is not None]
    metrics = {}
    for name, unit in end_to_end.items() if done else ():
        if name == "emu":
            value = statistics.fmean(r["emu"] for r in first.values())
        else:
            value = statistics.median(r[name] for r in done)
        metrics[name] = {"value": value, "unit": unit}
    return done, len(runs), failed, metrics


def run_traced(workload, seed, deadline, per_layer):
    sub = seed * SUBSEEDS
    plain = repeat(workload, sub, False, deadline)
    traced = repeat(workload, sub, True, deadline)
    done = [r for r in (plain, traced) if r is not None]
    metrics = {}
    if traced is not None:
        if plain is not None and traced["record"] != plain["record"]:
            log("traced record differs from the untraced one")
            traced["ok"] = False
        layers = dict(traced["layers"])
        if plain is not None:
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        unknown = set(layers) - set(per_layer)
        if unknown:
            log("workload binary reports unlisted layers: %s"
                % sorted(unknown))
            traced["ok"] = False
        write_spans(traced)
        # A layer the workload never runs, or that the workload binary
        # cannot reach from outside on it, reads 0.
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in per_layer.items()}
    failed = 2 - sum(r["ok"] for r in done)
    return done, 2, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed * SUBSEEDS + SUBSEEDS - 1 < 2**64:
        ap.error("--seed must be non-negative and below 2**64 / %d"
                 % SUBSEEDS)
    try:
        end_to_end, per_layer = load_metrics()
        build()
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            done, attempted, failed, metrics = run_traced(
                args.workload, args.seed, deadline, per_layer)
        else:
            done, attempted, failed, metrics = run_untraced(
                args.workload, args.seed, args.seconds, deadline,
                end_to_end)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2
    if done:
        describe(done[0])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
