#!/usr/bin/env python3
"""Runs the repository benchmark: builds the measuring program, runs one
workload, checks its outputs and prints the metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_steady --seed 1 \\
        --seconds 20 --trace 0

--trace 0 prints every end-to-end metric named in BENCHMARK.json; --trace 1
runs the traced pass and prints every per-layer metric instead, after
checking its Chrome trace with eadrl_trace_check. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result of each run (provenance, per-rung table, metrics that are
reported but not gated) is kept under <build>/results/ for compare.py.
Exit status: 0 when every output check passed, 1 on an output mismatch,
2 when the program cannot be built or run.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # both phases together.


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, tests):
    """Configures (once) and builds the program; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("configure failed; see " + log_path)
        if tests and subprocess.call(["cmake", "-DPERFBENCH_TESTS=ON",
                                      out_dir], stdout=log, stderr=log) != 0:
            fail("configure failed; see " + log_path)
        cmd = ["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)
    return out_dir


def source_digest():
    """sha256 over the library sources, for provenance when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_program(binary, args, log_path, deadline):
    """Runs one phase of the program, echoing its report lines; returns
    (exit code, result dict or None). Killed at `deadline` (time.time())."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                                stderr=log, text=True, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("measuring program timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines.pop())
        except ValueError:
            result = None
    for line in lines:
        print(line)
    return proc.returncode, result


def merge(suite, serve):
    """One run's result from its suite-phase and serve-phase results."""
    result = dict(serve)
    result.pop("phase", None)
    e2e = dict(serve["end_to_end"])
    e2e["suite_wall_s"] = suite["end_to_end"]["suite_wall_s"]
    e2e["suite_peak_rss_mb"] = suite["end_to_end"]["peak_rss_mb"]
    e2e["setup_s"] = {"value": suite["end_to_end"]["setup_s"]["value"] +
                      serve["end_to_end"]["setup_s"]["value"], "unit": "s"}
    result["end_to_end"] = e2e
    result["per_layer"] = dict(suite["per_layer"], **serve["per_layer"])
    result["provenance"] = dict(suite["provenance"], **serve["provenance"])
    for key in ("attempted", "failed", "mismatches"):
        result[key] = suite[key] + serve[key]
    result["correct"] = bool(suite["correct"] and serve["correct"])
    attempted = result["attempted"]
    result["reported"] = dict(serve.get("reported", {}))
    result["reported"]["fail_ratio"] = {
        "value": result["failed"] / attempted if attempted else 1.0,
        "unit": "ratio"}
    return result


def print_table(result, gated):
    print("--- %s seed %d: metrics ---" % (result["workload"], result["seed"]))
    rows = []
    for section in ("end_to_end", "reported", "per_layer"):
        for name, m in sorted(result.get(section, {}).items()):
            note = "" if name in gated else "  (not gated)"
            rows.append("%-34s %16.6g %-8s%s" % (name, m["value"], m["unit"],
                                                note))
    print("\n".join(rows))
    prov = result.get("provenance", {})
    print("provenance: " + ", ".join("%s=%s" % kv for kv in sorted(prov.items())))
    if prov.get("comparable") == "false":
        print("WARNING: busy threads exceed nproc; result is not comparable")


def selftest():
    out_dir = build(build_dir(), tests=True)
    rc = subprocess.call([os.path.join(out_dir, "perfbench_test")])
    rc |= subprocess.call([sys.executable, "-m", "unittest", "discover", "-s",
                           os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 0 if rc == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads or args.seed is None:
        fail("--workload must be one of %s and --seed is required" % workloads)
    section = "per_layer" if args.trace else "end_to_end"
    gated = {m["name"]: m for m in spec[section]}

    out_dir = build(build_dir(), tests=False)
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                     int(time.time() * 1000))
    # The suite phase runs first, in its own process, so each phase's peak
    # memory is its own.
    deadline = time.time() + RUN_TIMEOUT_S
    phases = {}
    rcs = []
    for phase in ("suite", "serve"):
        cmd = ["--phase", phase, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds)]
        trace_path = os.path.join(results_dir, "%s.%s.trace.json" % (stem, phase))
        if args.trace:
            cmd += ["--trace-file", trace_path]
        log = os.path.join(results_dir, "%s.%s.log" % (stem, phase))
        rc, phases[phase] = run_program(os.path.join(out_dir, "perfbench"),
                                        cmd, log, deadline)
        if phases[phase] is None or rc not in (0, 1):
            fail("measuring program failed (exit %d); see %s" % (rc, log))
        rcs.append(rc)
        if args.trace:
            check = subprocess.run(
                [os.path.join(out_dir, "eadrl_trace_check"), trace_path],
                capture_output=True, text=True)
            print(check.stdout.strip() or check.stderr.strip())
            if check.returncode != 0:
                fail("trace file %s failed eadrl_trace_check" % trace_path)

    result = merge(phases["suite"], phases["serve"])
    result["provenance"]["commit"] = git_commit()
    result["provenance"]["source_sha256"] = source_digest()
    result["provenance"]["seconds"] = args.seconds

    metrics = {}
    source = result["per_layer"] if args.trace else result["end_to_end"]
    for name, m in gated.items():
        if name not in source:
            fail("program did not report metric " + name)
        if source[name]["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (name, source[name]["unit"], m["unit"]))
        metrics[name] = {"value": source[name]["value"], "unit": m["unit"]}

    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print_table(result, gated)
    correct = bool(result["correct"]) and rcs == [0, 0]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
