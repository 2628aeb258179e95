#!/usr/bin/env python3
"""Same-machine benchmark of the hybridls simulator.

Builds perfbench/ (the library sources in src/ plus two benchmark programs)
in its own build tree, then runs a workload and prints its metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. --trace 0 runs the untraced binary and reports the
      end-to-end metrics; --trace 1 splits the budget between the untraced
      and the traced binary and reports the per-layer metrics, including
      the tracing overhead. The last stdout line is one JSON object with
      the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --seed N --seconds S
      Every workload untraced, then every workload traced; prints each
      metric with its unit, then the same JSON summary.

  python3 perfbench/run.py --update-pins
      Re-records perfbench/pins.json, the seed-1 digests every run is
      checked against. Only for a change that is meant to alter simulated
      output.

Metric names, units and workloads come from BENCHMARK.json; workload
definitions and the reasons for them are in perfbench/NOTES.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
BUILD_TYPE = "Release"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    """Configures (once) and builds `targets`; the lock serialises
    concurrent invocations sharing one build tree."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"] + targets)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step failed: {err}")
            if done.returncode != 0:
                fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return out


def load_pins():
    try:
        return json.loads(PINS.read_text())
    except (OSError, ValueError):
        return {}


def run_binary(binary, workload, seed, seconds, pins):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    pin = pins.get(workload, {})
    if pin:
        cmd += ["--expect-probe", pin["probe"], "--expect-full", pin["full"]]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"{binary.name} {workload}: {err}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{binary.name} {workload} exited with {done.returncode}")
    result = json.loads(lines[-1])
    print(f"perfbench: {binary.name} {workload} seed={seed} "
          f"build={result['build_type']} reps={result['reps']} "
          f"probe={result['probe_digest']} digest={result['digest']}",
          file=sys.stderr)
    for problem in result["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    return result


def measure(out, workload, seed, seconds, trace, pins):
    """Runs one workload; returns (attempted, failed, {metric: value})."""
    if not trace:
        plain = run_binary(out / "hlsbench", workload, seed, seconds, pins)
        return plain["attempted"], plain["failed"], plain["metrics"]
    plain = run_binary(out / "hlsbench", workload, seed, seconds / 2, pins)
    traced = run_binary(out / "hlsbench_traced", workload, seed, seconds / 2, pins)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    if (plain["digest"], plain["probe_digest"]) != (traced["digest"], traced["probe_digest"]):
        print("perfbench: FAILED traced and untraced digests differ", file=sys.stderr)
        failed = attempted
    metrics = dict(traced["metrics"])
    metrics["trace.overhead"] = metrics.pop("wall_s") / plain["metrics"]["wall_s"] - 1.0
    return attempted, failed, metrics


def select(spec_metrics, measured, prefix=""):
    """Picks the metrics BENCHMARK.json lists, with their units."""
    picked = {}
    for m in spec_metrics:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        picked[prefix + m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    return picked


def update_pins(spec):
    out = build(["hlsbench"])
    pins = {}
    for w in spec["workloads"]:
        result = run_binary(out / "hlsbench", w["name"], 1, 0.001, {})
        if result["failed"]:
            fail(f"{w['name']} fails its own checks; not pinning")
        pins[w["name"]] = {"probe": result["probe_digest"], "full": result["digest"]}
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"perfbench: wrote {PINS}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.update_pins:
        update_pins(spec)
        return
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    names = [w["name"] for w in spec["workloads"]]
    pins = load_pins()

    if args.workload is not None:
        if args.workload not in names:
            fail(f"unknown workload {args.workload!r}; choose from {names}")
        trace = bool(args.trace)
        out = build(["hlsbench_traced", "hlsbench"] if trace else ["hlsbench"])
        attempted, failed, measured = measure(out, args.workload, args.seed, seconds,
                                              trace, pins)
        metrics = select(spec["per_layer"] if trace else spec["end_to_end"], measured)
    else:
        out = build(["hlsbench", "hlsbench_traced"])
        attempted, failed, metrics = 0, 0, {}
        for trace in (False, True):
            for name in names:
                a, f, measured = measure(out, name, args.seed, seconds, trace, pins)
                attempted, failed = attempted + a, failed + f
                picked = select(spec["per_layer"] if trace else spec["end_to_end"],
                                measured, prefix=f"{name}/")
                for key, m in picked.items():
                    print(f"{key:<44} {m['value']:>18.6g} {m['unit']}")
                metrics.update(picked)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
