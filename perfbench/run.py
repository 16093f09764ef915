#!/usr/bin/env python3
"""Build and run the SCOOP/Qs benchmark (the `qs-perfbench` package).

    python3 perfbench/run.py --workload <ring|contend|readmostly|chain|bank|all> \
        --seed N --seconds S --trace <0|1>

Run it from anywhere inside a source tree of the repository. It builds the
benchmark in release mode (offline, into $CARGO_TARGET_DIR, default
`.bench_build`), runs one process per workload with a hard time limit, and
passes the benchmark's report through. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
metrics are the ones BENCHMARK.json declares: its `end_to_end` metrics
with `--trace 0`, its `per_layer` metrics with `--trace 1`. Every metric the
benchmark measured, the reproducibility record and the span log of a traced
run are written under `.bench_out/`.

`--workload all` runs the five workloads one after another and prints one
combined line whose metric names are prefixed with the workload.

Exit codes: 0 when a result was printed (failed ops are counted in it), 2
when the benchmark cannot be built or the arguments are wrong, 3 when a
workload process had to be killed at its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ring", "contend", "readmostly", "chain", "bank"]
# A workload process that outlives this is killed; it has its own per-op
# watchdog, so this only fires if that watchdog itself is stuck.
RUN_TIMEOUT_S = 160


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    return parser.parse_args(argv)


def command_output(argv):
    """First line of a command's output, or "unknown" if it cannot run."""
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unknown"


def build(env):
    """Builds the benchmark; returns the binary's path or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "qs-perfbench")


def declared_metrics(trace):
    """Names of the metrics BENCHMARK.json declares for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def run_workload(binary, env, workload, args):
    """Runs one workload process; returns its result object or None."""
    argv = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the process and waited for it.
        print(f"workload {workload} did not finish within {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"workload {workload} exited with code {done.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select(result, names, prefix=""):
    """The declared metrics of one result, as {"value", "unit"} objects."""
    metrics = result["metrics"]
    chosen = {}
    for name in names if names is not None else metrics:
        if name in metrics:
            m = metrics[name]
            chosen[prefix + name] = {"value": m["value"], "unit": m["unit"]}
        else:
            print(f"{result['record']['workload']}: declared metric {name} was not reported",
                  file=sys.stderr)
    return chosen


def main(argv):
    args = parse_args(argv)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        print("could not build the benchmark", file=sys.stderr)
        return 2
    env["QS_PERFBENCH_GIT_SHA"] = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env["QS_PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    names = declared_metrics(args.trace)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(binary, env, workload, args)
        if result is None:
            return 3
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = workload + "." if args.workload == "all" else ""
        summary["metrics"].update(select(result, names, prefix))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
