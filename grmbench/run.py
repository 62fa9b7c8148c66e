#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 grmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness (grmbench/harness) and
the `grmined` daemon from source in release mode, generates the
workload's graph from the seed in a separate process (so generation is
in no measurement), runs the harness, and prints its result object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics, and the spans go to
<build dir>/grmbench-trace/. BENCHMARK.json is the one list of metric
names and units: the harness reports values by name, and this script
checks the names against the list and adds the units. Build outputs and generated inputs live
under $CARGO_TARGET_DIR (default: .bench_build in the repository root).
See grmbench/NOTES.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
HARNESS_MANIFEST = os.path.join(ROOT, "grmbench", "harness", "Cargo.toml")

# workload -> (dataset, scale)
WORKLOADS = {
    "pokec-mine": ("pokec", "1"),
    "dblp-daemon": ("dblp", "4"),
}

# A run must end within this many seconds once built.
RUN_LIMIT_S = 175


def fail(msg):
    print(f"grmbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, env, timeout, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    (the harness's daemons included) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"`{' '.join(cmd[:2])}` did not finish within {timeout:.0f} s")
    return proc.returncode, out


def build(env):
    """Release-build the harness and the daemon (a no-op once built)."""
    cargo = shutil.which("cargo")
    if cargo is None:
        fail("cargo is not on PATH")
    for manifest, extra in (
        (HARNESS_MANIFEST, []),
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "grmined"]),
    ):
        code, _ = run_group(
            [cargo, "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
            + extra,
            env,
            timeout=850,
        )
        if code != 0:
            fail(f"building {os.path.relpath(manifest, ROOT)} failed")


def result_object(line, listed, traced):
    """Turn the harness's last line into the contract's result object.

    `listed` is BENCHMARK.json's end-to-end or per-layer metric list. The
    harness must report every end-to-end metric; a per-layer metric of a
    layer the workload never calls reports 0. A name that is not listed
    is a harness bug.
    """
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"the harness printed no result object (last line: {line!r})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result object has keys {sorted(result)}")
    values = dict(result["metrics"])
    metrics = {}
    for metric in listed:
        name = metric["name"]
        value = values.pop(name, None)
        if value is None and not traced:
            fail(f"the harness did not report end-to-end metric {name}")
        if not isinstance(value, (int, float, type(None))):
            fail(f"metric {name} is not a number: {value!r}")
        metrics[name] = {"value": 0 if value is None else value, "unit": metric["unit"]}
    if values:
        fail(f"the harness reported metrics BENCHMARK.json does not list: {sorted(values)}")
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for needed in ("Cargo.toml", "crates", "src", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"`{needed}` is missing: run from a checkout of the repository")
    with open(BENCHMARK) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env)
    started = time.monotonic()

    harness = os.path.join(target, "release", "grmbench")
    data = os.path.join(target, "grmbench-data")
    os.makedirs(data, exist_ok=True)
    dataset, scale = WORKLOADS[args.workload]
    tag = f"{args.workload}-{os.getpid()}"
    graph = os.path.join(data, f"{tag}.grm")
    spill = os.path.join(data, f"{tag}.spill")
    try:
        code, _ = run_group(
            [harness, "gen", "--dataset", dataset, "--scale", scale,
             "--seed", str(args.seed), "--out", graph],
            env,
            timeout=60,
        )
        if code != 0:
            fail("generating the input graph failed")

        cmd = [harness, args.workload, "--graph", graph, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--seed", str(args.seed)]
        if args.workload == "pokec-mine":
            cmd += ["--spill-dir", spill]
        if args.workload == "dblp-daemon":
            cmd += ["--grmined", os.path.join(target, "release", "grmined")]
        if args.trace:
            spans = os.path.join(target, "grmbench-trace", f"{args.workload}-seed{args.seed}.jsonl")
            cmd += ["--spans", spans]
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        code, out = run_group(cmd, env, timeout=remaining, capture=True)
    finally:
        for leftover in (graph, graph + ".tmp"):
            if os.path.exists(leftover):
                os.remove(leftover)
        shutil.rmtree(spill, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail(f"the {args.workload} harness exited with code {code}")
    result = result_object(lines[-1], listed, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
