#!/usr/bin/env python3
"""The serving benchmark: one seeded workload against the real
mclp-serve / mclp-front binaries, built from this checkout.

    python3 perfbench/run.py --workload cold-novel --seed 1 --seconds 10 --trace 0

--trace 0 drives mclp-serve and prints the end-to-end metrics;
--trace 1 replays the same requests in-process with a span around
every layer call and prints the per-layer metrics (restart-warm also
times the socket hops of mclp-serve and mclp-front). Every answer
is checked byte for byte against the cold in-process oracle. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-novel", "restart-warm")
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def host_sample():
    """Load average and the steal + iowait ticks so far (/proc/stat)."""
    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    iowait = int(cpu[5])
    steal = int(cpu[8]) if len(cpu) > 8 else 0
    return load1, steal, iowait


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left


def run_tool(argv, cwd, deadline, capture=True):
    """Run one subprocess in its own session; on timeout or failure
    kill its whole process group (servers included) and raise."""
    proc = subprocess.Popen(
        argv, cwd=cwd, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} {argv[1] if len(argv) > 1 else ''} "
                         f"exited with {proc.returncode}")
    return out


def build(deadline):
    """Configure and build the serving binaries and the benchmark tool."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_tool(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], ROOT, deadline, capture=False)
    run_tool(["cmake", "--build", build_dir, "-j", jobs, "--target",
              "mclp-perfbench", "mclp-serve", "mclp-front"],
             ROOT, deadline, capture=False)
    return build_dir


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("mclp-perfbench printed nothing")
    return json.loads(lines[-1])


def run(args):
    # The first run in a checkout builds; later runs only check.
    build_deadline = Deadline(900)
    build_dir = build(build_deadline)
    tool = os.path.join(build_dir, "mclp-perfbench")
    bin_dir = os.path.join(build_dir, "mclp")
    deadline = Deadline(TIME_LIMIT_S)

    load_start, steal_start, iowait_start = host_sample()
    run_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=run_root)
    try:
        plan = last_json(run_tool(
            [tool, "prepare", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            run_dir, deadline))
        common = ["--workload", args.workload, "--bin-dir", bin_dir,
                  "--cycles", str(plan["cycles"])]
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            result = last_json(run_tool(
                [tool, "trace", *common, "--spans", spans], run_dir, deadline))
        else:
            result = last_json(run_tool([tool, "serve", *common], run_dir, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    load_end, steal_end, iowait_end = host_sample()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"requests digest {plan['digest']}: {plan['timed']} timed, "
          f"{plan['distinct']} distinct, "
          f"{plan['signatures']} network signatures, {plan['cycles']} cycles")
    print(f"host nproc {os.cpu_count()} load1 {load_start:.2f}->{load_end:.2f} "
          f"steal_ticks {steal_end - steal_start} iowait_ticks {iowait_end - iowait_start}")
    print(f"requests attempted {result['attempted']} ok {result['ok']} "
          f"failed {result['failed']} (mismatched {result['mismatched']}, "
          f"err {result['errors']}, transport {result['transport']})")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {}
    if args.trace:
        layers = result["layers"]
        for metric in bench["per_layer"]:
            name = metric["name"]
            metrics[name] = {"value": layers[name], "unit": metric["unit"]}
        for key, value in result["extra"].items():
            print(f"  ({key} {value})")
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        print(f"latency samples {result['samples']} in {result['slices']} slices, "
              f"set-ups {result['setup_reps']}, timed phase {result['timed_s']:.3f} s, "
              f"host probe median {result['probe_ms']:.3f} ms")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            metrics[name] = {"value": result[name], "unit": metric["unit"]}
        # Measured and scaled like the metrics, but too unsteady on a
        # shared host to carry a bound (see perfbench/README.md).
        for name, unit in (("lat_p90_ms", "ms"), ("drain_s", "s")):
            print(f"  (not a metric: {name} = {result[name]:.6g} {unit})")
        for name, value in result["raw"].items():
            print(f"  (unscaled: {name} {value:.6g})")
        if result["rewrites"]:
            print(f"restart-warm premise broken: {result['rewrites']} drains "
                  f"rewrote the populated cache directory")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    summary = {
        "correct": (result["failed"] == 0 and result["attempted"] > 0 and
                    not result.get("rewrites")),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # SIGTERM unwinds like an error, so temp dirs and servers go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        log(f"failed: {err}")
        sys.exit(1)


if __name__ == "__main__":
    main()
