"""Benchmark of the gradednil command line, end to end and layer by layer.

    python3 perfbench/run.py --workload report-zoo --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload in turn

Run from anywhere inside a checkout; the program is imported from ``src``.
Each pass of a workload runs its CLI commands in-process in a fresh child
process (child.py), one child at a time: a closed loop with one caller and
no threads.  Workload inputs are spec files generated by the CLI's own
``zoo`` and ``construct`` commands under ``perfbench/work``; the seed is
passed to ``report`` and ``analyze`` as ``--seed``.

With ``--trace 0`` the run makes SETUP_CHILDREN set-up-only children and then
``seconds // nominal`` pass children, and reports the end-to-end metrics of
BENCHMARK.json: medians of pass time and of set-up time (spawn to ready,
over every child), both at the reference machine speed (see child.py; the
wall times are printed beside them), and of peak RSS.  With ``--trace 1``
it makes one untraced and one traced pass and reports the per-layer metrics
in wall time; the difference in wall time of the two passes is the tracing
overhead.  Every command's output is checked against the ground truth in
workloads.py, and the verdicts of every pass must hash to one digest.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "work")
SETUP_CHILDREN = 3
RUN_LIMIT_S = 170  # every child ends before this, so a run ends within 180 s


class BenchError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRADEDNIL_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=SRC)
    return env


def run_child(workload, seed, spec_dir, mode, deadline):
    """Spawn one child and wait for its result."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [sys.executable, CHILD, workload, str(seed), spec_dir, mode, repr(spawned)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child of {workload} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child of {workload} exited {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def environment(seed):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def layer_metrics(trace, capped, traced_s, untraced_s, names):
    """Per-layer metric values by name from one traced child's spans and counters."""
    spans, counts = trace["spans"], trace["counts"]
    what = {"calls": 0, "s": 1, "self_s": 2}

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[what[field]]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    pairs = counts.get("fcomm.check_f_commutative.pairs", 0) + counts.get(
        "fcomm.scalar_f_search.pairs", 0)
    derived = {
        "ringcore.mul_coords.zero_ratio": ratio(
            counts.get("ringcore.mul_coords.zero", 0), span("ringcore.mul_coords", "calls")),
        "ringcore.mul_coords.us_per_call": ratio(
            span("ringcore.mul_coords", "self_s"), span("ringcore.mul_coords", "calls"), 1e6),
        "nil.enum_ns_per_element": ratio(
            counts.get("nil.enum_self_s", 0), counts.get("nil.enum_elements", 0), 1e9),
        "fcomm.us_per_pair": ratio(
            span("fcomm.check_f_commutative", "s") + span("fcomm.scalar_f_search", "s"),
            pairs, 1e6),
        "words.us_per_word": ratio(
            span("words.neutral_split", "s") + span("words.neutral_split_bruteforce", "s"),
            span("words.neutral_split", "calls"), 1e6),
        "capped_checks": capped,
        "trace.pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif field in what:
            values[name] = span(base, field)
        else:
            values[name] = counts.get(name, 0)
    return values


def run_workload(wl, seed, seconds, traced, bench, deadline):
    from gradednil import cli
    from workloads import generate_specs

    spec_dir = os.path.join(WORK, wl.name)
    generate_specs(cli.main, wl, spec_dir)

    def child(mode):
        return run_child(wl.name, seed, spec_dir, mode, deadline)

    if traced:
        passes = [child("pass"), child("trace")]
    else:
        setups = [child("setup") for _ in range(SETUP_CHILDREN)]
        passes = [child("pass") for _ in range(max(1, int(seconds // wl.nominal_s)))]
    digests = {p["digest"] for p in passes}
    first = passes[0]
    result = {
        "correct": all(p["correct"] for p in passes) and len(digests) == 1,
        "attempted": sum(p["commands"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    print(f"workload {wl.name}: seed {seed}, {len(passes)} pass children, "
          f"exit codes {first['exits']}")
    print(f"  digest {' '.join(sorted(digests))}")
    print(f"  failed_ops {first['failed']}/{first['commands']} ratio per pass "
          f"({result['failed']}/{result['attempted']} over the run)")
    print(f"  capped_checks {first['capped']} count")
    if traced:
        names = [m["name"] for m in bench["per_layer"]]
        metrics = layer_metrics(passes[1]["trace"], first["capped"],
                                passes[1]["wall_s"], first["wall_s"], names)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        pass_times = [p["pass_s"] for p in passes]
        children = setups + passes
        setup_times = [c["setup_s"] for c in children]
        metrics = {
            "pass_s": statistics.median(pass_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print(f"  pass_s over {len(pass_times)}: {sorted(round(t, 4) for t in pass_times)}")
        print(f"  wall time of the passes: {sorted(round(p['wall_s'], 4) for p in passes)}, "
              f"{sum(p['probes'] for p in passes)} speed probes")
        print(f"  setup_s over {len(setup_times)}: {sorted(round(t, 4) for t in setup_times)}")
        print(f"  wall time of the set-ups: "
              f"{sorted(round(c['setup_wall_s'], 4) for c in children)}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "gradednil", "cli.py")):
            raise BenchError(f"no gradednil sources under {SRC}")
        sys.path.insert(0, SRC)
        from workloads import WORKLOADS

        names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        print("env " + json.dumps(environment(args.seed)))
        for name in names:
            if len(names) > 1:
                deadline = time.monotonic() + RUN_LIMIT_S
            result = run_workload(WORKLOADS[name], args.seed, seconds, args.trace,
                                  bench, deadline)
            print(json.dumps(result))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
