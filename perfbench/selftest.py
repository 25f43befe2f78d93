"""Fast self-test of the benchmark harness on the tiny workload (report of sut n=3).

    python3 perfbench/selftest.py

Runs run.py twice untraced and once traced at one seed, and checks that the
last line is the result object with exactly its four keys, that every metric
of BENCHMARK.json is printed by name with its unit, and that the verdict
digest repeats.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(trace):
    argv = [sys.executable, RUN, "--workload", "tiny", "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True).stdout
    return out.splitlines()


def check(lines, expected):
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]):
            problems.append(f"{name} is not printed with its unit {unit}")
    digests = [line.split()[1] for line in lines if line.startswith("  digest ")]
    return problems, digests


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems, digests = [], []
    for trace, expected in ((0, e2e), (0, e2e), (1, layers)):
        found, ds = check(run(trace), expected)
        problems += [f"trace {trace}: {p}" for p in found]
        digests += ds
    if len(digests) != 3 or len(set(digests)) != 1:
        problems.append(f"digests do not repeat: {digests}")
    for p in problems:
        print("FAIL", p)
    print("selftest " + ("failed" if problems else f"passed; digest {digests[0]}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
