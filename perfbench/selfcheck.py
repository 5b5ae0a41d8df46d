"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs the smallest workload (toytrain) for a single round, untraced and
traced, and checks that the last line of each run names exactly the
metrics of BENCHMARK.json with their units, that every value is a finite
number, and that no operation failed. Exits 0 when all of that holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "toytrain"
SECONDS = "0.001"  # one round: a run always finishes the round it starts


def run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", "0", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run(trace)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
            problems.append(f"trace {trace}: correct={result['correct']} "
                            f"attempted={result['attempted']} failed={result['failed']}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != expected:
            problems.append(f"trace {trace}: printed {printed}, expected {expected}")
        for name, m in result["metrics"].items():
            if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                problems.append(f"trace {trace}: {name} = {m['value']!r}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
