"""Self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py [--seed N]

Checks that
  * two traced runs with the same seed report exactly equal counts,
    workload by workload;
  * the statics workload makes no integrator call;
  * the same seed gives the same inputs and another seed different ones.
Exits nonzero and names the failing check otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("integrate.calls", "integrate.steps_accepted", "integrate.rhs_evals",
         "hbm.root_solves", "dataset.rows")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    sys.path.insert(0, str(HERE.parent / "src"))
    import jobs

    problems = []
    for workload in jobs.WORKLOADS:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            print(f"{workload:8s} {name:26s} {a:>12} {b:>12}")
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
        if (workload == "statics"
                and first["metrics"]["integrate.calls"]["value"] != 0):
            problems.append("statics: integrate.calls is not 0")
        same = [jobs.round_jobs(workload, seed, r) for r in range(4)]
        again = [jobs.round_jobs(workload, seed, r) for r in range(4)]
        other = [jobs.round_jobs(workload, seed + 1, r) for r in range(4)]
        if same != again:
            problems.append(f"{workload}: same seed gave different inputs")
        if same == other:
            problems.append(f"{workload}: another seed gave the same inputs")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
