"""Run every workload untraced and traced; print each metric by name with
its unit, then the stage table with one column per lattice.

    python3 perfbench/report.py [--seed 1]

Run from the root of a checkout.  Every workload of BENCHMARK.json runs
for its run_seconds, each run in a separate process, so peak RSS stays
per workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spantrace  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    for line in lines[:-1]:
        if line.startswith("FAIL") or line.startswith("fail_ratio"):
            print(f"{workload}: {line}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    columns = {}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run(wl, args.seed, bench["run_seconds"], trace)
            for name, m in result["metrics"].items():
                print(f"{wl:<9} {name:<40} {m['value']:>16.6g} {m['unit']}")
        with open(os.path.join(ROOT, ".perfbench_out", wl, "stages.json"),
                  encoding="utf-8") as fh:
            columns.update(json.load(fh))
    print()
    print(spantrace.format_table(columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
