"""Run every workload, each in its own process, and print one table.

    python3 bench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as ``bench/run.py`` in a fresh process, so peak RSS is
the workload's own.  Prints every metric by name with its unit, plus
``failed_frac`` (failed over attempted invocations); exits 1 if any run
failed or any output check did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from bench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=os.path.dirname(HERE),
        )
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        results[name] = result

    names = list(results)
    metrics = {m: r["metrics"][m]["unit"] for r in results.values() for m in r["metrics"]}
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>16s}" for n in names))
    for metric, unit in metrics.items():
        cells = " ".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:36s} {unit:6s} {cells}")
    cells = " ".join(f"{results[n]['failed'] / results[n]['attempted']:>16.6g}" for n in names)
    print(f"{'failed_frac':36s} {'ratio':6s} {cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
