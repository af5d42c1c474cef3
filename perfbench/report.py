"""Run every workload and print its metrics by name and unit.

    python3 perfbench/report.py                # end-to-end metrics, fail_rate
    python3 perfbench/report.py --trace 1      # per-layer metrics, count self-check

Each workload runs in its own ``run.py`` process, one after another.  With
``--trace 1`` each workload runs traced twice with the same seed, and every
count metric (unit ``count`` or ``bytes``) must read exactly the same in
both runs.  Exits 1 if a run is not correct or a count does not repeat.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    env = next((ln[4:] for ln in lines if ln.startswith("env ")), "{}")
    return json.loads(env), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        env, result = bench_run(workload, args.seed, args.seconds, args.trace)
        if workload == next(iter(WORKLOADS)):
            print("env", json.dumps(env, sort_keys=True))
        ok &= result["correct"]
        fail_rate = result["failed"] / result["attempted"]
        print(f"\n{workload}: correct={result['correct']} fail_rate={fail_rate!r} "
              f"({result['failed']} of {result['attempted']} ops)")
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']!r} {m['unit']}")
        if args.trace:
            _, again = bench_run(workload, args.seed, args.seconds, args.trace)
            differ = [name for name, m in result["metrics"].items()
                      if m["unit"] in ("count", "bytes") and again["metrics"][name] != m]
            for name in differ:
                print(f"  count {name} did not repeat: {result['metrics'][name]['value']!r}"
                      f" then {again['metrics'][name]['value']!r}")
            print(f"  counts repeat across two traced runs: {not differ}")
            ok &= again["correct"] and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
