"""chaoslab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload chaos-scan --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process does all the work, with the BLAS/OpenMP pools capped
at the number of CPUs.  A run

1. times ``SETUP_REPEATS`` fresh interpreters that import ``chaoslab.cli``
   and parse the workload's first config (``setup_s`` is their median);
2. makes one warm-up pass, whose outputs are checked for correctness and
   kept as the reference for the determinism check;
3. makes timed passes until ``--seconds`` is used up, at least
   ``MIN_PASSES``; every op's output files must be byte-identical to the
   warm-up pass's, or the op counts as failed.

With ``--trace 0`` it reports ``wall_s`` (median pass), ``setup_s``,
``peak_rss_mb`` and the Gaussian accuracy probe ``h1_relerr_n1024`` /
``h1_relerr_n65536``.  With ``--trace 1`` the timed passes alternate
untraced and traced, and it reports the per-layer metrics of
``tracing.layer_metrics`` (medians over traced passes; counts must repeat
exactly across them) plus ``trace.overhead_s``.  Spans go to
``.perfbench_out/<workload>/spans.json``, and the environment, the pass
and op times and the result to ``.perfbench_out/results/``.

The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_CODE = ("import json, sys\n"
              "from chaoslab.cli import parse_config\n"
              "parse_config(json.loads(sys.argv[1]))\n")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_thread_pools(nproc: int) -> None:
    """At most ``nproc`` threads per pool; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def environment() -> dict:
    import numpy
    import scipy

    commit = None  # a plain source tree has no commit; src_sha256 still names it
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "chaoslab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(doc: dict) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(doc)], env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def file_digests(outdir: Path) -> dict:
    digests = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                digests[path.relative_to(outdir).as_posix()] = \
                    hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


class Bench:
    """Runs the ops of one workload and keeps the failure tally."""

    def __init__(self, ops, run, parse_config):
        self.ops = ops
        self._run = run
        self._parse = parse_config
        self.reference = {}
        self.op_seconds = {op.name: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def _fail(self, op, why):
        self.failed += 1
        print(f"FAILED {op.name}: {why}", file=sys.stderr)

    def run_op(self, op, tracer=None, trace_id=None) -> float:
        outdir = Path(op.doc["output_dir"])
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                summary = self._run(self._parse(op.doc))
            else:
                with tracer.root(trace_id):
                    summary = self._run(self._parse(op.doc))
        except Exception:  # an op that raises is a failed op; keep measuring
            elapsed = time.perf_counter() - t0
            self._fail(op, traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - t0
        if tracer is None:
            self.op_seconds.setdefault(op.name, []).append(elapsed)

        digests = file_digests(outdir)
        self.output_bytes += sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        if op.name not in self.reference:
            try:
                problems = op.check(outdir, summary)
            except Exception:  # a check that cannot read the outputs fails the op
                problems = [traceback.format_exc()]
            self.reference[op.name] = (digests, problems)
        elif digests != self.reference[op.name][0]:
            problems = [f"outputs differ from the first pass: {sorted(digests)}"]
        else:  # the same bytes as the checked pass get the same verdict
            problems = self.reference[op.name][1]
        if problems:
            self._fail(op, "; ".join(problems))
        return elapsed

    def run_pass(self, tracer=None, label="") -> float:
        self.output_bytes = 0
        return sum(self.run_op(op, tracer, f"{label}/{op.name}") for op in self.ops)


def end_to_end(bench, seconds, ops, outroot):
    """Timed passes with tracing off; the metrics of BENCHMARK.json's end_to_end."""
    import workloads

    setup = [measure_setup(ops[0].doc) for _ in range(SETUP_REPEATS)]
    bench.run_pass()  # warm-up: lazy imports, reference outputs, output checks
    walls = []
    t0 = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t0 + walls[-1] <= seconds:
        walls.append(bench.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe = next((op for op in ops if op.name == "gaussian"), None)
    if probe is None:  # accuracy is a property of the code: probe it untimed
        probe = workloads.gaussian_probe(ops[0].doc["seed"])
        probe.doc["output_dir"] = str(outroot / probe.name)
        bench.run_op(probe)
    try:
        errors = workloads.h1_relative_errors(Path(probe.doc["output_dir"]))
    except OSError:
        errors = {}
    # A relative error below double resolution reads as that resolution; a
    # missing row (its op has already failed) reads as 100 %.
    h1 = {N: max(errors.get(N, 1.0), sys.float_info.epsilon) for N in (1024, 65536)}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "h1_relerr_n1024": (h1[1024], "ratio"),
        "h1_relerr_n65536": (h1[65536], "ratio"),
    }
    record = {"setup_s": setup, "pass_s": walls}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, True, record


def per_layer(bench, seconds, ops, outroot):
    """Untraced and traced passes in turn; the metrics of BENCHMARK.json's per_layer."""
    from tracing import Tracer, layer_metrics
    from workloads import batch_means, load_samples

    bench.run_pass()  # warm-up: lazy imports, reference outputs, output checks
    tracer = Tracer()
    n32 = next((op for op in ops if op.name == "mala-n32"), None)
    walls, traced_walls, per_pass = [], [], []
    t0 = time.perf_counter()
    while (len(traced_walls) < MIN_TRACED_PAIRS
           or time.perf_counter() - t0 + walls[-1] + traced_walls[-1] <= seconds):
        walls.append(bench.run_pass())
        first = tracer.mark()
        with tracer.installed():
            traced_walls.append(bench.run_pass(tracer, f"pass{len(traced_walls)}"))
        metrics = tracer.pass_metrics(first)
        metrics["cli.output_bytes"] = bench.output_bytes
        chain_s = tracer.run_chain_seconds(first, 32)
        if chain_s and n32 is not None:
            try:
                draws = load_samples(n32, Path(n32.doc["output_dir"]))
            except (ImportError, OSError, ValueError):
                draws = None  # the op's own check has already failed it
            if draws is not None:
                ess = batch_means((draws**2).mean(axis=1))[2]
                metrics["sampler.ess_per_s.n32"] = ess / chain_s
        per_pass.append(metrics)

    spans_path = outroot / "spans.json"
    spans_path.write_text(json.dumps({"absent": sorted(tracer.absent),
                                      "spans": tracer.span_records()}))
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for name in sorted(tracer.absent):
        print(f"absent: {name} no longer exists; its metrics read 0")

    out, repeat_ok = {}, True
    for name, unit, _ in layer_metrics():
        series = [m[name] for m in per_pass]
        if unit in ("count", "bytes"):
            if len(set(series)) > 1:
                repeat_ok = False
                print(f"count {name} differs across traced passes: {series}",
                      file=sys.stderr)
            value = int(series[0])
        else:
            value = statistics.median(series)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"]["value"] = (statistics.median(traced_walls)
                                        - statistics.median(walls))
    return out, repeat_ok, {"pass_s": walls, "traced_pass_s": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chaoslab" / "cli.py").is_file():
        print(f"perfbench: no chaoslab sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cap_thread_pools(os.cpu_count() or 1)
    sys.path.insert(0, str(SRC))
    from chaoslab.cli import parse_config, run
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    outroot = OUT / args.workload
    shutil.rmtree(outroot, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, outroot)

    bench = Bench(ops, run, parse_config)
    measure = per_layer if args.trace else end_to_end
    metrics, repeat_ok, record = measure(bench, args.seconds, ops, outroot)

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_rate = {bench.failed / bench.attempted!r} "
          f"({bench.failed} of {bench.attempted} ops)")
    correct = bench.failed == 0 and repeat_ok
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), **record, "op_s": bench.op_seconds,
                    "result": result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
