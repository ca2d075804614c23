"""Run one teleportlab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/`` of the
same checkout, in-process, and called as ``teleportlab.cli.main(argv)``.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
invocation (after one warm-up), throughput in the workload's work units,
the median time of the public set-up calls, and the process's peak RSS.
The process runs with one BLAS thread on one CPU.  Each timed call is
followed by a fixed numpy kernel, and its time is scaled to the kernel's
reference speed (``bench.calibrate``), because on a shared host the speed
of a core drifts by up to 40% between runs; unscaled medians are printed
and kept in the result file.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``bench.metrics.PER_LAYER``.  Every invocation's output
is checked (see ``bench.checks``).  Result files, with a provenance block,
go to ``.bench_results/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_results")

MIN_INVOCATIONS = 3
MIN_SETUPS = 5
SETUP_SHARE = 0.2       # of --seconds spent timing set-up calls
SETUP_BATCH_S = 0.1     # set-up calls are timed in batches at least this long
PERCENTILES = (50, 90, 95, 99)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_single_core() -> None:
    """One BLAS thread and one CPU for this process; call before numpy loads.

    The calibration kernel then runs on the core the program runs on, and a
    neighbour busying the other core cannot stall half of a BLAS call.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program():
    """Import ``teleportlab.cli`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from teleportlab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"teleportlab was imported from {cli.__file__}, not {src}")
    return cli


def invoke(cli, argv: list[str]) -> tuple[int, str, float]:
    """One ``cli.main(argv)`` call with stdout captured: (exit code, report, seconds)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, buffer.getvalue(), elapsed


class OutputChecker:
    """Checks every invocation of one run and counts failures."""

    def __init__(self, command: str, reference):
        self.command = command
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, code: int, text: str) -> None:
        from bench import checks

        problems = [] if code == 0 else [f"exit code {code}"]
        problems += checks.structure_problems(self.command, text)
        if not problems:
            for reference in (self.reference, self.first):
                if reference is not None:
                    problems += checks.reference_problems(self.command, text, reference)
            if self.first is None:
                self.first = checks.make_reference(self.command, text)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def _timed_loop(seconds: float, minimum: int, step) -> None:
    start = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - start < seconds:
        step()
        count += 1


def untraced_run(cli, workload, argv, setup, seconds, checker) -> tuple[dict, dict]:
    from bench.calibrate import SpeedReference

    setup_speed = SpeedReference(workload.setup_kernel)
    setup()
    start = time.perf_counter()
    setup()
    batch = max(1, math.ceil(SETUP_BATCH_S / (time.perf_counter() - start)))
    setup_raw, setup_scaled = [], []

    def time_setup():
        start = time.perf_counter()
        for _ in range(batch):
            setup()
        elapsed = (time.perf_counter() - start) / batch
        setup_raw.append(elapsed)
        setup_scaled.append(setup_speed.scale(elapsed))

    _timed_loop(seconds * SETUP_SHARE, MIN_SETUPS, time_setup)

    checker.check(*invoke(cli, argv)[:2])
    speed = SpeedReference(workload.kernel)
    walls_raw, walls = [], []

    def time_invocation():
        code, text, elapsed = invoke(cli, argv)
        walls_raw.append(elapsed)
        walls.append(speed.scale(elapsed))
        checker.check(code, text)

    _timed_loop(seconds * (1 - SETUP_SHARE), MIN_INVOCATIONS, time_invocation)

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"wall_s": walls, "wall_s_raw": walls_raw, "setup_s": setup_scaled,
               "setup_s_raw": setup_raw, "setup_batch": batch,
               "speed_factors": speed.factors, "setup_speed_factors": setup_speed.factors}
    return metrics, samples


def traced_run(cli, workload, argv, seconds, checker, stem) -> tuple[dict, dict]:
    from bench import metrics as metric_defs, tracer as tracing

    tracer = tracing.Tracer()
    checker.check(*invoke(cli, argv)[:2])
    walls, traced, per_invocation, first_spans = [], [], [], []

    def pair():
        code, text, elapsed = invoke(cli, argv)
        walls.append(elapsed)
        checker.check(code, text)
        tracer.invocation += 1
        with tracer:
            code, text, _ = invoke(cli, argv)
        checker.check(code, text)
        table = tracing.summarize(tracer.spans)
        traced.append(table["cli.main"]["s"])
        per_invocation.append(metric_defs.layer_values(table, workload.dominant))
        if not first_spans:
            first_spans.extend(tracer.spans)
        tracer.clear()

    _timed_loop(seconds, MIN_INVOCATIONS, pair)

    values = {name: statistics.median(v[name] for v in per_invocation) for name in per_invocation[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1
    tracing.write_spans(stem + "-spans.tsv", first_spans)
    with open(stem + "-layers.tsv", "w", encoding="utf-8") as handle:
        handle.write("metric\tvalue\tunit\tfeeds\n")
        for metric in metric_defs.PER_LAYER:
            handle.write(f"{metric.name}\t{values[metric.name]!r}\t{metric.unit}\t{metric.feeds}\n")
    return values, {"untraced_wall_s": walls, "traced_cli_main_s": traced}


def provenance(seed: int) -> dict:
    import numpy as np

    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    git_sha = git_dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git_sha = git("rev-parse", "HEAD") or None
        git_dirty = bool(git("status", "--porcelain"))
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "seed": seed,
    }


def _percentile_note(samples: list[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if not usable:
        return f"n={n}"
    p = usable[-1]
    return f"n={n}, p{p}={statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.6g}"


def parse_args(argv):
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    from bench import checks, metrics as metric_defs
    from bench.workloads import WORKLOADS, invocation_argv, setup_calls, write_inputs

    workload = WORKLOADS[args.workload]
    recorded = checks.load_references()
    reference = recorded["outputs"][workload.name] if args.seed == recorded["seed"] else None
    checker = OutputChecker(workload.argv[0], reference)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}")
    work_dir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        file_args = write_inputs(workload, args.seed, work_dir)
        argv = invocation_argv(workload, args.seed, file_args)
        if args.trace:
            values, samples = traced_run(cli, workload, argv, args.seconds, checker, stem)
            defs = metric_defs.PER_LAYER
        else:
            setup = setup_calls(workload, args.seed, file_args)
            values, samples = untraced_run(cli, workload, argv, setup, args.seconds, checker)
            defs = metric_defs.END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in defs},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "argv": argv, "seconds": args.seconds,
                   "trace": args.trace, "provenance": provenance(args.seed),
                   "problems": checker.problems, "samples": samples, "result": result},
                  handle, indent=1)

    print(f"workload {workload.name}: teleportlab {' '.join(argv)}")
    for m in defs:
        note = _percentile_note(samples[m.name]) if m.name in samples else ""
        if m.name + "_raw" in samples:
            note += f", unscaled median {statistics.median(samples[m.name + '_raw']):.6g}"
        if m.name == "items_per_s":
            note = f"{workload.unit} per second, {workload.items} per invocation"
        print(f"  {m.name:36s} {values[m.name]:<14.6g} {m.unit:6s} {note}")
    print(f"  {'failed_frac':36s} {checker.failed / checker.attempted:<14.6g} ratio  "
          f"{checker.failed} of {checker.attempted} invocations")
    for problem in checker.problems[:5]:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_single_core()
    sys.exit(main())
