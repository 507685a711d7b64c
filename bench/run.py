"""Benchmark of the trajseg CLI: one workload, one process, a closed loop.

    python3 bench/run.py --workload lrtl-noisy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Set-up imports the program from the
checkout's ``src`` and makes the workload's input scenes from ``--seed``;
then whole rounds of CLI commands run in-process, one after another,
until ``--seconds`` have passed (at least one round).  Every command's
outputs are checked by ``checks.py``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
one untraced and one traced round, the per-layer metrics of the traced
round, also written with their units to
``.bench_results/trace-<workload>-<seed>.json``.  BLAS keeps its
default thread count; the ``# env`` line records it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as handle:
        start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_program():
    """Import trajseg from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import trajseg.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import trajseg from {src}: {exc}") from exc
    if Path(trajseg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: trajseg was imported from {trajseg.__file__}, not {src}")
    return trajseg.cli


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "blas": f"{blas.get('name')} {blas.get('version')}", "numpy": np.__version__,
            "python": platform.python_version()}


def warm_up_blas() -> None:
    """Call every LAPACK routine the program uses once, and run BLAS's threads.

    Now and then the first call of each routine in a fresh process takes
    150-300 ms instead of 1-8 ms (measured on 160x160 matrices), and the
    first few hundred small matrix products run several times slower than
    later ones (SSC's first ADMM loop: 0.4-1.1 s instead of 0.1 s); without
    this, that cost lands on whichever command comes first.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((512, 512))
    spd = a @ a.T + 512 * np.eye(512)
    np.linalg.solve(spd, a)
    np.linalg.inv(spd)
    np.linalg.eigh(spd[:64, :64])
    np.linalg.svd(a[None, :32, :64], full_matrices=False)
    np.linalg.svd(a[:32, :64], compute_uv=False)
    b = a[:160, :160] / 512
    for _ in range(200):
        b = b @ b
        b /= np.abs(b).max()


def _written_bytes() -> int:
    """Bytes this process has passed to write() so far (``wchar``)."""
    with open("/proc/self/io") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith("wchar:"))


class Record:
    """What the commands of a run did, and what their checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.round_seconds = []
        self.round_bytes = []
        self.segment_seconds = []
        self.aris = []


def run_round(cli, workload, record: Record) -> None:
    seconds = 0.0
    written = 0
    for command in workload.round():
        shutil.rmtree(command.out, ignore_errors=True)
        before = _written_bytes()
        start = time.perf_counter()
        # the CLI prints one summary line per command; keep it off our stdout
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(command.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = None
        elapsed = time.perf_counter() - start
        written += _written_bytes() - before
        seconds += elapsed
        record.attempted += 1
        if code != 0:
            record.failed += 1
            print(f"bench: {' '.join(command.argv[:3])} exited {code}", file=sys.stderr)
            continue
        problems, ari = command.check()
        if problems:
            record.failed += 1
            record.correct = False
            print(f"bench: {' '.join(command.argv)}: " + "; ".join(problems), file=sys.stderr)
            continue
        if command.kind == "segment":
            record.segment_seconds.append(elapsed)
            record.aris.append(ari)
    record.round_seconds.append(seconds)
    record.round_bytes.append(written)


def end_to_end(record: Record, setup_s: float) -> dict:
    if not record.segment_seconds:
        return {}
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(record.round_seconds), "s"),
        "segment_s": (statistics.median(record.segment_seconds), "s"),
        "ari_mean": (statistics.fmean(record.aris), "ari"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "written_mb": (statistics.fmean(record.round_bytes) / 1e6, "MB"),
    }


def run_benchmark(workload_name, seed, seconds, trace, trace_out=None, sizes=None,
                  setup_start=None) -> dict:
    """Set up one workload, run it, and return the result object."""
    cli = import_program()
    work = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](work, seed, sizes or workloads.FULL)
        warm_up_blas()
        setup_s = process_age() if setup_start is None else time.perf_counter() - setup_start
        record = Record()
        if not trace:
            deadline = time.perf_counter() + seconds
            while not record.round_seconds or time.perf_counter() < deadline:
                run_round(cli, workload, record)
            metrics = end_to_end(record, setup_s)
        else:
            run_round(cli, workload, record)
            with tracing.Tracer() as tracer:
                tracing.install(tracer)
                run_round(cli, workload, record)
            overhead = record.round_seconds[1] - record.round_seconds[0]
            values = tracing.layer_metrics(tracer, overhead)
            problems = tracing.cross_checks(tracer)
            if problems:
                record.correct = False
                print("bench: " + "; ".join(problems), file=sys.stderr)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            metrics = {name: (value, units[name]) for name, value in values.items()}
            print(f"trace.overhead_s={overhead:.4f} "
                  f"(traced round {record.round_seconds[1]:.3f} s, "
                  f"untraced {record.round_seconds[0]:.3f} s)")
            if trace_out is not None:
                Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
                Path(trace_out).write_text(json.dumps({
                    "workload": workload_name, "seed": seed, "env": environment(),
                    "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
                }, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": record.correct and bool(metrics),
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    trace_out = ROOT / ".bench_results" / f"trace-{args.workload}-{args.seed}.json"
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace, trace_out)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
