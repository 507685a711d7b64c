"""Per-layer spans recorded from the benchmark's own files.

The tracer replaces a layer's public functions with timing wrappers on the
module attribute that the caller looks up at call time, so the program
itself is unchanged: ``trajseg.cli`` imports ``segment_tracks``,
``load_scene``, ``save_scene`` and ``make_scene`` by name, so those are
wrapped on ``trajseg.cli``; ``optimizer`` calls
``L.trajectory_tail_value_and_grad`` through the module, so that one is
wrapped on ``trajseg.losses``.  Each wrapper records calls, inclusive time
and self time (inclusive minus the time of wrapped calls inside it), the
wrapped spans that enclose it, and optional counts read from the returned
objects (``OptimTrace``, ``CoefficientMatrix``, ...).
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("losses.tail_vg.calls", "count", "lower"),
    ("losses.tail_vg.s", "s", "lower"),
    ("losses.tail_vg.ms_p50", "ms", "lower"),
    ("losses.tail_vg.ms_p99", "ms", "lower"),
    ("losses.tail_loss.calls", "count", "lower"),
    ("losses.tail_loss.s", "s", "lower"),
    ("optimizer.segment_tracks.s", "s", "lower"),
    ("optimizer.segment_tracks.self_s", "s", "lower"),
    ("optimizer.optimize_sequence.s", "s", "lower"),
    ("optimizer.optimize_sequence.self_s", "s", "lower"),
    ("optimizer.steps_run", "count", "lower"),
    ("optimizer.converged_restarts", "count", "higher"),
    ("optimizer.greedy_reassign.s", "s", "lower"),
    ("optimizer.greedy_reassign.moved", "count", "lower"),
    ("optimizer.merge_segments.s", "s", "lower"),
    ("optimizer.merge_segments.merges", "count", "lower"),
    ("optimizer.hard_loss.s", "s", "lower"),
    ("baselines.lrr.s", "s", "lower"),
    ("baselines.lrr.self_s", "s", "lower"),
    ("baselines.lrr.iterations", "count", "lower"),
    ("baselines.lrr.ms_per_iter", "ms", "lower"),
    ("baselines.ssc_admm.s", "s", "lower"),
    ("baselines.ssc_admm.iterations", "count", "lower"),
    ("baselines.ssc_admm.capped", "count", "lower"),
    ("baselines.kmeans.calls", "count", "lower"),
    ("baselines.kmeans.s", "s", "lower"),
    ("baselines.spectral_cluster.calls", "count", "lower"),
    ("baselines.spectral_cluster.s", "s", "lower"),
    ("numkernel.svd.calls", "count", "lower"),
    ("numkernel.svd.calls_in_lrr", "count", "lower"),
    ("numkernel.svd.s", "s", "lower"),
    ("numkernel.sym_eig.calls", "count", "lower"),
    ("numkernel.sym_eig.s", "s", "lower"),
    ("scene_synth.make_scene.s", "s", "lower"),
    ("scene_synth.regenerated", "count", "lower"),
    ("scene_io.save_scene.s", "s", "lower"),
    ("scene_io.save_scene.mb_per_s", "MB/s", "higher"),
    ("scene_io.load_scene.s", "s", "lower"),
    ("scene_io.load_scene.mb_per_s", "MB/s", "higher"),
    ("feasibility.sweep.s", "s", "lower"),
    ("feasibility.sweep.self_s", "s", "lower"),
    ("feasibility.cells", "count", "lower"),
    ("feasibility.apply_corruption.calls", "count", "lower"),
    ("feasibility.apply_corruption.s", "s", "lower"),
    ("feasibility.rows_used_ratio", "ratio", "higher"),
    ("metrics.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Span:
    """Totals of one wrapped function."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)
    within: dict = field(default_factory=dict)  # enclosing span name -> calls


class Tracer:
    """Installs timing wrappers; use as a context manager to restore them."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._restore: list[tuple] = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, module, attr, name, on_return=None):
        """Time ``module.attr`` under ``name``.

        ``on_return(tracer, arguments, result)`` receives the call's bound
        arguments (defaults applied) and its result.
        """
        orig = getattr(module, attr)
        span = self.spans.setdefault(name, Span())
        signature = inspect.signature(orig) if on_return else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for enclosing in {frame[0] for frame in self._stack}:
                span.within[enclosing] = span.within.get(enclosing, 0) + 1
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
                span.durations.append(elapsed)
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()
        return False


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _on_optimize(tracer, args, result):
    trace = result[1]
    tracer.count("optimizer.steps_run", trace.steps_run)
    tracer.count("optimizer.converged_restarts", int(trace.converged))


def _on_greedy(tracer, args, result):
    tracer.count("optimizer.greedy_reassign.moved",
                 int(np.sum(np.asarray(args["labels"]) != result)))


def _on_merge(tracer, args, result):
    tracer.count("optimizer.merge_segments.merges",
                 np.unique(args["labels"]).size - np.unique(result).size)


def _on_lrr(tracer, args, result):
    tracer.count("baselines.lrr.iterations", result.iterations)


def _on_ssc(tracer, args, result):
    tracer.count("baselines.ssc_admm.iterations", result.iterations)
    tracer.count("baselines.ssc_admm.capped", int(result.iterations >= args["max_iter"]))


def _on_make_scene(tracer, args, result):
    tracer.count("scene_synth.regenerated", result.metadata["regenerated"])


def _on_save(tracer, args, result):
    tracer.count("scene_io.save_scene.bytes", _dir_bytes(args["out_dir"]))


def _on_load(tracer, args, result):
    tracer.count("scene_io.load_scene.bytes", _dir_bytes(args["scene_dir"]))


def _on_sweep(tracer, args, result):
    tracer.count("feasibility.cells", len(result.rows))


def _on_point_assignment(tracer, args, result):
    tracer.count("feasibility.rows_read", result.weights.shape[0])
    tracer.count("feasibility.rows_built", args["soft_masks"].weights.shape[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of trajseg."""
    from trajseg import baselines, cli, feasibility, losses, metrics, numkernel, optimizer

    tracer.wrap(losses, "trajectory_tail_value_and_grad", "losses.tail_vg")
    tracer.wrap(losses, "trajectory_tail_loss", "losses.tail_loss")
    tracer.wrap(cli, "segment_tracks", "optimizer.segment_tracks")
    tracer.wrap(optimizer, "optimize_sequence", "optimizer.optimize_sequence", _on_optimize)
    tracer.wrap(optimizer, "greedy_reassign", "optimizer.greedy_reassign", _on_greedy)
    tracer.wrap(optimizer, "merge_segments", "optimizer.merge_segments", _on_merge)
    tracer.wrap(optimizer, "hard_loss", "optimizer.hard_loss")
    tracer.wrap(baselines, "lrr", "baselines.lrr", _on_lrr)
    tracer.wrap(baselines, "ssc_admm", "baselines.ssc_admm", _on_ssc)
    tracer.wrap(baselines, "kmeans", "baselines.kmeans")
    tracer.wrap(baselines, "spectral_cluster", "baselines.spectral_cluster")
    tracer.wrap(numkernel, "svd", "numkernel.svd")
    tracer.wrap(numkernel, "sym_eig", "numkernel.sym_eig")
    tracer.wrap(cli, "make_scene", "scene_synth.make_scene", _on_make_scene)
    tracer.wrap(cli, "save_scene", "scene_io.save_scene", _on_save)
    tracer.wrap(cli, "load_scene", "scene_io.load_scene", _on_load)
    tracer.wrap(feasibility, "sweep", "feasibility.sweep", _on_sweep)
    tracer.wrap(feasibility, "apply_corruption", "feasibility.apply_corruption")
    tracer.wrap(feasibility, "point_assignment", "feasibility.point_assignment",
                _on_point_assignment)
    for name in ("ari", "fg_ari", "metric_report"):
        tracer.wrap(metrics, name, f"metrics.{name}")


def _rate(megabytes, seconds):
    return megabytes / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Values of every PER_LAYER metric (0 where the layer did not run)."""
    spans, counts = tracer.spans, tracer.counts
    values = {}
    for name, span in spans.items():
        values[f"{name}.calls"] = span.calls
        values[f"{name}.s"] = span.total
        values[f"{name}.self_s"] = span.self_time
    tail = spans["losses.tail_vg"].durations
    values["losses.tail_vg.ms_p50"] = float(np.percentile(tail, 50)) * 1e3 if tail else 0.0
    values["losses.tail_vg.ms_p99"] = float(np.percentile(tail, 99)) * 1e3 if tail else 0.0
    values.update(counts)
    iterations = counts.get("baselines.lrr.iterations", 0)
    values["baselines.lrr.ms_per_iter"] = (
        spans["baselines.lrr"].total / iterations * 1e3 if iterations else 0.0
    )
    values["numkernel.svd.calls_in_lrr"] = spans["numkernel.svd"].within.get("baselines.lrr", 0)
    for layer in ("save_scene", "load_scene"):
        values[f"scene_io.{layer}.mb_per_s"] = _rate(
            counts.get(f"scene_io.{layer}.bytes", 0) / 1e6, spans[f"scene_io.{layer}"].total
        )
    built = counts.get("feasibility.rows_built", 0)
    values["feasibility.rows_used_ratio"] = (
        counts.get("feasibility.rows_read", 0) / built if built else 0.0
    )
    values["metrics.s"] = sum(s.self_time for n, s in spans.items() if n.startswith("metrics."))
    values["trace.overhead_s"] = overhead_s
    return {name: float(values.get(name, 0)) for name, _, _ in PER_LAYER}


def cross_checks(tracer: Tracer) -> list[str]:
    """Totals that two independent paths must reach exactly."""
    spans, counts = tracer.spans, tracer.counts
    problems = []
    steps = counts.get("optimizer.steps_run", 0)
    if spans["optimizer.optimize_sequence"].calls and spans["losses.tail_vg"].calls != steps:
        problems.append(f"losses.tail_vg.calls {spans['losses.tail_vg'].calls} != "
                        f"sum of OptimTrace.steps_run {steps}")
    in_lrr = spans["numkernel.svd"].within.get("baselines.lrr", 0)
    iterations = counts.get("baselines.lrr.iterations", 0)
    if in_lrr != iterations:
        problems.append(f"numkernel.svd calls inside lrr {in_lrr} != lrr iterations {iterations}")
    return problems
