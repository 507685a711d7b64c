"""Command-line interface: synth, segment, sweep, gradcheck.

Every command is a pure function of (config file, input files, --seed):
rerunning with identical inputs produces byte-identical outputs.  File
writes go through a temp-file rename so interrupted runs never leave
truncated tables.  Exit codes: 0 success, 1 assertion failure, 2 I/O
error, 3 any other detected error: a bad config (``ConfigError``) and every
``TrajsegError`` but a diverged solver, which includes a malformed scene
directory (``InvalidInputError``); 4 a diverged solver
(``DivergenceError``), reported with the last residual it recorded, if
any.  The ``run.json`` of an ssc or lrr run records the solver's
``iterations``, ``primal_residual`` and whether it ``converged`` or
stopped at its iteration cap; that of an lrtl run records, per restart,
the ``soft_steps`` of its gradient phase and its ``soft_stop``:
``"labels"`` when the labels held, ``"cap"`` at ``steps``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import baselines, feasibility, losses, metrics
from .errors import DivergenceError, TrajsegError
from .optimizer import LOSS_KINDS, OptimConfig, segment_tracks
from .scene_io import atomic_write_text, load_scene, load_tracks, save_scene
from .scene_synth import MODES, SceneConfig, make_scene, window

__all__ = ["main"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4


class ConfigError(Exception):
    pass


def _load_config(path, defaults, allowed=None):
    """Config from JSON over ``defaults``; keys outside ``allowed`` (by
    default the keys of ``defaults``) are rejected.  Every value read is
    checked, and every value returned converted, by its ``VALUE_TYPES``
    entry."""
    allowed = defaults if allowed is None else allowed
    if path is None:
        data = {}
    else:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r}")
        check, expected, _ = VALUE_TYPES[key]
        if not check(value):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
    merged = dict(defaults, **data)
    return {key: VALUE_TYPES[key][2](value) for key, value in merged.items()}


def _is_real(value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_int(value):
    return _is_real(value) and float(value).is_integer()


def _list_of(check, size=None):
    def check_list(value):
        return (
            isinstance(value, list)
            and (size is None or len(value) == size)
            and all(check(v) for v in value)
        )

    return check_list


def _same(value):
    return value


def _one_of(names):
    return (lambda v: isinstance(v, str) and v in names, f"one of {list(names)}", _same)


# (check, expected, conversion): integers become ints, integer pairs tuples;
# reals, names and booleans pass through, so outputs echo them as written
_INT = (_is_int, "an integer", int)
_REAL = (_is_real, "a finite number", _same)
_INT_OR_NULL = (lambda v: v is None or _is_int(v), "an integer or null",
                lambda v: None if v is None else int(v))
_REAL_OR_NULL = (lambda v: v is None or _is_real(v), "a finite number or null", _same)
_INT_PAIR = (_list_of(_is_int, 2), "a list of two integers", lambda v: tuple(map(int, v)))
_INTS = (_list_of(_is_int), "a list of integers", lambda v: [int(x) for x in v])
_REALS = (_list_of(_is_real), "a list of finite numbers", _same)

# every config key of every command, checked and converted before any
# command uses it
VALUE_TYPES = {
    "mode": _one_of(MODES),
    "num_objects": _INT,
    "frames": _INT,
    "grid": _INT_PAIR,
    "points_per_object": _INT,
    "noise_sigma": _REAL,
    "camera_motion": _REAL,
    "depth_motion": _REAL,
    "stride": _INT_OR_NULL,
    "bg_balance": _REAL_OR_NULL,
    "steps": _INT,
    "restarts": _INT,
    "over_segments": _INT,
    "target_segments": (
        lambda v: v in (None, "auto") or _is_int(v),
        'an integer, "auto" or null',
        lambda v: None if v in (None, "auto") else int(v),
    ),
    "r": _INT,
    "step_size": _REAL,
    "loss": _one_of(LOSS_KINDS),
    "k_range": _INT_PAIR,
    "alpha": _REAL,
    "lam": _REAL,
    "rho": _REAL,
    "max_iter": _INT,
    "window_center": _INT_OR_NULL,
    "window_half_width": _INT_OR_NULL,
    "etas": _REALS,
    "ss": _INTS,
    "taus": _REALS,
    "trials": _INT,
    "instances": _INT,
    "tracks": _INT,
    "segments": _INT,
    "step": _REAL,
    "export_coefficients": (lambda v: isinstance(v, bool), "true or false", _same),
    "assertions": (
        _list_of(lambda v: v in feasibility.ASSERTIONS),
        f"a list of names from {list(feasibility.ASSERTIONS)}",
        _same,
    ),
}

SYNTH_KEYS = {f.name for f in fields(SceneConfig)} - {"motion_seed"}


def cmd_synth(args) -> int:
    config = _load_config(args.config, {}, SYNTH_KEYS)
    cfg = SceneConfig(motion_seed=args.seed, **config)
    scene = make_scene(cfg)
    save_scene(scene, args.out)
    summary = (
        f"synth mode={cfg.mode} T={cfg.frames} N={scene.tracks.n_tracks} "
        f"K_gt={cfg.num_objects} grid={cfg.grid[0]}x{cfg.grid[1]}"
    )
    if cfg.mode == "rigid3d_affine" and cfg.noise_sigma == 0:
        worst = 0.0
        for label in range(1, cfg.num_objects + 1):
            cols = scene.labels == label
            if cols.sum() >= 5:
                sigma = np.linalg.svd(scene.tracks.positions[:, cols], compute_uv=False)
                worst = max(worst, sigma[4] / sigma[0])
        summary += f" rank_ok={'yes' if worst < 1e-8 else 'NO'} (max s5/s1={worst:.2e})"
    print(summary + f" -> {args.out}")
    return EXIT_OK


def _center_visible(tracks):
    return np.flatnonzero(tracks.visible_at(tracks.frames // 2))


def _segment_lrtl(tracks, config, seed):
    cfg = OptimConfig(k=config["over_segments"], steps=config["steps"], r=config["r"],
                      step_size=config["step_size"], seed=seed, loss_kind=config["loss"])
    labels, info = segment_tracks(tracks, cfg, restarts=config["restarts"],
                                  target_segments=config["target_segments"])
    return labels, {key: info[key] for key in
                    ("final_loss", "restart_losses", "soft_steps", "soft_stop")}


def _segment_baseline(tracks, truth, method, config, seed):
    """Baseline labels, run record and ``coefficients.csv`` text (None
    unless exported).  With the truth, every k of ``k_range`` that fits is
    clustered and the best by ARI kept; without it, only the smallest."""
    lo, hi = config["k_range"]
    ks = list(range(lo, hi + 1))
    fits = [k for k in ks if k <= tracks.shape[1]]
    if not fits:
        raise ConfigError(f"no k in {ks} fits the {tracks.shape[1]} usable tracks")
    if truth is None:
        fits = fits[:1]
    solver = {}
    coefficients = None
    if method == "kmeans":
        frames = tracks.shape[0] // 2
        data = (tracks - np.tile(tracks[0:2], (frames, 1))).T
        candidates = {k: baselines.kmeans(data, k, seed=seed) for k in fits}
    else:
        if method == "ssc":
            coeff = baselines.ssc_admm(tracks, alpha=config["alpha"])
        else:
            coeff = baselines.lrr(
                tracks, lam=config["lam"], rho=config["rho"], max_iter=config["max_iter"]
            )
        if config["export_coefficients"]:
            coefficients = "\n".join(
                ",".join(f"{v:.9g}" for v in row) for row in coeff.c
            ) + "\n"
        aff = baselines.affinity(coeff)
        candidates = {k: baselines.spectral_cluster(aff, k, seed=seed) for k in fits}
        solver = {"iterations": coeff.iterations, "primal_residual": coeff.primal_residual,
                  "converged": coeff.converged}
    if truth is None:
        best_k = fits[0]
    else:
        best_k = max(candidates, key=lambda k: (metrics.ari(candidates[k], truth), -k))
    run_info = dict(solver, k_selected=best_k, oracle=truth is not None)
    return candidates[best_k], run_info, coefficients


SEGMENT_DEFAULTS = {
    "steps": 1200,
    "restarts": 3,
    "over_segments": 10,
    "target_segments": "auto",
    "r": losses.DEFAULT_RANK,
    "step_size": 0.05,
    "loss": "tail",
    "k_range": [2, 8],
    "alpha": 100.0,
    "lam": 0.2,
    "rho": 1.01,
    "max_iter": 10_000,
    "export_coefficients": False,
    "window_center": None,
    "window_half_width": None,
}


def _one_key_per_line(record) -> str:
    """``record`` as a JSON object with one key per line, in sorted order,
    and each value on its key's line: the per-restart lists of an lrtl run
    take a line each, not a line per restart."""
    lines = (f"  {json.dumps(key)}: {json.dumps(record[key])}" for key in sorted(record))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def cmd_segment(args) -> int:
    config = _load_config(args.config, SEGMENT_DEFAULTS)
    scene_tracks = load_tracks(args.scene)
    if config["window_center"] is not None:
        half = 5 if config["window_half_width"] is None else config["window_half_width"]
        win = window(scene_tracks, config["window_center"], half)
        keep = np.flatnonzero(win.visible[half])
        tracks = win.positions[:, keep]
    else:
        keep = _center_visible(scene_tracks)
        tracks = scene_tracks.positions[:, keep]
    truth = scene_tracks.labels[keep] if scene_tracks.labels is not None else None
    coefficients = None
    if args.method == "lrtl":
        labels, run_info = _segment_lrtl(tracks, config, args.seed)
    else:
        labels, run_info, coefficients = _segment_baseline(
            tracks, truth, args.method, config, args.seed
        )
    # the directory appears only once the run has succeeded
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if coefficients is not None:
        atomic_write_text(out / "coefficients.csv", coefficients)
    full = np.full(scene_tracks.n_tracks, -1, dtype=int)
    full[keep] = labels
    lines = ["track_id,label"] + [f"{n},{full[n]}" for n in range(full.size)]
    atomic_write_text(out / "labels.csv", "\n".join(lines) + "\n")

    report = {"ari": None, "fg_ari": None, "jaccard": None,
              "k_pred": int(np.unique(labels).size), "k_true": None}
    if truth is not None:
        report = metrics.metric_report(labels, truth)
    if args.format == "json":
        atomic_write_text(
            out / "metrics.json", json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
    else:
        keys = sorted(report)
        csv_text = ",".join(keys) + "\n" + ",".join(
            "" if report[k] is None else f"{report[k]}" for k in keys
        ) + "\n"
        atomic_write_text(out / "metrics.csv", csv_text)
    run_info.update({"method": args.method, "n_tracks": int(scene_tracks.n_tracks),
                     "n_used": int(keep.size), "seed": args.seed})
    atomic_write_text(out / "run.json", _one_key_per_line(run_info))
    ari_text = "n/a" if report["ari"] is None else f"{report['ari']:.4f}"
    print(f"segment method={args.method} n={keep.size} ari={ari_text} -> {args.out}")
    return EXIT_OK


# the grid, trials, loss and rank default to ``feasibility.sweep``'s
SWEEP_KEYS = {"etas", "ss", "taus", "trials", "loss", "r", "assertions"}


def cmd_sweep(args) -> int:
    config = _load_config(args.config, {"assertions": feasibility.ASSERTIONS}, SWEEP_KEYS)
    assertions = config.pop("assertions")
    # every assertion but under_over_asymmetry reads the uncorrupted cells
    needs_truth = sorted(set(assertions) - {"under_over_asymmetry"})
    if needs_truth and 0 not in config.get("ss", [0]):
        raise ConfigError(f"assertion {needs_truth[0]!r} needs s = 0 in the ss axis")
    scene = load_scene(args.scene)
    result = feasibility.sweep(scene, seed=args.seed, **config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "sweep.csv", result.to_csv_text())
    # reference the scene by content so reruns into fresh directories stay
    # byte-identical
    meta = {
        "scene_manifest": {
            "config": scene.config.to_json(),
            "seed": scene.config.motion_seed,
            "n_tracks": scene.tracks.n_tracks,
        },
        "seed": args.seed,
        "trials": result.trials,
        "loss": result.loss,
        "grid": {"etas": result.etas, "ss": result.ss, "taus": result.taus},
    }
    atomic_write_text(out / "sweep_meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
    failures = []
    for name, ok, detail in feasibility.check_assertions(result, assertions):
        print(f"sweep assertion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures.append(name)
    print(f"sweep cells={len(result.rows)} -> {args.out}")
    return EXIT_ASSERTION if failures else EXIT_OK


def _fd_gradient(fun, x, step):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (fun(xp) - fun(xm)) / (2 * step)
        it.iternext()
    return grad


GRADCHECK_DEFAULTS = {
    "instances": 10,
    "frames": 6,
    "tracks": 25,
    "segments": 3,
    "grid": [12, 12],
    "step": 1e-5,
}


def cmd_gradcheck(args) -> int:
    config = _load_config(args.config, GRADCHECK_DEFAULTS)
    frames = config["frames"]
    n = config["tracks"]
    k = config["segments"]
    h, w = config["grid"]
    step = config["step"]
    for name, size in (("frames", frames), ("tracks", n), ("segments", k),
                       ("grid height", h), ("grid width", w)):
        if size < 1:
            raise ConfigError(f"gradcheck {name} must be at least 1, got {size}")
    if step <= 0:
        raise ConfigError(f"gradcheck step must be positive, got {step}")
    report = {}
    for name in ("tail", "flow"):
        max_err = 0.0
        skipped = 0
        checked = 0
        for i in range(-1 if name == "tail" else 0, config["instances"]):
            rng = np.random.default_rng([args.seed, 0 if name == "tail" else 1, i + 1])
            if name == "tail":
                if i < 0:
                    # deliberately degenerate probe: equal singular values
                    # exercise the documented skipped-with-warning path
                    tracks = np.zeros((2 * frames, n))
                    np.fill_diagonal(tracks, 1.0)
                else:
                    tracks = rng.standard_normal((2 * frames, n))
                logits = rng.standard_normal((n, k)) * 0.5
                weights = losses.softmax(logits)
                sigma = np.linalg.svd(losses._masked_stack(weights, tracks), compute_uv=False)
                gaps = np.diff(sigma[:, : losses.DEFAULT_RANK + 1], axis=1)
                if np.any(np.abs(gaps) < 1e-3 * np.maximum(sigma[:, :1], 1e-30)):
                    skipped += 1
                    print(f"gradcheck tail instance {i}: skipped (near-equal singular values)")
                    continue
                analytic = losses.trajectory_tail_grad(logits, tracks, losses.DEFAULT_RANK)
                fd = _fd_gradient(
                    lambda x: losses.trajectory_tail_loss(
                        losses.SoftAssignment.from_logits(x), tracks, losses.DEFAULT_RANK
                    ),
                    logits,
                    step,
                )
            else:
                basis = losses.quad_embed(h, w)
                flow = basis @ (rng.standard_normal((6, 2)) * 0.05)
                flow = flow + rng.standard_normal(flow.shape) * 0.01
                logits = rng.standard_normal((h * w, k)) * 0.5
                analytic = losses.flow_loss_grad(logits, flow, (h, w))
                fd = _fd_gradient(
                    lambda x: losses.flow_loss(
                        losses.SoftAssignment.from_logits(x, "pixel", (h, w)), flow
                    )[0],
                    logits,
                    step,
                )
            err = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
            max_err = max(max_err, err)
            checked += 1
        report[name] = {"max_rel_err": max_err, "checked": checked, "skipped": skipped}
        print(f"gradcheck {name}: max rel err {max_err:.3e} over {checked} instances"
              f" ({skipped} skipped)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "gradcheck.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    ok = all(v["max_rel_err"] < 1e-4 for v in report.values())
    return EXIT_OK if ok else EXIT_ASSERTION


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trajseg",
        description="Low-rank trajectory grouping: synthetic scenes, per-sequence "
        "segmentation, baselines, loss-landscape sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic scene directory")
    synth.add_argument("--config", help="scene config JSON")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(handler=cmd_synth)

    seg = sub.add_parser("segment", help="cluster a scene's trajectories")
    seg.add_argument("--scene", required=True, help="scene directory from synth")
    seg.add_argument("--method", required=True, choices=["lrtl", "kmeans", "ssc", "lrr"])
    seg.add_argument("--config", help="method parameters JSON")
    seg.add_argument("--out", required=True)
    seg.add_argument("--seed", type=int, default=0)
    seg.add_argument("--format", choices=["json", "csv"], default="json")
    seg.set_defaults(handler=cmd_segment)

    swp = sub.add_parser("sweep", help="corruption sweep of the loss landscape")
    swp.add_argument("--scene", required=True)
    swp.add_argument("--config", help="sweep grid JSON")
    swp.add_argument("--out", required=True)
    swp.add_argument("--seed", type=int, default=0)
    swp.set_defaults(handler=cmd_sweep)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    grad.add_argument("--config", help="instance sizes JSON")
    grad.add_argument("--out", required=True)
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(handler=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        residuals = exc.diagnostics.get("residuals")
        last = f"; last residual {residuals[-1]:.6g}" if residuals else ""
        print(f"solver diverged: {exc}{last}", file=sys.stderr)
        return EXIT_SOLVER
    except TrajsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
