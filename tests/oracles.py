"""Independent reference implementations used only to check the package.

Nothing in here may call into trajseg numerics: these are the slow,
obviously-correct routes (Jacobi rotations, plain gradient descent,
central differences, direct pair counting).
"""

import math

import numpy as np


def jacobi_eigenvalues(s, sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations."""
    a = np.array(s, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < tol * max(1.0, abs(a[p, p]) + abs(a[q, q])):
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, t = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = t
                rot[q, p] = -t
                a = rot.T @ a @ rot
        if off < tol:
            break
    return np.sort(np.diag(a))


def singular_values_via_jacobi(a):
    """Singular values of ``a`` as square roots of eigenvalues of a.T a."""
    evals = jacobi_eigenvalues(np.asarray(a, float).T @ np.asarray(a, float))
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def gradient_descent_lstsq_residual(e, f, steps=100_000):
    """Residual of min ||e theta - f||_F found by plain gradient descent."""
    e = np.asarray(e, float)
    f = np.asarray(f, float)
    theta = np.zeros((e.shape[1], f.shape[1]))
    lip = np.linalg.norm(e.T @ e, 2)
    step = 1.0 / max(lip, 1e-12)
    for _ in range(steps):
        theta -= step * (e.T @ (e @ theta - f))
    return float(np.linalg.norm(e @ theta - f))


def central_difference_grad(fun, x, step=1e-5):
    """Dense central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (fun(xp) - fun(xm)) / (2.0 * step)
        it.iternext()
    return g


def pair_counting_ari(pred, truth):
    """Adjusted Rand index by direct enumeration of all element pairs."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            if same_p and same_t:
                ss += 1
            elif same_p and not same_t:
                sd += 1
            elif not same_p and same_t:
                ds += 1
            else:
                dd += 1
    index = ss
    expected = (ss + sd) * (ss + ds) / (n * (n - 1) / 2.0)
    maximum = 0.5 * ((ss + sd) + (ss + ds))
    denom = maximum - expected
    if denom == 0.0:
        return 0.0
    return (index - expected) / denom


def random_orthonormal(rng, m, q):
    """Deterministic random matrix with orthonormal columns."""
    a = rng.standard_normal((m, q))
    qmat, rmat = np.linalg.qr(a)
    return qmat * np.sign(np.diag(rmat))


def matrix_with_spectrum(rng, m, n, sigma):
    """Build a matrix with the prescribed singular values."""
    q = min(m, n)
    sigma = np.asarray(sigma, float)
    assert sigma.size == q
    u = random_orthonormal(rng, m, q)
    v = random_orthonormal(rng, n, q)
    return (u * sigma) @ v.T


def svd_tail_sum(a, r):
    """Sum of the singular values of ``a`` from the r-th on (1-based)."""
    return float(np.linalg.svd(np.asarray(a, float), compute_uv=False)[r - 1 :].sum())


def svd_truncate(a, r):
    """Best rank-r approximation of ``a`` from its full SVD."""
    u, sigma, vt = np.linalg.svd(np.asarray(a, float), full_matrices=False)
    return (u[:, :r] * sigma[:r]) @ vt[:r]


def direct_svt(a, thr):
    """Singular-value thresholding through the compact SVD of ``a`` itself:
    every singular value shrunk by ``thr`` and those not above it dropped."""
    u, sigma, vt = np.linalg.svd(np.asarray(a, float), full_matrices=False)
    keep = sigma > thr
    if not np.any(keep):
        return np.zeros_like(a)
    return (u[:, keep] * (sigma[keep] - thr)) @ vt[keep]


def svd_tail_value_and_grad(logits, tracks, r):
    """Tail loss sum_{i>=r} sigma_i over softmax-masked groups and its
    gradient w.r.t. the logits, from a full batched SVD.

    d(sum of tail sigmas)/dP_k is the sum of tail outer products
    u_i v_i^T; columns of an all-zero segment get zero (a valid
    subgradient).
    """
    weights = _softmax(logits)
    tracks = np.asarray(tracks, float)
    stack = tracks[None, :, :] * weights.T[:, None, :]
    u, sigma, vt = np.linalg.svd(stack, full_matrices=False)
    value = float(sigma[:, r - 1 :].sum())
    tail = np.einsum("kmi,kin->kmn", u[:, :, r - 1 :], vt[:, r - 1 :, :])
    tail[sigma[:, 0] == 0.0] = 0.0
    grad_weights = np.einsum("kmn,mn->nk", tail, tracks)
    return value, _chain_softmax(weights, grad_weights)


def per_group_residual_value_and_grad(logits, tracks, r, lift=False):
    """Squared residual of each softmax-masked group against its truncated
    SVD, summed over groups one at a time, and its gradient w.r.t. the
    logits.

    With ``lift`` every frame's (x, y) rows get a masked all-ones row, as in
    the projective loss.  The rank is capped at the group's number of
    singular values.  The truncation is the inner minimiser, so the weight
    gradient is 2 resid . d(masked matrix)/dw, column by column.
    """
    weights = _softmax(logits)
    tracks = np.asarray(tracks, float)
    value = 0.0
    grad_weights = np.zeros_like(weights)
    for k in range(weights.shape[1]):
        w = weights[:, k]
        if lift:
            matrix = np.empty((3 * (tracks.shape[0] // 2), tracks.shape[1]))
            matrix[0::3] = tracks[0::2] * w
            matrix[1::3] = tracks[1::2] * w
            matrix[2::3] = w
        else:
            matrix = tracks * w
        u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
        q = min(r, sigma.size)
        resid = matrix - (u[:, :q] * sigma[:q]) @ vt[:q]
        value += float((resid**2).sum())
        if lift:
            grad_weights[:, k] = 2.0 * (
                (resid[0::3] * tracks[0::2]).sum(axis=0)
                + (resid[1::3] * tracks[1::2]).sum(axis=0)
                + resid[2::3].sum(axis=0)
            )
        else:
            grad_weights[:, k] = 2.0 * (resid * tracks).sum(axis=0)
    return value, _chain_softmax(weights, grad_weights)


def per_pair_fit_value_and_grad(logits, points, targets):
    """Masked quadratic motion fits, one field and one segment at a time.

    points : (P, N, 2) positions at which the basis [x, x^2, y, y^2, xy, 1]
        of each field is evaluated
    targets : (P, N, c) field values

    Segment k of field p fits diag(w_k) basis_p to diag(w_k) targets_p by
    ridge-regularised normal equations (ridge 1e-8 trace / 6, the zero
    solution for a zero design), then solves once more for the residual.
    Returns every field's and segment's squared residual, (P, K), and the
    gradient of their sum w.r.t. the logits; the fit is the inner
    minimiser, so the weight gradient is 2 w_nk |d_n|^2 summed over fields.
    """
    weights = _softmax(logits)
    points = np.asarray(points, float)
    targets = np.asarray(targets, float)
    parts = np.zeros((points.shape[0], weights.shape[1]))
    grad_weights = np.zeros_like(weights)
    for t in range(points.shape[0]):
        x, y = points[t, :, 0], points[t, :, 1]
        basis = np.column_stack([x, x * x, y, y * y, x * y, np.ones_like(x)])
        for k in range(weights.shape[1]):
            w = weights[:, k : k + 1]
            ek = w * basis
            fk = w * targets[t]
            theta = _ridge_solve(ek, fk)
            theta = theta + _ridge_solve(ek, fk - ek @ theta)
            d = targets[t] - basis @ theta
            parts[t, k] = float(((w * d) ** 2).sum())
            grad_weights[:, k] += 2.0 * w[:, 0] * (d * d).sum(axis=1)
    return parts, _chain_softmax(weights, grad_weights)


def _ridge_solve(e, f):
    gram = e.T @ e
    trace = float(np.trace(gram))
    if trace == 0.0:
        return np.zeros((e.shape[1], f.shape[1]))
    ridge = 1e-8 * trace / e.shape[1]
    return np.linalg.solve(gram + ridge * np.eye(e.shape[1]), e.T @ f)


def _softmax(logits):
    logits = np.asarray(logits, float)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _chain_softmax(weights, grad_weights):
    inner = (weights * grad_weights).sum(axis=1, keepdims=True)
    return weights * (grad_weights - inner)


def full_space_lrr(data, lam=0.2, rho=1.01, max_iter=10_000, tol=1e-7, mu0=1e-6,
                   mu_max=1e10):
    """Low-rank self-expression by the inexact augmented Lagrangian on N x N
    iterates, singular-value thresholding by a full SVD of each.

    Returns (C, E, iterations, final constraint residual); raises
    RuntimeError where the package raises DivergenceError.
    """
    data = np.asarray(data, float)
    n = data.shape[1]
    gram = data.T @ data
    inv_lhs = np.linalg.inv(gram + np.eye(n))
    c = np.zeros((n, n))
    err = np.zeros_like(data)
    y1 = np.zeros_like(data)
    y2 = np.zeros((n, n))
    mu = mu0
    prev_primal = np.inf
    growth_streak = 0
    iterations = max_iter
    primal = np.inf
    for it in range(max_iter):
        u, sigma, vt = np.linalg.svd(c + y2 / mu, full_matrices=False)
        keep = sigma > 1.0 / mu
        aux = (u[:, keep] * (sigma[keep] - 1.0 / mu)) @ vt[keep]
        c = inv_lhs @ (gram - data.T @ err + aux + (data.T @ y1 - y2) / mu)
        resid = data - data @ c
        shrunk = resid + y1 / mu
        norms = np.linalg.norm(shrunk, axis=0)
        err = shrunk * (np.maximum(norms - lam / mu, 0.0) / np.maximum(norms, 1e-300))
        gap_data = resid - err
        gap_aux = c - aux
        primal = float(max(np.abs(gap_data).max(), np.abs(gap_aux).max()))
        if primal < tol:
            iterations = it + 1
            break
        if primal > prev_primal:
            growth_streak += 1
            if growth_streak > 500:
                raise RuntimeError("constraint residual grew for over 500 iterations")
        else:
            growth_streak = 0
        prev_primal = primal
        y1 = y1 + mu * gap_data
        y2 = y2 + mu * gap_aux
        mu = min(mu_max, mu * rho)
    return c, err, iterations, primal


def rescoring_greedy_reassign(tracks, labels, group_score, candidates, sweeps):
    """Single-track greedy moves that score every segment afresh at the
    start of each sweep and every track at every sweep.

    ``group_score`` maps a track matrix to its loss, so that the loop takes
    the package's hard score without calling it itself; ``candidates``
    (or None for every segment) and ``sweeps`` are as in the package.
    """
    tracks = np.asarray(tracks, dtype=float)
    labels = np.asarray(labels).copy()
    for _ in range(sweeps):
        ids = list(np.unique(labels))
        score = {i: group_score(tracks[:, labels == i]) for i in ids}
        changed = 0
        for n in range(tracks.shape[1]):
            cur = labels[n]
            pool = [c for c in (candidates[n] if candidates is not None else ids)
                    if c != cur and c in score]
            if not pool:
                continue
            src = labels == cur
            src[n] = False
            src_score = group_score(tracks[:, src])
            best_delta, best_seg = -1e-12, cur
            for cand in pool:
                dst = labels == cand
                dst[n] = True
                delta = src_score + group_score(tracks[:, dst]) - score[cur] - score[cand]
                if delta < best_delta:
                    best_delta, best_seg = delta, cand
            if best_seg != cur:
                labels[n] = best_seg
                changed += 1
                score[cur] = group_score(tracks[:, labels == cur])
                score[best_seg] = group_score(tracks[:, labels == best_seg])
        if changed == 0:
            break
    return labels


def temperature_weights(mask, tau, num_classes, scale):
    """One softmax row per pixel of the logits ``scale`` on the pixel's label,
    divided by ``tau``."""
    mask = np.asarray(mask)
    k = int(mask.max()) + 1 if num_classes is None else int(num_classes)
    logits = np.zeros((mask.size, k))
    logits[np.arange(mask.size), mask.ravel()] = scale
    return _softmax(logits / tau)


# The full-frame mask corruption that a sweep trial reads at the tracks'
# pixels: structure, then noise, then temperature, every pixel of the grid.
def corrupt_noise(masks, eta, seed=0, num_classes=None):
    """Resample each pixel uniformly from {0..K-1} with probability eta."""
    masks = np.array(masks, dtype=np.int64)
    if eta == 0.0:
        return masks
    k = int(masks.max()) + 1 if num_classes is None else int(num_classes)
    rng = np.random.default_rng(seed)
    flip = rng.random(masks.shape) < eta
    draws = rng.integers(0, k, masks.shape)
    masks[flip] = draws[flip]
    return masks


def corrupt_structural(masks, s, seed=0):
    """Merge |s| objects into the background (s < 0) or split |s| objects
    (s > 0) along a random x- or y-parallel axis through the object's
    per-frame centroid, redrawing an axis that leaves one side empty up to
    8 times."""
    masks = np.array(masks, dtype=np.int64)
    objects = sorted(set(np.unique(masks)) - {0})
    if abs(int(s)) > len(objects):
        raise ValueError(f"|s|={abs(int(s))} exceeds the {len(objects)} available objects")
    if s == 0 or not objects:
        return masks
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(objects), size=abs(int(s)), replace=False)
    chosen = [objects[i] for i in chosen]
    if s < 0:
        for label in chosen:
            masks[masks == label] = 0
        return masks
    next_label = int(masks.max()) + 1
    for label in chosen:
        for _ in range(8):
            axis = int(rng.integers(2))  # 0: split on y, 1: split on x
            sel = masks == label
            if not sel.any():
                break
            ts, ys, xs = np.nonzero(sel)
            coord = xs if axis == 1 else ys
            split_side = np.zeros(coord.shape, dtype=bool)
            for t in np.unique(ts):
                on_t = ts == t
                center = coord[on_t].mean()
                split_side[on_t] = coord[on_t] >= center
            if split_side.all() or not split_side.any():
                continue
            masks[ts[split_side], ys[split_side], xs[split_side]] = next_label
            next_label += 1
            break
    return masks


def apply_corruption(masks, spec, num_classes, scale):
    """Pixel weights of the first frame of ``masks`` under one corruption
    spec (``eta``, ``s``, ``tau``, ``seed``): every pixel's softmax row."""
    rng = np.random.default_rng(spec.seed)
    grids = corrupt_structural(masks, spec.s, seed=rng)
    grids = corrupt_noise(grids, spec.eta, seed=rng, num_classes=num_classes)
    return temperature_weights(grids[0], spec.tau, num_classes, scale)


def rasterize_convex(verts, h, w):
    """Pixel centers of an (h, w) grid inside a convex CCW polygon, every
    pixel tested: the largest signed distance to an edge's line, with
    outward unit normals, is at most 0."""
    ys, xs = np.mgrid[0:h, 0:w]
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals = normals / np.linalg.norm(edges, axis=1)[:, None]
    d = np.einsum("pev,ev->pe", pts[:, None, :] - verts[None, :, :], normals)
    return (d.max(axis=1) <= 0.0).reshape(h, w)


# scene tables formatted one value at a time with f-strings
def trajectories_csv(tracks):
    lines = ["track_id,frame,x,y,visible,label"]
    labels = tracks.labels
    for n in range(tracks.n_tracks):
        label = int(labels[n]) if labels is not None else -1
        for t in range(tracks.frames):
            x = tracks.positions[2 * t, n]
            y = tracks.positions[2 * t + 1, n]
            visible = int(tracks.visible[t, n])
            lines.append(f"{n},{t},{x:.9g},{y:.9g},{visible},{label}")
    return "\n".join(lines) + "\n"


def mask_csv(grid):
    return "\n".join(",".join(str(int(v)) for v in row) for row in grid) + "\n"


def flow_csv(flow, h, w):
    lines = ["x,y,u,v"]
    for p in range(h * w):
        y, x = divmod(p, w)
        lines.append(f"{x},{y},{flow[p, 0]:.9g},{flow[p, 1]:.9g}")
    return "\n".join(lines) + "\n"
