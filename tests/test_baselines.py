import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajseg import baselines as B
from trajseg import metrics
from trajseg import numkernel as nk
from trajseg.errors import DegenerateInputError, InvalidInputError
from trajseg.scene_synth import SceneConfig, make_scene

from oracles import direct_svt, full_space_lrr, matrix_with_spectrum, random_orthonormal


def union_of_subspaces(rng, ambient, dims, counts, noise=0.0):
    """Points drawn from independent linear subspaces, stacked as columns."""
    blocks = []
    labels = []
    for idx, (dim, count) in enumerate(zip(dims, counts)):
        basis = random_orthonormal(rng, ambient, dim)
        coeffs = rng.standard_normal((dim, count))
        pts = basis @ coeffs
        pts = pts / np.linalg.norm(pts, axis=0)
        if noise:
            pts = pts + noise * rng.standard_normal(pts.shape)
        blocks.append(pts)
        labels.extend([idx] * count)
    return np.column_stack(blocks), np.array(labels)


class TestKmeans:
    def test_two_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, (20, 2))
        b = rng.normal(5.0, 0.1, (20, 2))
        data = np.vstack([a, b])
        truth = np.array([0] * 20 + [1] * 20)
        labels = B.kmeans(data, 2, seed=1)
        assert metrics.ari(labels, truth) == 1.0

    def test_k_equals_one(self):
        labels = B.kmeans(np.random.default_rng(1).random((10, 3)), 1, seed=0)
        assert np.all(labels == 0)

    def test_line_partition_wcss(self):
        # points {0,1,2,10,11,12}: the best 2-partition splits the groups
        # and its within-cluster sum of squares is 2 + 2 = 4 (oracle:
        # enumerate all 2-partitions by hand)
        data = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        labels = B.kmeans(data, 2, seed=3)
        assert set(map(tuple, [sorted(np.flatnonzero(labels == j)) for j in range(2)])) == {
            (0, 1, 2),
            (3, 4, 5),
        }
        centers = [data[labels == j].mean() for j in range(2)]
        wcss = sum(((data[labels == j, 0] - centers[j]) ** 2).sum() for j in range(2))
        assert wcss == pytest.approx(4.0)

    def test_k_larger_than_n(self):
        with pytest.raises(InvalidInputError):
            B.kmeans(np.zeros((3, 2)), 4)

    def test_deterministic(self):
        data = np.random.default_rng(5).random((30, 4))
        a = B.kmeans(data, 3, seed=9)
        b = B.kmeans(data, 3, seed=9)
        assert np.array_equal(a, b)

    def test_lloyd_objective_never_increases(self):
        rng = np.random.default_rng(11)
        data = rng.random((40, 3))
        centers = B._kmeanspp_init(data, 4, rng)
        prev = np.inf
        cur = centers.copy()
        for _ in range(8):
            dist = ((data[:, None, :] - cur[None, :, :]) ** 2).sum(axis=2)
            labels = dist.argmin(axis=1)
            wcss = float(((data - cur[labels]) ** 2).sum())
            assert wcss <= prev + 1e-12
            prev = wcss
            for j in range(4):
                if np.any(labels == j):
                    cur[j] = data[labels == j].mean(axis=0)


class TestSscAdmm:
    def test_two_lines_exact_block_structure(self):
        rng = np.random.default_rng(2)
        d1 = random_orthonormal(rng, 6, 1)
        d2 = random_orthonormal(rng, 6, 1)
        data = np.column_stack([d1, 1.7 * d1, d2, -0.8 * d2])
        out = B.ssc_admm(data, alpha=100.0)
        c = np.abs(out.c)
        assert c[2:, :2].max() < 1e-6
        assert c[:2, 2:].max() < 1e-6
        assert c[:2, :2].max() > 1e-3

    def test_duplicate_column_preferred(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((8, 5))
        data = np.column_stack([base, base[:, 0]])
        out = B.ssc_admm(data, alpha=100.0)
        col = np.abs(out.c[:, 0])
        assert col.argmax() == 5

    def test_zero_diagonal(self):
        rng = np.random.default_rng(4)
        out = B.ssc_admm(rng.standard_normal((10, 8)), alpha=50.0)
        assert np.abs(np.diag(out.c)).max() == 0.0

    def test_orthogonal_columns_degenerate(self):
        with pytest.raises(DegenerateInputError):
            B.ssc_admm(np.eye(4), alpha=100.0)

    @pytest.mark.parametrize("alpha", [0.0, -5.0])
    def test_alpha_not_positive_rejected(self, alpha):
        # alpha 0 makes the ADMM system singular; a negative one rewards misfit
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidInputError, match="alpha"):
            B.ssc_admm(rng.standard_normal((10, 8)), alpha=alpha)


class TestLrr:
    # noise-free recovery wants the error weight well above the per-column
    # nuclear marginal (0.2 here), the corruption test well below the
    # self-representation crossover; both regimes are exercised.

    def test_two_subspaces_self_expressive(self):
        rng = np.random.default_rng(5)
        data, labels = union_of_subspaces(rng, 20, [3, 3], [15, 15])
        out = B.lrr(data, lam=2.0)
        rel = np.linalg.norm(data - data @ out.c) / np.linalg.norm(data)
        assert rel < 1e-5
        c = np.abs(out.c)
        cross = max(c[labels == 0][:, labels == 1].max(), c[labels == 1][:, labels == 0].max())
        within = min(
            c[labels == 0][:, labels == 0].max(), c[labels == 1][:, labels == 1].max()
        )
        assert within > 10 * cross

    def test_single_rank_one_subspace(self):
        rng = np.random.default_rng(6)
        direction = random_orthonormal(rng, 10, 1)
        data = direction @ rng.standard_normal((1, 8))
        out = B.lrr(data, lam=2.0)
        assert np.abs(data - data @ out.c).max() < 1e-5

    def test_corrupted_column_absorbed_by_error_term(self):
        # outlier norm 2: the column-sparse route costs lam * 2 = 0.4,
        # cheaper than the unit nuclear cost of self-representation
        rng = np.random.default_rng(7)
        data, _ = union_of_subspaces(rng, 20, [3], [20])
        v = rng.standard_normal(20)
        data[:, 4] = 2.0 * v / np.linalg.norm(v)
        out = B.lrr(data, lam=0.2)
        norms = np.linalg.norm(out.noise, axis=0)
        assert norms.argmax() == 4
        assert norms[4] > 3 * np.delete(norms, 4).max()

    def test_thresholding_ignores_singular_vector_signs(self, monkeypatch):
        # LAPACK's sign for each pair of singular vectors is arbitrary;
        # thresholding reads u only through U_k U_k^T of the Gram's factors
        # (or, past the round-off guard, multiplies u and v.T back together),
        # so negating matching columns of both must leave every iterate bit
        # for bit
        rng = np.random.default_rng(5)
        data, _ = union_of_subspaces(rng, 20, [3, 3], [15, 15], noise=0.01)
        ref = B.lrr(data, lam=0.5)
        exact = nk.svd

        def flipped(a):
            f = exact(a)
            sign = np.where(np.arange(f.sigma.size) % 3 == 1, -1.0, 1.0)
            return nk.SvdFactors(u=f.u * sign, sigma=f.sigma, v=f.v * sign)

        monkeypatch.setattr(nk, "svd", flipped)
        out = B.lrr(data, lam=0.5)
        assert out.iterations == ref.iterations
        assert np.array_equal(out.c, ref.c)

    @pytest.mark.parametrize("rho", [0.5, 0.0, -1.01])
    def test_shrinking_penalty_rejected(self, rho):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidInputError, match="rho"):
            B.lrr(rng.standard_normal((10, 8)), rho=rho)

    @pytest.mark.parametrize("kwargs,match", [
        ({"lam": 0.0}, "lam"),
        ({"lam": -1.0}, "lam"),
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -3}, "max_iter"),
    ])
    def test_out_of_range_parameters_rejected(self, kwargs, match):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidInputError, match=match):
            B.lrr(rng.standard_normal((10, 8)), **kwargs)


SVT_MATRICES = {
    "random": lambda rng: rng.standard_normal((32, 200)),
    "rank-six": lambda rng: random_orthonormal(rng, 32, 6) @ rng.standard_normal((6, 200)),
    "N-below-2T": lambda rng: rng.standard_normal((24, 24)),
    "spread-spectrum": lambda rng: matrix_with_spectrum(rng, 32, 120, np.logspace(2, -6, 32)),
}


class TestSvt:
    """Thresholding through the Gram of the rows against the SVD of the
    matrix itself; each call decomposes exactly once, on either branch."""

    @staticmethod
    def svd_arguments(monkeypatch):
        calls = []
        exact = nk.svd

        def recorded(a):
            calls.append(a)
            return exact(a)

        monkeypatch.setattr(nk, "svd", recorded)
        return calls

    @pytest.mark.parametrize("name", list(SVT_MATRICES))
    def test_threshold_above_largest_singular_value_gives_zero(self, name, monkeypatch):
        m = SVT_MATRICES[name](np.random.default_rng(13))
        thr = 1.01 * np.linalg.svd(m, compute_uv=False)[0]
        calls = self.svd_arguments(monkeypatch)
        out = B._svt(m, thr)
        assert len(calls) == 1 and calls[0].shape == (m.shape[0], m.shape[0])
        assert np.array_equal(out, np.zeros_like(m))

    @pytest.mark.parametrize("name", list(SVT_MATRICES))
    @pytest.mark.parametrize("kept", [1, 3, 6])
    def test_threshold_between_singular_values_matches_direct_svd(self, name, kept,
                                                                  monkeypatch):
        m = SVT_MATRICES[name](np.random.default_rng(13))
        sigma = np.linalg.svd(m, compute_uv=False)
        thr = (sigma[kept - 1] + sigma[kept]) / 2
        calls = self.svd_arguments(monkeypatch)
        out = B._svt(m, thr)
        assert len(calls) == 1
        assert np.array_equal(calls[0], m @ m.T)
        # measured 1e-15 to 1e-14 of sigma_1; the guard allows 1e-8 in a kept sigma
        assert np.abs(out - direct_svt(m, thr)).max() <= 1e-12 * sigma[0]
        assert np.linalg.matrix_rank(out, tol=1e-9 * sigma[0]) == kept

    @pytest.mark.parametrize("name", list(SVT_MATRICES))
    def test_small_threshold_takes_the_svd_of_the_matrix(self, name, monkeypatch):
        # q eps |M|_F^2 > 1e-8 thr^2: Gram round-off could move a kept sigma
        m = SVT_MATRICES[name](np.random.default_rng(13))
        thr = 1e-4 * np.linalg.norm(m)
        calls = self.svd_arguments(monkeypatch)
        out = B._svt(m, thr)
        assert len(calls) == 1 and calls[0] is m
        assert np.array_equal(out, direct_svt(m, thr))

    def test_lrr_decomposes_once_per_iteration(self, monkeypatch):
        calls = self.svd_arguments(monkeypatch)
        out = B.lrr(_rank_six_union(), lam=2.0)
        assert len(calls) == out.iterations


class TestAffinity:
    def test_zero(self):
        out = B.affinity(np.zeros((4, 4)))
        assert np.all(out.w == 0)

    def test_symmetrisation(self):
        c = np.zeros((3, 3))
        c[0, 1] = 2.0
        out = B.affinity(c)
        assert out.w[0, 1] == 2.0 and out.w[1, 0] == 2.0

    def test_formula(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((6, 6))
        out = B.affinity(c)
        expect = np.abs(c) + np.abs(c).T
        np.fill_diagonal(expect, 0.0)
        assert np.abs(out.w - expect).max() < 1e-15


class TestSpectral:
    def _clique_affinity(self, sizes):
        n = sum(sizes)
        w = np.zeros((n, n))
        start = 0
        for s in sizes:
            w[start : start + s, start : start + s] = 1.0
            start += s
        np.fill_diagonal(w, 0.0)
        return w

    def test_two_cliques(self):
        w = self._clique_affinity([5, 7])
        labels = B.spectral_cluster(w, 2, seed=0)
        truth = np.array([0] * 5 + [1] * 7)
        assert metrics.ari(labels, truth) == 1.0

    def test_k_one(self):
        labels = B.spectral_cluster(self._clique_affinity([4, 4]), 1, seed=0)
        assert np.all(labels == 0)

    def test_three_components(self):
        w = self._clique_affinity([3, 4, 5])
        labels = B.spectral_cluster(w, 3, seed=1)
        truth = np.array([0] * 3 + [1] * 4 + [2] * 5)
        assert metrics.ari(labels, truth) == 1.0

    def test_k_beyond_n(self):
        with pytest.raises(InvalidInputError):
            B.spectral_cluster(np.zeros((3, 3)), 4)


class TestPipeline:
    @pytest.mark.parametrize("solver", ["ssc", "lrr"])
    def test_subspace_recovery(self, solver):
        rng = np.random.default_rng(10)
        data, truth = union_of_subspaces(rng, 20, [3, 3], [15, 15])
        coeff = B.ssc_admm(data) if solver == "ssc" else B.lrr(data, lam=2.0)
        labels = B.spectral_cluster(B.affinity(coeff), 2, seed=0)
        assert metrics.ari(labels, truth) == 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        data, _ = union_of_subspaces(rng, 15, [2, 2], [8, 8])
        perm = rng.permutation(16)
        base = B.ssc_admm(data)
        permuted = B.ssc_admm(data[:, perm])
        assert np.abs(permuted.c - base.c[np.ix_(perm, perm)]).max() < 1e-6


def _noisy_scene_tracks(points_per_object):
    scene = make_scene(SceneConfig(mode="rigid3d_affine", num_objects=3, frames=16,
                                   grid=(256, 256), points_per_object=points_per_object,
                                   noise_sigma=1.0, motion_seed=3))
    return scene.tracks.positions[:, scene.tracks.visible_at(8)]


def _rank_six_union():
    return union_of_subspaces(np.random.default_rng(5), 20, [3, 3], [15, 15])[0]


def _corrupted_column():
    rng = np.random.default_rng(7)
    data, _ = union_of_subspaces(rng, 20, [3], [20])
    v = rng.standard_normal(20)
    data[:, 4] = 2.0 * v / np.linalg.norm(v)
    return data


class TestLrrRowSpace:
    """The row-space solve against the N x N loop it replaces."""

    @pytest.mark.parametrize("make,lam", [
        pytest.param(lambda: _noisy_scene_tracks(15), 0.2, id="noisy-scene-2T-below-N"),
        pytest.param(_rank_six_union, 2.0, id="rank-six-union"),
        pytest.param(lambda: _noisy_scene_tracks(15)[:, :24], 0.2, id="N-below-2T"),
        pytest.param(_corrupted_column, 0.2, id="corrupted-column"),
    ])
    def test_matches_full_space_loop(self, make, lam):
        data = make()
        out = B.lrr(data, lam=lam)
        c, err, iterations, primal = full_space_lrr(data, lam=lam)
        assert out.iterations == iterations
        assert out.converged
        assert np.abs(out.c - c).max() <= 1e-10 * np.abs(c).max()
        assert np.abs(out.noise - err).max() <= 1e-10 * np.abs(err).max()
        # primal is a max norm of O(|D|) differences that ends just under
        # tol = 1e-7, so the two loops' round-off in it (1e-15 to 1e-14) is
        # up to ~1e-7 of it
        assert abs(out.primal_residual - primal) <= 1e-6 * primal


class TestConvergedFlag:
    def test_ssc_converged_and_capped(self):
        rng = np.random.default_rng(2)
        d1 = random_orthonormal(rng, 6, 1)
        d2 = random_orthonormal(rng, 6, 1)
        data = np.column_stack([d1, 1.7 * d1, d2, -0.8 * d2])
        done = B.ssc_admm(data)
        assert done.converged and done.iterations < 200
        capped = B.ssc_admm(data, max_iter=3)
        assert not capped.converged and capped.iterations == 3

    def test_lrr_converged_and_capped(self):
        data = _rank_six_union()
        done = B.lrr(data, lam=2.0)
        assert done.converged and done.primal_residual < 1e-7
        capped = B.lrr(data, lam=2.0, max_iter=5)
        assert not capped.converged and capped.iterations == 5


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_lrr_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    data, _ = union_of_subspaces(rng, 8, [2, 2], [6, 6], noise=0.01)
    perm = rng.permutation(data.shape[1])
    base = B.lrr(data)
    permuted = B.lrr(data[:, perm])
    assert np.abs(permuted.c - base.c[np.ix_(perm, perm)]).max() < 1e-6
