import numpy as np
import pytest

from trajseg import numkernel as nk
from trajseg.errors import InvalidInputError

from oracles import gradient_descent_lstsq_residual, singular_values_via_jacobi


class TestSvd:
    def test_diagonal(self):
        f = nk.svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 1.0])

    def test_zero_matrix(self):
        f = nk.svd(np.zeros((4, 3)))
        assert np.allclose(f.sigma, [0.0, 0.0, 0.0])

    def test_values_match_jacobi_eig_of_gram(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 4))
        ref = singular_values_via_jacobi(a)
        f = nk.svd(a)
        assert np.abs(f.sigma - ref).max() < 1e-9

    def test_factor_invariants(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4)) * 2.0
        f = nk.svd(a)
        q = min(a.shape)
        assert f.sigma.shape == (q,)
        assert np.all(np.diff(f.sigma) <= 1e-12)
        assert np.all(f.sigma >= 0)
        assert np.abs(f.u.T @ f.u - np.eye(q)).max() <= 1e-10
        assert np.abs(f.v.T @ f.v - np.eye(q)).max() <= 1e-10
        rec = (f.u * f.sigma) @ f.v.T
        assert np.abs(rec - a).max() <= 1e-8 * f.sigma[0]

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            nk.svd(bad)


class TestLstsq:
    def test_identity_design(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(nk.lstsq(np.eye(3), f), f, atol=1e-9)

    def test_recovers_exact_model(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((12, 4))
        theta = rng.standard_normal((4, 2))
        est = nk.lstsq(e, e @ theta)
        assert np.abs(est - theta).max() < 1e-6

    def test_rank_deficient_matches_gd_residual(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((8, 2))
        e = np.column_stack([base, base[:, 0]])  # duplicated column
        f = rng.standard_normal((8, 1))
        ours = float(np.linalg.norm(e @ nk.lstsq(e, f) - f))
        ref = gradient_descent_lstsq_residual(e, f)
        assert abs(ours - ref) < 1e-6

    def test_zero_design(self):
        out = nk.lstsq(np.zeros((4, 3)), np.ones((4, 2)))
        assert np.all(out == 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            nk.lstsq(np.array([[np.inf]]), np.array([[1.0]]))


class TestSymEig:
    def test_identity(self):
        w, _ = nk.sym_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])

    def test_diagonal(self):
        w, _ = nk.sym_eig(np.diag([-1.0, 0.0, 2.0]))
        assert np.allclose(w, [-1.0, 0.0, 2.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((5, 5))
        s = (s + s.T) / 2
        w, v = nk.sym_eig(s)
        assert np.abs((v * w) @ v.T - s).max() < 1e-9

    def test_eigen_equation(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((6, 6))
        s = (s + s.T) / 2
        w, v = nk.sym_eig(s)
        scale = np.abs(s).max()
        for i in range(6):
            assert np.abs(s @ v[:, i] - w[i] * v[:, i]).max() <= 1e-8 * scale

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            nk.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
