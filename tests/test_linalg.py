"""Unit and property tests for the dense matrix primitives."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laros import linalg
from laros import solver as solver_module
from laros.generate import PlantedModel, plant_rank_one, two_block_matrix
from laros.linalg import norm, soft_threshold, svt, theta_norm
from laros.solver import (DualCertificate, SolverConfig, check_optimality,
                          solve)

from oracles import svt_value_oracle


def small_matrix(rng, m=None, n=None, scale=2.0):
    m = m or int(rng.integers(1, 6))
    n = n or int(rng.integers(1, 6))
    return (rng.random((m, n)) - 0.3) * scale


@pytest.mark.parametrize("a, message", [
    (5.0, "expected a 2-D matrix, got ndim=0"),
    (np.zeros(3), "expected a 2-D matrix, got ndim=1"),
    (np.zeros((2, 2, 2)), "expected a 2-D matrix, got ndim=3"),
    (np.zeros((0, 3)), "matrix axes must be positive, got shape (0, 3)"),
    (np.zeros((3, 0)), "matrix axes must be positive, got shape (3, 0)"),
])
def test_as_matrix_rejects_shape(a, message):
    with pytest.raises(ValueError) as err:
        linalg.as_matrix(a)
    assert str(err.value) == message


class TestNorms:
    def test_diagonal_values(self):
        a = np.diag([3.0, 4.0])
        assert norm(a, "nuclear") == pytest.approx(7.0)
        assert norm(a, "spectral") == pytest.approx(4.0)
        assert norm(a, "l1") == pytest.approx(7.0)
        assert norm(a, "linf") == pytest.approx(4.0)

    def test_zero_matrix(self):
        z = np.zeros((3, 2))
        for kind in ("nuclear", "spectral", "l1", "linf"):
            assert norm(z, kind) == 0.0

    def test_entrywise_kinds(self):
        a = np.array([[1.0, -2.0], [0.0, 0.0]])
        assert norm(a, "l1") == pytest.approx(3.0)
        assert norm(a, "linf") == pytest.approx(2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(np.eye(2), "operator")

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 2.0 ** 1000,
                                       2.0 ** -1000])
    def test_spectral_matches_svd(self, scale):
        # the Gram matrix of a / 2^e: at these scales the Gram matrix of a
        # itself overflows or underflows
        rng = np.random.default_rng(7)
        shapes = [(1, 1), (1, 9), (9, 1), (1, 120), (120, 1)] + [
            tuple(int(d) for d in rng.integers(1, 40, size=2))
            for _ in range(12)]
        for shape in shapes:
            a = (rng.random(shape) - 0.3) * scale
            want = float(np.linalg.svd(a, compute_uv=False)[0])
            assert norm(a, "spectral") == pytest.approx(want, rel=1e-13, abs=0)
            assert norm(np.zeros(shape), "spectral") == 0.0

    def test_spectral_beyond_float_range_is_inf(self):
        # sigma_1 = 2e308: the Gram matrix of a / 2^e holds it, the scale
        # back does not
        assert norm(np.full((2, 2), 1e308), "spectral") == math.inf


class TestThetaNorm:
    def test_diagonal(self):
        assert theta_norm(np.diag([3.0, 4.0]), 1.0) == pytest.approx(14.0)

    def test_theta_zero_is_nuclear(self):
        a = np.random.default_rng(0).random((4, 3))
        assert theta_norm(a, 0.0) == pytest.approx(norm(a, "nuclear"))

    def test_single_entry(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        assert theta_norm(e11, 2.0) == pytest.approx(3.0)

    def test_negative_theta_rejected(self):
        # theta_norm, SolverConfig and check_optimality share one check
        a = np.eye(2)
        cert = DualCertificate(y=a / 2, z=a / 2, dual_norm=0.5)
        for theta in (-0.1, -0.5, np.nan, np.inf):
            for call in (partial(theta_norm, a, theta),
                         partial(theta_norm, np.zeros((2, 2)), theta),
                         partial(SolverConfig, theta=theta),
                         partial(check_optimality, a, theta, a / 4, cert)):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == (
                    f"theta must be finite and nonnegative, got {theta}")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    def test_is_a_norm(self, seed, theta):
        rng = np.random.default_rng(seed)
        a = small_matrix(rng, 3, 4)
        b = small_matrix(rng, 3, 4)
        c = float(rng.uniform(-3.0, 3.0))
        lhs = theta_norm(a + b, theta)
        assert lhs <= theta_norm(a, theta) + theta_norm(b, theta) + 1e-9
        assert theta_norm(c * a, theta) == pytest.approx(
            abs(c) * theta_norm(a, theta), abs=1e-9)


class TestSvt:
    def test_diagonal_shrink(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_tau_zero_identity(self):
        a = np.random.default_rng(1).random((3, 3))
        np.testing.assert_allclose(svt(a, 0.0), a, atol=1e-12)

    def test_tau_above_spectral_zeroes(self):
        a = np.random.default_rng(2).random((3, 3))
        for tau in (norm(a, "spectral") + 0.1, np.inf):
            np.testing.assert_allclose(svt(a, tau), 0.0, atol=1e-12)

    def test_negative_tau_rejected(self):
        for tau in (-1.0, np.nan):
            with pytest.raises(ValueError):
                svt(np.eye(2), tau)

    def test_matches_grid_oracle(self):
        # svt must realize the minimum of tau*||X||_* + 0.5*||X - A||_F^2:
        # no point of a dense grid (global box plus a fine local grid around
        # the svt output) may achieve a smaller value.
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = (rng.random((2, 2)) - 0.3) * 2.0
            tau = float(rng.uniform(0.01, 1.5))
            x = svt(a, tau)
            value = tau * norm(x, "nuclear") + 0.5 * np.linalg.norm(x - a) ** 2
            best = svt_value_oracle(a, tau, x)
            assert value <= best + 1e-9


class TestSoftThreshold:
    def test_example(self):
        a = np.array([[3.0, -1.0], [0.5, 0.0]])
        np.testing.assert_allclose(soft_threshold(a, 1.0),
                                   np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_tau_zero_identity(self):
        a = np.random.default_rng(3).random((2, 4))
        np.testing.assert_allclose(soft_threshold(a, 0.0), a)

    def test_tau_above_linf_zeroes(self):
        a = np.random.default_rng(4).random((3, 2))
        for tau in (norm(a, "linf"), np.inf):
            np.testing.assert_allclose(soft_threshold(a, tau), 0.0)

    def test_negative_tau_rejected(self):
        for tau in (-1.0, np.nan):
            with pytest.raises(ValueError):
                soft_threshold(np.eye(2), tau)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    def test_matches_scalar_shrinkage(self, seed, tau):
        a = small_matrix(np.random.default_rng(seed))
        out = soft_threshold(a, tau)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                v = a[i, j]
                expected = np.sign(v) * max(abs(v) - tau, 0.0)
                assert out[i, j] == pytest.approx(expected, abs=1e-12)


    def test_l1_prox_keeps_input_and_values(self):
        # the solver's three-ufunc form: exact ties, zeros of both signs,
        # extremes and subnormals next to random entries
        a = np.random.default_rng(5).standard_normal((6, 7))
        a[0] = [0.3, -0.3, 0.0, -0.0, 1e308, -1e308, 5e-324]
        a[1, :3] = [-5e-324, -0.1, 0.1]
        keep = a.copy()
        for tau in (0.3, 0.0, np.inf):
            out = np.empty_like(a)
            got = linalg._l1_prox(a, tau, out=out)
            assert got is out
            assert np.array_equal(a.view(np.int64), keep.view(np.int64))
            # == compares the values: +0.0 equals -0.0
            want = np.sign(keep) * np.maximum(np.abs(keep) - tau, 0)
            assert np.array_equal(got, want)


def spectrum_matrix(rng, m, n, sigmas, noise=1e-3):
    """Matrix with leading singular values near `sigmas` plus small noise."""
    k = len(sigmas)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * np.asarray(sigmas, dtype=float)) @ v.T \
        + noise * rng.standard_normal((m, n)) / np.sqrt(max(m, n))


def close_to_svt(factors, a, tau, rtol=1e-12):
    """The product of a prox's factors (L, R) is svt(a, tau) to rtol."""
    left, right = factors
    ref = svt(a, tau)
    scale = max(np.linalg.norm(ref), np.linalg.norm(a))
    assert np.linalg.norm(left @ right - ref) <= rtol * scale


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the numpy.linalg.svd calls made during a test."""
    shapes = []
    lapack = np.linalg.svd

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return lapack(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


class TestWarmSvt:
    """The subspace-iteration nuclear prox that `solve` uses at and above
    the crossover dimension; each case must match the full-SVD `svt`
    (whose own SVD calls are not counted: `svt` runs after the fixture's
    shapes are read)."""

    SHAPES = [(120, 120), (80, 400)]

    def test_dispatch_by_shape(self):
        low = linalg._PARTIAL_SVT_MIN_DIM - 1
        assert linalg._nuclear_prox((low, 1000)) is linalg._svt
        assert isinstance(linalg._nuclear_prox(
            (linalg._PARTIAL_SVT_MIN_DIM, linalg._PARTIAL_SVT_MIN_DIM)),
            linalg._WarmSvt)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sequence_matches_svt(self, shape, svd_shapes):
        rng = np.random.default_rng(30)
        a = spectrum_matrix(rng, *shape, [5.0, 3.0, 2.0])
        prox = linalg._WarmSvt(shape)
        pairs = []
        for step in range(6):
            a = a + 1e-3 * spectrum_matrix(rng, *shape, [1.0], noise=0.0)
            pairs.append((prox(a, 1.0), a))
            if step == 0:
                # the cold block of _OVERSAMPLE columns is too narrow for
                # rank 3: the first call takes the full SVD
                assert svd_shapes[-1] == shape
                svd_shapes.clear()
        assert prox.rank == 3
        assert shape not in svd_shapes  # no warm call needed the full SVD
        for out, a in pairs:
            close_to_svt(out, a, 1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_stale_subspace_of_wrong_rank(self, shape, svd_shapes):
        rng = np.random.default_rng(31)
        prox = linalg._WarmSvt(shape)
        first = spectrum_matrix(rng, *shape, [6.0, 5.0, 4.0, 3.0])
        prox(first, 1.0)
        assert prox.rank == 4
        # the cold call's block was too narrow for rank 4
        assert svd_shapes[-1] == shape
        svd_shapes.clear()
        # unrelated matrix of rank 1 above tau: the stale basis spans the
        # wrong subspace and is three columns too wide
        second = spectrum_matrix(rng, *shape, [4.0, 0.5])
        out = prox(second, 1.0)
        assert shape not in svd_shapes
        close_to_svt(out, second, 1.0)
        assert prox.rank == 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rank_growth_between_calls(self, shape, svd_shapes):
        rng = np.random.default_rng(32)
        prox = linalg._WarmSvt(shape)
        low = spectrum_matrix(rng, *shape, [3.0])
        out_low = prox(low, 1.0)
        assert prox.rank == 1
        assert shape not in svd_shapes
        # rank 12 exceeds the warm block (1 + _OVERSAMPLE columns): the
        # call takes the full SVD, once
        sigmas = np.linspace(8.0, 2.0, 12)
        high = spectrum_matrix(rng, *shape, sigmas)
        out_high = prox(high, 1.0)
        assert svd_shapes.count(shape) == 1
        assert prox.rank == 12
        # the next call starts warm at rank 12, below min(m, n)/4
        assert 12 + linalg._OVERSAMPLE < min(shape) / 4
        nearby = high + 1e-3 * spectrum_matrix(rng, *shape, [1.0], noise=0.0)
        out_nearby = prox(nearby, 1.0)
        assert svd_shapes.count(shape) == 1
        close_to_svt(out_low, low, 1.0)
        close_to_svt(out_high, high, 1.0)
        close_to_svt(out_nearby, nearby, 1.0)
        assert prox.rank == 12

    @pytest.mark.parametrize("shape", SHAPES + [(480, 480)])
    @pytest.mark.parametrize("seed", range(5))
    def test_new_direction_from_narrow_block(self, shape, seed, svd_shapes):
        rng = np.random.default_rng(100 + seed)
        prox = linalg._WarmSvt(shape)
        first = spectrum_matrix(rng, *shape, [3.0])
        prox(first, 1.0)
        assert prox.rank == 1
        # the cold call keeps rank + _OVERSAMPLE - 1 vectors; the next
        # call's block of 1 + _OVERSAMPLE adds one random column
        basis = prox.basis
        assert basis.shape[1] == linalg._OVERSAMPLE
        # a direction the warm block does not contain on either side: v2
        # orthogonal to the block, u2 to its image under the first matrix
        v2 = rng.standard_normal(shape[1])
        v2 -= basis @ (basis.T @ v2)
        u2 = rng.standard_normal(shape[0])
        image = np.linalg.qr(first @ basis)[0]
        u2 -= image @ (image.T @ u2)
        second = first + 5.0 * np.outer(u2 / np.linalg.norm(u2),
                                        v2 / np.linalg.norm(v2))
        out = prox(second, 1.0)
        assert shape not in svd_shapes
        assert prox.rank == 2
        close_to_svt(out, second, 1.0)

    @pytest.mark.parametrize("shape", SHAPES + [(480, 480)])
    @pytest.mark.parametrize("seed", range(5))
    def test_new_direction_at_steady_rank(self, shape, seed, svd_shapes):
        rng = np.random.default_rng(110 + seed)
        prox = linalg._WarmSvt(shape)
        first = spectrum_matrix(rng, *shape, [3.0])
        prox(first, 1.0)
        prox(first, 1.0)
        assert prox.rank == 1
        # the rank held, so the next block is the kept vectors plus its
        # fresh column; the new direction is orthogonal to the kept
        # vectors, and to their image under the first matrix
        basis = prox.basis
        v2 = rng.standard_normal(shape[1])
        v2 -= basis @ (basis.T @ v2)
        u2 = rng.standard_normal(shape[0])
        image = np.linalg.qr(first @ basis)[0]
        u2 -= image @ (image.T @ u2)
        second = first + 5.0 * np.outer(u2 / np.linalg.norm(u2),
                                        v2 / np.linalg.norm(v2))
        out = prox(second, 1.0)
        assert shape not in svd_shapes
        assert prox.rank == 2
        close_to_svt(out, second, 1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_tau_at_or_above_top_singular_value(self, shape):
        rng = np.random.default_rng(33)
        a = spectrum_matrix(rng, *shape, [2.0, 1.0])
        top = norm(a, "spectral")
        prox = linalg._WarmSvt(shape)
        for tau in (2.0 * top, top * (1.0 + 1e-12)):
            left, right = prox(a, tau)
            assert left.shape == (shape[0], 0)
            assert right.shape == (0, shape[1])
            assert prox.rank == 0
        # at tau = sigma_1 a Ritz value may round an ulp above tau
        close_to_svt(prox(a, top), a, top, rtol=1e-15)
        left, right = prox(np.zeros(shape), 0.5)
        assert (left.shape, right.shape) == ((shape[0], 0), (0, shape[1]))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fallback_at_quarter_dimension(self, shape, svd_shapes):
        rng = np.random.default_rng(34)
        prox = linalg._WarmSvt(shape)
        # the warm block after this rank, rank + _OVERSAMPLE columns, is
        # exactly min(m, n)/4
        rank = min(shape) // 4 - linalg._OVERSAMPLE
        a = spectrum_matrix(rng, *shape, np.linspace(9.0, 3.0, rank))
        prox(a, 1.0)  # the cold block is too narrow: the full SVD
        assert prox.rank == rank
        svd_shapes.clear()
        state = prox.rng.bit_generator.state
        left, right = prox(a, 1.0)
        # the capped call takes the full SVD, whose output is exactly
        # svt's, before any thin product: it draws no random column
        assert svd_shapes == [shape]
        assert prox.rng.bit_generator.state == state
        assert np.array_equal(left @ right, svt(a, 1.0))
        assert prox.rank == rank
        # the next call's block less its fresh column: rank +
        # _OVERSAMPLE - 1 columns, C-ordered
        assert prox.basis.shape == (shape[1], rank + linalg._OVERSAMPLE - 1)
        assert prox.basis.flags.c_contiguous

    def test_noise_free_rank_one_solve_never_falls_back(self, svd_shapes):
        # an exactly rank-one 480 x 480 input (c3 = 0): the block m V is
        # numerically rank one, and its residuals' rounding floor reaches
        # about 17 eps sigma_1, above a bound of a few ulps per column
        model = PlantedModel(m=480, n=480, M=160, N=160)
        a = plant_rank_one(model, seed=0).a
        assert isinstance(linalg._nuclear_prox(a.shape), linalg._WarmSvt)
        sol = solve(a, SolverConfig(theta=1.0 / 160, tol_primal=1e-7,
                                    tol_dual=1e-7, tol_gap=1e-7))
        assert sol.converged
        # the one full-shape SVD a solve could take is the fallback's: the
        # check's SVD is of the candidate's 160 x 160 support
        assert a.shape not in svd_shapes

    def test_sweep_budget_falls_back(self, monkeypatch, svd_shapes):
        rng = np.random.default_rng(35)
        a = spectrum_matrix(rng, 120, 120, [3.0, 2.0])
        monkeypatch.setattr(linalg, "_SWEEPS", 0)
        prox = linalg._WarmSvt(a.shape)
        left, right = prox(a, 1.0)
        assert svd_shapes == [a.shape]
        assert np.array_equal(left @ right, svt(a, 1.0))
        assert prox.rank == 2


def lapack_svt(m, tau):
    """svt as factors from LAPACK's SVD, as the public svt and _WarmSvt's
    fallback take it."""
    return linalg._factors(*np.linalg.svd(m, full_matrices=False), tau)


class TestGramSvt:
    """`_svt`, the prox below the crossover dimension, takes svt from the
    eigendecomposition of the short-side Gram matrix; it must match
    LAPACK's SVD in the rank, the order of the factors' columns and the
    product, on tall, wide and square input."""

    SHAPES = [(20, 9), (9, 20), (12, 12)]

    def check(self, m, tau, rtol=1e-13):
        left, right = linalg._svt(m, tau)
        want_left, want_right = lapack_svt(m, tau)
        assert left.shape == want_left.shape
        assert right.shape == want_right.shape
        assert right.flags.c_contiguous
        # columns of L carry s_i - tau, nonincreasing
        np.testing.assert_allclose(np.linalg.norm(left, axis=0),
                                   np.linalg.norm(want_left, axis=0),
                                   rtol=0, atol=rtol * np.linalg.norm(m))
        err = np.linalg.norm(left @ right - want_left @ want_right)
        assert err <= rtol * np.linalg.norm(m)
        return left, right

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_rank(self, shape):
        m = np.random.default_rng(40).random(shape)
        s = np.linalg.svd(m, compute_uv=False)
        # tau above sigma_1 (r = 0), between each pair of singular
        # values, and below the smallest (r = min(m, n))
        taus = [2.0 * s[0], *((s[:-1] + s[1:]) / 2), s[-1] / 2]
        ranks = [self.check(m, tau)[0].shape[1] for tau in taus]
        assert ranks == list(range(s.size + 1))
        for tau in (0.0, 1.0):
            assert self.check(np.zeros(shape), tau)[0].shape[1] == 0

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("gap", [1e-6, 1e-10])
    def test_clustered_at_tau(self, shape, gap):
        # a tie above tau, and singular values a relative gap above and
        # below it: Gram rounding moves a singular value near tau by about
        # eps * sigma_1^2 / (2 tau), 1e-15 here
        rng = np.random.default_rng(41)
        sigmas = [3.0, 2.0, 2.0, 2.0, 1.0 + gap, 1.0 + gap, 1.0 - gap,
                  1.0 - gap]
        k = len(sigmas)
        u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
        v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
        m = (u * sigmas) @ v.T
        assert self.check(m, 1.0)[0].shape[1] == 6

    # The bounds, relative to ||m||_F: the first-order error estimate of
    # the Gram kernel is eps * sigma_1 / (2 tau), about 1e-10 at penalty
    # 1e6 (sigma_1 / tau up to 9e5); at 1.5 (sigma_1 / tau <= 6.7) it is
    # under 1e-15, and the rounding of both decompositions sets the
    # bound. Measured worst per call (OpenBLAS 0.3.31, one thread):
    # 6.7e-15 and 1.3e-12 here; over c04's first 20, biclique 60 seeds
    # 0-9 and the demo, 8.5e-15 and 1.2e-11.
    @pytest.mark.parametrize("penalty, rtol", [(1.5, 1e-13), (1e6, 1e-10)])
    @pytest.mark.parametrize("case", ["demo", "c04_5"])
    def test_every_prox_call_of_a_solve(self, monkeypatch, case, penalty,
                                        rtol):
        if case == "demo":
            a, theta = two_block_matrix(), 0.5
        else:
            rng = np.random.default_rng(40)  # c04's corpus, matrix #5
            a, theta = [rng.random((15, 15)) for _ in range(6)][5], 1.5
        assert linalg._nuclear_prox(a.shape) is linalg._svt
        calls = []

        def checked(m, tau):
            calls.append(tau)
            return self.check(m, tau, rtol)

        monkeypatch.setattr(solver_module, "_nuclear_prox",
                            lambda shape: checked)
        monkeypatch.setattr(solver_module, "_PENALTY", penalty)
        sol = solve(a, SolverConfig(theta=theta, max_iters=2000))
        assert len(calls) == sol.iterations


class TestFactorForm:
    """Both nuclear prox paths return svt as factors (L, R) of rank
    r = count(s > tau), r = 0 included."""

    # below and at the crossover dimension: _svt, then _WarmSvt
    @pytest.mark.parametrize("shape", [(30, 45), (120, 120)])
    @pytest.mark.parametrize("sigmas", [[0.5], [5.0], [5.0, 3.0, 2.0]])
    def test_product_is_svt(self, shape, sigmas):
        rng = np.random.default_rng(36)
        a = spectrum_matrix(rng, *shape, sigmas)
        rank = sum(sigma > 1.0 for sigma in sigmas)
        prox = linalg._nuclear_prox(shape)
        assert (prox is linalg._svt) == (min(shape) <
                                         linalg._PARTIAL_SVT_MIN_DIM)
        left, right = prox(a, 1.0)
        assert left.shape == (shape[0], rank)
        assert right.shape == (rank, shape[1])
        assert right.flags.c_contiguous
        close_to_svt((left, right), a, 1.0)
        # columns of L carry s_i - tau: their norms are the shrunk values
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(np.linalg.norm(left, axis=0),
                                   s[:rank] - 1.0, rtol=1e-12)


class TestSupportSvd:
    """The SVD of a matrix's nonzero rows and columns, padded with zeros,
    is its SVD."""

    ROWS, COLS = [3, 7, 8, 20, 39], [0, 5, 6, 29]

    def sparse(self, seed):
        m = np.zeros((40, 30))
        m[np.ix_(self.ROWS, self.COLS)] = \
            np.random.default_rng(seed).standard_normal((5, 4))
        return m

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_rows_and_columns(self, seed):
        m = self.sparse(seed)
        u, s, vt = linalg._support_svd(m)
        full = np.linalg.svd(m, compute_uv=False)
        assert u.shape == (40, 4) and s.shape == (4,) and vt.shape == (4, 30)
        assert np.abs(s - full[:4]).max() <= 1e-15 * full[0]
        assert not np.delete(u, self.ROWS, axis=0).any()
        assert not np.delete(vt, self.COLS, axis=1).any()
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(vt @ vt.T, np.eye(4), atol=1e-14)
        np.testing.assert_allclose((u * s) @ vt, m, rtol=0,
                                   atol=1e-14 * full[0])
        values = linalg._support_svd(m, compute_uv=False)
        assert np.abs(values - full[:4]).max() <= 1e-15 * full[0]
        assert norm(m, "nuclear") == pytest.approx(full.sum(), rel=1e-15)

    def test_full_support_is_the_full_svd(self):
        m = np.random.default_rng(5).standard_normal((9, 6))
        for got, want in zip(linalg._support_svd(m),
                             np.linalg.svd(m, full_matrices=False)):
            assert np.array_equal(got, want)
        assert np.array_equal(linalg._support_svd(m, compute_uv=False),
                              np.linalg.svd(m, compute_uv=False))

    def test_zero_matrix(self):
        u, s, vt = linalg._support_svd(np.zeros((4, 3)))
        assert (u.shape, s.shape, vt.shape) == ((4, 0), (0,), (0, 3))
        assert norm(np.zeros((4, 3)), "nuclear") == 0.0
