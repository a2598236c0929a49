"""Tests for the splitting solver, dual norm, certificates, and the
optimality checker."""

import dis
import math
import sys
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laros import linalg
from laros import solver as solver_module
from laros.analysis import theta_A
from laros.generate import (PlantedModel, plant_biclique, plant_rank_one,
                            two_block_matrix)
from laros.linalg import norm, theta_norm
from laros.solver import (DualCertificate, OptimalityReport, SolverConfig,
                          check_optimality, extract_rank_one, recover_dual,
                          solve)

from oracles import dr2_residuals, dual_norm_oracle, l1_halfspace_prox
from test_linalg import small_matrix


def tight(theta, **kw):
    return SolverConfig(theta=theta, tol_primal=1e-9, tol_dual=1e-9,
                        tol_gap=1e-9, **kw)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(theta=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(theta=0.5, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(theta=0.5, tol_primal=0.0)

    @pytest.mark.parametrize("loop", [
        {"max_iters": 0}, {"max_iters": -25}, {"max_iters": 2.5},
        {"max_iters": 3.0}, {"max_iters": -3}, {"max_iters": True},
        {"max_iters": "25"}])
    def test_loop_settings_must_be_positive_integers(self, loop):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            SolverConfig(theta=0.5, **loop)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="must be finite"):
            SolverConfig(theta=theta)

    def test_numpy_integers_accepted(self):
        config = SolverConfig(theta=0.5, max_iters=np.int64(7))
        assert solve(two_block_matrix(), config).iterations == 7


class TestSolve:
    def test_two_block_fixture(self):
        sol = solve(two_block_matrix(), tight(0.5))
        assert sol.converged
        assert list(sol.support_rows) == [3, 4, 5]
        assert list(sol.support_cols) == [3, 4, 5]
        nz = sol.x[np.abs(sol.x) > 1e-8]
        assert nz.min() >= 0.08 - 0.01 and nz.max() <= 0.16 + 0.01

    def test_converged_reads_stop_reason(self):
        sol = solve(two_block_matrix(), tight(0.5))
        assert "converged" not in {f.name for f in fields(type(sol))}
        for reason, converged in (("converged", True), ("polished", True),
                                  ("max_iters", False)):
            assert replace(sol, stop_reason=reason).converged is converged

    def test_theta_zero_is_rank_one_fit(self):
        rng = np.random.default_rng(3)
        a = rng.random((8, 6))
        sol = solve(a, tight(0.0))
        u, s, vt = np.linalg.svd(a)
        closed = np.outer(u[:, 0], vt[0]) / s[0]
        assert np.linalg.norm(sol.x - closed) <= 1e-6

    def test_large_theta_singleton(self):
        a = np.array([[5.0, 1.0], [1.0, 1.0]])
        sol = solve(a, tight(3.0))
        expected = np.zeros((2, 2))
        expected[0, 0] = 0.2
        assert np.linalg.norm(sol.x - expected) <= 1e-6
        assert list(sol.support_rows) == [0]
        assert list(sol.support_cols) == [0]

    def test_singleton_matrix(self):
        for c, theta in ((4.0, 0.7), (-2.0, 1.3)):
            sol = solve(np.array([[c]]), tight(theta))
            assert sol.x[0, 0] == pytest.approx(1.0 / c, abs=1e-9)

    def test_constraint_active(self):
        rng = np.random.default_rng(11)
        a = rng.random((5, 7))
        sol = solve(a, tight(0.4))
        assert float(np.vdot(a, sol.x)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve(np.zeros((3, 3)), tight(0.5))

    def test_theta_beyond_the_multiplier_search_fails_naming_theta(self):
        # the halfspace multiplier search stops on the flat piece h = 0
        # short of its first breakpoint; the certificate check then
        # divided by <A, x2> = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^theta=1e\+20 is too large"):
                solve(two_block_matrix(), SolverConfig(theta=1e20))

    def test_nonconvergence_flagged(self):
        a = np.random.default_rng(0).random((6, 6))
        sol = solve(a, SolverConfig(theta=0.5, max_iters=3))
        assert not sol.converged
        assert sol.iterations == 3

    def test_scaled_has_unit_theta_norm(self):
        a = np.random.default_rng(1).random((4, 5))
        sol = solve(a, tight(0.8))
        assert theta_norm(sol.scaled(), 0.8) == pytest.approx(1.0, abs=1e-12)


def dual_theta_norm(a, theta):
    """The dual theta-norm of `a`, 1 / objective of a converged solve at
    the SolverConfig defaults."""
    sol = solve(a, SolverConfig(theta=theta))
    assert sol.converged
    return 1.0 / sol.objective


class TestDualThetaNorm:
    def test_singleton_balance(self):
        for c in (1.0, 3.0, 0.25):
            for theta in (0.5, 1.0, 2.0):
                val = dual_theta_norm(np.array([[c]]), theta)
                assert val == pytest.approx(c / (1.0 + theta), rel=1e-8)

    def test_small_theta_approaches_spectral(self):
        a = np.diag([3.0, 4.0])
        val = dual_theta_norm(a, 1e-8)
        assert val == pytest.approx(4.0, abs=1e-6)

    def test_theta_zero_is_spectral(self):
        a = np.random.default_rng(2).random((4, 4))
        assert dual_theta_norm(a, 0.0) == pytest.approx(
            norm(a, "spectral"), rel=1e-8)

    def test_diag21_matches_grid_oracle(self):
        a = np.diag([2.0, 1.0])
        val = dual_theta_norm(a, 1.0)
        best, _ = dual_norm_oracle(a, 1.0)
        assert val == pytest.approx(best, abs=1e-3)


class TestExtractRankOne:
    def test_single_spike(self):
        x = np.zeros((6, 6))
        x[2, 4] = 2.0
        parts = extract_rank_one(x)
        assert parts.sigma == pytest.approx(2.0)
        assert list(parts.rows) == [2]
        assert list(parts.cols) == [4]

    def test_two_block_solution_support(self):
        sol = solve(two_block_matrix(), tight(0.5))
        parts = extract_rank_one(sol.x)
        assert list(parts.rows) == [3, 4, 5]
        assert list(parts.cols) == [3, 4, 5]

    def test_zero_matrix(self):
        parts = extract_rank_one(np.zeros((3, 3)))
        assert parts.sigma == 0.0
        assert parts.rows.size == 0 and parts.cols.size == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_leading_pair_and_sign_convention(self, seed):
        # odd seeds zero some rows and columns (never all), so the SVD is
        # taken on the support as well as on the whole matrix
        rng = np.random.default_rng(seed)
        a = small_matrix(rng)
        if seed % 2:
            rows = rng.random(a.shape[0]) < 0.4
            cols = rng.random(a.shape[1]) < 0.4
            rows[rng.integers(a.shape[0])] = False
            cols[rng.integers(a.shape[1])] = False
            a[rows] = 0.0
            a[:, cols] = 0.0
        parts = extract_rank_one(a)
        u, s, vt = np.linalg.svd(a)
        assert parts.u[np.argmax(np.abs(parts.u))] >= 0
        assert np.linalg.norm(parts.u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(parts.v) == pytest.approx(1.0, abs=1e-12)
        assert parts.sigma == pytest.approx(s[0], rel=1e-12)
        # the sign of a pair cancels in the outer product
        np.testing.assert_allclose(parts.sigma * np.outer(parts.u, parts.v),
                                   s[0] * np.outer(u[:, 0], vt[0]),
                                   rtol=0, atol=1e-12 * s[0])


class TestCheckOptimality:
    def test_singleton_hand_certificate(self):
        # 1x1 [c], theta=1: scaled solution [1/2], Y=[c/2], Z=[c/2]
        c = 3.0
        a = np.array([[c]])
        cert = DualCertificate(y=np.array([[c / 2]]), z=np.array([[c / 2]]),
                               dual_norm=c / 2, spectral_gap=c / 2,
                               linf_argmax_count=1)
        report = check_optimality(a, 1.0, np.array([[0.5]]), cert)
        assert report.max_residual <= 1e-12

    def test_theta_zero_certificate(self):
        rng = np.random.default_rng(5)
        a = rng.random((5, 4))
        u, s, vt = np.linalg.svd(a)
        x = np.outer(u[:, 0], vt[0])
        s1 = s[0]
        cert = DualCertificate(y=a, z=np.zeros_like(a), dual_norm=s1,
                               spectral_gap=s1 - s[1],
                               linf_argmax_count=0)
        report = check_optimality(a, 0.0, x, cert)
        assert report.max_residual <= 1e-10

    def test_injected_violation_reported(self):
        # dual_norm 1 instance: balance breakage shows up one-for-one
        a = np.array([[2.0]])
        cert = DualCertificate(y=np.array([[1.0 + 0.1]]), z=np.array([[0.9]]),
                               dual_norm=1.1, spectral_gap=1.1,
                               linf_argmax_count=1)
        report = check_optimality(a, 1.0, np.array([[0.5]]), cert)
        assert report.balance == pytest.approx(0.2 / 1.1, abs=1e-12)

    def test_report_only_never_raises(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        cert = DualCertificate(y=a * 0.3, z=a * 0.1, dual_norm=0.5,
                               spectral_gap=0.0, linf_argmax_count=2)
        report = check_optimality(a, 0.7, a, cert)
        assert report.max_residual > 0

    def test_nan_y_fails(self):
        # the singleton hand certificate with a NaN in Y. Every residual is
        # computed from a, x, Y and Z, which check_optimality validates, so
        # the NaN is refused there and never reaches a passing report; a
        # NaN residual itself fails (test_any_nan_residual_fails)
        c = 3.0
        cert = DualCertificate(y=np.array([[math.nan]]),
                               z=np.array([[c / 2]]), dual_norm=c / 2)
        with pytest.raises(ValueError) as err:
            check_optimality(np.array([[c]]), 1.0, np.array([[0.5]]), cert)
        assert str(err.value) == "matrix entries must be finite (no NaN/Inf)"

    @pytest.mark.parametrize("field",
                             [f.name for f in fields(OptimalityReport)])
    def test_any_nan_residual_fails(self, field):
        report = OptimalityReport(**{f.name: math.nan if f.name == field
                                     else 0.0
                                     for f in fields(OptimalityReport)})
        assert math.isnan(report.max_residual)
        assert not report.passed(1e-6)

    @pytest.mark.parametrize("s", [1e200, 1e-300, 2.0 ** -1000, 1e307])
    def test_scale_invariant(self, s):
        # the demo's certificate at scale s, where the Gram matrix of Y and
        # the squares of ||A||_F would overflow or underflow unscaled; the
        # candidate has theta-norm 1 at any scale, and the residuals are
        # relative, so they read as at scale 1 up to the rounding of the
        # product by s
        a = two_block_matrix()
        sol = solve(a, SolverConfig(theta=0.5))
        cert = recover_dual(a, 0.5, sol.state)
        base = check_optimality(a, 0.5, sol.scaled(), cert)
        assert base.passed(1e-8)
        big = check_optimality(
            a * s, 0.5, sol.scaled(),
            replace(cert, y=cert.y * s, z=cert.z * s,
                    dual_norm=cert.dual_norm * s))
        for f in fields(OptimalityReport):
            assert getattr(big, f.name) == pytest.approx(
                getattr(base, f.name), rel=0, abs=1e-12), f.name

    def test_shape_mismatch_rejected(self):
        b = np.random.default_rng(9).random((2, 3))
        cert = DualCertificate(y=b / 2, z=b / 2, dual_norm=1.0)
        # np.vdot flattens, so a transposed candidate used to be scored
        with pytest.raises(ValueError) as err:
            check_optimality(b, 0.5, b.T, cert)
        assert str(err.value) == ("x has shape (3, 2), expected (2, 3) "
                                  "(the shape of a)")
        a = b[:1]
        for x, c, name in ((b, replace(cert, y=a / 2, z=a / 2), "x"),
                           (a, replace(cert, z=a / 2), "cert.y"),
                           (a, replace(cert, y=a / 2), "cert.z")):
            with pytest.raises(ValueError) as err:
                check_optimality(a, 0.5, x, c)
            assert str(err.value) == (f"{name} has shape (2, 3), expected "
                                      "(1, 3) (the shape of a)")


class TestRecoverDual:
    def test_singleton_split(self):
        a = np.array([[3.0]])
        sol = solve(a, tight(1.0))
        cert = recover_dual(a, 1.0, sol.state)
        assert cert.y[0, 0] == pytest.approx(1.5, abs=1e-8)
        assert cert.z[0, 0] == pytest.approx(1.5, abs=1e-8)
        assert cert.dual_norm == pytest.approx(1.5, abs=1e-8)

    def test_theta_zero_z_vanishes(self):
        a = np.random.default_rng(6).random((4, 4))
        sol = solve(a, tight(0.0))
        cert = recover_dual(a, 0.0, sol.state)
        assert norm(cert.z, "linf") <= 1e-10

    def test_random_instance_gap(self):
        rng = np.random.default_rng(7)
        a = rng.random((10, 8))
        sol = solve(a, tight(0.3))
        cert = recover_dual(a, 0.3, sol.state)
        np.testing.assert_allclose(cert.y + cert.z, a, atol=1e-12)
        report = check_optimality(a, 0.3, sol.scaled(), cert)
        assert report.max_residual <= 1e-6
        assert sol.gap <= 1e-6
        # weak duality: the certificate's value dominates the primal value
        assert float(np.vdot(a, sol.scaled())) <= cert.dual_norm + 1e-12
        # grid-oracle cross-check on a 2x2 restriction: a submatrix's dual
        # norm can never exceed the full matrix's (zero-padded feasible
        # points embed), so the oracle value bounds ours from below
        i = np.argsort(a.max(axis=1))[-2:]
        j = np.argsort(a.max(axis=0))[-2:]
        sub = a[np.ix_(np.sort(i), np.sort(j))]
        best, err = dual_norm_oracle(sub, 0.3)
        assert 1.0 / sol.objective >= best - err - 1e-6

    def test_unconverged_state_rejected(self):
        a = np.random.default_rng(8).random((5, 5))
        sol = solve(a, SolverConfig(theta=0.4, max_iters=2))
        with pytest.raises(ValueError, match="converged solve"):
            recover_dual(a, 0.4, sol.state)
        # converged is read from stop_reason, so a converged solve
        # relabelled as capped has its certificate withheld too
        sol = solve(a, tight(0.4))
        assert sol.converged
        with pytest.raises(ValueError, match="converged solve"):
            recover_dual(a, 0.4, replace(sol, stop_reason="max_iters").state)
        assert sol.state is sol

    def test_mismatched_problem_rejected(self):
        a = np.random.default_rng(8).random((5, 5))
        sol = solve(a, tight(0.4))
        assert sol.converged
        with pytest.raises(ValueError):
            recover_dual(a[:, :4], 0.4, sol.state)
        with pytest.raises(ValueError):
            recover_dual(a, 0.5, sol.state)

    def test_returns_certificate_built_during_solve(self, monkeypatch):
        a = two_block_matrix()
        sol = solve(a, tight(0.5))
        assert sol.converged

        def no_svd(*args, **kwargs):
            raise AssertionError("recover_dual must not take an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cert = recover_dual(a, 0.5, sol.state)
        assert cert is sol.certificate
        np.testing.assert_allclose(cert.y + cert.z, a, rtol=0, atol=1e-12)


class TestSolverInvariants:
    def test_weak_duality_along_iterates(self):
        rng = np.random.default_rng(9)
        a = rng.random((7, 6))
        # residual tolerances every stopping test passes, so that each one
        # checks the certificate
        sol = solve(a, SolverConfig(theta=0.6, tol_primal=0.5,
                                    tol_dual=0.5, tol_gap=1e-9))
        assert sol.converged
        history = sol.history
        assert len(history) >= 2
        for entry in history:
            assert entry["weak_duality_slack"] >= -1e-9

    def test_step_nonincreasing(self, monkeypatch):
        # relaxed Douglas-Rachford is firmly nonexpansive in its state:
        # ||z+ - z|| never grows (up to rounding)
        monkeypatch.setattr(solver_module, "_CHECK_EVERY", 1)
        rng = np.random.default_rng(10)
        a = rng.random((6, 6))
        sol = solve(a, SolverConfig(theta=0.7, tol_primal=1e-10,
                                    tol_dual=1e-10, tol_gap=1e-10))
        assert sol.converged
        steps = np.array([h["step"] for h in sol.history])
        assert steps.size == sol.iterations
        assert np.diff(steps).max(initial=0.0) <= 1e-12 * steps[0]

    @pytest.mark.parametrize("case", [1, 3])
    def test_history_schema(self, case):
        # c04 #1 converges at iteration 100; #3 is capped at 788, before
        # the polish's first plateau test at 800
        config = SolverConfig(theta=1.5, max_iters=788)
        sol = solve(c04_matrix(case), config)
        assert sol.converged == (case == 1)
        history = sol.history
        # a stopping test at 8, 16 and 24, at every multiple of 25 and at
        # max_iters
        want = [8, 16, 24] + list(range(25, sol.iterations + 1, 25))
        if not sol.converged:
            want.append(config.max_iters)
        assert [h["iteration"] for h in history] == want
        assert history[-1]["iteration"] == sol.iterations
        for h in history:
            assert {"iteration", "primal_residual", "dual_residual",
                    "step"} <= set(h)
            assert all(math.isfinite(v) for v in h.values())
        last = history[-1]
        assert last["cert_residual"] == sol.cert_residual
        assert (last["primal_residual"], last["dual_residual"]) == (
            sol.primal_residual, sol.dual_residual)

    def test_scaling_bridge(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = rng.random((5, 6))
            theta = float(rng.uniform(0.1, 1.5))
            sol = solve(a, tight(theta))
            dual = dual_theta_norm(a, theta)
            assert theta_norm(sol.x * dual, theta) == pytest.approx(
                1.0, abs=1e-8)

    def test_nonnegative_above_theta_one(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = rng.random((8, 8))
            sol = solve(a, tight(1.5))
            assert sol.x.min() >= -1e-9

    def test_non_unique_flag_on_ties(self):
        sol = solve(np.eye(2), tight(0.0))
        assert sol.non_unique

    def test_unique_flag_on_generic(self):
        a = np.random.default_rng(14).random((5, 5))
        sol = solve(a, tight(0.5))
        assert not sol.non_unique


class TestStoppingSchedule:
    def test_planted_stops_where_it_certifies(self, monkeypatch):
        # the bench model: checked at every iteration it first certifies
        # at 16, where the early stopping tests let it stop
        model = PlantedModel(m=480, n=480, M=160, N=160, c3=0.1,
                             noise_family="uniform")
        a = plant_rank_one(model, seed=1000).a
        checks = []
        check = solver_module._check

        def counting_check(*args):
            checks.append(1)
            return check(*args)

        monkeypatch.setattr(solver_module, "_check", counting_check)
        sol = solve(a, SolverConfig(theta=1.0 / 160, tol_primal=1e-7,
                                    tol_dual=1e-7, tol_gap=1e-7))
        assert sol.converged and sol.iterations == 16
        assert len(checks) == 1
        assert [h["iteration"] for h in sol.history] == [8, 16]
        assert sol.gap <= 1e-7


class TestNuclearProxPath:
    def test_planted_240_matches_lapack_path(self, monkeypatch):
        model = PlantedModel(m=240, n=240, M=80, N=80, c3=0.1,
                             noise_family="uniform")
        a = plant_rank_one(model, seed=3).a
        config = SolverConfig(theta=1.0 / 80, tol_primal=1e-7, tol_dual=1e-7,
                              tol_gap=1e-7)
        assert min(a.shape) >= linalg._PARTIAL_SVT_MIN_DIM
        partial = solve(a, config)
        monkeypatch.setattr(linalg, "_PARTIAL_SVT_MIN_DIM", 10**9)
        full = solve(a, config)
        assert partial.converged and full.converged
        assert partial.iterations == full.iterations
        np.testing.assert_array_equal(partial.support_rows, full.support_rows)
        np.testing.assert_array_equal(partial.support_cols, full.support_cols)
        assert partial.gap == pytest.approx(full.gap, rel=1e-6)
        assert partial.objective == pytest.approx(full.objective, rel=1e-10)
        cert = recover_dual(a, config.theta, partial.state)
        report = check_optimality(a, config.theta, partial.scaled(), cert)
        assert report.max_residual <= 1e-6

    def test_non_finite_iterate_fails(self, monkeypatch):
        make_prox = solver_module._nuclear_prox

        def poisoned(shape):
            prox = make_prox(shape)
            calls = []

            def call(m, tau):
                left, right = prox(m, tau)
                calls.append(tau)
                if len(calls) == 29:
                    left[0, 0] = np.nan  # a factor of x1 = left @ right
                return left, right
            return call

        monkeypatch.setattr(solver_module, "_nuclear_prox", poisoned)
        # one nuclear prox per iteration, so the 29th call poisons
        # iteration 29; unstopped, the next full SVD would fail on the NaN
        # with "SVD did not converge". The guard reads h(mu) of the first
        # pass: the NaN reaches it through w, also where A is zero (row 0
        # of the third case), and with several row blocks and the
        # subspace prox (the planted case, whose tighter tolerance keeps
        # it running past its certificate at iteration 25).
        demo = two_block_matrix()
        row_zero = np.vstack([np.zeros((1, demo.shape[1])), demo])
        planted, planted_config = planted_120x157()
        assert solve(planted, planted_config).iterations < 29
        planted_config = replace(planted_config, tol_primal=1e-10)
        assert planted.shape[0] > solver_module._BLOCK_ENTRIES \
            // planted.shape[1]
        for a, config in [(demo, SolverConfig(theta=0.5)),
                          (planted, planted_config),
                          (row_zero, SolverConfig(theta=0.5))]:
            with pytest.raises(ValueError,
                               match="solver iterate is not finite at "
                                     "iteration 29"):
                solve(a, config)


def assert_same_solve(got, want):
    """Bit-for-bit equality of two solves' results and certificates."""
    np.testing.assert_array_equal(got.x, want.x)
    assert got.gap == want.gap and got.objective == want.objective
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.cert_residual == want.cert_residual
    assert got.primal_residual == want.primal_residual
    assert got.dual_residual == want.dual_residual
    np.testing.assert_array_equal(got.certificate.y,
                                  want.certificate.y)
    np.testing.assert_array_equal(got.certificate.z,
                                  want.certificate.z)


def planted_120x157():
    model = PlantedModel(m=120, n=157, M=40, N=50, c3=0.1,
                         noise_family="uniform")
    return plant_rank_one(model, seed=5).a, SolverConfig(
        theta=1.0 / 50, tol_primal=1e-7, tol_dual=1e-7, tol_gap=1e-7)


class TestMemoryLayout:
    @pytest.mark.parametrize("case", ["two_block", "planted_120x157"])
    def test_fortran_order_gives_same_bits(self, case):
        if case == "two_block":
            a, config = two_block_matrix(), SolverConfig(theta=0.5)
        else:
            a, config = planted_120x157()
            assert min(a.shape) >= linalg._PARTIAL_SVT_MIN_DIM
        c_order = solve(np.ascontiguousarray(a), config)
        f_order = solve(np.asfortranarray(a), config)
        assert c_order.converged
        assert_same_solve(f_order, c_order)


def c04_matrix(index):
    """Matrix `index` of the c04 nonnegativity corpus (rng 40)."""
    rng = np.random.default_rng(40)
    return [rng.random((15, 15)) for _ in range(index + 1)][index]


class TestGatedChecks:
    """A stopping test checks the certificate only where the primal and
    dual residuals pass, since a check cannot stop the solve otherwise,
    and always at max_iters; skipping the others changes no result."""

    @pytest.mark.parametrize("case", range(4))
    def test_same_result_as_checking_every_interval(self, case):
        if case == 0:
            model = PlantedModel(m=120, n=120, M=40, N=40, c3=0.1,
                                 noise_family="uniform")
            a = plant_rank_one(model, seed=1).a
            config = SolverConfig(theta=1.0 / 40, tol_primal=1e-7,
                                  tol_dual=1e-7, tol_gap=1e-7)
        else:
            a = c04_matrix((0, 1, 3)[case - 1])
            # 788 is not a multiple of 25: the capped solve's last check is
            # its forced one at max_iters, before the polish could run
            config = SolverConfig(theta=1.5, max_iters=(15000, 15000,
                                                        788)[case - 1])
        gated = solve(a, config)
        assert gated.converged == (case != 3)
        # residual tolerances every stopping test passes and a gap none
        # does: the same iterations with a check at every stopping test
        checked = solve(a, replace(config, max_iters=gated.iterations,
                                   tol_primal=0.5, tol_dual=0.5,
                                   tol_gap=1e-300))
        assert not checked.converged
        assert_same_solve(replace(checked, stop_reason=gated.stop_reason),
                          gated)
        assert len(checked.history) == len(gated.history)
        for h, ref in zip(gated.history, checked.history):
            assert "cert_residual" in ref
            can_stop = (h["primal_residual"] <= config.tol_primal
                        and h["dual_residual"] <= config.tol_dual)
            if can_stop or h["iteration"] == gated.iterations:
                assert h == ref
            else:
                assert h == {k: ref[k] for k in ("iteration",
                             "primal_residual", "dual_residual", "step")}
        if not gated.converged:
            assert gated.iterations == config.max_iters == 788
            assert np.isfinite(gated.cert_residual)


class TestInputScale:
    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-160, 1e160,
                                       2.0 ** -900, 2.0 ** 900])
    def test_extreme_scale_solves(self, scale):
        a = two_block_matrix()
        base = solve(a, SolverConfig(theta=0.5))
        sol = solve(a * scale, SolverConfig(theta=0.5))
        assert sol.converged and sol.iterations == base.iterations
        assert sol.objective * scale == pytest.approx(base.objective,
                                                      rel=1e-12)
        np.testing.assert_array_equal(sol.support_rows, base.support_rows)

    def test_power_of_two_scale_is_exact(self):
        a = two_block_matrix()
        config = SolverConfig(theta=0.5)
        base = solve(a, config)
        sol = solve(np.ldexp(a, -700), config)
        assert sol.iterations == base.iterations and sol.gap == base.gap
        assert np.array_equal(np.ldexp(sol.x, -700), base.x)
        assert sol.objective == np.ldexp(base.objective, 700)
        assert sol.sigma == np.ldexp(base.sigma, 700)
        cert, ref = sol.certificate, base.certificate
        assert np.array_equal(np.ldexp(cert.y, 700), ref.y)
        assert np.array_equal(np.ldexp(cert.z, 700), ref.z)
        assert cert.dual_norm == np.ldexp(ref.dual_norm, -700)
        assert cert.spectral_gap == np.ldexp(ref.spectral_gap, -700)
        assert cert.linf_argmax_count == ref.linf_argmax_count


class TestSplittingReference:
    """The blocked Douglas-Rachford iteration matches a whole-array
    reference with a full SVD and a sort-based prox_g over all sixty
    iterations. The solver runs with the full-SVD prox on every shape, so
    that both sides take the same SVD. The sides then differ by rounding of
    the state, about 1e-15 of the first step in every case: each residual
    matches to rtol 1e-9 or to 1e-12 of its first value, the second only
    where the planted case has converged to rounding (past iteration 20)
    and signed_8x3 nearly so."""

    @pytest.mark.parametrize("case", ["two_block", "random_5x7",
                                      "signed_8x3", "planted_90x100"])
    def test_matches_multiplier_form(self, case, monkeypatch):
        rng = np.random.default_rng(21)
        penalty = 1.5
        if case == "two_block":
            a, theta = two_block_matrix(), 0.5
        elif case == "random_5x7":
            a, theta = rng.random((5, 7)), 0.4
        elif case == "signed_8x3":
            a, theta, penalty = rng.random((8, 3)) - 0.3, 0.9, 2.0
        else:
            model = PlantedModel(m=90, n=100, M=30, N=30, c3=0.1,
                                 noise_family="uniform")
            a, theta = plant_rank_one(model, seed=2).a, 1.0 / 30
            assert min(a.shape) >= linalg._PARTIAL_SVT_MIN_DIM
        monkeypatch.setattr(solver_module, "_nuclear_prox",
                            lambda shape: linalg._svt)
        # a stopping test at every iteration, and tolerances no solve
        # meets: all 60 iterations run
        monkeypatch.setattr(solver_module, "_CHECK_EVERY", 1)
        monkeypatch.setattr(solver_module, "_PENALTY", penalty)
        config = SolverConfig(theta=theta, max_iters=60, tol_primal=1e-300)
        sol = solve(a, config)
        assert sol.iterations == 60
        history = sol.history
        assert [h["iteration"] for h in history] == list(range(1, 61))
        ref = dr2_residuals(a, theta, penalty, solver_module._RELAX, 60)
        for i, name in enumerate(("primal_residual", "dual_residual",
                                  "step")):
            np.testing.assert_allclose(
                [h[name] for h in history], [r[i] for r in ref],
                rtol=1e-9, atol=1e-12 * ref[0][i], err_msg=name)


class TestExitPathSvds:
    def test_one_svd_of_the_candidate(self, monkeypatch):
        model = PlantedModel(m=240, n=240, M=80, N=80, c3=0.1,
                             noise_family="uniform")
        a = plant_rank_one(model, seed=3).a
        config = SolverConfig(theta=1.0 / 80, tol_primal=1e-7, tol_dual=1e-7,
                              tol_gap=1e-7)
        svds = []                 # (kind, shape, compute_uv) of each call
        svd_fn, eigvalsh_fn = np.linalg.svd, np.linalg.eigvalsh
        check = solver_module._check

        def counting_svd(m, *args, **kwargs):
            svds.append(("svd", np.shape(m),
                         kwargs.get("compute_uv", True)))
            return svd_fn(m, *args, **kwargs)

        def counting_eigvalsh(m, *args, **kwargs):
            svds.append(("eigvalsh", np.shape(m), False))
            return eigvalsh_fn(m, *args, **kwargs)

        spans = []                # calls before and after a check

        def counting_check(*args):
            before = len(svds)
            out = check(*args)
            spans.append((before, len(svds)))
            return out

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(solver_module, "_check", counting_check)
        sol = solve(a, config)
        assert sol.converged
        before, after = spans[-1]
        support = (int(np.count_nonzero(sol.x.any(axis=1))),
                   int(np.count_nonzero(sol.x.any(axis=0))))
        assert support[0] < a.shape[0] and support[1] < a.shape[1]
        # sigma(Y) from the eigenvalues of its Gram matrix, the SVD of
        # x_rep with vectors on its nonzero rows and columns; nothing after
        # the check
        short = min(a.shape)
        assert sorted(svds[before:after]) == sorted([
            ("eigvalsh", (short, short), False), ("svd", support, True)])
        assert len(svds) == after


class TestGapStop:
    """converged=True needs the report's gap at tol_gap, not only its other
    residuals."""

    def test_residual_alone_does_not_stop(self, monkeypatch):
        # capped before the polish's first plateau test at 800, which the
        # demo's flat residual at the rounding floor would pass
        config = SolverConfig(theta=0.5, max_iters=750)
        assert solve(two_block_matrix(), config).iterations == 350
        check = solver_module._check

        def gapped(*args):
            chk = check(*args)
            # every residual passes but the gap
            return chk._replace(report=OptimalityReport(
                **{f.name: 0.0 for f in fields(OptimalityReport)}
                | {"gap": 1.0}))

        monkeypatch.setattr(solver_module, "_check", gapped)
        sol = solve(two_block_matrix(), config)
        assert not sol.converged and sol.iterations == 750
        assert sol.gap == 1.0 and sol.cert_residual == 1.0


class TestOneScorer:
    """solve stops on the report check_optimality computes: a converged
    solve's gap and cert_residual are, bit for bit, the gap and
    max_residual of check_optimality on its scaled solution and
    certificate."""

    def test_solve_reports_check_optimality(self):
        # the demo, the c05 corpus (the first 20 matrices of rng 50 at
        # 0.9 theta_A) and 60 x 60 bicliques, seeds 0-19, as the CLI
        # solves them at --max-iters 2000
        rng = np.random.default_rng(50)
        c05 = [rng.random((12, 10)) for _ in range(20)]
        cases = ([(two_block_matrix(), SolverConfig(theta=0.5))]
                 + [(a, SolverConfig(theta=0.9 * theta_A(a))) for a in c05]
                 + [(plant_biclique(60, 60, 15, 15, 0.5, seed).a,
                     SolverConfig(theta=1.0 / 15, max_iters=2000))
                    for seed in range(20)])
        converged = 0
        for a, config in cases:
            sol = solve(a, config)
            if not sol.converged:
                continue
            converged += 1
            report = check_optimality(
                a, config.theta, sol.scaled(),
                recover_dual(a, config.theta, sol.state))
            assert report.gap == sol.gap
            assert report.max_residual == sol.cert_residual
        assert converged >= 30


class TestPolish:
    """The interior-point polish of a dual-degenerate plateau: it stops a
    solve only with a certificate that passes at tol_gap, and otherwise
    leaves the splitting to run as if it had not run."""

    # c04 #5 reaches the cap of 15000 by splitting; 2000 is past the
    # plateau tests at 800 and 1600 and costs a seventh of the full cap
    CONFIG = SolverConfig(theta=1.5, max_iters=2000)

    def test_capped_c04_solve_polished(self):
        a = c04_matrix(5)
        sol = solve(a, SolverConfig(theta=1.5, max_iters=15000))
        assert sol.converged and sol.stop_reason == "polished"
        assert sol.iterations == solver_module._POLISH_FIRST
        history = sol.history
        # the polish updates its stopping test's entry and appends none
        want = [8, 16, 24] + list(range(25, sol.iterations + 1, 25))
        assert [h["iteration"] for h in history] == want
        last = history[-1]
        assert 0 < last["polish_steps"] <= solver_module._POLISH_STEPS
        assert last["cert_residual"] == sol.cert_residual
        assert all("polish_steps" not in h for h in history[:-1])
        report = check_optimality(a, 1.5, sol.scaled(),
                                  recover_dual(a, 1.5, sol.state))
        assert report.max_residual == sol.cert_residual <= 1e-8
        assert report.gap == sol.gap
        assert sol.x.min() >= -1e-9

    @pytest.mark.parametrize("index", [5, 9])
    def test_polish_result_independent_of_plateau_test(self, monkeypatch,
                                                       index):
        # the polish starts cold from A, theta and tol_gap: run at the
        # plateau test of 800, it returns what it returns at 1600
        a, config = c04_matrix(index), SolverConfig(theta=1.5,
                                                    max_iters=15000)
        sol = solve(a, config)
        monkeypatch.setattr(solver_module, "_POLISH_FIRST", 1600)
        late = solve(a, config)
        assert sol.stop_reason == late.stop_reason == "polished"
        assert (sol.iterations, late.iterations) == (800, 1600)
        np.testing.assert_array_equal(sol.x, late.x)
        cert, want = sol.certificate, late.certificate
        np.testing.assert_array_equal(cert.y, want.y)
        np.testing.assert_array_equal(cert.z, want.z)
        assert cert.dual_norm == want.dual_norm
        assert (sol.objective, sol.gap, sol.cert_residual) == (
            late.objective, late.gap, late.cert_residual)

    def test_declined_polish_runs_once(self, monkeypatch):
        polish = solver_module._polish
        calls = []

        def declining(*args):
            calls.append(args)
            chk, steps = polish(*args)
            return chk._replace(report=replace(chk.report, gap=1.0)), steps

        monkeypatch.setattr(solver_module, "_polish", declining)
        config = SolverConfig(theta=1.5, max_iters=15000)
        sol = solve(c04_matrix(7), config)
        assert len(calls) == 1
        assert sol.stop_reason == "max_iters"
        assert sol.iterations == config.max_iters
        polished = [h["iteration"] for h in sol.history if "polish_steps" in h]
        assert polished == [solver_module._POLISH_FIRST]
        # the splitting plateaus at every later plateau test too (1600 to
        # 12800), where a second polish would have run
        r = {h["iteration"]: h["primal_residual"] for h in sol.history}
        later = [1600 * 2 ** j for j in range(4)]
        assert all(r[k] >= solver_module._POLISH_PLATEAU * r[k // 2]
                   for k in later)

    def test_splitting_certifier_unpolished(self):
        # c04 #0 certifies by splitting at 100 iterations, before the
        # polish could run
        sol = solve(c04_matrix(0), SolverConfig(theta=1.5, max_iters=15000))
        assert sol.stop_reason == "converged" and sol.iterations == 100
        assert all("polish_steps" not in h for h in sol.history)

    @pytest.mark.parametrize("failure", ["report fails", "LinAlgError"])
    def test_failed_polish_leaves_splitting(self, monkeypatch, failure):
        a = c04_matrix(5)
        # the result of a solve that cannot polish
        monkeypatch.setattr(solver_module, "_POLISH_MAX_ENTRIES", 0)
        want = solve(a, self.CONFIG)
        monkeypatch.undo()
        polish = solver_module._polish
        calls = []

        def failing(*args):
            calls.append(args)
            if failure == "LinAlgError":
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            chk, steps = polish(*args)
            assert chk.report.passed(1e-8)  # the real polish certifies
            return chk._replace(report=replace(chk.report, gap=1.0)), steps

        monkeypatch.setattr(solver_module, "_polish", failing)
        sol = solve(a, self.CONFIG)
        # one call: the polish ran at the first plateau test and not again
        # at 1600, which also finds the plateau
        assert len(calls) == 1
        assert not sol.converged and sol.stop_reason == "max_iters"
        assert sol.iterations == self.CONFIG.max_iters
        assert_same_solve(sol, want)
        assert sol.non_unique == want.non_unique
        np.testing.assert_array_equal(sol.u, want.u)
        np.testing.assert_array_equal(sol.support_cols, want.support_cols)
        polished = [h for h in sol.history if "polish_steps" in h]
        if failure == "LinAlgError":
            assert polished == []
        else:
            assert [h["iteration"] for h in polished] == [
                solver_module._POLISH_FIRST]
            assert polished[0]["polish_cert_residual"] == 1.0
        for h, ref in zip(sol.history, want.history):
            assert h == ref or h in polished

    def test_declined_polish_keeps_splitting_check(self, monkeypatch):
        # the demo at theta 1e10 plateaus: the polish at 800 declines
        # (its best candidate scores 5.6e-8 against tol_gap 1e-8), and
        # that entry keeps the splitting's check (1.4e-6, as at 775)
        a, config = two_block_matrix(), SolverConfig(theta=1e10,
                                                     max_iters=2000)
        sol = solve(a, config)
        monkeypatch.setattr(solver_module, "_POLISH_MAX_ENTRIES", 0)
        want = solve(a, config)
        assert sol.stop_reason == want.stop_reason == "max_iters"
        entry = {h["iteration"]: h for h in sol.history}[
            solver_module._POLISH_FIRST]
        assert entry.pop("polish_steps") > 0
        assert 1e-8 < entry.pop("polish_cert_residual") < entry[
            "cert_residual"]
        assert sol.history == want.history

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32 - 1),
           st.floats(0.05, 3.0))
    def test_polished_solves_certify(self, m, n, seed, theta):
        # the polish moved to the first stopping test it can follow (16,
        # after 8) and fired wherever the solve has not stopped there, so
        # that it runs on most draws; it may decline, but a solve it stops
        # passes check_optimality at tol_gap
        if m * n > solver_module._POLISH_MAX_ENTRIES:
            m = solver_module._POLISH_MAX_ENTRIES // n
        a = np.random.default_rng(seed).standard_normal((m, n))
        config = SolverConfig(theta=theta, max_iters=100)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_module, "_POLISH_FIRST", 16)
            patch.setattr(solver_module, "_POLISH_PLATEAU", 0.0)
            sol = solve(a, config)
        if sol.stop_reason == "polished":
            assert sol.converged and sol.iterations == 16
            report = check_optimality(a, theta, sol.scaled(),
                                      recover_dual(a, theta, sol.state))
            assert report.max_residual <= config.tol_gap
        else:
            assert sol.converged == (sol.stop_reason == "converged")

    @pytest.mark.parametrize("theta", [1e8, 1e10, 1e12])
    @pytest.mark.parametrize("case", ["demo", "rng3"])
    def test_large_theta_never_raises(self, case, theta):
        # the splitting runs to the cap here; the polish certifies or
        # declines (CHANGES.md has which), and converged still means a
        # certificate passed
        a = (two_block_matrix() if case == "demo"
             else np.random.default_rng(3).random((15, 15)))
        config = SolverConfig(theta=theta, max_iters=2000)
        sol = solve(a, config)
        report = check_optimality(a, theta, sol.scaled(),
                                  sol.certificate)
        assert sol.converged == report.passed(config.tol_gap)
        assert sol.stop_reason in ("converged", "polished", "max_iters")


def blocked_prox(prox, w):
    """The solver's prox_g of `w`: h at prox.mu summed over the row blocks
    as the solver's first pass sums it, then the root find, which adds
    _RELAX prox_g(w) to a state z. Returns (mu, x2, z / _RELAX), the last
    being x2 again if every pass but the last was taken back out."""
    h = sum(prox.h(b, w[b], prox.mu, s, out) for b, s, out in prox.blocks)
    x2, z = np.empty_like(w), np.zeros_like(w)
    prox(w, x2, z, h)
    return prox.mu, x2, z / solver_module._RELAX


def lines_run(func, call):
    """The line numbers of `func` (a function) that ran during call()."""
    code, ran = func.__code__, set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return ran


def store_line(func, name, reads):
    """The first line of `func` (a function) that stores the local `name`
    after reading every local in `reads`, found in its bytecode, not in
    its source file, which may have changed since the import."""
    starts = dict(dis.findlinestarts(func.__code__))
    line, read = None, set()
    for ins in dis.get_instructions(func):
        if starts.get(ins.offset) is not None:
            line, read = starts[ins.offset], set()
        if ins.opname.startswith("LOAD_FAST"):
            # from Python 3.13 one instruction may load two locals
            args = ins.argval
            read.update(args if isinstance(args, tuple) else (args,))
        elif (ins.opname == "STORE_FAST" and ins.argval == name
              and reads <= read):
            return line
    raise LookupError(f"{func.__qualname__} stores no {name} from {reads}")


class TestL1HalfspaceProx:
    """The solver's prox of theta*||.||_1 + indicator{<A, .> >= 1} (a
    Newton and secant root find over row blocks) against the sort-based
    oracle, cold (mu = 0, the largest slope) and warm (the previous root
    and secant slope, as in the next iteration)."""

    def check(self, a, w, t, prox=None):
        prox = prox or solver_module._GProx(a, t)
        mu, x2, added = blocked_prox(prox, w)
        mu_ref, x2_ref = l1_halfspace_prox(w, a, t)
        # h is piecewise linear: rounding of about eps * sum|A x2| in h
        # fixes its root only to that over h's slope at the root, the sum
        # of A^2 where w + mu A is not thresholded to zero
        eps = np.finfo(float).eps
        slope = float((a * a)[np.abs(w + mu_ref * a) > t].sum())
        spread = float(np.abs(a * x2_ref).sum()) / slope
        assert abs(mu - mu_ref) <= 8 * eps * (spread + mu_ref)
        scale = np.abs(x2_ref).max()
        np.testing.assert_allclose(x2, x2_ref, rtol=0, atol=1e-14 * scale)
        # z holds x2 once; each pass taken back out leaves rounding of its
        # own size, and a cold root find may overshoot by 100x
        np.testing.assert_allclose(
            added, x2, rtol=0,
            atol=1e-13 * max(np.abs(w).max(), np.abs(x2).max()))
        # feasible to a few ulps in every case, mu = 0 included: the
        # certificate check normalizes x2 by <A, x2> without a fallback
        gain = math.fsum((a * x2).ravel())
        assert gain >= 1.0 - 4 * eps
        if mu > 0:
            # the constraint holds with equality, to a few ulps
            assert abs(gain - 1.0) <= 4 * eps
        return prox

    def test_root_at_zero(self):
        rng = np.random.default_rng(50)
        a = rng.random((6, 5))
        t = 0.1
        # soft(w, t) = 2 a / ||a||^2 where a > 0: h(0) = 2 >= 1
        w = 2.0 * a / float(np.vdot(a, a)) + t
        prox = solver_module._GProx(a, t)
        mu, x2, _ = blocked_prox(prox, w)
        assert mu == 0.0
        assert np.array_equal(x2, linalg.soft_threshold(w, t))
        self.check(a, w, t)

    def test_signed_a(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((7, 9))
        w = 0.1 * rng.standard_normal((7, 9))
        prox = self.check(a, w, 0.05)
        assert prox.mu > 0
        self.check(a, w + 1e-3 * rng.standard_normal(w.shape), 0.05, prox)

    def test_zero_rows(self):
        rng = np.random.default_rng(52)
        a = rng.random((8, 6))
        a[[0, 3]] = 0.0
        w = 0.1 * rng.standard_normal((8, 6))
        prox = self.check(a, w, 0.05)
        # where A is zero, x2 is the soft threshold of w whatever mu is
        _, x2, _ = blocked_prox(solver_module._GProx(a, 0.05), w)
        assert np.array_equal(x2[[0, 3]],
                              linalg.soft_threshold(w[[0, 3]], 0.05))
        self.check(a, w + 1e-3 * rng.standard_normal(w.shape), 0.05, prox)

    def test_root_at_a_breakpoint(self):
        # h(mu) = 0.25 + 3 mu: the root 0.25 is where w + mu A meets +t at
        # (0, 1) and -t at (1, 1); every step is exact in binary
        a = np.ones((2, 2))
        w = np.array([[0.5, 0.0], [0.5, -0.5]])
        prox = self.check(a, w, 0.25)
        assert prox.mu == 0.25
        # entries of w at +-t: breakpoints at mu = 0
        self.check(a, np.array([[0.25, -0.25], [0.5, 0.0]]), 0.25)

    def test_planted_row_blocks(self):
        a, config = planted_120x157()
        rho = 1.5 * float(np.linalg.norm(a))
        t = config.theta / rho
        prox = solver_module._GProx(a, t)
        assert len(prox.blocks) > 1
        # the first iteration's w, then a warm call on a nearby one
        z = a / float(np.vdot(a, a))
        w = 2.0 * linalg.svt(z, 1.0 / rho) - z
        self.check(a, w, t, prox)
        rng = np.random.default_rng(53)
        self.check(a, w + 1e-4 * np.abs(w).max()
                   * rng.standard_normal(w.shape), t, prox)

    @staticmethod
    def stale_draws(seed):
        """Five small nonnegative instances (a, w, t, prox), each prox
        holding a stale root and a slope far below h's own."""
        rng = np.random.default_rng(seed)
        for _ in range(5):
            shape = tuple(int(d) for d in rng.integers(2, 9, size=2))
            a = rng.random(shape)
            w = rng.uniform(0.01, 1.0) * rng.standard_normal(shape)
            t = float(rng.uniform(0.01, 0.5))
            prox = solver_module._GProx(a, t)
            prox.mu = float(rng.uniform(0.0, 3.0))
            prox.slope = float(np.vdot(a, a)) * 10 ** rng.uniform(-3, 0)
            yield a, w, t, prox

    @pytest.mark.parametrize("seed", [7, 35, 48])
    def test_bisection_from_stale_start(self, seed):
        # a stale root and a slope far below h's own send a step out of
        # the bracket [lo, hi], where the root find bisects: about one
        # root find in fifteen on these small nonnegative instances
        call = solver_module._GProx.__call__
        bisect = store_line(call, "nxt", {"lo", "hi"})
        bisected = 0
        for a, w, t, prox in self.stale_draws(seed):
            ran = lines_run(call, partial(self.check, a, w, t, prox))
            bisected += bisect in ran
        assert bisected

    def test_small_root(self):
        # the third draw of seed 0 (which never bisects): a 7x5 instance
        # whose root 1.14e-3 a cold and a stale start find 4e-14 and 2e-14
        # relative from the oracle's, within what rounding in h allows
        a, w, t, prox = list(self.stale_draws(0))[2]
        assert a.shape == (7, 5)
        cold = self.check(a, w, t)
        assert cold.mu == pytest.approx(1.14e-3, rel=1e-2)
        self.check(a, w, t, prox)


class TestPenaltyDefault:
    def test_tight_tolerance_converges_on_biclique_draw_3(self):
        # without the relaxed step, penalty 1.0 certified this draw at tol
        # 1e-8 with a spurious row and stalled near a gap of 7e-9 at 1e-10
        a = plant_biclique(60, 60, 15, 15, p_edge=0.5, seed=3).a
        base = solve(a, SolverConfig(theta=1.0 / 15))
        tight_sol = solve(a, SolverConfig(
            theta=1.0 / 15, tol_primal=1e-10, tol_dual=1e-10, tol_gap=1e-10,
            max_iters=2000))
        assert base.converged and tight_sol.converged
        np.testing.assert_array_equal(tight_sol.support_rows,
                                      base.support_rows)
        np.testing.assert_array_equal(tight_sol.support_cols,
                                      base.support_cols)

    def test_penalty_one_loses_biclique_draw_21(self, monkeypatch):
        # the three-copy splitting certified this draw in 350 iterations;
        # at penalty 1.0 Douglas-Rachford runs to the cap at a gap of 4e-7
        a = plant_biclique(60, 60, 15, 15, p_edge=0.5, seed=21).a
        config = SolverConfig(theta=1.0 / 15, max_iters=2000)
        assert solve(a, config).converged
        monkeypatch.setattr(solver_module, "_PENALTY", 1.0)
        assert not solve(a, config).converged
