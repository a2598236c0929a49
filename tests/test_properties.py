"""Seeded 200-case property suites for the solver-coupled invariants that
are too expensive to wrap in hypothesis, plus generator and CLI
reproducibility sweeps. CASES is the per-property case count."""

import json
import math
import re

import numpy as np
import pytest

from laros import solver as solver_module
from laros.analysis import (BlockSelector, row_zero_threshold, theta_A,
                            theta_B)
from laros.cli import main
from laros.generate import PlantedModel, plant_rank_one
from laros.generate import _perturbation
from laros.linalg import theta_norm
from laros.nmf import greedy_extract
from laros.solver import SolverConfig, solve

CASES = 200


def fast(theta, **kw):
    return SolverConfig(theta=theta, tol_primal=1e-8, tol_dual=1e-8,
                        tol_gap=1e-8, **kw)


class TestSolverProperties:
    def test_weak_duality_and_step_along_iterates(self, monkeypatch):
        # a stopping test at every iteration, and loose residual
        # tolerances, so that the iterations check the certificate: all
        # but the first few, whose drift of x2 is near 1 (x2 starts at 0)
        monkeypatch.setattr(solver_module, "_CHECK_EVERY", 1)
        rng = np.random.default_rng(70)
        for case in range(CASES):
            a = rng.random((5, 5)) + 0.05
            theta = float(rng.uniform(0.05, 1.5))
            sol = solve(a, SolverConfig(theta=theta, tol_primal=0.5,
                                        tol_dual=0.5))
            assert sol.converged
            history = sol.history
            assert len(history) == sol.iterations
            slacks = [h["weak_duality_slack"] for h in history
                      if "weak_duality_slack" in h]
            assert len(slacks) >= sol.iterations - 2
            assert min(slacks) >= -1e-9
            # the step ||z+ - z|| of relaxed Douglas-Rachford never grows
            steps = np.array([h["step"] for h in history])
            assert np.diff(steps).max(initial=0.0) <= 1e-12 * steps[0]

    def test_scaling_bridge(self):
        rng = np.random.default_rng(71)
        for case in range(CASES):
            a = rng.random((4, 5)) + 0.05
            theta = float(rng.uniform(0.05, 1.5))
            sol = solve(a, fast(theta))
            dual = 1.0 / sol.objective
            assert theta_norm(sol.x * dual, theta) == pytest.approx(
                1.0, abs=1e-8)

    def test_scale_invariance(self):
        # the problem is homogeneous in A: any positive scale from 1e-250
        # to 1e250 solves, with X and the objective scaled by 1/scale and
        # the certificate by scale
        rng = np.random.default_rng(80)
        for case in range(CASES // 8):
            a = rng.random((4, 5)) + 0.05
            theta = float(rng.uniform(0.05, 1.5))
            base = solve(a, fast(theta))
            ref = base.certificate
            for exponent in rng.uniform(-250.0, 250.0, size=8):
                scale = 10.0 ** exponent
                sol = solve(a * scale, fast(theta))
                assert sol.converged and base.converged
                assert list(sol.support_rows) == list(base.support_rows)
                assert list(sol.support_cols) == list(base.support_cols)
                assert sol.objective * scale == pytest.approx(
                    base.objective, rel=1e-9)
                np.testing.assert_allclose(sol.x * scale, base.x, rtol=0,
                                           atol=1e-9 * np.abs(base.x).max())
                cert = sol.certificate
                assert cert.dual_norm / scale == pytest.approx(
                    ref.dual_norm, rel=1e-9)
                np.testing.assert_allclose(cert.y / scale, ref.y, rtol=0,
                                           atol=1e-9 * np.abs(a).max())
                assert 0.0 <= sol.gap <= 1e-6

    def test_theta_zero_matches_svd(self):
        rng = np.random.default_rng(72)
        for case in range(CASES):
            a = rng.random((5, 4)) + 0.05
            s = np.linalg.svd(a, compute_uv=False)
            if s[0] - s[1] < 0.05 * s[0]:
                continue
            sol = solve(a, fast(0.0))
            u, sv, vt = np.linalg.svd(a)
            closed = np.outer(u[:, 0], vt[0]) / sv[0]
            sign = math.copysign(1.0, float(np.vdot(closed, sol.x)))
            assert np.linalg.norm(sol.x - sign * closed) <= 1e-6

    def test_large_theta_singleton_support(self):
        rng = np.random.default_rng(73)
        for case in range(CASES):
            a = rng.random((4, 4)) + 0.1
            i, j = int(rng.integers(4)), int(rng.integers(4))
            a[i, j] = a.max() * float(rng.uniform(1.3, 2.0))
            block = BlockSelector(rows=np.array([i]), cols=np.array([j]))
            tb = theta_B(a, block)
            assert tb is not None
            sol = solve(a, fast(1.05 * tb))
            assert list(sol.support_rows) == [i]
            assert list(sol.support_cols) == [j]

    def test_nonnegative_above_theta_one(self):
        rng = np.random.default_rng(74)
        for case in range(CASES):
            a = rng.random((6, 6)) + 0.02
            theta = float(rng.uniform(1.01, 2.5))
            sol = solve(a, fast(theta))
            assert sol.x.min() >= -1e-9

    def test_rank_one_below_theta_a(self):
        rng = np.random.default_rng(75)
        for case in range(CASES):
            a = rng.random((6, 5)) + 0.05
            ta = theta_A(a)
            if ta <= 0:
                continue
            sol = solve(a, fast(0.9 * ta))
            s = np.linalg.svd(sol.x, compute_uv=False)
            assert s[1] <= 1e-6 * s[0]


class TestAnalysisProperties:
    def test_theta_b_kills_off_block(self):
        rng = np.random.default_rng(76)
        for case in range(CASES):
            m, n = 6, 7
            a = rng.uniform(0.0, 1.0, size=(m, n))
            rows = np.sort(rng.choice(m, size=2, replace=False))
            cols = np.sort(rng.choice(n, size=3, replace=False))
            a[np.ix_(rows, cols)] = rng.uniform(1.5, 2.5, size=(2, 3))
            block = BlockSelector(rows=rows, cols=cols)
            tb = theta_B(a, block)
            assert tb is not None
            sol = solve(a, fast(1.05 * tb))
            mask = np.ones((m, n), dtype=bool)
            mask[np.ix_(rows, cols)] = False
            assert np.abs(sol.x[mask]).max(initial=0.0) <= 1e-8

    def test_row_zero_threshold_kills_row(self):
        rng = np.random.default_rng(77)
        for case in range(CASES):
            v = rng.uniform(0.5, 1.0, size=5)
            u = rng.uniform(0.8, 1.2, size=4)
            weak = int(rng.integers(4))
            u[weak] = 0.15
            a = np.outer(u, v) + rng.uniform(0.0, 0.01, size=(4, 5))
            strong = int(np.argmax(u))
            threshold = row_zero_threshold(a, strong, weak)
            if threshold is None:
                continue
            sol = solve(a, fast(min(1.05 * max(threshold, 0.01), 5.0)))
            s = np.linalg.svd(sol.x, compute_uv=False)
            if s[1] > 1e-6 * s[0]:  # theorem addresses rank-one optima
                continue
            assert np.abs(sol.x[weak]).max() <= 1e-8

    def test_rank_one_flip_closure(self):
        rng = np.random.default_rng(78)
        for case in range(CASES):
            a = rng.random((5, 6))
            u = rng.standard_normal(5)
            v = rng.standard_normal(6)
            sigma = float(rng.uniform(0.1, 3.0))
            x = sigma * np.outer(u, v)
            flipped = sigma * np.outer(np.abs(u), np.abs(v))
            theta = float(rng.uniform(0.0, 2.0))
            assert theta_norm(flipped, theta) == pytest.approx(
                theta_norm(x, theta), rel=1e-9)
            assert float(np.vdot(a, flipped)) >= float(np.vdot(a, x)) - 1e-12


class TestGeneratorProperties:
    def test_zero_noise_block_singular_value(self):
        rng = np.random.default_rng(79)
        for case in range(CASES):
            p_seed = int(rng.integers(2**32))
            q_seed = int(rng.integers(2**32))
            c1 = float(rng.uniform(0.0, 0.6))
            c2 = float(rng.uniform(0.0, 0.6))
            sigma0 = float(rng.uniform(0.5, 3.0))
            model = PlantedModel(m=7, n=8, M=3, N=4, sigma0=sigma0, c1=c1,
                                 c2=c2, c3=0.0, p_seed=p_seed,
                                 q_seed=q_seed)
            inst = plant_rank_one(model, seed=case)
            u0 = 1.0 + _perturbation(3, c1 * math.sqrt(3.0), p_seed)
            v0 = 1.0 + _perturbation(4, c2 * math.sqrt(4.0), q_seed)
            block = inst.a[:3, :4]
            s = np.linalg.svd(block, compute_uv=False)
            assert s[0] == pytest.approx(
                sigma0 * np.linalg.norm(u0) * np.linalg.norm(v0), rel=1e-12)
            assert s[1] <= 1e-12 * s[0]
            assert not inst.a[3:, :].any() and not inst.a[:, 4:].any()
            assert u0.min() > 0 and v0.min() > 0
            assert np.linalg.norm(u0 - 1.0) <= c1 * math.sqrt(3.0) + 1e-12
            assert np.linalg.norm(v0 - 1.0) <= c2 * math.sqrt(4.0) + 1e-12


class TestNmfProperties:
    def test_factors_nonnegative_decreasing(self):
        rng = np.random.default_rng(80)
        for case in range(60):
            a = rng.random((6, 6)) + 0.05
            res = greedy_extract(a, 2, 0.3 / 6.0, fast(0.0))
            assert res.w.min() >= 0.0 and res.h.min() >= 0.0
            norms = res.residual_norms
            assert np.all(np.diff(norms) <= 1e-12)
            for k in range(res.extracted):
                assert norms[k + 1] < norms[k]
                block = res.supports[k]
                assert set(np.flatnonzero(res.w[:, k])) <= set(block.rows)
                assert set(np.flatnonzero(res.h[:, k])) <= set(block.cols)

    def test_residual_update_never_negative(self):
        rng = np.random.default_rng(81)
        from laros.nmf import residual_update
        for case in range(CASES):
            r = rng.random((5, 5))
            rows = np.sort(rng.choice(5, size=2, replace=False))
            cols = np.sort(rng.choice(5, size=3, replace=False))
            block = BlockSelector(rows=rows, cols=cols)
            out = residual_update(r, float(rng.uniform(0, 2)),
                                  rng.random(2), rng.random(3), block)
            assert out.min() >= 0.0
            mask = np.ones((5, 5), dtype=bool)
            mask[np.ix_(rows, cols)] = False
            np.testing.assert_array_equal(out[mask], r[mask])


class TestCliProperties:
    def test_record_reproducibility_sweep(self, tmp_path):
        strip = re.compile(rb'\s*"duration_seconds": [^,\n]*,?\n')
        for case in range(CASES):
            m1 = tmp_path / f"a{case}.mtx"
            m2 = tmp_path / f"b{case}.mtx"
            r1 = tmp_path / f"a{case}.json"
            r2 = tmp_path / f"b{case}.json"
            base = ["plant", "--m", "7", "--n", "6", "--M", "2", "--N", "2",
                    "--c3", "0.2", "--seed", str(case)]
            assert main(base + ["--matrix-output", str(m1),
                                "--output", str(r1)]) == 0
            assert main(base + ["--matrix-output", str(m2),
                                "--output", str(r2)]) == 0
            assert m1.read_bytes() == m2.read_bytes()
            b1 = strip.sub(b"", r1.read_bytes()).replace(
                str(m1).encode(), b"M")
            b2 = strip.sub(b"", r2.read_bytes()).replace(
                str(m2).encode(), b"M")
            assert b1 == b2
            record = json.loads(r1.read_text())
            assert record["manifest"]["parameters"]["seed"] == case
