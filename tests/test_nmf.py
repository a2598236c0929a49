"""Tests for the greedy factorization driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from laros import nmf
from laros.analysis import BlockSelector
from laros.generate import two_block_matrix
from laros.nmf import greedy_extract, residual_update
from laros.solver import (ConvergenceError, SolverConfig, extract_rank_one,
                          solve)


def rounds(p, theta):
    """p rounds at `theta`, each at tolerances 1e-9."""
    return p * [SolverConfig(theta=theta, tol_primal=1e-9, tol_dual=1e-9,
                             tol_gap=1e-9)]


def block_diag_rank_one(rng, sizes, scales):
    total_m = sum(m for m, _ in sizes)
    total_n = sum(n for _, n in sizes)
    a = np.zeros((total_m, total_n))
    r0 = c0 = 0
    for (m, n), scale in zip(sizes, scales):
        u = rng.random(m) + 0.5
        v = rng.random(n) + 0.5
        a[r0:r0 + m, c0:c0 + n] = scale * np.outer(u, v)
        r0 += m
        c0 += n
    return a


class TestResidualUpdate:
    def test_exact_block_zeroed(self):
        rng = np.random.default_rng(0)
        u = rng.random(3) + 0.5
        v = rng.random(4) + 0.5
        r = np.zeros((5, 6))
        r[1:4, 2:6] = np.outer(u, v)
        block = BlockSelector(rows=np.arange(1, 4), cols=np.arange(2, 6))
        out = residual_update(r, 1.0, u, v, block)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_sigma_zero_unchanged(self):
        r = np.random.default_rng(1).random((3, 3))
        block = BlockSelector(rows=np.arange(3), cols=np.arange(3))
        np.testing.assert_array_equal(
            residual_update(r, 0.0, np.ones(3), np.ones(3), block), r)

    def test_clamp_active(self):
        r = np.array([[1.0]])
        block = BlockSelector(rows=np.array([0]), cols=np.array([0]))
        out = residual_update(r, 2.0, np.array([1.0]), np.array([1.0]), block)
        assert out[0, 0] == 0.0

    @pytest.mark.parametrize("u, v, shapes", [
        (np.ones(1), np.ones(1), "(1,) and (1,)"),
        (np.ones((2, 1)), np.ones(2), "(2, 1) and (2,)"),
        (np.ones(2), np.ones(3), "(2,) and (3,)")],
        ids=["broadcast", "column", "long-v"])
    def test_factors_must_fit_block(self, u, v, shapes):
        # NumPy would broadcast a length-1 pair over the whole block, and
        # np.outer flattens a column
        block = BlockSelector(rows=[0, 1], cols=[0, 1])
        with pytest.raises(ValueError) as err:
            residual_update(np.full((3, 3), 2.0), 1.0, u, v, block)
        assert str(err.value) == (f"factor shapes {shapes} do not fit the "
                                  "2x2 block")

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_sigma_must_be_finite_nonnegative(self, sigma):
        # NaN made the whole residual NaN, and -1 added the feature
        block = BlockSelector(rows=np.array([0]), cols=np.array([0]))
        with pytest.raises(ValueError) as err:
            residual_update(np.ones((2, 2)), sigma, np.ones(1), np.ones(1),
                            block)
        assert str(err.value) == (f"sigma must be finite and nonnegative, "
                                  f"got {sigma}")

    def test_negative_residual_rejected(self):
        block = BlockSelector(rows=np.array([0]), cols=np.array([0]))
        with pytest.raises(ValueError) as err:
            residual_update(np.array([[-1.0]]), 1.0, np.ones(1), np.ones(1),
                            block)
        assert str(err.value) == "residual must be nonnegative"


class TestGreedyExtract:
    def test_two_exact_blocks(self):
        rng = np.random.default_rng(2)
        a = block_diag_rank_one(rng, [(6, 5), (7, 8)], [3.0, 2.0])
        theta = 0.5 / np.sqrt(a.size)
        res = greedy_extract(a, rounds(2, theta))
        assert res.extracted == 2
        assert res.residual_norms[2] <= 1e-6 * np.linalg.norm(a)
        # the two features cover exactly the two diagonal blocks (the
        # larger-norm block is extracted first)
        found = {(tuple(b.rows), tuple(b.cols)) for b in res.supports}
        assert found == {(tuple(range(6)), tuple(range(5))),
                         (tuple(range(6, 13)), tuple(range(5, 13)))}

    def test_two_block_fixture_first_feature(self):
        res = greedy_extract(two_block_matrix(), rounds(1, 0.5))
        assert set(res.supports[0].rows) == {3, 4, 5}
        assert set(res.supports[0].cols) == {3, 4, 5}

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            greedy_extract(np.zeros((3, 3)), rounds(1, 0.1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError) as err:
            greedy_extract(-np.ones((2, 2)), rounds(1, 0.1))
        assert str(err.value) == "input must be nonnegative"

    def test_short_count_on_exact_depletion(self):
        rng = np.random.default_rng(3)
        a = block_diag_rank_one(rng, [(4, 4)], [2.0])
        res = greedy_extract(a, rounds(3, 0.5 / np.sqrt(a.size)))
        assert res.short_count
        assert res.extracted < 3

    def test_factors_nonnegative_and_reconstruct(self):
        rng = np.random.default_rng(4)
        a = rng.random((10, 9)) + 0.05
        res = greedy_extract(a, rounds(3, 0.3 / np.sqrt(a.size)))
        assert res.w.min() >= 0.0 and res.h.min() >= 0.0
        approx = res.w @ res.h.T
        assert np.linalg.norm(a - approx) <= res.residual_norms[0]

    def test_residuals_nonincreasing(self):
        rng = np.random.default_rng(5)
        a = rng.random((8, 8)) + 0.1
        res = greedy_extract(a, rounds(4, 0.2 / np.sqrt(a.size)))
        assert np.all(np.diff(res.residual_norms) <= 1e-12)

    def test_feature_count_checked(self):
        with pytest.raises(ValueError) as err:
            greedy_extract(np.ones((3, 3)), [])
        assert str(err.value) == "feature count must be >= 1"

    def test_negative_leading_pair_rejected(self, monkeypatch):
        # Perron-Frobenius makes the pair nonnegative up to roundoff; a
        # pair beyond it (tied singular values) stops the round
        def flipped(x):
            lead = extract_rank_one(x)
            return replace(lead, u=-lead.u)
        monkeypatch.setattr(nmf, "extract_rank_one", flipped)
        with pytest.raises(ValueError) as err:
            greedy_extract(two_block_matrix(), rounds(2, 0.5))
        assert str(err.value) == ("round 1: leading singular pair is not "
                                  "nonnegative (tied singular values?)")

    def test_unconverged_round_raises(self):
        # the message reports the residuals of the failing first round
        config = SolverConfig(theta=0.5, max_iters=1)
        first = solve(two_block_matrix(), config)
        with pytest.raises(ConvergenceError) as err:
            greedy_extract(two_block_matrix(), [config, config])
        assert str(err.value) == (
            "round 1: solver stopped at iteration 1 with residuals "
            f"primal={first.primal_residual:.2e} "
            f"dual={first.dual_residual:.2e} "
            f"certificate={first.cert_residual:.2e}")

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600, 1e200,
                                       1e-200, 1e300, 1e-300],
                             ids=["2^600", "2^-600", "1e200", "1e-200",
                                  "1e300", "1e-300"])
    def test_input_scale(self, scale):
        # the problem is homogeneous in a: the supports are those at scale
        # 1, and the residual norms scale with a
        a = two_block_matrix()
        ref = greedy_extract(a, rounds(2, 0.5))
        res = greedy_extract(scale * a, rounds(2, 0.5))
        assert res.extracted == ref.extracted == 2
        for got, want in zip(res.supports, ref.supports):
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.cols, want.cols)
        np.testing.assert_allclose(res.residual_norms / scale,
                                   ref.residual_norms, rtol=1e-14, atol=0)

    def test_per_round_schedule_accepted(self):
        rng = np.random.default_rng(6)
        a = block_diag_rank_one(rng, [(4, 4), (5, 5)], [3.0, 2.0])
        res = greedy_extract(a, rounds(1, 0.05) + rounds(1, 0.08))
        assert res.extracted == 2


class TestGreedyInvariants:
    def test_features_match_round_supports(self):
        rng = np.random.default_rng(7)
        a = rng.random((9, 7)) + 0.1
        res = greedy_extract(a, rounds(3, 0.25 / np.sqrt(a.size)))
        for k, block in enumerate(res.supports):
            w_support = np.flatnonzero(res.w[:, k])
            h_support = np.flatnonzero(res.h[:, k])
            assert set(w_support) <= set(block.rows)
            assert set(h_support) <= set(block.cols)

    def test_strict_decrease_while_nonzero(self):
        rng = np.random.default_rng(8)
        a = rng.random((8, 8)) + 0.1
        res = greedy_extract(a, rounds(3, 0.2 / np.sqrt(a.size)))
        norms = res.residual_norms
        for k in range(res.extracted):
            assert norms[k + 1] < norms[k]
