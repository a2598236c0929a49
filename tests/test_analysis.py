"""Tests for thresholds, ratio checks, tail bounds, regime validation, and
the planted-certificate construction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from laros.analysis import (BlockSelector, RowRatioReport,
                            build_planted_certificate, row_ratio_check,
                            row_zero_threshold, row_zero_thresholds,
                            subgaussian_tail_bound, theta_A, theta_B,
                            top_block, validate_planted_regime)
from laros.generate import PlantedModel, plant_rank_one, two_block_matrix
from laros.solver import SolverConfig, solve

LOG7 = math.log(7.0)


def tight(theta):
    return SolverConfig(theta=theta, tol_primal=1e-9, tol_dual=1e-9,
                        tol_gap=1e-9)


def two_block_solve():
    a = two_block_matrix()
    return a, solve(a, tight(0.5))


def noiseless_planted_solve():
    model = PlantedModel(m=12, n=10, M=4, N=5, sigma0=2.0, c3=0.0)
    a = plant_rank_one(model, seed=3).a
    return a, model, solve(a, tight(1.0 / math.sqrt(20.0)))


def ratio_check_of(theta=0.5, **changes):
    a, sol = two_block_solve()
    return row_ratio_check(a, replace(sol, **changes), theta, dual_norm=1.0)


def planted_certificate_of(theta=0.2, model=None, **changes):
    a, planted, sol = noiseless_planted_solve()
    return build_planted_certificate(a, model or planted,
                                     replace(sol, **changes), theta)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: BlockSelector(rows=[0, -1], cols=[0]),
                 "block indices must be nonnegative", id="negative-index"),
    pytest.param(lambda: theta_A(np.zeros((3, 2))),
                 "threshold undefined at the zero matrix", id="theta-A-zero"),
    pytest.param(lambda: row_zero_threshold(np.ones((3, 2)), 0, 3),
                 "row index out of range for 3 rows", id="row-past-end"),
    pytest.param(lambda: row_zero_threshold(np.ones((3, 2)), -1, 0),
                 "row index out of range for 3 rows", id="row-negative"),
    pytest.param(lambda: ratio_check_of(theta=0.0),
                 "ratio check requires theta > 0", id="ratio-theta"),
    pytest.param(lambda: ratio_check_of(sigma=0.0),
                 "solution must be nonzero rank-one", id="ratio-sigma"),
    pytest.param(lambda: planted_certificate_of(theta=0.0),
                 "certificate construction requires theta > 0",
                 id="planted-theta"),
    pytest.param(lambda: planted_certificate_of(
                     model=PlantedModel(m=12, n=11, M=4, N=5)),
                 "matrix shape disagrees with the model", id="planted-shape"),
    pytest.param(lambda: planted_certificate_of(sigma=0.0),
                 "solution must be nonzero", id="planted-sigma"),
    # a factor entry below -1e-8 is not roundoff of a nonnegative factor
    pytest.param(lambda: ratio_check_of(u=-two_block_solve()[1].u),
                 "solution factors must be nonnegative", id="ratio-factors"),
    pytest.param(lambda: planted_certificate_of(
                     v=-noiseless_planted_solve()[2].v),
                 "solution factors must be nonnegative",
                 id="planted-factors"),
])
def test_invalid_arguments_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestBlockSelector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlockSelector(rows=np.array([], dtype=int), cols=np.array([0]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BlockSelector(rows=np.array([1, 1]), cols=np.array([0]))

    def test_range_validation(self):
        block = BlockSelector(rows=np.array([0, 4]), cols=np.array([1]))
        with pytest.raises(ValueError):
            block.validate((3, 3))


class TestThetaA:
    def test_diag_two_one(self):
        assert theta_A(np.diag([2.0, 1.0])) == pytest.approx(0.1)

    def test_rank_one_case(self):
        a = np.outer([1.0, 2.0, 2.0], [3.0, 0.5, 1.0])
        assert theta_A(a) == pytest.approx(1.0 / 9.0)

    def test_tied_singular_values(self):
        assert theta_A(np.eye(2)) == 0.0
        assert theta_A(np.eye(3)) == 0.0

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (6, 6), (30, 20),
                                       (20, 30)])
    def test_matches_svd_at_any_scale(self, shape):
        # singular values from the Gram matrix of a / 2^e: a Gram matrix of
        # a itself would overflow at 1e300 and underflow at 1e-300
        a = np.random.default_rng(sum(shape)).random(shape)
        s = np.linalg.svd(a, compute_uv=False)
        s2 = s[1] if s.size > 1 else 0.0
        want = (s[0] - s2) / ((3 * s[0] - s2) * math.sqrt(a.size))
        for scale in (1.0, 1e300, 1e-300, 2.0 ** 1000, 2.0 ** -1000):
            assert theta_A(a * scale) == pytest.approx(want, rel=1e-12)


class TestThetaB:
    def test_dominant_block(self):
        a = np.ones((4, 4))
        a[:2, :2] = 2.0
        block = BlockSelector(rows=np.array([0, 1]), cols=np.array([0, 1]))
        assert theta_B(a, block) == pytest.approx(2.5)

    def test_equal_mean_not_applicable(self):
        a = np.ones((3, 3))
        block = BlockSelector(rows=np.array([0]), cols=np.array([0]))
        assert theta_B(a, block) is None

    def test_two_block_fixture_not_applicable(self):
        block = BlockSelector(rows=np.array([3, 4, 5]),
                              cols=np.array([3, 4, 5]))
        assert theta_B(two_block_matrix(), block) is None

    def test_negative_entries_rejected(self):
        a = -np.ones((2, 2))
        block = BlockSelector(rows=np.array([0]), cols=np.array([0]))
        with pytest.raises(ValueError):
            theta_B(a, block)

    def test_full_block_rejected(self):
        a = np.ones((2, 2))
        block = BlockSelector(rows=np.array([0, 1]), cols=np.array([0, 1]))
        with pytest.raises(ValueError):
            theta_B(a, block)


class TestRowZeroThreshold:
    def test_doubled_row(self):
        a = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        assert row_zero_threshold(a, 0, 1) == pytest.approx(1.0)

    def test_not_applicable(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
        assert row_zero_threshold(a, 0, 1) is None

    def test_triple_row(self):
        a = np.array([[3.0, 3.0], [1.0, 1.0]])
        assert row_zero_threshold(a, 0, 1) == pytest.approx(0.5)

    def test_zero_row_returns_zero(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert row_zero_threshold(a, 0, 1) == 0.0

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            row_zero_threshold(np.ones((2, 2)), 1, 1)


class TestRowZeroThresholds:
    @staticmethod
    def assert_matches_reference(a):
        table = row_zero_thresholds(a)
        m = a.shape[0]
        assert len(table) == m and all(len(row) == m for row in table)
        for i in range(m):
            assert table[i][i] is None
            for j in range(m):
                if i != j:
                    ref = row_zero_threshold(a, i, j)
                    got = table[i][j]
                    # bit-identical, and None exactly where the reference
                    assert got == ref and type(got) is type(ref), (i, j)

    def test_matches_reference_per_pair(self):
        rng = np.random.default_rng(60)
        a = rng.random((12, 7)) + 0.1
        a[3] *= 40.0         # dominates rows: finite thresholds
        a[5] = 0.0           # zero row: threshold 0.0 from every other row
        a[7] = a[2]          # tie: identical rows
        a[8] = a[3]          # tie with a dominating row
        a[9] = [2.0] * 7     # alpha exactly 1 against row 10: None
        a[10] = [1.0, 2.0, 1.5, 2.0, 1.0, 1.0, 1.0]
        self.assert_matches_reference(a)
        table = row_zero_thresholds(a)
        assert all(table[i][5] == 0.0 for i in range(12) if i != 5)
        assert table[9][10] is None and table[3][2] is not None
        assert table[3][8] is None and table[7][2] is None

    def test_random_nonnegative(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            m, n = (int(x) for x in rng.integers(1, 9, size=2))
            a = np.floor(rng.random((m, n)) * 4.0)  # many ties and zeros
            a *= rng.choice([1.0, 10.0], size=(m, 1))
            self.assert_matches_reference(a)

    def test_negative_input_rejected(self):
        a = np.ones((3, 3))
        a[2, 1] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            row_zero_thresholds(a)
        with pytest.raises(ValueError, match="nonnegative"):
            row_zero_threshold(a, 0, 1)

    def test_single_row_has_no_pairs(self):
        assert row_zero_thresholds(np.array([[1.0, 2.0]])) == [[None]]
        assert row_zero_thresholds(np.array([[-1.0, 2.0]])) == [[None]]


class TestRowRatioCheck:
    def test_two_block_solution(self):
        a, sol = two_block_solve()
        report = row_ratio_check(a, sol, 0.5, dual_norm=1.0 / sol.objective)
        assert report.max_residual <= 1e-6

    def test_singleton_solution_exact(self):
        a = np.array([[5.0, 1.0], [1.0, 1.0]])
        sol = solve(a, tight(3.0))
        report = row_ratio_check(a, sol, 3.0, dual_norm=1.0 / sol.objective)
        # analytic dual norm of the singleton optimum: 5/(1+theta)
        assert 1.0 / sol.objective == pytest.approx(5.0 / 4.0, abs=1e-8)
        assert report.row_in_support.max() <= 1e-8

    def test_violation_reported(self):
        # a hand-built rank-one "solution" that is not optimal
        a = np.array([[5.0, 1.0], [1.0, 1.0]])
        sol = solve(a, tight(3.0))
        bad = type(sol)(**{**sol.__dict__})
        bad.u = np.array([0.0, 1.0])
        bad.v = np.array([0.0, 1.0])
        bad.x = np.outer(bad.u, bad.v) / a[1, 1]
        bad.support_rows = np.array([1])
        bad.support_cols = np.array([1])
        report = row_ratio_check(a, bad, 3.0, dual_norm=1.25)
        assert report.max_residual > 0.1

    def test_requires_rank_one(self):
        a = two_block_matrix()
        sol = solve(a, tight(0.5))
        wide = type(sol)(**{**sol.__dict__})
        wide.x = a.copy()
        wide.sigma = 1.0
        with pytest.raises(ValueError):
            row_ratio_check(a, wide, 0.5, dual_norm=1.0)

    def test_nan_part_gives_nan(self):
        # Python's max would skip a NaN that is not its first argument
        report = RowRatioReport([0.0], [math.nan], [0.0], [0.0], 1.0)
        assert math.isnan(report.max_residual)


class TestSubgaussianTailBound:
    def test_clamps_to_one(self):
        assert subgaussian_tail_bound(1e-9, 1.0, 5, 5) == 1.0

    def test_formula_value(self):
        val = subgaussian_tail_bound(30.0, 1.0, 20, 20)
        expected = math.exp(-(8 * 900 / 81.0 - LOG7 * 40))
        assert val == pytest.approx(expected, rel=1e-12)
        assert 1.4e-5 < val < 1.8e-5

    def test_doubling_b_matches_halving_u(self):
        lhs = subgaussian_tail_bound(10.0, 2.0, 8, 9)
        rhs = subgaussian_tail_bound(5.0, 1.0, 8, 9)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            subgaussian_tail_bound(0.0, 1.0, 3, 3)

    @pytest.mark.parametrize("u, b, m, n", [
        (1.0, 1.0, 200, 200), (1.0, 1.0, 10 ** 6, 10 ** 6)])
    def test_large_dimensions_clamp_to_one(self, u, b, m, n):
        # exp(-exponent) overflowed here instead of being clamped
        assert subgaussian_tail_bound(u, b, m, n) == 1.0

    @pytest.mark.parametrize("u, b", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite(self, u, b):
        with pytest.raises(ValueError, match="finite and positive"):
            subgaussian_tail_bound(u, b, 3, 3)


class TestValidatePlantedRegime:
    def model(self, **kw):
        base = dict(m=400, n=400, M=40, N=40, sigma0=1.0, c1=0.0, c2=0.0,
                    c3=0.1, noise_family="uniform")
        base.update(kw)
        return PlantedModel(**base)

    def test_theta_window_values(self):
        model = self.model()
        report = validate_planted_regime(model, c5=0.05, theta=1.0 / 40.0)
        root = 40.0
        assert report.theta_lo == pytest.approx(0.2 / 0.85 / root)
        assert report.theta_hi == pytest.approx(
            min(1 / 0.15, (1 + 0.1 - 0.15) / 0.1) / root)
        assert "theta-below-window" not in report.violated
        assert "theta-above-window" not in report.violated

    def test_c5_cap_violation(self):
        report = validate_planted_regime(self.model(), c5=0.4,
                                         theta=1.0 / 40.0)
        assert "c5-at-most-one-third" in report.violated
        assert not report.valid

    def test_theta_above_window(self):
        report = validate_planted_regime(self.model(), c5=0.05,
                                         theta=10.0 / 40.0)
        assert "theta-above-window" in report.violated

    @pytest.mark.parametrize("changes, c5, theta, violation", [
        ({"c1": 0.1}, 0.05, 1.0 / 40.0, "c5-exceeds-perturbation-mass"),
        ({"c3": 0.8}, 0.25, 1.0 / 40.0, "c3-plus-c5-below-one"),
        ({}, 0.05, 1e-6, "theta-below-window"),
        ({"c3": 0.5}, 0.05, 1.0 / 40.0, "block-area-vs-perimeter"),
        # at c5 = 0 the window's upper end is 1 / (c3 root): 0.25 here
        ({}, 0.0, 0.26, "theta-above-window"),
    ])
    def test_violation_reported(self, changes, c5, theta, violation):
        report = validate_planted_regime(self.model(**changes), c5=c5,
                                         theta=theta)
        assert violation in report.violated and not report.valid
        if c5 == 0.0:
            assert report.theta_hi == pytest.approx(1.0 / (0.1 * 40.0))

    def test_size_conditions_reported(self):
        # desk-scale blocks violate both area conditions for b = 0.1
        report = validate_planted_regime(self.model(), c5=0.05,
                                         theta=1.0 / 40.0)
        k1 = (LOG7 * 81 * 0.1 ** 2) ** (4.0 / 3.0)
        assert report.k1_bound == pytest.approx(k1)
        assert ("block-area-vs-perimeter" in report.violated) == \
            (1600 < k1 * 80 ** (4.0 / 3.0))


class TestPlantedCertificate:
    def test_noiseless_certificate_tight(self):
        a, model, sol = noiseless_planted_solve()
        report = build_planted_certificate(a, model, sol,
                                           1.0 / math.sqrt(20.0))
        assert report.w12 <= 1e-8 and report.w21 <= 1e-8 and report.w22 <= 1e-8
        assert report.w11 <= 1e-6
        assert np.abs(report.v[:4, 5:]).max() <= 1e-12
        assert report.passed

    def test_valid_regime_instances_pass(self):
        model = PlantedModel(m=60, n=60, M=20, N=20, sigma0=1.0, c3=0.1,
                             noise_family="uniform")
        theta = 1.0 / 20.0
        passes = 0
        for seed in range(20):
            inst = plant_rank_one(model, seed=seed)
            sol = solve(inst.a, tight(theta))
            if not (set(sol.support_rows) <= set(range(20))
                    and set(sol.support_cols) <= set(range(20))):
                continue
            report = build_planted_certificate(inst.a, model, sol, theta)
            passes += report.passed
        assert passes >= 18

    def test_out_of_window_theta_fails(self):
        model = PlantedModel(m=60, n=60, M=20, N=20, sigma0=1.0, c3=0.1,
                             noise_family="uniform")
        theta = 10.0 * (1.0 + 0.1 - 0.15) / (2 * 0.05) / 20.0
        inst = plant_rank_one(model, seed=1)
        sol = solve(inst.a, tight(theta))
        if (set(sol.support_rows) <= set(range(20))
                and set(sol.support_cols) <= set(range(20))):
            report = build_planted_certificate(inst.a, model, sol, theta)
            assert not report.passed

    def test_support_mismatch_rejected(self):
        model = PlantedModel(m=12, n=10, M=4, N=5, sigma0=2.0, c3=0.0)
        inst = plant_rank_one(model, seed=3)
        sol = solve(np.ones((12, 10)) + np.eye(12, 10), tight(0.01))
        with pytest.raises(ValueError):
            build_planted_certificate(inst.a, model, sol, 0.1)


class TestTopBlock:
    def test_recovers_known_block(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.0, 0.2, size=(30, 30))
        a[5:10, 12:18] += 1.0
        sol = solve(a, tight(1.0 / math.sqrt(30.0)))
        rows, cols, complete = top_block(a, sol, 5, 6)
        assert list(rows) == [5, 6, 7, 8, 9]
        assert list(cols) == [12, 13, 14, 15, 16, 17]
        assert complete

    def test_size_validation(self):
        a = np.ones((3, 3))
        sol = solve(a, tight(0.1))
        with pytest.raises(ValueError):
            top_block(a, sol, 4, 1)
