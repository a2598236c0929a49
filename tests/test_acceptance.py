"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to watch).

Solves from the first five criteria are cached so the certificate
criterion can audit every converged solve.
"""

import math
import time

import numpy as np
import pytest

from laros.analysis import (BlockSelector, subgaussian_tail_bound, theta_A,
                            theta_B, top_block)
from laros.generate import plant_biclique, plant_rank_one, PlantedModel, \
    two_block_matrix
from laros.nmf import greedy_extract
from laros.solver import (SolverConfig, check_optimality, recover_dual,
                          solve)

from oracles import dual_norm_oracle

RESULTS = []


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(f"\n{line}", flush=True)
    assert passed, line


def default_config(theta):
    return SolverConfig(theta=theta)


class SuiteCache:
    """Solves shared between criteria 1-5 and the certificate audit (6)."""

    def __init__(self):
        self.solved = []  # (label, matrix, theta, solution)

    def solve(self, label, a, theta, config=None):
        sol = solve(a, config or default_config(theta))
        self.solved.append((label, a, theta, sol))
        return sol


@pytest.fixture(scope="module")
def cache():
    return SuiteCache()


class TestAcceptance:
    def test_c01_two_block_reproduction(self, cache):
        a = two_block_matrix()
        start = time.perf_counter()
        sol = cache.solve("c1", a, 0.5)
        elapsed = time.perf_counter() - start
        support_ok = (list(sol.support_rows) == [3, 4, 5]
                      and list(sol.support_cols) == [3, 4, 5])
        nz = sol.x[np.abs(sol.x) > 1e-8]
        range_ok = nz.min() >= 0.08 - 0.01 and nz.max() <= 0.16 + 0.01
        report(1, support_ok and range_ok and elapsed < 1.0,
               f"support rows/cols {sorted(sol.support_rows + 1)}, entries "
               f"[{nz.min():.3f}, {nz.max():.3f}], {elapsed:.2f}s")

    def test_c02_theta_zero_oracle(self, cache):
        rng = np.random.default_rng(20)
        worst = 0.0
        used = 0
        seed = 0
        while used < 50:
            a = rng.random((20, 30))
            u, s, vt = np.linalg.svd(a)
            seed += 1
            if s[0] - s[1] < 0.1 * s[0]:
                continue
            used += 1
            sol = cache.solve(f"c2[{used}]", a, 0.0)
            closed = np.outer(u[:, 0], vt[0]) / s[0]
            worst = max(worst, float(np.linalg.norm(sol.x - closed)))
        report(2, worst <= 1e-6,
               f"50 instances, max deviation from the svd solution "
               f"{worst:.2e} (tolerance 1e-6)")

    def test_c03_large_theta_singleton(self, cache):
        a = np.array([[5.0, 1.0], [1.0, 1.0]])
        singleton = BlockSelector(rows=np.array([0]), cols=np.array([0]))
        tb = theta_B(a, singleton)
        theta = 2.0 * tb
        sol = cache.solve("c3", a, theta)
        expected = np.zeros((2, 2))
        expected[0, 0] = 0.2
        err = float(np.linalg.norm(sol.x - expected))
        report(3, tb == pytest.approx(1.5) and theta == pytest.approx(3.0)
               and err <= 1e-6,
               f"theta_B={tb}, theta={theta}, |X - E11/5|_F = {err:.2e}")

    def test_c04_nonnegativity(self, cache):
        # about a quarter of these instances are dual-degenerate (dozens
        # of tied |Z| maxima): the splitting's residuals decay as 1/k, and
        # the interior-point polish certifies them at iteration 800, the
        # first plateau test; a solve it declined would be returned
        # unconverged at the cap, which the nonnegativity claim tolerates
        # but this corpus does not show
        config = SolverConfig(theta=1.5, max_iters=15000)
        rng = np.random.default_rng(40)
        worst = 0.0
        converged = 0
        for trial in range(100):
            a = rng.random((15, 15))
            sol = cache.solve(f"c4[{trial}]", a, 1.5, config)
            worst = min(worst, float(sol.x.min()))
            converged += sol.converged
        report(4, worst >= -1e-9,
               f"100 instances at theta=1.5, min entry {worst:.2e} "
               f"(tolerance -1e-9)")
        assert converged == 100

    def test_c05_rank_one_regime(self, cache):
        rng = np.random.default_rng(50)
        worst = 0.0
        for trial in range(50):
            a = rng.random((12, 10))
            ta = theta_A(a)
            assert ta > 0
            sol = cache.solve(f"c5[{trial}]", a, 0.9 * ta)
            s = np.linalg.svd(sol.x, compute_uv=False)
            worst = max(worst, float(s[1] / s[0]))
        report(5, worst <= 1e-6,
               f"50 instances at 0.9*theta_A, max sigma2/sigma1 {worst:.2e}")

    def test_c06_certificates(self, cache):
        assert len(cache.solved) >= 202, "criteria 1-5 must run first"
        worst_res = 0.0
        audited = 0
        for label, a, theta, sol in cache.solved:
            if not sol.converged:
                continue
            audited += 1
            cert = recover_dual(a, theta, sol.state)
            rep = check_optimality(a, theta, sol.scaled(), cert)
            worst_res = max(worst_res, rep.max_residual)
        res_ok = worst_res <= 1e-6
        rng = np.random.default_rng(60)
        worst_gap = 0.0
        for _ in range(20):
            a = rng.random((2, 2)) * 2.0
            theta = float(rng.uniform(0.1, 2.0))
            sol = solve(a, default_config(theta))
            grid, _ = dual_norm_oracle(a, theta)
            worst_gap = max(worst_gap, abs(1.0 / sol.objective - grid))
        oracle_ok = worst_gap <= 1e-3
        report(6, res_ok and oracle_ok,
               f"{audited} converged solves audited, max optimality residual "
               f"{worst_res:.2e} (tol 1e-6); dual norm vs 2x2 grid oracle "
               f"max diff {worst_gap:.2e} (tol 1e-3)")

    def test_c07_planted_recovery(self):
        model = PlantedModel(m=120, n=120, M=40, N=40, sigma0=1.0,
                             c1=0.0, c2=0.0, c3=0.1, noise_family="uniform")
        theta = 1.0 / math.sqrt(40 * 40)
        config = SolverConfig(theta=theta, tol_primal=1e-7, tol_dual=1e-7,
                              tol_gap=1e-7)
        hits = 0
        slowest = 0.0
        for seed in range(20):
            inst = plant_rank_one(model, seed=seed)
            start = time.perf_counter()
            sol = solve(inst.a, config)
            slowest = max(slowest, time.perf_counter() - start)
            exact = (list(sol.support_rows) == list(inst.truth.rows)
                     and list(sol.support_cols) == list(inst.truth.cols))
            hits += exact
        report(7, hits >= 18 and slowest < 30.0,
               f"exact support recovery {hits}/20, slowest trial "
               f"{slowest:.1f}s (budget 30s)")

    def test_c08_planted_biclique(self):
        theta = 1.0 / 15.0
        config = SolverConfig(theta=theta)
        hits = 0
        for seed in range(20):
            inst = plant_biclique(60, 60, 15, 15, p_edge=0.5, seed=seed)
            sol = solve(inst.a, config)
            rows, cols, complete = top_block(inst.a, sol, 15, 15)
            exact = (list(rows) == list(inst.truth.rows)
                     and list(cols) == list(inst.truth.cols))
            hits += exact and complete
        report(8, hits >= 18, f"exact biclique recovery {hits}/20 at "
               f"theta=1/sqrt(MN)")

    def test_c09_greedy_nmf(self):
        rng = np.random.default_rng(90)
        a = np.zeros((40, 40))
        a[:20, :20] = 3.0 * np.outer(rng.random(20) + 0.5,
                                     rng.random(20) + 0.5)
        a[20:, 20:] = 2.0 * np.outer(rng.random(20) + 0.5,
                                     rng.random(20) + 0.5)
        a += rng.uniform(0.0, 0.01, size=(40, 40))
        theta = 0.5 / math.sqrt(a.size)
        res = greedy_extract(a, 2 * [SolverConfig(theta=theta)])
        rel = res.residual_norms[-1] / res.residual_norms[0]
        monotone = bool(np.all(np.diff(res.residual_norms) <= 1e-12))
        report(9, res.extracted == 2 and rel < 0.05 and monotone,
               f"two rounds leave relative residual {rel:.3f} "
               f"(tol 0.05), nonincreasing={monotone}")

    def test_c10_tail_bound(self):
        rng = np.random.default_rng(100)
        draws = 1000
        norms = np.empty(draws)
        for k in range(draws):
            b = rng.uniform(-1.0, 1.0, size=(20, 20))
            norms[k] = np.linalg.norm(b, 2)
        detail = []
        ok = True
        for u in (10.0, 20.0, 30.0):
            emp = float(np.mean(norms >= u))
            se = math.sqrt(emp * (1.0 - emp) / draws)
            bound = subgaussian_tail_bound(u, 1.0, 20, 20)
            ok = ok and emp <= bound + 3.0 * se
            detail.append(f"u={u:g}: emp={emp:.4f} bound={bound:.3g}")
        report(10, ok, "; ".join(detail))

    def test_c11_property_suites(self):
        import test_generate
        import test_linalg
        import test_properties
        import test_solver

        counted = 0
        for module in (test_linalg, test_generate, test_properties,
                       test_solver):
            for name in dir(module):
                obj = getattr(module, name)
                for attr in dir(obj) if isinstance(obj, type) else []:
                    fn = getattr(obj, attr, None)
                    settings_obj = getattr(
                        fn, "_hypothesis_internal_use_settings", None)
                    if settings_obj is not None:
                        assert settings_obj.max_examples >= 200, \
                            f"{module.__name__}.{name}.{attr}"
                        counted += 1
        assert test_properties.CASES >= 200
        report(11, counted >= 5,
               f"{counted} hypothesis properties at >=200 examples plus "
               f"seeded {test_properties.CASES}-case loops "
               f"(see test_properties.py)")


def teardown_module(module):
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72, flush=True)
