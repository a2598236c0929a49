"""Tests for the instance generators."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laros.generate import (NOISE_FAMILIES, PlantedModel, plant_biclique,
                            plant_rank_one, sample_noise, two_block_matrix)
from laros.linalg import norm


class TestSampleNoise:
    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_zero_c3_gives_zeros(self, family):
        out = sample_noise(family, 2.0, 0.0, 4, 5, seed=0)
        assert out.shape == (4, 5)
        assert not out.any()

    @pytest.mark.parametrize("sigma0, c3, message", [
        (math.nan, 0.1, "sigma0 must be finite and positive, got nan"),
        (0.0, 0.1, "sigma0 must be finite and positive, got 0.0"),
        (1.0, math.nan, "c3 must be finite and nonnegative, got nan"),
        (1.0, -0.1, "c3 must be finite and nonnegative, got -0.1"),
        (1e300, 1e10, "noise bound 2\\*c3\\*sigma0 overflows")],
        ids=["sigma0-nan", "sigma0-zero", "c3-nan", "c3-negative",
             "overflow"])
    def test_bad_scale_named(self, sigma0, c3, message):
        with pytest.raises(ValueError, match=message):
            sample_noise("uniform", sigma0, c3, 2, 2, seed=0)

    def test_uniform_mean(self):
        out = sample_noise("uniform", 2.0, 0.3, 400, 250, seed=1)
        mean = 0.3 * 2.0
        half_width = 0.3 * 2.0
        se = half_width / math.sqrt(3.0) / math.sqrt(out.size)
        assert abs(out.mean() - mean) <= 3 * se
        assert out.min() >= 0.0 and out.max() <= 2 * mean

    def test_bernoulli_support(self):
        out = sample_noise("bernoulli", 1.0, 0.25, 50, 50, seed=2)
        assert set(np.unique(out)) <= {0.0, 0.5}

    def test_determinism(self):
        a = sample_noise("uniform", 1.0, 0.2, 6, 7, seed=42)
        b = sample_noise("uniform", 1.0, 0.2, 6, 7, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sample_noise("gaussian", 1.0, 0.1, 2, 2, seed=0)


class TestPlantedModel:
    def test_block_must_fit(self):
        with pytest.raises(ValueError):
            PlantedModel(m=4, n=4, M=4, N=2)

    def test_b_defaults_to_c3(self):
        model = PlantedModel(m=4, n=4, M=2, N=2, c3=0.3)
        assert model.b == 0.3

    def test_b_is_derived(self):
        assert "b" not in [f.name for f in fields(PlantedModel)]
        assert PlantedModel(m=4, n=4, M=2, N=2).b == 1.0
        assert PlantedModel(m=4, n=4, M=2, N=2, c3=0.1).b == 0.1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PlantedModel(m=4, n=4, M=2, N=2, noise_family="cauchy")


class TestPlantRankOne:
    def test_noiseless_block(self):
        model = PlantedModel(m=4, n=4, M=2, N=2, sigma0=2.0, c3=0.0)
        inst = plant_rank_one(model, seed=0)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 2.0
        np.testing.assert_allclose(inst.a, expected)
        assert list(inst.truth.rows) == [0, 1]
        assert list(inst.truth.cols) == [0, 1]

    def test_off_block_mean(self):
        model = PlantedModel(m=250, n=250, M=10, N=10, sigma0=1.5, c3=0.2,
                             noise_family="uniform")
        inst = plant_rank_one(model, seed=5)
        off = inst.a[10:, 10:]
        mean = 0.2 * 1.5
        se = mean / math.sqrt(3.0) / math.sqrt(off.size)
        assert abs(off.mean() - mean) <= 3 * se

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_determinism(self, seed):
        model = PlantedModel(m=8, n=7, M=3, N=2, sigma0=1.0, c1=0.3, c2=0.2,
                             c3=0.15, noise_family="uniform")
        a = plant_rank_one(model, seed).a
        b = plant_rank_one(model, seed).a
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.8),
           st.floats(0.0, 0.8))
    def test_factor_caps_and_positivity(self, seed, c1, c2):
        model = PlantedModel(m=9, n=8, M=4, N=3, sigma0=1.0, c1=c1, c2=c2,
                             c3=0.0, p_seed=seed,
                             q_seed=seed + 1)
        inst = plant_rank_one(model, seed=0)
        block = inst.a[:4, :3]
        # exactly rank one and entrywise positive on the block
        s = np.linalg.svd(block, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]
        assert block.min() > 0.0
        # the rank-one factors respect the norm caps: sigma_1 = |u0|*|v0|
        u0_cap = math.sqrt((1 + c1 * 2.0) ** 2 * 4)
        assert s[0] <= u0_cap * math.sqrt((1 + c2 * 2.0) ** 2 * 3) + 1e-9

    def test_enlarging_ambient_keeps_block(self):
        model_small = PlantedModel(m=10, n=10, M=3, N=3, c3=0.2,
                                   noise_family="uniform")
        model_large = PlantedModel(m=10, n=14, M=3, N=3, c3=0.2,
                                   noise_family="uniform")
        a = plant_rank_one(model_small, seed=9).a
        b = plant_rank_one(model_large, seed=9).a
        np.testing.assert_array_equal(a[:3, :3], b[:3, :3])


class TestPlantBiclique:
    def test_no_noise_edges(self):
        inst = plant_biclique(6, 6, 2, 3, p_edge=0.0, seed=0)
        expected = np.zeros((6, 6))
        expected[:2, :3] = 1.0
        np.testing.assert_array_equal(inst.a, expected)

    def test_complete_graph(self):
        inst = plant_biclique(5, 4, 2, 2, p_edge=1.0, seed=0)
        np.testing.assert_array_equal(inst.a, np.ones((5, 4)))

    def test_edge_density(self):
        inst = plant_biclique(60, 60, 15, 15, p_edge=0.5, seed=3)
        mask = np.ones((60, 60), dtype=bool)
        mask[:15, :15] = False
        density = inst.a[mask].mean()
        n_out = mask.sum()
        se = 0.5 / math.sqrt(n_out)
        assert abs(density - 0.5) <= 4 * se

    def test_block_always_ones(self):
        inst = plant_biclique(20, 25, 4, 6, p_edge=0.3, seed=11)
        assert inst.a[:4, :6].min() == 1.0

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            plant_biclique(4, 4, 2, 2, p_edge=1.5, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_determinism(self, seed):
        a = plant_biclique(12, 12, 3, 3, 0.5, seed).a
        b = plant_biclique(12, 12, 3, 3, 0.5, seed).a
        np.testing.assert_array_equal(a, b)


class TestTwoBlockMatrix:
    def test_printed_entries(self):
        a = two_block_matrix()
        assert a.shape == (6, 6)
        assert a[0, 2] == 1.1
        assert not a[3:, :3].any()

    def test_dominant_left_vector_mixes_blocks(self):
        # two-decimal display of the leading left singular vector: no
        # separation between the block rows
        a = two_block_matrix()
        u, s, vt = np.linalg.svd(a)
        lead = np.abs(u[:, 0])
        printed = np.array([0.45, 0.37, 0.37, 0.40, 0.40, 0.43])
        np.testing.assert_allclose(lead, printed, atol=0.01)

    def test_row_sums_match_display(self):
        a = two_block_matrix()
        np.testing.assert_allclose(a[0], [0.8, 0.9, 1.1, 0.1, 0.2, 0.2])
        np.testing.assert_allclose(a[5], [0.0, 0.0, 0.0, 1.0, 1.1, 0.8])
        assert norm(a, "linf") == 1.1
