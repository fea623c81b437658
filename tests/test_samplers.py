import re

import numpy as np
import pytest

from robust_scatter import (
    Dataset,
    DistributionSpec,
    RadialLaw,
    ScatterMatrix,
    derive_seed,
    sample,
    sample_covariance,
    spd_sqrt,
    symmetrize,
)
from robust_scatter.samplers import _balanced_signs, require_seed


class TestFamilies:
    def test_laplace_unit_variance(self):
        data = sample(DistributionSpec("laplace-iid"), 100_000, 1, seed=4)
        var = float(np.var(data.samples))
        assert abs(var - 1.0) < 0.03

    def test_balanced_signs_sum_to_zero_exactly(self):
        rng = np.random.default_rng(0)
        a = _balanced_signs(rng, 200, 4)
        assert np.all(np.isin(a, (-1.0, 1.0)))
        assert np.all(a.sum(axis=1) == 0.0)

    def test_permuted_smoothed_requires_even_p(self):
        with pytest.raises(ValueError):
            sample(DistributionSpec("permuted-smoothed"), 10, 5, seed=0)

    @pytest.mark.parametrize("spec,n,p,message", [
        (DistributionSpec("gaussian"), 0, 4, "n and p must be positive, got n=0, p=4"),
        (DistributionSpec("gaussian"), 3, 0, "n and p must be positive, got n=3, p=0"),
        (DistributionSpec("permuted-smoothed"), 3, 5, "even p, got p=5"),
        (DistributionSpec("gaussian", shape=ScatterMatrix(np.eye(3))), 3, 4,
         "shape matrix is 3x3, expected p=4"),
        (DistributionSpec("gaussian", mean=np.zeros(3)), 3, 4,
         r"mean has shape \(3,\), expected \(4,\)"),
    ], ids=["n0", "p0", "odd-p", "shape", "mean"])
    def test_dimension_rules_have_one_owner(self, spec, n, p, message):
        # `sample` raises exactly what `require_dims` raises
        with pytest.raises(ValueError, match=message):
            spec.require_dims(n, p)
        with pytest.raises(ValueError, match=message):
            sample(spec, n, p, seed=0)

    @pytest.mark.parametrize("sigma", [0.0, float("nan")])
    def test_permuted_smoothed_requires_positive_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma_smooth must be positive"):
            DistributionSpec("permuted-smoothed", sigma_smooth=sigma)

    def test_permuted_smoothed_rows_near_cube(self):
        spec = DistributionSpec("permuted-smoothed", sigma_smooth=0.01)
        data = sample(spec, 50, 8, seed=1)
        # row norms are nearly sqrt(p): the +-1 part is radially rigid
        norms = np.linalg.norm(data.samples, axis=1)
        assert np.max(np.abs(norms - np.sqrt(8))) < 0.1

    def test_elliptical_constant_radius_on_sphere(self):
        spec = DistributionSpec("elliptical", radial_law=RadialLaw("constant", 1.0))
        data = sample(spec, 40, 6, seed=2)
        norms = np.linalg.norm(data.samples, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_elliptical_pareto_support_and_median(self):
        law = RadialLaw("pareto", 2.5)
        z = law.draw(np.random.default_rng(3), 40_000)
        assert z.min() >= 1.0
        # median of a standard Pareto is 2^(1/a)
        assert abs(np.median(z) - 2 ** (1 / 2.5)) < 0.02

    def test_elliptical_chi_second_moment(self):
        law = RadialLaw("chi", 5.0)
        z = law.draw(np.random.default_rng(4), 50_000)
        assert abs(np.mean(z * z) - 1.0) < 0.02

    def test_radial_law_validation(self):
        with pytest.raises(ValueError):
            RadialLaw("pareto", 2.0)
        with pytest.raises(ValueError):
            RadialLaw("constant", 0.0)
        with pytest.raises(ValueError):
            RadialLaw("cauchy", 1.0)
        for kind in ("constant", "chi", "pareto"):
            with pytest.raises(ValueError, match="must be positive"):
                RadialLaw(kind, float("nan"))

    def test_elliptical_needs_radial_law(self):
        with pytest.raises(ValueError):
            DistributionSpec("elliptical")

    @pytest.mark.parametrize("family", ["gaussian", "laplace-iid"])
    def test_isotropy_monte_carlo(self, family):
        data = sample(DistributionSpec(family), 100_000, 5, seed=9)
        cov = sample_covariance(data).entries
        assert np.max(np.abs(cov - np.eye(5))) < 0.05

    def test_reproducibility_and_seed_sensitivity(self):
        spec = DistributionSpec("permuted-smoothed")
        a = sample(spec, 20, 6, seed=7).samples
        b = sample(spec, 20, 6, seed=7).samples
        c = sample(spec, 20, 6, seed=8).samples
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mean_and_shape_applied(self):
        shape = ScatterMatrix(np.diag([4.0, 9.0]))
        mu = np.array([10.0, -10.0])
        spec = DistributionSpec("gaussian", mean=mu, shape=shape)
        data = sample(spec, 50_000, 2, seed=5)
        emp_mean = data.samples.mean(axis=0)
        np.testing.assert_allclose(emp_mean, mu, atol=0.05)
        emp_cov = np.cov(data.samples.T)
        np.testing.assert_allclose(emp_cov, shape.entries, atol=0.2)

    def test_standard_gaussian_means_sample_draws_plain_normals(self):
        # exactly the specs whose `sample` is rng.standard_normal((n, p))
        plain = np.random.default_rng(3).standard_normal((5, 2))
        cases = [
            (DistributionSpec("gaussian"), True),
            (DistributionSpec("gaussian", mean=np.zeros(2)), True),
            (DistributionSpec("gaussian", mean=np.array([0.0, 1.0])), False),
            (DistributionSpec("gaussian", shape=ScatterMatrix(np.diag([1.0, 2.0]))), False),
            (DistributionSpec("laplace-iid"), False),
        ]
        for spec, standard in cases:
            assert spec.standard_gaussian is standard
            assert np.array_equal(sample(spec, 5, 2, seed=3).samples, plain) is standard


def _shaped(shape, p, seed=4):
    """The same seeded draw without and with `shape`."""
    plain = sample(DistributionSpec("gaussian"), 6, p, seed).samples
    return plain, sample(DistributionSpec("gaussian", shape=shape), 6, p, seed).samples


class TestApplyShape:
    """The shape transform `sample` applies for `DistributionSpec(shape=...)`:
    every row times the SPD square root of the shape."""

    def test_identity_leaves_data_unchanged(self):
        plain, shaped = _shaped(ScatterMatrix(np.eye(2)), 2)
        np.testing.assert_allclose(shaped, plain, atol=1e-12)

    def test_scalar_sqrt(self):
        plain, shaped = _shaped(ScatterMatrix([[4.0]]), 1)
        np.testing.assert_allclose(shaped, 2.0 * plain, atol=1e-12)

    def test_diagonal_sqrt(self):
        plain, shaped = _shaped(ScatterMatrix(np.diag([4.0, 9.0])), 2)
        np.testing.assert_allclose(shaped, plain * [2.0, 3.0], atol=1e-12)

    def test_exact_transform(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        shape = ScatterMatrix(a @ a.T + 4 * np.eye(4))
        plain, shaped = _shaped(shape, 4)
        assert np.array_equal(shaped, plain @ spd_sqrt(shape))

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError, match="not symmetric positive definite"):
            _shaped(ScatterMatrix(np.diag([1.0, -1.0])), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected p=2"):
            _shaped(ScatterMatrix(np.eye(3)), 2)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        shape = ScatterMatrix(a @ a.T + 4 * np.eye(4))
        root = spd_sqrt(shape)
        np.testing.assert_allclose(root @ root, shape.entries, rtol=1e-10)


class TestSymmetrize:
    def test_pairs(self):
        out = symmetrize(Dataset([[2.0], [0.0]]))
        np.testing.assert_allclose(out.samples, [[np.sqrt(2.0)]])

    def test_identical_pair_cancels(self):
        out = symmetrize(Dataset([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(out.samples, [[0.0, 0.0]])

    def test_constant_shift_cancels_exactly(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 3))
        shifted = x + np.array([5.0, -2.0, 0.5])
        # cancellation is exact in real arithmetic; float addition rounds once
        np.testing.assert_allclose(
            symmetrize(Dataset(x)).samples, symmetrize(Dataset(shifted)).samples,
            rtol=0, atol=1e-12,
        )

    def test_odd_row_count_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(Dataset([[1.0], [2.0], [3.0]]))


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    seeds = {derive_seed(5, k, j) for k in range(4) for j in range(50)}
    assert len(seeds) == 200


@pytest.mark.parametrize("seed", [2.5, -1, np.int64(-3), "7", None],
                         ids=["float", "negative", "numpy-negative", "str", "none"])
def test_seed_rule_has_one_owner(seed):
    # every draw and every derived seed checks the seed before it draws
    message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    for call in (lambda: require_seed(seed), lambda: derive_seed(seed, 1),
                 lambda: sample(DistributionSpec("gaussian"), 4, 2, seed)):
        with pytest.raises(ValueError, match=message):
            call()


def test_numpy_integer_seeds_pass():
    assert require_seed(np.int64(7)) == 7 and type(require_seed(np.uint32(7))) is int
    spec = DistributionSpec("laplace-iid")
    assert np.array_equal(sample(spec, 5, 3, np.int32(7)).samples, sample(spec, 5, 3, 7).samples)
    assert derive_seed(np.int64(5), 1) == derive_seed(5, 1)
