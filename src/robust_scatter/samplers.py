"""Seeded samplers for the distribution families used by the experiments.

Families:

* ``gaussian`` -- i.i.d. standard normal coordinates.
* ``laplace-iid`` -- i.i.d. Laplace coordinates with density
  (1/sqrt(2)) exp(-sqrt(2)|y|), i.e. unit variance per coordinate.
* ``permuted-smoothed`` -- Y = (A + sigma*Z) / sqrt(1 + sigma^2) with A a
  uniformly shuffled balanced +-1 vector (sum of entries exactly zero, p
  even) and Z standard normal.
* ``elliptical`` -- x = mu + z * Sigma^{1/2} Y with Y uniform on the unit
  sphere and z a positive scalar drawn from a named radial law. Note
  E[Y Y^T] = I/p here, so the rows are isotropic only up to the 1/p factor;
  the construction is kept verbatim because Tyler-type estimators absorb
  the scale.

All draws are deterministic functions of (spec, n, p, seed). Sub-seeds for
parallel or repeated work are derived with :func:`derive_seed`, which feeds
the index path into ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import Dataset, ScatterMatrix

__all__ = [
    "RadialLaw",
    "DistributionSpec",
    "FAMILIES",
    "sample",
    "symmetrize",
    "derive_seed",
    "spd_sqrt",
]

FAMILIES = ("gaussian", "laplace-iid", "permuted-smoothed", "elliptical")

_EIG_FLOOR = 1e-12


def derive_seed(base_seed: int, *path: int) -> int:
    """Deterministic sub-seed for the task identified by `path`.

    Rule: the entropy of a ``numpy.random.SeedSequence`` is the tuple
    (base_seed, *path); the derived seed is its first generated word.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(i) for i in path]])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class RadialLaw:
    """Positive scalar law for the elliptical family.

    kinds: ``constant`` (z = param), ``chi`` (z = chi_k / sqrt(k) with
    k = param degrees of freedom, so E[z^2] = 1) and ``pareto`` (standard
    Pareto with tail index a = param > 2, density a / z^{a+1} on z >= 1).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("constant", "chi", "pareto"):
            raise ValueError(f"unknown radial law {self.kind!r}")
        if not self.param > 0:
            raise ValueError("radial law parameter must be positive")
        if self.kind == "pareto" and not self.param > 2:
            raise ValueError("pareto radial law needs tail index > 2 (finite second moment)")
        if self.kind == "chi" and not self.param >= 1:
            raise ValueError("chi radial law needs at least 1 degree of freedom")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, float(self.param))
        if self.kind == "chi":
            k = float(self.param)
            return np.sqrt(rng.chisquare(k, size=size) / k)
        # standard Pareto on [1, inf): inverse-CDF of u ~ U(0,1)
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / self.param)


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Description of one sampling distribution.

    `mean` defaults to zero and `shape` to the identity; both apply to every
    family. `sigma_smooth` is only used by ``permuted-smoothed`` and
    `radial_law` only by ``elliptical``. `root` is derived, not set: the
    SPD square root of `shape` (None with no shape), computed once here.
    """

    family: str
    sigma_smooth: float = 0.01
    radial_law: Optional[RadialLaw] = None
    mean: Optional[np.ndarray] = None
    shape: Optional[ScatterMatrix] = None
    root: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "permuted-smoothed" and not self.sigma_smooth > 0:
            raise ValueError("sigma_smooth must be positive")
        if self.family == "elliptical" and self.radial_law is None:
            raise ValueError("elliptical family requires a radial_law")
        if self.mean is not None:
            object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "root", None if self.shape is None else spd_sqrt(self.shape))


def spd_sqrt(shape: ScatterMatrix) -> np.ndarray:
    """Symmetric positive-definite square root via eigendecomposition.

    Raises if the matrix is not SPD; eigenvalues below 1e-12 are clamped to
    that floor before square-rooting so near-singular shapes stay usable.
    """
    w, v = np.linalg.eigh(shape.entries)
    if w[0] <= 0:
        raise ValueError("shape matrix is not symmetric positive definite")
    w = np.maximum(w, _EIG_FLOOR)
    return (v * np.sqrt(w)) @ v.T


def _balanced_signs(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """n independent uniform draws from {a in {+-1}^p : sum a_i = 0}.

    Each row is a seeded Fisher-Yates shuffle of (p/2 ones, p/2 minus-ones);
    p is even (`sample` checks it).
    """
    base = np.concatenate([np.ones(p // 2), -np.ones(p // 2)])
    return rng.permuted(np.tile(base, (n, 1)), axis=1)


def _isotropic_rows(spec: DistributionSpec, n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    family = spec.family
    if family == "gaussian":
        return rng.standard_normal((n, p))
    if family == "laplace-iid":
        # density (1/sqrt(2)) exp(-sqrt(2)|y|) <=> numpy scale 1/sqrt(2)
        return rng.laplace(scale=1.0 / np.sqrt(2.0), size=(n, p))
    if family == "permuted-smoothed":
        sigma = spec.sigma_smooth
        a = _balanced_signs(rng, n, p)
        z = rng.standard_normal((n, p))
        return (a + sigma * z) / np.sqrt(1.0 + sigma * sigma)
    # elliptical: z * Y with Y uniform on the unit sphere
    g = rng.standard_normal((n, p))
    y = g / np.linalg.norm(g, axis=1, keepdims=True)
    z = spec.radial_law.draw(rng, n)
    return z[:, None] * y


def sample(spec: DistributionSpec, n: int, p: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows of dimension p from `spec`, deterministically in seed."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if spec.family == "permuted-smoothed" and p % 2 != 0:
        raise ValueError("permuted-smoothed requires even p")
    if spec.shape is not None and spec.shape.p != p:
        raise ValueError(f"shape matrix is {spec.shape.p}x{spec.shape.p}, expected p={p}")
    if spec.mean is not None and spec.mean.shape != (p,):
        raise ValueError(f"mean has shape {spec.mean.shape}, expected ({p},)")

    rng = np.random.default_rng(int(seed))
    rows = _isotropic_rows(spec, n, p, rng)
    if spec.root is not None:
        rows = rows @ spec.root  # the root is symmetric
    if spec.mean is not None and np.any(spec.mean != 0.0):
        rows = rows + spec.mean
    return Dataset(rows)


def symmetrize(data: Dataset) -> Dataset:
    """Pair rows (i, i+n) of a 2n-row dataset into (x_i - x_{i+n}) / sqrt(2).

    The differences cancel any constant mean, so the output sample covariance
    has expectation equal to the population shape regardless of the mean.
    """
    if data.n % 2 != 0:
        raise ValueError(f"symmetrize requires an even number of rows, got {data.n}")
    half = data.n // 2
    x = data.samples
    return Dataset((x[:half] - x[half:]) / np.sqrt(2.0))
