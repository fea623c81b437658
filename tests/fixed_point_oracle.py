"""Plain-numpy oracles for the scatter M-estimators' fixed points.

The four kinds solve Sigma = R(Sigma), where R is the weighted covariance
(1/n) sum_i w_i x_i x_i^T at the weights of the quadratic forms
d_i = p^{-1} x_i^T Sigma^{-1} x_i (w_i = 1/d_i for TE/TRE, u(d_i) for
ME/MRE), shrunk to R/(1+alpha) + alpha/(1+alpha) I for TRE/MRE. Here the
forms come from an LU solve and the covariance from a plain product, so
nothing is shared with the package's Cholesky/SYRK solver: a fault there
cannot hide itself in these checks. `u` is a weight function of d (e.g.
``rational_u().u``); the Tyler kinds ignore it.
"""

import numpy as np


def weights(kind, x, sigma, u=None):
    """The weights the defining equation of `kind` assigns to sigma, at the
    forms d_i = p^{-1} x_i^T sigma^{-1} x_i from one LU solve."""
    d = np.einsum("ij,ji->i", x, np.linalg.solve(sigma, x.T)) / x.shape[1]
    return 1.0 / d if kind in ("TE", "TRE") else u(d)


def _rhs(kind, x, sigma, u, alpha):
    """The right side R(sigma) of the defining equation of `kind`."""
    n, p = x.shape
    rhs = x.T @ (x * weights(kind, x, sigma, u)[:, None]) / n
    if kind in ("TRE", "MRE"):
        rhs = rhs / (1 + alpha) + alpha / (1 + alpha) * np.eye(p)
    return rhs


def defining_residual(kind, x, sigma, u=None, alpha=0.0):
    """||sigma - R(sigma)||_F / ||sigma||_F: zero exactly at a fixed point."""
    sigma = np.asarray(sigma, dtype=float)
    return float(np.linalg.norm(sigma - _rhs(kind, x, sigma, u, alpha)) / np.linalg.norm(sigma))


def picard_oracle(kind, x, u=None, alpha=0.0, tol=1e-13, max_iter=5000, start=None):
    """Plain Picard iteration Sigma <- R(Sigma) from `start` (the identity by
    default), rescaled to trace p for TE, stopped once the relative change
    between iterates is below `tol`: (Sigma, updates)."""
    p = x.shape[1]
    sig = np.eye(p) if start is None else np.asarray(start, dtype=float)
    for it in range(1, max_iter + 1):
        nxt = _rhs(kind, x, sig, u, alpha)
        if kind == "TE":
            nxt = p * nxt / np.trace(nxt)
        change = np.linalg.norm(nxt - sig) / np.linalg.norm(sig)
        sig = nxt
        if change < tol:
            return sig, it
    raise AssertionError(f"{kind} Picard oracle did not settle in {max_iter} updates")


def tyler_objective(w, x):
    """-sum_i log w_i + (n/p) log det(sum_i w_i x_i x_i^T), for w > 0 with
    sum w_i = n; Tyler's weights minimize it up to normalization."""
    w = np.asarray(w, dtype=float)
    n, p = x.shape
    sign, logdet = np.linalg.slogdet(x.T @ (x * w[:, None]))
    assert sign > 0, "weighted sum sum_i w_i x_i x_i^T is singular"
    return float(-np.log(w).sum() + (n / p) * logdet)
