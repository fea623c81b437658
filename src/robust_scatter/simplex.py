"""Small LPs through scipy's HiGHS dual simplex.

Solves   min c^T x   subject to   A x <= b,  x >= 0,

and maps the HiGHS outcome onto the package's typed errors. ``linprog`` is
imported on first use: ``scipy.optimize`` adds more than half to the
package's import time, and only the CLIME pipeline needs it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InfeasibleError, UnboundedError

__all__ = ["solve_lp"]


def solve_lp(c, a_ub, b_ub):
    """Minimize c @ x over {A x <= b, x >= 0}; returns (x, objective).

    Raises InfeasibleError or UnboundedError as appropriate, and
    ConvergenceError for any other solver failure.
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs-ds")
    if res.status == 2:
        raise InfeasibleError(f"LP infeasible: {res.message}")
    if res.status == 3:
        raise UnboundedError(f"objective is unbounded below: {res.message}")
    if res.status != 0:
        raise ConvergenceError(f"LP solver failed (status {res.status}): {res.message}")
    return res.x, float(c @ res.x)
