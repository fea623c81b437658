"""Small LPs with ranged rows through scipy's HiGHS.

Solves   min c^T x   subject to   lb <= A x <= ub,  x >= 0

(lb = -inf for a one-sided row) as one ``LinearConstraint`` handed to
``scipy.optimize.milp`` with no integrality, and maps the HiGHS outcome
onto the package's typed errors. ``milp`` is imported on first use:
``scipy.optimize``, with the ``scipy.linalg`` it imports, takes about
0.29 s to import, nearly four times the package's own 0.08 s (fresh
processes, 2 cores), and only the CLIME pipeline needs it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InfeasibleError, UnboundedError

__all__ = ["solve_lp"]


def solve_lp(c, a, lb, ub):
    """Minimize c @ x over {lb <= A x <= ub, x >= 0}; returns (x, objective).

    Raises InfeasibleError or UnboundedError as appropriate, and
    ConvergenceError for any other solver failure.
    """
    from scipy.optimize import LinearConstraint, milp

    c = np.asarray(c, dtype=float)
    res = milp(c, constraints=LinearConstraint(a, lb, ub))  # milp's default bounds: x >= 0
    if res.status == 2:
        raise InfeasibleError(f"LP infeasible: {res.message}")
    if res.status == 3:
        raise UnboundedError(f"objective is unbounded below: {res.message}")
    if res.status != 0:
        raise ConvergenceError(f"LP solver failed (status {res.status}): {res.message}")
    return res.x, float(c @ res.x)
