"""Oracles for the column l1 program used by the CLIME tests,

    min ||w||_1   subject to   ||M w - e_j||_inf <= lam.

`clime_column_oracle` enumerates every candidate optimal vertex by support
pattern: choose the zero coordinates, the tight constraint rows
and their signs, solve the resulting square linear system, and keep the
feasible candidates. At an optimal basic solution of the standard-form
reformulation, (number of zero coordinates) + (number of tight rows) >= p
with a nonsingular square subsystem in the generic case, so for random
instances this enumeration visits every optimal vertex. Independent of the
LP solver under test. `clime_column_linprog` solves the program's 2p-row
inequality form, for sizes beyond enumeration.
"""

from itertools import combinations, product

import numpy as np


def clime_column_oracle(m, j, lam, feas_tol=1e-8):
    """Return (w, objective) or None when infeasible."""
    m = np.asarray(m, dtype=float)
    p = m.shape[0]
    ej = np.zeros(p)
    ej[j] = 1.0

    best = None
    best_obj = np.inf
    idx = list(range(p))
    for zeros in (set(c) for k in range(p + 1) for c in combinations(idx, k)):
        free = [i for i in idx if i not in zeros]
        nf = len(free)
        for rows in combinations(idx, nf):
            sub = m[np.ix_(rows, free)]
            for signs in product((-1.0, 1.0), repeat=nf):
                rhs = ej[list(rows)] + lam * np.asarray(signs)
                if nf:
                    try:
                        sol = np.linalg.solve(sub, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    if not np.all(np.isfinite(sol)):
                        continue
                else:
                    sol = np.zeros(0)
                w = np.zeros(p)
                w[free] = sol
                if np.max(np.abs(m @ w - ej)) <= lam + feas_tol:
                    obj = float(np.abs(w).sum())
                    if obj < best_obj:
                        best_obj = obj
                        best = w
            if nf == 0:
                break  # only one empty row set matters
    if best is None:
        return None
    return best, best_obj


def clime_column_linprog(m, j, lam):
    """Return (w, objective) of the same column program in its 2p-row form,

        [M -M; -M M] z <= [e_j + lam; lam - e_j],  z >= 0,  w = z+ - z-,

    solved by scipy's ``linprog`` with the HiGHS dual simplex. A second LP
    form for the CLIME tests, independent of the ranged rows under test.
    """
    from scipy.optimize import linprog

    m = np.asarray(m, dtype=float)
    p = m.shape[0]
    ej = np.zeros(p)
    ej[j] = 1.0
    res = linprog(np.ones(2 * p), A_ub=np.block([[m, -m], [-m, m]]),
                  b_ub=np.concatenate([ej + lam, lam - ej]), bounds=(0, None),
                  method="highs-ds")
    assert res.status == 0, res.message
    return res.x[:p] - res.x[p:], float(res.fun)
