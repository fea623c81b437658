import numpy as np
import pytest

from robust_scatter import Dataset, clime, clime_column, tyler
from robust_scatter.errors import InfeasibleError
from robust_scatter.simplex import solve_lp
from lp_oracle import clime_column_linprog

INF = np.inf


def test_basic_maximization_via_negation():
    # max x + y s.t. x + y <= 1  ->  objective -1
    x, obj = solve_lp([-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0])
    assert obj == pytest.approx(-1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_negative_rhs_forces_phase_one():
    # x >= 3 encoded as -x <= -3; min x -> 3
    x, obj = solve_lp([1.0], [[-1.0]], [-INF], [-3.0])
    assert obj == pytest.approx(3.0, abs=1e-12)


def test_two_sided_band():
    # one ranged row 2 <= x <= 5: min x -> 2; max x (min -x) -> 5
    assert solve_lp([1.0], [[1.0]], [2.0], [5.0])[1] == pytest.approx(2.0, abs=1e-12)
    assert solve_lp([-1.0], [[1.0]], [2.0], [5.0])[1] == pytest.approx(-5.0, abs=1e-12)


def test_equality_row():
    # x + 2y = 4 (lb == ub), min 3x + y -> y = 2, x = 0
    x, obj = solve_lp([3.0, 1.0], [[1.0, 2.0]], [4.0], [4.0])
    assert obj == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-12)


def test_ranged_row_lower_bound_binds():
    # 1 <= x + y <= 3 and -1 <= x - y <= 1, min 2x + y -> (0, 1): both lower
    # bounds bind, neither upper bound does
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    lb, ub = np.array([1.0, -1.0]), np.array([3.0, 1.0])
    x, obj = solve_lp([2.0, 1.0], a, lb, ub)
    assert obj == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(a @ x, lb, atol=1e-12)
    assert np.all(a @ x < ub - 0.5)


def test_infeasible_detected():
    with pytest.raises(InfeasibleError):
        solve_lp([1.0], [[1.0]], [-INF], [-1.0])  # x <= -1 with x >= 0


@pytest.mark.parametrize("a, lb, ub", [
    (1.0, 3.0, 2.0),  # lb > ub
    (-1.0, 1.0, 2.0),  # 1 <= -x <= 2 needs x <= -1, beyond reach of x >= 0
])
def test_unmeetable_ranged_row_infeasible(a, lb, ub):
    with pytest.raises(InfeasibleError):
        solve_lp([1.0], [[a]], [lb], [ub])


def test_degenerate_and_redundant_rows():
    # duplicated constraints and a zero row must not break the pivoting
    a = [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 0.0]]
    b = [1.0, 1.0, 0.0, 0.0]
    x, obj = solve_lp([-2.0, -1.0], a, np.full(4, -INF), b)
    assert obj == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)


def test_matches_dense_enumeration_on_random_instances():
    # compare against direct enumeration of basic solutions of Ax + s = b
    rng = np.random.default_rng(0)
    from itertools import combinations

    for trial in range(30):
        nv, m = 3, 4
        a = rng.normal(size=(m, nv)).round(2)
        b = rng.uniform(0.2, 2.0, size=m).round(2)
        c = rng.uniform(0.1, 1.0, size=nv).round(2)  # positive costs: bounded
        x, obj = solve_lp(c, a, np.full(m, -INF), b)
        assert np.all(a @ x <= b + 1e-9) and np.all(x >= -1e-12)
        # enumeration over all choices of basic columns of [A | I]
        full = np.hstack([a, np.eye(m)])
        best = np.inf
        for cols in combinations(range(nv + m), m):
            sub = full[:, cols]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            z = np.linalg.solve(sub, b)
            if np.all(z >= -1e-9):
                xx = np.zeros(nv + m)
                xx[list(cols)] = z
                best = min(best, float(c @ xx[:nv]))
        assert obj == pytest.approx(best, abs=1e-8), f"trial {trial}"


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [-INF], [1.0])


def test_clime_columns_match_the_inequality_form_at_benchmark_size():
    # multivariate t5 rows with a tridiagonal shape, p = 40, n = 400, at
    # lambda = sqrt(log p / n), on the Tyler proxy: every ranged-row column
    # is feasible and as short in l1 as the 2p-row linprog optimum
    p, n = 40, 400
    rng = np.random.default_rng(20)
    tri = np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1))
    g = rng.standard_normal((n, p)) @ np.linalg.cholesky(tri).T
    rows = g / np.sqrt(rng.chisquare(5, size=n) / 5)[:, None]
    s_hat = tyler(Dataset(rows)).require_converged().matrix
    s = s_hat.entries
    lam = float(np.sqrt(np.log(p) / n))
    for j in range(p):
        w = clime_column(s_hat, j, lam)
        ej = np.zeros(p)
        ej[j] = 1.0
        assert np.max(np.abs(s @ w - ej)) <= lam + 1e-9, f"column {j}"
        _, best = clime_column_linprog(s, j, lam)
        assert np.abs(w).sum() == pytest.approx(best, rel=1e-9), f"column {j}"
    one, two = clime(s_hat, lam, threads=1).matrix, clime(s_hat, lam, threads=2).matrix
    assert one.tobytes() == two.tobytes()
