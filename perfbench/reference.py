"""Computations made apart from mgincept, used only to check its outputs.

Stage values are re-solved with scipy's HiGHS (scipy is installed but is not
a dependency of mgincept), Q tables and policy values come from the
benchmark's own backward passes, and the inception candidates from the
closed form for a singleton pure fake action.  Nothing here calls mgincept's
solvers, so a fault in the engine cannot hide itself.
"""

from __future__ import annotations

import numpy as np

# If rounding puts z a hair above the victim's optimum, the best-reply
# polytope is empty and the attacker LP unbounded; z is then lowered by these
# relative steps in turn.  The attacker value can move by ~3000x the step
# (seen at H=10 S=20 6x6), so the steps stay tiny.
Z_RELAX = (0.0, 1e-13, 1e-12, 1e-11)


# HiGHS's default feasibility tolerances (1e-7) put one attacker value of
# the `br` games 1.3e-5 off; at 1e-10 it agrees with a vertex enumeration.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _highs(c, a_ub, b_ub, a_eq, bounds):
    from scipy.optimize import linprog  # imported after the timed region

    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds,
                   method="highs", options=HIGHS_OPTIONS)


def highs_victim_value(a_prime: np.ndarray) -> float:
    """max over victim mixes x of min_j (x' a_prime)_j, solved by HiGHS."""
    n, k = a_prime.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0                                   # maximise z
    a_ub = np.hstack([-a_prime.T, np.ones((k, 1))])  # z <= x' a_prime e_j
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)]
    res = _highs(c, a_ub, np.zeros(k), a_eq, bounds)
    if res.status != 0:
        raise RuntimeError(f"HiGHS victim LP: {res.message}")
    return float(-res.fun)


def highs_attacker_value(a_prime: np.ndarray, b: np.ndarray, z: float) -> float:
    """max over attacker mixes y of min over the victim's best replies x of x'By.

    The victim's best replies are {x in simplex : x' a_prime >= z}.  The inner
    minimum is replaced by its LP dual, max alpha + z * sum(w) subject to
    alpha + (a_prime w)_i <= (B y)_i and w >= 0, which makes the whole
    max-min one LP over (y, w, alpha).
    """
    n, k = a_prime.shape
    m = b.shape[1]
    a_ub = np.hstack([-b, a_prime, np.ones((n, 1))])
    a_eq = np.concatenate([np.ones(m), np.zeros(k + 1)])[None, :]
    bounds = [(0.0, None)] * (m + k) + [(None, None)]
    for relax in Z_RELAX:
        z_relaxed = z - relax * (1.0 + abs(z))
        c = np.concatenate([np.zeros(m), -z_relaxed * np.ones(k), [-1.0]])
        res = _highs(c, a_ub, np.zeros(n), a_eq, bounds)
        if res.status == 0:
            return float(-res.fun)
    raise RuntimeError(f"HiGHS attacker LP: {res.message}")


def q_tables(rewards: np.ndarray, transitions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Stage payoffs r + P V(h+1) for both players, shape (2, H, S, n, m)."""
    return rewards + np.einsum("hsnmt,iht->ihsnm", transitions, values[:, 1:])


def policy_values(rewards, transitions, pi1, pi2) -> np.ndarray:
    """Exact values (2, H+1, S) of a fixed policy pair by backward induction."""
    _, horizon, states = rewards.shape[:3]
    values = np.zeros((2, horizon + 1, states))
    for h in range(horizon - 1, -1, -1):
        joint = pi1[h][:, :, None] * pi2[h][:, None, :]          # (S, n, m)
        p_pi = np.einsum("snm,snmt->st", joint, transitions[h])
        for i in range(2):
            r_pi = np.einsum("snm,snm->s", joint, rewards[i, h])
            values[i, h] = r_pi + p_pi @ values[i, h + 1]
    return values


def singleton_attacker_value(q1: np.ndarray, q2: np.ndarray, j: int, tie_tol: float):
    """Closed form of the attacker's value against the pure fake column j.

    The victim's best replies to column j are the rows maximising q1[:, j].
    When that row i* is unique, the attacker's worst-case value is
    max_k q2[i*, k]; returns None when rows tie within tie_tol.
    """
    col = q1[:, j]
    order = np.argsort(col)[::-1]
    if col.size > 1 and col[order[0]] - col[order[1]] <= tie_tol:
        return None
    return float(q2[order[0]].max())


def continuation_tradeoff_game_arrays():
    """The two-step witness on which the stagewise fake-policy choice (5.0)
    is beaten by enumeration (100.0): faking the low-value column at the
    late state steers the victim's first-step reply into the attacker's
    jackpot row."""
    horizon, states, n, m = 2, 3, 2, 2
    r1 = np.zeros((horizon, states, n, m))
    r2 = np.zeros((horizon, states, n, m))
    r1[0, 0] = [[5.0, 5.0], [0.0, 0.0]]
    r2[0, 0] = [[100.0, 100.0], [0.0, 0.0]]
    r1[1, 2] = [[10.0, 0.0], [9.0, 0.1]]
    r2[1, 2] = [[5.0, 5.0], [4.0, 4.0]]
    p = np.zeros((horizon, states, n, m, states))
    p[:, :, :, :, 0] = 1.0
    p[0, 0, 0, :, :] = [0.0, 1.0, 0.0]
    p[0, 0, 1, :, :] = [0.0, 0.0, 1.0]
    mu = np.array([1.0, 0.0, 0.0])
    return horizon, states, n, m, mu, np.stack([r1, r2]), p
