"""The count-and-clamp sampler that `mgincept.rollout`'s cut tables replaced.

Each draw gathers every episode's full cumulative row, counts the entries
at or below its uniform and clamps the count to k - 1: the reference the
cut-table sampler must match bit for bit (tests/test_rollout.py).  Same
uniform layout and return summation as the package.
"""

import numpy as np

from mgincept.model import _check_policy
from mgincept.rollout import RolloutStats


def sample(cdf_rows, u):
    """Vectorized inverse-CDF draw: row i gets the index where u[i] falls."""
    idx = (cdf_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1)


def simulate(g, pi1, pi2, episodes, seed):
    """Seeded rollouts of a policy pair; no game validation."""
    _check_policy(g, pi1, 1)
    _check_policy(g, pi2, 2)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    H = g.horizon
    u = rng.random((episodes, 1 + 3 * H))

    mu_cdf = np.cumsum(g.mu)
    cdf1 = np.cumsum(pi1.entries, axis=2)          # (H, S, n)
    cdf2 = np.cumsum(pi2.entries, axis=2)          # (H, S, m)
    cdft = np.cumsum(g.transitions, axis=4)        # (H, S, n, m, S)

    step_rewards = np.zeros((episodes, 2, H))
    state = sample(np.broadcast_to(mu_cdf, (episodes, g.num_states)), u[:, 0])
    for h in range(H):
        a1 = sample(cdf1[h, state], u[:, 1 + 3 * h])
        a2 = sample(cdf2[h, state], u[:, 2 + 3 * h])
        step_rewards[:, 0, h] = g.rewards[0, h, state, a1, a2]
        step_rewards[:, 1, h] = g.rewards[1, h, state, a1, a2]
        state = sample(cdft[h, state, a1, a2], u[:, 3 + 3 * h])

    returns = step_rewards[:, :, H - 1].copy()
    for h in range(H - 2, -1, -1):
        returns += step_rewards[:, :, h]

    mean = np.empty(2)
    se = np.zeros(2)
    for i in range(2):
        col = returns[:, i]
        if np.all(col == col[0]):
            mean[i] = col[0]
        else:
            mean[i] = col.mean()
            if episodes > 1:
                se[i] = col.std(ddof=1) / np.sqrt(episodes)
    return RolloutStats(episodes=episodes, mean_returns=mean, std_errors=se, seed=seed)
