"""Seeded Monte Carlo rollouts of a fixed policy pair.

The generator is PCG64 (numpy's named 64-bit generator), so runs replay
bit-for-bit across platforms given the same seed.  Each episode consumes a
fixed layout of uniforms: one draw for the initial state, then per step one
draw each for the victim action, attacker action and next state (the last
next-state uniform is drawn but never used, keeping the layout simple).

Categorical sampling inverts the cumulative distribution.  Each of `mu`, the
two policies and the transitions becomes a cut table once per call: a
C-contiguous `(k - 1, rows)` array whose column r holds the first k - 1
entries of `np.cumsum` of distribution row r (rows are the flat (h, s) or
(h, s, a1, a2) index; the last cumulative sum is never compared).  A draw
takes the number of cut points at or below its uniform u.  For a row of
nonnegative entries `np.cumsum` is nondecreasing in floating point, so that
number is min(#{j : c_j <= u}, k - 1), the index at which u falls in the
cumulative distribution, and it is also the first j with c_j > u (k - 1 if
none), which a bisection finds in bit_length(k - 1) probes.  `_sample`
counts rows of at most `_COUNT_MAX` cut points, where one gather of the
whole row is cheaper, and bisects wider ones; both give the same index.
Hence a one-hot row always yields its hot index and deterministic instances
have zero variance.  The game is validated first, because a negative or NaN
transition entry would break that equality.  The two policies' tables sit
side by side in one `(k - 1, 2 H S)` table, k the larger action count, so
one gather draws both actions of a step; the smaller table is padded with
+inf, a cut point no uniform reaches, which leaves its draws unchanged.

Episodes run in blocks of `_BLOCK` (the last block may be shorter).  A
block draws its uniforms `_DRAW` episodes at a time into a small
episode-major `(_DRAW, 1 + 3H)` buffer and copies each sub-block into a
`(1 + 3H, b)` buffer with one contiguous row per draw.  The generator fills
its output in row-major order, so consecutive sub-blocks and blocks consume
exactly the stream of a single `(E, 1 + 3H)` draw.  The block records the
flat (h, s, a1, a2) index of every step, then gathers both players' rewards
one step at a time in backward order: the last step's straight into the
returns, each earlier step's into one `(2, b)` buffer added to them.  The
buffers are allocated once per call, so working memory is O(_BLOCK H + E)
rather than O(E H): only the `(2, E)` returns grow with the episode count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarkovGame, MarkovPolicy, _check_policy, require_valid

_BLOCK = 2048  # episodes per block of uniforms
_DRAW = 256  # episodes per generator call in a block: 125 KB of uniforms at H = 20
_COUNT_MAX = 11  # widest cut rows `_sample` counts (< 256: counts are bytes); wider bisect


@dataclass(frozen=True, eq=False)
class RolloutStats:
    """Empirical returns: mean and standard error per player, plus the seed."""

    episodes: int
    mean_returns: np.ndarray
    std_errors: np.ndarray
    seed: int


def _cut_table(p: np.ndarray) -> np.ndarray:
    """The `(k - 1, rows)` cut table of the distributions along p's last axis."""
    k = p.shape[-1]
    cols = p.reshape(-1, k)
    table = np.empty((k - 1, cols.shape[0]))
    if k > 1:
        table[0] = cols[:, 0]
    # running column adds: np.cumsum's own sequential order, so the same bits
    for j in range(1, k - 1):
        np.add(table[j - 1], cols[:, j], out=table[j])
    return table


def _sample(cuts: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: episode i gets #{j : cuts[j, rows[i]] <= u[i]}.

    `rows` and `u` share one shape, which the result takes.  A row of at most
    `_COUNT_MAX` cut points is counted: one gather of all of them, whose bool
    rows are added as bytes.  A wider row is bisected.  Its cut points are
    nondecreasing, so one probe of cut point j tells whether the count
    exceeds j.  With p = bit_length(k - 1), the first probe, at
    j = 2**(p - 1) - 1, leaves the count in [0, 2**(p - 1) - 1] or in
    [k - 2**(p - 1), k - 1], both 2**(p - 1) wide, and each later probe halves
    that range without leaving the row: p one-value gathers per episode
    instead of k - 1.  Per draw of 2048 episodes (2 vCPU, numpy 2.4), the
    policies' 3 cut points take 18 µs counted against 29 µs bisected, the
    20-state transitions' 19 take 39 µs bisected against 63 µs counted, and
    the two draws tie at 11 cut points.
    """
    width, size = cuts.shape
    if width <= _COUNT_MAX:
        hits = cuts.take(rows, axis=1) <= u
        return hits.view(np.uint8).sum(axis=0, dtype=np.uint8)
    flat = cuts.reshape(-1)
    pos = rows.astype(np.intp)                      # j * size + row, j the count so far
    hit = np.empty(rows.shape, dtype=bool)
    inc = np.empty(rows.shape, dtype=np.intp)
    step = 1 << (width.bit_length() - 1)
    jump = width + 1 - step                         # the first probe's, on a hit
    while step:
        np.less_equal(flat[(step - 1) * size:].take(pos), u, out=hit)
        pos += np.multiply(hit, jump * size, out=inc)
        step >>= 1
        jump = step
    pos -= rows
    pos //= size
    return pos


def simulate(g: MarkovGame, pi1: MarkovPolicy, pi2: MarkovPolicy,
             episodes: int, seed: int) -> RolloutStats:
    """Estimate both players' values by seeded rollouts; unbiased for V_i."""
    require_valid(g)
    _check_policy(g, pi1, 1)
    _check_policy(g, pi2, 2)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    H, S, n, m = g.horizon, g.num_states, g.n, g.m

    mu_cuts = _cut_table(g.mu)                      # (S - 1, 1)
    cuts12 = np.full((max(n, m) - 1, 2 * H * S), np.inf)  # +inf pads the smaller one
    cuts12[:n - 1, :H * S] = _cut_table(pi1.entries)      # (n - 1, H S)
    cuts12[:m - 1, H * S:] = _cut_table(pi2.entries)      # (m - 1, H S)
    cutst = _cut_table(g.transitions)               # (S - 1, H S n m)
    rewards = g.rewards.reshape(2, -1)              # (2, H S n m)
    # the rows of (h, s) in cuts12: h S + s for pi1, (H + h) S + s for pi2
    rows12 = (np.arange(H)[:, None, None] + [[0], [H]]) * S   # (H, 2, 1)

    block = min(_BLOCK, episodes)
    draws = np.empty((min(_DRAW, block), 1 + 3 * H))  # one row of uniforms per episode
    u = np.empty((1 + 3 * H, block))                # one contiguous row per draw
    flat = np.empty((H, block), dtype=np.intp)      # flat (h, s, a1, a2) per step
    first = np.zeros(block, dtype=np.intp)          # every episode reads mu's one row
    step = np.empty((2, block))                     # one step's rewards
    returns = np.empty((2, episodes))
    for lo in range(0, episodes, block):
        b = min(block, episodes - lo)
        ub, fb = u[:, :b], flat[:, :b]
        for sub in range(0, b, _DRAW):
            c = min(_DRAW, b - sub)
            rng.random(out=draws[:c])
            ub[:, sub:sub + c] = draws[:c].T
        state = _sample(mu_cuts, first[:b], ub[0])
        for h in range(H):
            hs = state + rows12[h]                  # (2, b)
            a1, a2 = _sample(cuts12, hs, ub[1 + 3 * h:3 + 3 * h])
            np.add((hs[0] * n + a1) * m, a2, out=fb[h])
            if h + 1 < H:
                state = _sample(cutst, fb[h], ub[3 + 3 * h])
        # sum steps in backward order, matching the exact evaluator's
        # grouping so deterministic instances reproduce its values bit-for-bit;
        # with mode="clip" (every index is in range) take writes into `out`,
        # where the default "raise" goes through a temporary copy of it
        total, sb = returns[:, lo:lo + b], step[:, :b]
        for i in range(2):
            rewards[i].take(fb[H - 1], out=total[i], mode="clip")
        for h in range(H - 2, -1, -1):
            rewards.take(fb[h], axis=1, out=sb, mode="clip")
            total += sb

    mean = np.empty(2)
    se = np.zeros(2)
    for i in range(2):
        col = returns[i]
        if np.all(col == col[0]):  # zero-variance: the mean is exact
            mean[i] = col[0]
        else:
            mean[i] = col.mean()
            if episodes > 1:
                se[i] = col.std(ddof=1) / np.sqrt(episodes)
    return RolloutStats(episodes=episodes, mean_returns=mean, std_errors=se, seed=seed)
