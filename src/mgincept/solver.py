"""Backward induction for the attacker's worst-case optimal Markov policy.

Given a validated game and a finitely generated victim belief, solve one
stage game per (step, state) from the last layer backwards.  Within a layer
the per-state solves are independent; layers are strictly sequential.
Worst-case values are unique, so the value tables are reproducible
bit-for-bit through the deterministic LP engine and the closed forms even
though the returned policy may be any optimal vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BeliefSet,
    MarkovGame,
    MarkovPolicy,
    ValueTables,
    _player_index,
    require_valid,
)
from .stage import MAX_BELIEF_POLICIES, _lp_chain, singleton_stage_solves

STAGE_BUDGET = 200_000


@dataclass(frozen=True)
class QMatrices:
    """Per-(player, step, state) stage payoff matrices, shape (2, H, S, n, m)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 5 or values.shape[0] != 2:
            raise ValueError(f"q matrices must be (2, H, S, n, m), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("q matrices must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def stage(self, player: int, h: int, s: int) -> np.ndarray:
        return self.values[_player_index(player), h, s]


@dataclass(frozen=True)
class BRSolveReport:
    """Result of the full backward pass: attacker policy, value and Q tables."""

    pi2_star: MarkovPolicy
    v: ValueTables
    q: QMatrices
    v1_root: float
    v2_root: float


def q_from_v(g: MarkovGame, player: int, h: int, v_next) -> np.ndarray:
    """Stage payoffs at step h from the next layer's values, shape (S, n, m).

    Raises ValueError when they overflow, so the stage solves downstream can
    trust them to be finite.
    """
    i = _player_index(player)
    v_next = np.asarray(v_next, dtype=float)
    if v_next.shape != (g.num_states,):
        raise ValueError(f"v_next has shape {v_next.shape}, expected ({g.num_states},)")
    if not (0 <= h < g.horizon):
        raise ValueError(f"step {h} out of range for horizon {g.horizon}")
    q = g.rewards[i, h] + g.transitions[h] @ v_next
    if not np.all(np.isfinite(q)):
        raise ValueError(f"player-{player} stage payoffs at step {h} overflow")
    return q


def clean_mix(y: np.ndarray) -> np.ndarray:
    """Snap an LP-produced mix onto the simplex (clip tiny negatives, rescale).

    Solver output satisfies the simplex constraints to ~1e-12 but policy
    construction validates exactly; the snap changes entries by at most the
    solver's own rounding error.
    """
    y = np.clip(np.asarray(y, dtype=float), 0.0, None)
    total = y.sum()
    if total <= 0.0:
        raise ValueError("mix has no positive mass")
    return y / total


def _check_budget(g: MarkovGame, k: int) -> None:
    cost = g.horizon * g.num_states * max(g.n, g.m, k)
    if cost > STAGE_BUDGET:
        raise ValueError(
            f"instance size H*S*max(n,m,K) = {cost} exceeds solve budget {STAGE_BUDGET}"
        )


def markov_attacker_best_response(g: MarkovGame, belief: BeliefSet) -> BRSolveReport:
    """Compute an attacker policy that is worst-case optimal against the belief.

    Backward induction over stage games: at each step h build both players'
    stage payoffs from the next layer's worst-case values and the believed
    columns Q1[h, s] mixes[h, s] of every state at once, one column per base
    policy.  A singleton belief solves the layer's S stages in one
    `stage.singleton_stage_solves` call: no victim LP, and the attacker LP
    only at stages whose best reply row is tied exactly.  A K > 1 belief
    chains the victim and attacker LPs at every stage.
    """
    require_valid(g)
    if not belief.matches(g):
        raise ValueError("belief dimensions do not match game")
    if belief.size > MAX_BELIEF_POLICIES:
        raise ValueError(f"belief size {belief.size} exceeds cap {MAX_BELIEF_POLICIES}")
    _check_budget(g, belief.size)

    H, S = g.horizon, g.num_states
    mixes = np.stack([p.entries for p in belief.base], axis=-1)  # (H, S, m, K)
    values = np.zeros((2, H + 1, S))
    qvals = np.zeros((2, H, S, g.n, g.m))
    pi2 = np.zeros((H, S, g.m))
    for h in range(H - 1, -1, -1):
        qvals[0, h] = q_from_v(g, 1, h, values[0, h + 1])
        qvals[1, h] = q_from_v(g, 2, h, values[1, h + 1])
        cols = qvals[0, h] @ mixes[h]  # (S, n, K)
        if belief.size == 1:
            cells = singleton_stage_solves(cols.transpose(0, 2, 1), qvals[1, h])
            values[0, h] = cells.z[:, 0]
            values[1, h] = cells.v2[:, 0]
            pi2[h] = np.eye(g.m)[cells.k_star[:, 0]]
            for s, br in zip(np.flatnonzero(cells.tied), cells.tied_brs):
                pi2[h, s] = clean_mix(br.y_star)
        else:
            for s in range(S):
                br = _lp_chain(cols[s], qvals[1, h, s])
                values[0, h, s] = br.z_star
                values[1, h, s] = br.v2_star
                pi2[h, s] = clean_mix(br.y_star)
    tables = ValueTables(values)
    v1_root, v2_root = tables.root(g.mu)
    return BRSolveReport(
        pi2_star=MarkovPolicy(2, pi2),
        v=tables,
        q=QMatrices(qvals),
        v1_root=v1_root,
        v2_root=v2_root,
    )


def secure_belief(g: MarkovGame) -> BeliefSet:
    """The belief of a victim that trusts nothing: all m constant pure policies.

    Per-stage mixtures of these bases span every attacker policy, so solving
    against this belief is solving against a maximin (security) victim.
    """
    bases = []
    for j in range(g.m):
        actions = np.full((g.horizon, g.num_states), j, dtype=int)
        bases.append(MarkovPolicy.deterministic(2, actions, g.m))
    return BeliefSet(tuple(bases))
