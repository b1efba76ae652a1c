"""Backward induction for the attacker's worst-case optimal Markov policy.

Given a validated game and a finitely generated victim belief, solve one
stage game per (step, state) from the last layer backwards.  Within a layer
the per-state solves are independent and run as one batch; layers are
strictly sequential.  This module holds only that pass and its report: each
layer's payoffs come from `model.q_from_v` and its stage solves, finished
attacker mixes included, from `stage.belief_stage_solves`.
Worst-case values are unique, so the value tables are reproducible
bit-for-bit through the deterministic LP engine and the closed forms even
though the returned policy may be any optimal vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (BeliefSet, MarkovGame, MarkovPolicy, ValueTables, _assemble, _check_policy,
                    q_from_v, require_valid)
from .lp import LpError
from .stage import MAX_BELIEF_POLICIES, StageSolveError, belief_stage_solves

STAGE_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class QMatrices:
    """Per-(player, step, state) stage payoff matrices, shape (2, H, S, n, m),
    read-only and finite (each layer from `q_from_v`)."""

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class BRSolveReport:
    """Result of the full backward pass: attacker policy, value and Q tables."""

    pi2_star: MarkovPolicy
    v: ValueTables
    q: QMatrices
    v1_root: float
    v2_root: float


def _check_budget(g: MarkovGame, k: int) -> None:
    cost = g.horizon * g.num_states * max(g.n, g.m, k)
    if cost > STAGE_BUDGET:
        raise ValueError(
            f"instance size H*S*max(n,m,K) = {cost} exceeds solve budget {STAGE_BUDGET}"
        )


def markov_attacker_best_response(g: MarkovGame, belief: BeliefSet) -> BRSolveReport:
    """Compute an attacker policy that is worst-case optimal against the belief.

    Backward induction over stage games: at each step h, one `q_from_v`
    call builds both players' stage payoffs from the next layer's
    worst-case values, and one `stage.belief_stage_solves` call solves all
    S stages from their believed columns Q1[h] @ belief.mixes[h], an
    (S, n, K) array with one column per base policy: closed forms where
    they apply, and LPs in lockstep batches elsewhere.  The stage solves
    return finished attacker mixes, so they are the policy's rows as they
    are.  A stage-solve failure names the step h and the stage s ("step h,
    stage s: ...") and which LP broke.
    """
    require_valid(g)
    _check_policy(g, belief.base[0], 2)  # the bases share one shape
    if belief.size > MAX_BELIEF_POLICIES:
        raise ValueError(f"belief size {belief.size} exceeds cap {MAX_BELIEF_POLICIES}")
    _check_budget(g, belief.size)

    H, S = g.horizon, g.num_states
    values = np.zeros((2, H + 1, S))
    qvals = np.zeros((2, H, S, g.n, g.m))
    pi2 = np.zeros((H, S, g.m))
    for h in range(H - 1, -1, -1):
        qvals[:, h] = q_from_v(g, h, values[:, h + 1])
        try:
            br = belief_stage_solves(qvals[0, h] @ belief.mixes[h], qvals[1, h])
        except (StageSolveError, LpError) as err:
            raise type(err)(f"step {h}, {err}") from None
        values[0, h] = br.z_star
        values[1, h] = br.v2_star
        pi2[h] = br.y_star
    qvals.flags.writeable = False
    tables = _assemble(ValueTables, values=values)  # the terminal layer stays zero
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
