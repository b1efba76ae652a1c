"""Dominant-policy inception: choosing the fake policy and designing fake rewards.

The attacker spreads a fake reward function whose dominant strategy pins the
victim's belief to a single fake policy.  The engine picks the fake policy
by backward induction, evaluating at each (step, state) every candidate fake
action via the stage solver against the singleton belief, and keeping the
candidate with the highest attacker value (lowest action index on ties).

Against a pure fake action j the rational victim replies with the argmax
row i* of Q1[:, j], so the stage solver returns the candidate in closed form
as max_k Q2[i*, k], with no LP; only rows tied exactly at the maximum fall
back to the LP chain, which gives the maximin over the tied rows.  Fake
actions that steer the victim to the same reply row therefore have bitwise
equal values, and np.argmax really picks the lowest index among them.

The greedy backward pass is exact for single-step games; for longer horizons
the enumeration oracle (`oracle.brute_force_inception`) certifies it on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BeliefSet, MarkovGame, MarkovPolicy, ValueTables, require_valid
from .solver import BRSolveReport, markov_attacker_best_response, q_from_v
from .stage import nf_attacker_best_response

DOMINANCE_TOL = 1e-9


@dataclass(frozen=True)
class InceptionConfig:
    """Dominance gap used when designing fake rewards; must be positive."""

    iota: float

    def __post_init__(self):
        if not (np.isfinite(self.iota) and self.iota > 0):
            raise ValueError(f"iota must be strictly positive, got {self.iota!r}")


@dataclass(frozen=True)
class InceptionResult:
    """The chosen fake policy with its value tables and per-candidate values.

    candidate_values[h, s, j] is the attacker's value at (h, s) when the fake
    action there is j and the fake continuation is the already-chosen one;
    the tables record the values under the picked candidates.
    """

    pi2_dagger: MarkovPolicy
    v_hat: ValueTables
    candidate_values: np.ndarray
    v1_root: float
    v2_root: float


def policy_inception(g: MarkovGame) -> InceptionResult:
    """Pick a deterministic fake attacker policy by backward induction."""
    require_valid(g)
    H, S, m = g.horizon, g.num_states, g.m
    values = np.zeros((2, H + 1, S))
    candidates = np.zeros((H, S, m))
    actions = np.zeros((H, S), dtype=int)
    eye = np.eye(m)
    for h in range(H - 1, -1, -1):
        q1 = q_from_v(g, 1, h, values[0, h + 1])
        q2 = q_from_v(g, 2, h, values[1, h + 1])
        for s in range(S):
            v1_cand = np.zeros(m)
            for j in range(m):
                br = nf_attacker_best_response(eye[j:j + 1], q1[s], q2[s])
                v1_cand[j] = br.z_star
                candidates[h, s, j] = br.v2_star
            j_star = int(np.argmax(candidates[h, s]))  # lowest index wins ties
            actions[h, s] = j_star
            values[0, h, s] = v1_cand[j_star]
            values[1, h, s] = candidates[h, s, j_star]
    tables = ValueTables(values)
    v1_root, v2_root = tables.root(g.mu)
    return InceptionResult(
        pi2_dagger=MarkovPolicy.deterministic(2, actions, m),
        v_hat=tables,
        candidate_values=candidates,
        v1_root=v1_root,
        v2_root=v2_root,
    )


def design_dominant_rewards(
    pi2_dagger: MarkovPolicy, cfg: InceptionConfig, g: MarkovGame
) -> np.ndarray:
    """Fake attacker rewards that make the given policy strictly dominant.

    Pays iota * (H-h) * (H-h+1) / 2 on the chosen action column at 0-indexed
    step h and zero elsewhere; the growth towards earlier steps outweighs any
    continuation advantage an alternative action could collect.
    """
    if pi2_dagger.player != 2 or not pi2_dagger.is_deterministic:
        raise ValueError("reward design requires a deterministic attacker policy")
    H, S, n, m = g.horizon, g.num_states, g.n, g.m
    if (pi2_dagger.horizon, pi2_dagger.num_states, pi2_dagger.num_actions) != (H, S, m):
        raise ValueError("policy dimensions do not match game")
    fake = np.zeros((H, S, n, m))
    for h in range(H):
        steps_left = H - h
        coeff = cfg.iota * steps_left * (steps_left + 1) / 2.0
        for s in range(S):
            fake[h, s, :, pi2_dagger.action_at(h, s)] = coeff
    return fake


def check_iota_dominance(g: MarkovGame, pi2_dagger: MarkovPolicy, iota: float) -> tuple:
    """Sound sufficient test that the policy is iota-strictly dominant for g's
    player-2 rewards, Markov-perfectly.

    Compares the pessimistic continuation of playing the policy (worst case
    over victim actions) against the optimistic continuation of any deviation
    (best case over all joint actions).  Returns (ok, witness) where witness
    is the first violating (h, s, a1, a2) found scanning from the last step
    backwards, or None.
    """
    if pi2_dagger.player != 2 or not pi2_dagger.is_deterministic:
        raise ValueError("dominance check requires a deterministic attacker policy")
    H, S, n, m = g.horizon, g.num_states, g.n, g.m
    r2 = g.rewards[1]
    low = np.zeros(S)   # value of following the policy, worst case over victim
    high = np.zeros(S)  # upper value over all joint actions
    for h in range(H - 1, -1, -1):
        cont_low = g.transitions[h] @ low    # (S, n, m)
        cont_high = g.transitions[h] @ high
        deviate = r2[h] + cont_high          # (S, n, m)
        new_low = np.zeros(S)
        for s in range(S):
            j = pi2_dagger.action_at(h, s)
            follow = r2[h, s, :, j] + cont_low[s, :, j]  # (n,)
            for a1 in range(n):
                for a2 in range(m):
                    if a2 == j:
                        continue
                    if follow[a1] < deviate[s, a1, a2] + iota - DOMINANCE_TOL:
                        return False, (h, s, a1, a2)
            new_low[s] = follow.min()
        low = new_low
        high = deviate.max(axis=(1, 2))
    return True, None


def recover_dominant_policy(g: MarkovGame, iota: float) -> MarkovPolicy | None:
    """Extract the policy a rational victim reads out of fake rewards.

    The candidate maximizes the worst-case stage reward per (h, s); it is
    returned only if it passes the dominance check, else None.
    """
    H, S = g.horizon, g.num_states
    actions = np.zeros((H, S), dtype=int)
    for h in range(H):
        for s in range(S):
            actions[h, s] = int(np.argmax(g.rewards[1, h, s].min(axis=0)))
    candidate = MarkovPolicy.deterministic(2, actions, g.m)
    ok, _ = check_iota_dominance(g, candidate, iota)
    return candidate if ok else None


def exploit_fixed_fake(g: MarkovGame, pi2_dagger: MarkovPolicy) -> BRSolveReport:
    """The attacker's true optimal worst-case response when the victim
    best-responds to a fixed fake policy (singleton belief)."""
    if pi2_dagger.player != 2 or not pi2_dagger.is_deterministic:
        raise ValueError("exploit_fixed_fake requires a deterministic attacker policy")
    return markov_attacker_best_response(g, BeliefSet((pi2_dagger,)))
