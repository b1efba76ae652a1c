"""Dominant-policy inception: choosing the fake policy and designing fake rewards.

The attacker spreads a fake reward function whose dominant strategy pins the
victim's belief to a single fake policy.  Both fake-policy searches run one
backward pass over rows of fake suffixes (`_suffix_pass`), in which every
(row, state, candidate fake action) cell is a stage game against a
singleton belief.  `policy_inception` keeps one row, each state taking the
candidate with the highest attacker value (lowest action index on ties);
`oracle.brute_force_inception` keeps every row.

Against a pure fake action j the rational victim replies with the argmax
row i* of Q1[:, j], so the candidate's value is max_k Q2[i*, k], with no LP;
if rows tie exactly (==) at the maximum, it is the maximin over exactly those
rows of Q2, one small LP.  Fake actions that leave the victim the same best
replies have bitwise equal values, and np.argmax picks the lowest index among
them; values equal only in exact arithmetic may differ in the last bit.

The dominance check, its policy recovery and the reward design are array
expressions per layer as well.  The check's optimistic side, which no
policy changes, is worked out once per game and kept on it, so the check
and the recovery of one fake game share it.

The greedy backward pass is exact for single-step games; for longer
horizons it can fall short of the best fake policy, and the enumeration
oracle (`oracle.brute_force_inception`) finds where it does on small
instances (README, "Known limitation").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LpError
from .model import (BeliefSet, MarkovGame, MarkovPolicy, ValueTables, _check_policy, q_from_v,
                    require_valid)
from .solver import BRSolveReport, markov_attacker_best_response
from .stage import StageSolveError, singleton_stage_solves


@dataclass(frozen=True)
class InceptionConfig:
    """Dominance gap used when designing fake rewards; must be positive."""

    iota: float

    def __post_init__(self):
        if isinstance(self.iota, (bool, np.bool_)) or not (np.isfinite(self.iota) and self.iota > 0):
            raise ValueError(f"iota must be strictly positive, got {self.iota!r}")


@dataclass(frozen=True, eq=False)
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


def _suffix_pass(g: MarkovGame, keep) -> np.ndarray:
    """Both fake-policy searches' backward pass over rows of fake suffixes:
    row b entering step h holds (V1, V2)[h+1] of one suffix (the empty one
    first), and every cell (b, s, j), fake action j at state s, is solved by
    one `singleton_stage_solves` call per step as stage b * S + s, whose
    failure is raised as "step h, stage b * S + s: ...".  keep(h, z, v2)
    takes the cells' victim and attacker values, each (B, S, m), and
    returns the rows entering step h - 1, (2, R, S); each row's values are
    its suffix's alone.  Returns the rows at step 0.
    """
    S, n, m = g.num_states, g.n, g.m
    v = np.zeros((2, 1, S))
    for h in range(g.horizon - 1, -1, -1):
        B = v.shape[1]
        try:
            cells = singleton_stage_solves(*q_from_v(g, h, v).reshape(2, B * S, n, m))
        except (StageSolveError, LpError) as err:
            raise type(err)(f"step {h}, {err}") from None
        v = keep(h, cells.z.reshape(B, S, m), cells.v2.reshape(B, S, m))
    return v


def policy_inception(g: MarkovGame) -> InceptionResult:
    """Pick a deterministic fake attacker policy by backward induction,
    keeping one suffix row: the per-state argmax of the attacker value.

    A failing tied-cell LP is raised naming the step h and the state s
    ("step h, stage s: ...").
    """
    require_valid(g)
    H, S, m = g.horizon, g.num_states, g.m
    values = np.zeros((2, H + 1, S))
    candidates = np.zeros((H, S, m))
    actions = np.zeros((H, S), dtype=int)
    states = np.arange(S)

    def keep(h, z, v2):
        v1_cand, v2_cand = z[0], v2[0]  # (S, m): fake action j at state s
        j_star = np.argmax(v2_cand, axis=1)  # lowest index wins ties
        candidates[h] = v2_cand
        actions[h] = j_star
        values[0, h] = v1_cand[states, j_star]
        values[1, h] = v2_cand[states, j_star]
        return values[:, h:h + 1]

    _suffix_pass(g, keep)
    tables = ValueTables(values)
    v1_root, v2_root = tables.root(g.mu)
    return InceptionResult(
        pi2_dagger=MarkovPolicy.deterministic(2, actions, m),
        v_hat=tables,
        candidate_values=candidates,
        v1_root=v1_root,
        v2_root=v2_root,
    )


def _fake_actions(pi2_dagger: MarkovPolicy, g: MarkovGame, use: str) -> np.ndarray:
    """The (H, S) action indices of a deterministic attacker policy shaped
    like g's attacker; raises ValueError for any other policy."""
    _check_policy(g, pi2_dagger, 2)
    if not pi2_dagger.is_deterministic:
        raise ValueError(f"{use} requires a deterministic attacker policy")
    return np.argmax(pi2_dagger.entries, axis=2)


def design_dominant_rewards(
    pi2_dagger: MarkovPolicy, cfg: InceptionConfig, g: MarkovGame
) -> np.ndarray:
    """Fake attacker rewards that make the given policy strictly dominant.

    Pays iota * (H-h) * (H-h+1) / 2 on the chosen action column at 0-indexed
    step h and zero elsewhere; the growth towards earlier steps outweighs any
    continuation advantage an alternative action could collect.
    """
    actions = _fake_actions(pi2_dagger, g, "reward design")
    H, S = g.horizon, g.num_states
    steps_left = np.arange(H, 0, -1)
    coeff = cfg.iota * steps_left * (steps_left + 1) / 2.0
    hh, ss = np.indices((H, S))
    fake = np.zeros((H, S, g.n, g.m))
    fake[hh, ss, :, actions] = coeff[:, None, None]
    return fake


def _check_iota(iota) -> None:
    if isinstance(iota, (bool, np.bool_)) or not (np.isfinite(iota) and iota >= 0):
        raise ValueError(f"iota must be finite and nonnegative, got {iota!r}")


def check_iota_dominance(g: MarkovGame, pi2_dagger: MarkovPolicy, iota: float) -> tuple:
    """Sound sufficient test that the policy is iota-strictly dominant for g's
    player-2 rewards, Markov-perfectly.

    Compares the pessimistic continuation of playing the policy (worst case
    over victim actions) against the optimistic continuation of any deviation
    (best case over all joint actions): a deviation beats the policy where
    follow < deviate + iota, less a rounding allowance that scales with the
    rewards (`model._optimistic_deviations`), while iota stays in reward
    units.  iota = 0 asks for weak dominance: no deviation does better, up
    to rounding.

    The optimistic side and the allowance do not depend on the policy: they
    are worked out on the game's first check or recovery and kept on the
    game, whose arrays are read-only copies, so they cannot go stale; a fake
    game built by `with_attacker_rewards` is a new game with its own table.

    Returns (ok, witness) where witness is the first violating
    (h, s, a1, a2) found scanning from the last step backwards, and within a
    step over (s, a1, a2) in that order, or None.  Raises ValueError on
    non-finite inputs, which certify nothing (every call: a refusal is not
    kept), and on a boolean iota.
    """
    _check_iota(iota)
    witness = _dominance_witness(g, _fake_actions(pi2_dagger, g, "dominance check"), iota)
    return witness is None, witness


def _dominance_witness(g: MarkovGame, actions: np.ndarray, iota: float):
    """The check's per-policy pass, for the policy playing actions[h, s]:
    the `low` recursion over the policy's own columns of rewards and
    transitions, then one comparison over every layer.  Returns the first
    violating (h, s, a1, a2), or None."""
    deviate, slack = g._optimistic_deviations  # raises on non-finite inputs
    H, S = g.horizon, g.num_states
    own = np.arange(H)[:, None], np.arange(S), slice(None), actions  # the policy's columns
    r2, moves = g.rewards[1][own], g.transitions[own]
    follow = np.empty(r2.shape)
    low = np.zeros(S)  # value of following the policy, worst case over victim
    for h in range(H - 1, -1, -1):
        follow[h] = r2[h] + moves[h] @ low
        low = follow[h].min(axis=1)
    beaten = follow[..., None] < deviate + iota - slack[:, None, None, None]
    beaten &= actions[..., None, None] != np.arange(g.m)  # its own action is no deviation
    if not beaten.any():
        return None
    last_first = beaten[::-1].reshape(-1)
    t, s, a1, a2 = np.unravel_index(int(np.argmax(last_first)), beaten.shape)
    return H - 1 - int(t), int(s), int(a1), int(a2)


def recover_dominant_policy(g: MarkovGame, iota: float) -> MarkovPolicy | None:
    """Extract the policy a rational victim reads out of fake rewards.

    The candidate maximizes the worst-case stage reward per (h, s); it is
    returned only if it passes the dominance check, else None.  It shares
    the check's optimistic table kept on g (see `check_iota_dominance`) and
    builds the policy only when the check passes.
    """
    _check_iota(iota)
    actions = np.argmax(g.rewards[1].min(axis=2), axis=2)
    if _dominance_witness(g, actions, iota) is not None:
        return None
    return MarkovPolicy.deterministic(2, actions, g.m)


def exploit_fixed_fake(g: MarkovGame, pi2_dagger: MarkovPolicy) -> BRSolveReport:
    """The attacker's true optimal worst-case response when the victim
    best-responds to a fixed fake policy (singleton belief)."""
    _fake_actions(pi2_dagger, g, "exploit_fixed_fake")
    return markov_attacker_best_response(g, BeliefSet((pi2_dagger,)))
