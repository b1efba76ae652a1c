"""Core data model: Markov games, Markov policies, belief sets, value tables,
and the stage payoffs r + P V of a layer (`q_from_v`).

Conventions used throughout the package:

* Steps, states and actions are 0-indexed. A game with horizon H has step
  layers h = 0 .. H-1 and value layers h = 0 .. H (layer H is terminal and
  identically zero).
* Player 1 is the victim (row player, n actions), player 2 is the attacker
  (column player, m actions).
* Probability vectors are validated to sum to 1 within 1e-12 and are never
  renormalized: invalid inputs are rejected so downstream math stays exact.

All types are immutable after construction (frozen dataclasses over
read-only numpy arrays) and safe to share across threads.  The types that
hold arrays compare by identity: an elementwise array comparison has no
single truth value, and arrays have no hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12


class InvalidGameError(ValueError):
    """Raised when an operation requires a game that fails validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("game failed validation:\n" + "\n".join(report.messages()))


def _frozen(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MarkovGame:
    """A finite-horizon two-player Markov game.

    Fields
    ------
    horizon      number of steps H >= 1
    num_states   number of states
    n, m         victim / attacker action counts
    mu           initial state distribution, shape (S,)
    rewards      per-player stage rewards, shape (2, H, S, n, m)
    transitions  next-state distributions, shape (H, S, n, m, S)

    Construction checks shapes and basic typing only; value-level
    invariants (probability sums, finiteness) are checked by
    :func:`validate_game` which reports rather than raises.
    """

    horizon: int
    num_states: int
    n: int
    m: int
    mu: np.ndarray
    rewards: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        for name in ("horizon", "num_states", "n", "m"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        H, S, n, m = self.horizon, self.num_states, self.n, self.m
        mu = _frozen(self.mu)
        rewards = _frozen(self.rewards)
        transitions = _frozen(self.transitions)
        if mu.shape != (S,):
            raise ValueError(f"mu has shape {mu.shape}, expected {(S,)}")
        if rewards.shape != (2, H, S, n, m):
            raise ValueError(
                f"rewards have shape {rewards.shape}, expected {(2, H, S, n, m)}"
            )
        if transitions.shape != (H, S, n, m, S):
            raise ValueError(
                f"transitions have shape {transitions.shape}, expected {(H, S, n, m, S)}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transitions", transitions)

    @cached_property
    def _validation(self) -> "ValidationReport":
        # the arrays are read-only copies, so the report cannot go stale
        return _check_game(self)

    @cached_property
    def _optimistic_deviations(self) -> tuple:
        # the arrays are read-only copies, so the table cannot go stale; a
        # game that fails its finiteness check raises on every read instead
        return _optimistic_deviations(self)

    def with_attacker_rewards(self, fake: np.ndarray) -> "MarkovGame":
        """A copy of this game whose player-2 rewards are replaced by `fake`,
        of the game's (H, S, n, m) shape: no other shape is broadcast."""
        if np.shape(fake) != self.rewards.shape[1:]:
            raise ValueError(
                f"fake rewards have shape {np.shape(fake)}, expected {self.rewards.shape[1:]}"
            )
        rewards = np.array(self.rewards)
        rewards[1] = fake
        return MarkovGame(
            self.horizon, self.num_states, self.n, self.m,
            self.mu, rewards, self.transitions,
        )


def _player_index(player: int) -> int:
    if (isinstance(player, bool) or not isinstance(player, (int, np.integer))
            or player not in (1, 2)):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    return int(player) - 1


@dataclass(frozen=True, eq=False)
class MarkovPolicy:
    """A Markov policy: a mixed action distribution per (step, state).

    `entries` has shape (H, S, k) with k = n for player 1 and k = m for
    player 2.  Every entry row must be a distribution (>= 0, sums to 1
    within 1e-12); violating rows are rejected at construction.
    """

    player: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "player", _player_index(self.player) + 1)
        entries = _frozen(self.entries)
        if entries.ndim != 3:
            raise ValueError(f"policy entries must be (H, S, k), got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("policy entries must be finite")
        if (entries < 0).any():
            h, s, a = np.unravel_index(int(np.argmin(entries)), entries.shape)
            raise ValueError(f"negative action probability at (h={h}, s={s}, a={a})")
        sums = entries.sum(axis=2)
        if (np.abs(sums - 1.0) > PROB_TOL).any():
            h, s = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise ValueError(
                f"policy row at (h={h}, s={s}) sums to {sums[h, s]!r}, expected 1"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def num_actions(self) -> int:
        return self.entries.shape[2]

    @cached_property
    def is_deterministic(self) -> bool:
        """True iff every stage entry is exactly one-hot.

        Worked out on first use and kept: the entries are read-only.
        """
        e = self.entries
        return bool(np.all((e == 0.0) | (e == 1.0)) and np.all(e.sum(axis=2) == 1.0))

    def action_at(self, h: int, s: int) -> int:
        """The chosen action of a deterministic policy at (h, s)."""
        if not self.is_deterministic:
            raise ValueError("action_at requires a deterministic policy")
        return int(np.argmax(self.entries[h, s]))

    @staticmethod
    def deterministic(player: int, actions, num_actions: int) -> "MarkovPolicy":
        """Build a deterministic policy from an (H, S) array of action
        indices: integers, or floats of integral value; booleans and
        fractions are rejected rather than cast."""
        actions = np.asarray(actions)
        if actions.ndim != 2:
            raise ValueError("actions must be an (H, S) integer array")
        if actions.dtype.kind not in "iuf" or (
                actions.dtype.kind == "f" and (actions != np.trunc(actions)).any()):
            raise ValueError("action indices must be integers, not booleans or fractions")
        if (actions < 0).any() or (actions >= num_actions).any():
            raise ValueError("action index out of range")
        return MarkovPolicy(player, (actions[..., None] == np.arange(num_actions)).astype(float))


@dataclass(frozen=True, eq=False)
class BeliefSet:
    """A finitely generated belief over attacker policies.

    Holds the ordered base policies; semantically the belief is the set of
    all per-stage convex mixtures of the bases.  `mixes` stacks their
    entries once, in the layout every stage solve reads.
    """

    base: tuple

    def __post_init__(self):
        base = tuple(self.base)
        if len(base) < 1:
            raise ValueError("belief set needs at least one base policy")
        first = base[0]
        for p in base:
            if not isinstance(p, MarkovPolicy) or p.player != 2:
                raise ValueError("belief base policies must be attacker (player 2) policies")
            if p.entries.shape != first.entries.shape:
                raise ValueError("belief base policies must share (H, S, m) dimensions")
        object.__setattr__(self, "base", base)

    @property
    def size(self) -> int:
        return len(self.base)

    @cached_property
    def mixes(self) -> np.ndarray:
        """Read-only (H, S, m, K) array: mixes[h, s, :, k] is base policy k's
        action mix at (h, s), so Q1[h, s] @ mixes[h, s] are the believed
        columns.  Stacked on first use and kept: the bases are read-only.
        """
        mixes = np.stack([p.entries for p in self.base], axis=-1)
        mixes.flags.writeable = False
        return mixes


@dataclass(frozen=True, eq=False)
class ValueTables:
    """Per-(player, layer, state) values with a zero terminal layer.

    `values` has shape (2, H+1, S); layer H must be exactly zero.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if values.ndim != 3 or values.shape[0] != 2 or values.shape[1] < 2:
            raise ValueError(f"value tables must be (2, H+1, S), got {values.shape}")
        if np.any(values[:, -1, :] != 0.0):
            raise ValueError("terminal value layer must be exactly zero")
        object.__setattr__(self, "values", values)

    def root(self, mu) -> tuple:
        """Scalar values (V1, V2) at the root, weighted by the initial distribution."""
        mu = np.asarray(mu, dtype=float)
        return float(mu @ self.values[0, 0]), float(mu @ self.values[1, 0])


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with the coordinates where it was found."""

    code: str
    coords: tuple
    detail: str

    def __str__(self) -> str:
        where = ",".join(f"{k}={v}" for k, v in self.coords)
        return f"{self.code} at ({where}): {self.detail}" if where else f"{self.code}: {self.detail}"


class ValidationReport(tuple):
    """The violations a game check found, in the order found."""

    @property
    def ok(self) -> bool:
        return not self

    def messages(self) -> list:
        return [str(v) for v in self]


def _check_distribution(vec: np.ndarray, code: str, coords: tuple, out: list) -> None:
    if not np.all(np.isfinite(vec)):
        out.append(Violation(code + "-nonfinite", coords, "non-finite probability entry"))
        return
    if np.any(vec < 0):
        out.append(Violation(code + "-negative", coords, f"negative entry {vec.min()!r}"))
    total = float(vec.sum())
    if abs(total - 1.0) > PROB_TOL:
        out.append(Violation(code + "-sum", coords, f"sums to {total!r}, expected 1"))


def validate_game(g: MarkovGame) -> ValidationReport:
    """Check every value-level invariant of a game; never raises.

    Dimension consistency is enforced at construction, so the report covers
    probability vectors (mu and every transition row) and reward finiteness.
    The check runs once per game: the report is kept on the game, whose
    arrays are read-only copies, and every later call returns it.
    """
    return g._validation


def _check_game(g: MarkovGame) -> ValidationReport:
    out: list = []
    _check_distribution(g.mu, "mu", (), out)
    if not np.all(np.isfinite(g.rewards)):
        bad = np.argwhere(~np.isfinite(g.rewards))
        for i, h, s, a1, a2 in bad[:32]:
            out.append(Violation(
                "reward-nonfinite",
                (("player", int(i) + 1), ("h", int(h)), ("s", int(s)),
                 ("a1", int(a1)), ("a2", int(a2))),
                f"value {g.rewards[i, h, s, a1, a2]!r}",
            ))
    rows = g.transitions.reshape(-1, g.num_states)
    # a row with a non-finite entry has a non-finite sum (inf - inf is nan)
    with np.errstate(invalid="ignore"):
        sums = rows.sum(axis=1)
    bad_rows = ~np.isfinite(sums) | (np.abs(sums - 1.0) > PROB_TOL)
    # the rows holding a negative entry, by their flat indices: a fraction of
    # the cost of a per-row any() when there are few
    bad_rows[np.flatnonzero(rows < 0) // g.num_states] = True
    for flat in np.nonzero(bad_rows)[0][:64]:
        h, s, a1, a2 = np.unravel_index(flat, (g.horizon, g.num_states, g.n, g.m))
        coords = (("h", int(h)), ("s", int(s)), ("a1", int(a1)), ("a2", int(a2)))
        _check_distribution(g.transitions[h, s, a1, a2], "transition", coords, out)
    return ValidationReport(out)


def _optimistic_deviations(g: MarkovGame) -> tuple:
    """The half of `inception.check_iota_dominance` that no policy changes:
    the read-only (H, S, n, m) table r2[h] + P[h] @ high, high being the
    best player-2 value over all joint actions from step h + 1 on (zero
    after the last step), and the check's rounding allowance per step, (H,).

    Every sum the check compares at step h adds S + 1 rounded terms per
    layer over the H - h layers from h on, none of them larger than
    scale[h], the sum over those layers of the largest |r2|, when the
    transition rows are distributions.  The allowance bounds the rounding
    error on both sides of the comparison, 2 (H - h) (S + 1) eps scale[h],
    so it scales with the rewards.  Raises ValueError when player-2 rewards
    or transitions are not all finite: they certify nothing.
    """
    r2 = g.rewards[1]
    if not (np.isfinite(r2).all() and np.isfinite(g.transitions).all()):
        raise ValueError("player-2 rewards or transitions contain non-finite entries")
    H, S = g.horizon, g.num_states
    deviate = np.empty(r2.shape)
    # one row per (s, a1, a2), so each layer is one matrix-vector product
    rows, r2, moves = deviate.reshape(H, -1), r2.reshape(H, -1), g.transitions.reshape(H, -1, S)
    high = np.zeros(S)
    for h in range(H - 1, -1, -1):
        np.add(r2[h], moves[h] @ high, out=rows[h])
        high = rows[h].reshape(S, -1).max(axis=1)
    scale = np.abs(r2).max(axis=1)[::-1].cumsum()[::-1]
    slack = 2 * (S + 1) * np.finfo(float).eps * np.arange(H, 0, -1) * scale
    deviate.flags.writeable = False
    slack.flags.writeable = False
    return deviate, slack


def require_valid(g: MarkovGame) -> None:
    """Raise :class:`InvalidGameError` unless the game passes validation."""
    report = validate_game(g)
    if not report.ok:
        raise InvalidGameError(report)


def _check_policy(g: MarkovGame, pi: MarkovPolicy, player: int) -> None:
    if pi.player != player:
        raise ValueError(f"expected a player-{player} policy, got player {pi.player}")
    k = g.n if player == 1 else g.m
    if pi.entries.shape != (g.horizon, g.num_states, k):
        raise ValueError(
            f"policy shape {pi.entries.shape} does not match game "
            f"{(g.horizon, g.num_states, k)}"
        )


def q_from_v(g: MarkovGame, h: int, v_next) -> np.ndarray:
    """Both players' stage payoffs at step h from next-layer values, shape
    (2, ..., S, n, m) for v_next of shape (2, ..., S): player i + 1's
    payoffs from the values v_next[i].

    A stack of value vectors gives the stack of their payoffs from one
    broadcast matmul, each bit-identical to the payoffs of its vector
    alone.  Raises ValueError when they overflow, so the stage solves
    downstream can trust them to be finite.
    """
    v_next = np.asarray(v_next, dtype=float)
    if v_next.ndim < 2 or v_next.shape[0] != 2 or v_next.shape[-1] != g.num_states:
        raise ValueError(f"v_next has shape {v_next.shape}, expected (2, ..., {g.num_states})")
    if not (0 <= h < g.horizon):
        raise ValueError(f"step {h} out of range for horizon {g.horizon}")
    rewards = g.rewards[:, h].reshape(2, *(1,) * (v_next.ndim - 2), *g.rewards.shape[2:])
    q = rewards + (g.transitions[h] @ v_next[..., None, None, :, None])[..., 0]
    if not np.isfinite(q).all():
        raise ValueError(f"stage payoffs at step {h} overflow")
    return q


def evaluate_policy(g: MarkovGame, pi1: MarkovPolicy, pi2: MarkovPolicy) -> ValueTables:
    """Exact backward-induction evaluation of a fixed policy pair, each
    layer's payoffs from one `q_from_v` call, which raises ValueError
    where they overflow.

    Returns value tables for both players; the scalar root values are
    `result.root(g.mu)`.
    """
    _check_policy(g, pi1, 1)
    _check_policy(g, pi2, 2)
    H, S = g.horizon, g.num_states
    values = np.zeros((2, H + 1, S))
    for h in range(H - 1, -1, -1):
        q = q_from_v(g, h, values[:, h + 1])
        for i in range(2):
            values[i, h] = np.einsum("sn,snm,sm->s", pi1.entries[h], q[i], pi2.entries[h])
    return ValueTables(values)

