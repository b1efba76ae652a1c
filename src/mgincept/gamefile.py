"""JSON interchange formats for games, policies and fake rewards.

Game document layout (all indices 0-based)::

    {
      "horizon": H, "states": S, "actions": [n, m],
      "mu": [S floats],
      "rewards": {"p1": [H][S][n][m], "p2": [H][S][n][m]},
      "transitions": [H][S][n][m][S],
      "beliefs": [ {"entries": [H][S][m]}, ... ]          # optional
    }

Policy files are ``{"player": 1|2, "entries": [H][S][k]}``; fake-reward
files are ``{"iota": x, "rewards_p2": [H][S][n][m]}``.  JSON floats are
written with Python's shortest round-trip repr, so save/load reproduces
every value bit-for-bit.

Error split, mirrored by the CLI exit codes: structural problems (bad JSON,
missing keys, jagged or non-numeric arrays) raise GameFormatError; value-
level problems (invalid distributions, non-finite rewards) surface through
game validation or policy construction as ValueError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import MarkovGame, MarkovPolicy


class GameFormatError(ValueError):
    """The document cannot be parsed into model arrays."""


@dataclass(frozen=True)
class GameDocument:
    game: MarkovGame
    beliefs: tuple = field(default_factory=tuple)


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFormatError(f"{path}: top-level JSON value must be an object")
    return doc


def _array(doc, key: str) -> np.ndarray:
    src = doc
    for part in key.split("."):
        if not isinstance(src, dict) or part not in src:
            raise GameFormatError(f"missing field {key!r}")
        src = src[part]
    try:
        arr = np.asarray(src, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"field {key!r} is not a numeric array: {exc}") from exc
    if arr.dtype == object:
        raise GameFormatError(f"field {key!r} is jagged")
    return arr


def _int_field(doc: dict, key: str) -> int:
    if key not in doc:
        raise GameFormatError(f"missing field {key!r}")
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise GameFormatError(f"field {key!r} must be an integer, got {v!r}")
    return v


def policy_from_object(obj, player: int | None = None) -> MarkovPolicy:
    """Build a policy from a parsed JSON object {"player"?, "entries"}."""
    if not isinstance(obj, dict):
        raise GameFormatError("policy object must be a JSON object")
    entries = _array(obj, "entries")
    if entries.ndim != 3:
        raise GameFormatError(f"policy entries must be [H][S][k], got shape {entries.shape}")
    if player is None:
        player = obj.get("player", 2)
        if not isinstance(player, int) or isinstance(player, bool) or player not in (1, 2):
            raise GameFormatError(f"policy player must be 1 or 2, got {player!r}")
    return MarkovPolicy(player, entries)


def load_game(path) -> GameDocument:
    """Load a game document; beliefs are returned alongside when present."""
    doc = _read_json(path)
    horizon = _int_field(doc, "horizon")
    states = _int_field(doc, "states")
    actions = doc.get("actions")
    if (not isinstance(actions, (list, tuple)) or len(actions) != 2
            or not all(isinstance(a, int) and not isinstance(a, bool) for a in actions)):
        raise GameFormatError('field "actions" must be a pair of integers [n, m]')
    n, m = actions
    mu = _array(doc, "mu")
    r1 = _array(doc, "rewards.p1")
    r2 = _array(doc, "rewards.p2")
    if r1.shape != r2.shape:
        raise GameFormatError("rewards.p1 and rewards.p2 have different shapes")
    transitions = _array(doc, "transitions")
    game = MarkovGame(horizon, states, n, m, mu, np.stack([r1, r2]), transitions)
    beliefs = []
    if "beliefs" in doc:
        if not isinstance(doc["beliefs"], list):
            raise GameFormatError('field "beliefs" must be a list of policy objects')
        for obj in doc["beliefs"]:
            beliefs.append(policy_from_object(obj, player=2))
    return GameDocument(game=game, beliefs=tuple(beliefs))


def save_game(path, g: MarkovGame, beliefs=()) -> None:
    doc = {
        "horizon": g.horizon,
        "states": g.num_states,
        "actions": [g.n, g.m],
        "mu": g.mu.tolist(),
        "rewards": {"p1": g.rewards[0].tolist(), "p2": g.rewards[1].tolist()},
        "transitions": g.transitions.tolist(),
    }
    if beliefs:
        doc["beliefs"] = [{"entries": p.entries.tolist()} for p in beliefs]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_policy(path) -> MarkovPolicy:
    return policy_from_object(_read_json(path))


def save_policy(path, policy: MarkovPolicy) -> None:
    doc = {"player": policy.player, "entries": policy.entries.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_beliefs(path) -> tuple:
    """A beliefs file: either {"beliefs": [...]} or a bare list of policies."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("beliefs")
    if not isinstance(doc, list) or not doc:
        raise GameFormatError(f"{path}: expected a nonempty list of policy objects")
    return tuple(policy_from_object(obj, player=2) for obj in doc)


def load_fake_rewards(path) -> tuple:
    """Returns (iota, rewards array [H][S][n][m]) from a fake-reward file."""
    doc = _read_json(path)
    iota = doc.get("iota")
    if not isinstance(iota, (int, float)) or isinstance(iota, bool):
        raise GameFormatError(f'field "iota" must be a number, got {iota!r}')
    rewards = _array(doc, "rewards_p2")
    if rewards.ndim != 4:
        raise GameFormatError(f"rewards_p2 must be [H][S][n][m], got shape {rewards.shape}")
    return float(iota), rewards


def save_fake_rewards(path, iota: float, rewards: np.ndarray) -> None:
    doc = {"iota": iota, "rewards_p2": np.asarray(rewards).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
