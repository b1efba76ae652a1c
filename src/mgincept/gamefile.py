"""JSON interchange formats for games, policies and fake rewards.

Game document layout (all indices 0-based)::

    {
      "horizon": H, "states": S, "actions": [n, m],
      "mu": [S],
      "rewards": {"p1": [H][S][n][m], "p2": [H][S][n][m]},
      "transitions": [H][S][n][m][S],
      "beliefs": [ {"entries": [H][S][m]}, ... ]          # optional
    }

Policy files are ``{"player": 1|2, "entries": [H][S][k]}``; fake-reward
files are ``{"iota": x, "rewards_p2": [H][S][n][m]}``.

Each array above is stored in one of two forms, and every reader accepts
both:

* encoded, which every writer produces:
  ``{"dtype": "<f8", "shape": [...], "data": "<base64>"}``, where ``data``
  is the base64 of the array's little-endian float64 bytes in C order.  It
  reproduces every bit (-0.0, subnormals, NaN and infinities included) and
  loads without decoding float text;
* nested lists of JSON numbers, as hand-written files and files from
  earlier versions hold them.  Python writes floats as their shortest
  round-trip repr, so these load bit-exact too.

Error split, mirrored by the CLI exit codes: structural problems (a file
that is not UTF-8 JSON, missing keys, jagged arrays, list leaves that are
not JSON numbers or are integers beyond float64's range, a malformed
encoded array, a "horizon", "states" or "actions" entry that is not a
positive integer, a game array or a belief's entries, inline or in a
beliefs file, whose shape disagrees with them) raise
GameFormatError; value-level problems (invalid distributions, non-finite
rewards) surface through game validation or policy construction as
ValueError.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .model import MarkovGame, MarkovPolicy


# little-endian float64, the one dtype the encoded array form stores
DTYPE = "<f8"


class GameFormatError(ValueError):
    """The document cannot be parsed into model arrays."""


@dataclass(frozen=True)
class GameDocument:
    game: MarkovGame
    beliefs: tuple = field(default_factory=tuple)


def _parse_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_json(path) -> dict:
    doc = _parse_json(path)
    if not isinstance(doc, dict):
        raise GameFormatError(f"{path}: top-level JSON value must be an object")
    return doc


def _encode(a) -> dict:
    arr = np.asarray(a, dtype=DTYPE)
    return {"dtype": DTYPE, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(src: dict, key: str) -> np.ndarray:
    """The read-only array of an encoded array object; see the module docstring."""
    for name in ("dtype", "shape", "data"):
        if name not in src:
            raise GameFormatError(f"field {key!r} lacks {name!r}")
    if src["dtype"] != DTYPE:
        raise GameFormatError(f"field {key!r} has dtype {src['dtype']!r}, expected {DTYPE!r}")
    shape = src["shape"]
    if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
        raise GameFormatError(f"field {key!r} has shape {shape!r}, expected a list of "
                              "non-negative integers")
    try:
        raw = base64.b64decode(src["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"field {key!r} data is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise GameFormatError(f"field {key!r} data holds {len(raw)} bytes, shape {shape} "
                              f"needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, DTYPE).reshape(shape)


def _array(doc, key: str) -> np.ndarray:
    """The float array at a dotted key, in either stored form."""
    src = doc
    for part in key.split("."):
        if not isinstance(src, dict) or part not in src:
            raise GameFormatError(f"missing field {key!r}")
        src = src[part]
    if isinstance(src, dict):
        return _decode(src, key)
    try:
        arr = np.asarray(src, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GameFormatError(f"field {key!r} is not a numeric array: {exc}") from exc
    # asarray also takes numeric strings, booleans and null; JSON numbers
    # load as exact int or float
    leaves = [src] if arr.ndim == 0 else src
    for _ in range(arr.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    for leaf in leaves:
        if type(leaf) not in (int, float):
            raise GameFormatError(f"field {key!r} holds {leaf!r}, not a JSON number")
    return arr


def _is_dimension(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _dimension_field(doc: dict, key: str) -> int:
    if key not in doc:
        raise GameFormatError(f"missing field {key!r}")
    v = doc[key]
    if not _is_dimension(v):
        raise GameFormatError(f"field {key!r} must be a positive integer, got {v!r}")
    return v


def _shaped(doc, key: str, shape: tuple) -> np.ndarray:
    arr = _array(doc, key)
    if arr.shape != shape:
        raise GameFormatError(f"field {key!r} has shape {arr.shape}, expected {shape} "
                              'from "horizon", "states" and "actions"')
    return arr


def _entries(obj) -> np.ndarray:
    """The [H][S][k] entries of a parsed policy object."""
    if not isinstance(obj, dict):
        raise GameFormatError("policy object must be a JSON object")
    entries = _array(obj, "entries")
    if entries.ndim != 3:
        raise GameFormatError(f"policy entries must be [H][S][k], got shape {entries.shape}")
    return entries


def _belief_policies(objs: list, shape: tuple) -> tuple:
    """The attacker policies of a beliefs list, whose entries must have the
    game's shape (H, S, m).  An error names the bad belief by its index,
    e.g. ``beliefs[1]: field 'entries' ...``, and keeps its type:
    GameFormatError for structure, ValueError for values."""
    policies = []
    for i, obj in enumerate(objs):
        try:
            entries = _entries(obj)
            if entries.shape != shape:
                raise GameFormatError(f"field 'entries' has shape {entries.shape}, expected "
                                      f'{shape} from "horizon", "states" and "actions"')
            policies.append(MarkovPolicy(2, entries))
        except ValueError as exc:
            raise type(exc)(f"beliefs[{i}]: {exc}") from exc
    return tuple(policies)


def load_game(path) -> GameDocument:
    """Load a game document; beliefs, each (H, S, m), are returned alongside
    when present."""
    doc = _read_json(path)
    horizon = _dimension_field(doc, "horizon")
    states = _dimension_field(doc, "states")
    actions = doc.get("actions")
    if not isinstance(actions, list) or len(actions) != 2 or not all(map(_is_dimension, actions)):
        raise GameFormatError('field "actions" must be a pair of positive integers [n, m], '
                              f"got {actions!r}")
    n, m = actions
    stage = (horizon, states, n, m)
    mu, r1, r2, transitions = (
        _shaped(doc, key, shape) for key, shape in (
            ("mu", (states,)), ("rewards.p1", stage), ("rewards.p2", stage),
            ("transitions", stage + (states,))))
    game = MarkovGame(horizon, states, n, m, mu, np.stack([r1, r2]), transitions)
    beliefs = doc.get("beliefs", [])
    if not isinstance(beliefs, list):
        raise GameFormatError('field "beliefs" must be a list of policy objects')
    return GameDocument(game=game, beliefs=_belief_policies(beliefs, (horizon, states, m)))


def save_game(path, g: MarkovGame, beliefs=()) -> None:
    doc = {
        "horizon": g.horizon,
        "states": g.num_states,
        "actions": [g.n, g.m],
        "mu": _encode(g.mu),
        "rewards": {"p1": _encode(g.rewards[0]), "p2": _encode(g.rewards[1])},
        "transitions": _encode(g.transitions),
    }
    if beliefs:
        doc["beliefs"] = [{"entries": _encode(p.entries)} for p in beliefs]
    _write_json(path, doc)


def load_policy(path) -> MarkovPolicy:
    """A policy file {"player"?, "entries"}; the player defaults to 2."""
    doc = _read_json(path)
    entries = _entries(doc)
    player = doc.get("player", 2)
    if not isinstance(player, int) or isinstance(player, bool) or player not in (1, 2):
        raise GameFormatError(f"policy player must be 1 or 2, got {player!r}")
    return MarkovPolicy(player, entries)


def save_policy(path, policy: MarkovPolicy) -> None:
    _write_json(path, {"player": policy.player, "entries": _encode(policy.entries)})


def load_beliefs(path, shape: tuple) -> tuple:
    """A beliefs file: either {"beliefs": [...]} or a bare list of policies,
    each of the game's shape (H, S, m)."""
    doc = _parse_json(path)
    if isinstance(doc, dict):
        doc = doc.get("beliefs")
    if not isinstance(doc, list) or not doc:
        raise GameFormatError(f"{path}: expected a nonempty list of policy objects")
    return _belief_policies(doc, shape)


def load_fake_rewards(path) -> tuple:
    """Returns (iota, rewards array [H][S][n][m]) from a fake-reward file."""
    doc = _read_json(path)
    iota = doc.get("iota")
    if not isinstance(iota, (int, float)) or isinstance(iota, bool):
        raise GameFormatError(f'field "iota" must be a number, got {iota!r}')
    if not 0 <= iota <= sys.float_info.max:  # the domain of check_iota_dominance
        raise GameFormatError(f'field "iota" must be finite and nonnegative, got {iota!r}')
    rewards = _array(doc, "rewards_p2")
    if rewards.ndim != 4:
        raise GameFormatError(f"rewards_p2 must be [H][S][n][m], got shape {rewards.shape}")
    return float(iota), np.array(rewards, dtype=float)


def save_fake_rewards(path, iota: float, rewards: np.ndarray) -> None:
    _write_json(path, {"iota": iota, "rewards_p2": _encode(rewards)})
