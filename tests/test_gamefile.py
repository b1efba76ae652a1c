import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

import mgincept as mg
from conftest import chain_game, integer_reward_game, list_form_doc, random_policy
from mgincept import cli, gamefile, stage
from mgincept.gamefile import GameFormatError

DATA = Path(__file__).parent / "data"


def list_form_arrays():
    """The arrays behind the list-form files in tests/data: a 2-step,
    2-state 2x2 game with one belief, and a policy for each player."""
    rng = np.random.default_rng(1300)

    def rows(*shape):
        x = rng.uniform(0.05, 1.0, shape)
        return x / x.sum(axis=-1, keepdims=True)

    g = mg.MarkovGame(2, 2, 2, 2, rows(2), rng.uniform(-1.0, 1.0, (2, 2, 2, 2, 2)),
                      rows(2, 2, 2, 2, 2))
    belief, p1, p2 = (mg.MarkovPolicy(player, rows(2, 2, 2)) for player in (2, 1, 2))
    return g, belief, p1, p2


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_game_round_trip_is_bit_exact(tmp_path):
    g = chain_game(seed=60, horizon=2, states=3, n=2, m=2)
    rng = np.random.default_rng(61)
    beliefs = [random_policy(rng, 2, 2, 3, 2) for _ in range(2)]
    path = tmp_path / "game.json"
    gamefile.save_game(path, g, beliefs=beliefs)
    doc = gamefile.load_game(path)
    assert np.array_equal(doc.game.mu, g.mu)
    assert np.array_equal(doc.game.rewards, g.rewards)
    assert np.array_equal(doc.game.transitions, g.transitions)
    assert len(doc.beliefs) == 2
    for loaded, original in zip(doc.beliefs, beliefs):
        assert np.array_equal(loaded.entries, original.entries)


def test_policy_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(62)
    pol = random_policy(rng, 1, 3, 2, 3)
    path = tmp_path / "policy.json"
    gamefile.save_policy(path, pol)
    loaded = gamefile.load_policy(path)
    assert loaded.player == 1
    assert np.array_equal(loaded.entries, pol.entries)


def test_encoded_form_keeps_every_bit(tmp_path):
    g = chain_game(seed=68, horizon=2, states=2, n=2, m=3)
    rewards = np.array(g.rewards)
    rewards[0, 0, 0, 0] = [-0.0, 5e-324, np.nan]
    rewards[1, 1, 1, 1] = [np.inf, -np.inf, -2.5e-310]
    g = mg.MarkovGame(2, 2, 2, 3, g.mu, rewards, g.transitions)
    belief = mg.MarkovPolicy(2, np.tile([1.0, -0.0, 5e-324], (2, 2, 1)))
    game, pol, fake = (tmp_path / name for name in ("game.json", "pol.json", "fake.json"))
    gamefile.save_game(game, g, beliefs=[belief])
    gamefile.save_policy(pol, belief)
    gamefile.save_fake_rewards(fake, 0.5, rewards[1])

    doc = json.loads(game.read_text())
    assert doc["transitions"]["dtype"] == "<f8" and doc["transitions"]["shape"] == [2, 2, 2, 3, 2]
    loaded = gamefile.load_game(game)
    for name in ("mu", "rewards", "transitions"):
        assert same_bits(getattr(loaded.game, name), getattr(g, name)), name
    assert same_bits(loaded.beliefs[0].entries, belief.entries)
    assert same_bits(gamefile.load_policy(pol).entries, belief.entries)
    assert same_bits(gamefile.load_fake_rewards(fake)[1], rewards[1])
    # non-finite rewards are a value-level problem: validation flags them
    report = mg.validate_game(loaded.game)
    assert sum(v.code == "reward-nonfinite" for v in report) == 3
    assert cli.main(["validate", str(game)]) == 1


def _encoded(value):
    return base64.b64encode(np.asarray(value, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize("edit, match", [
    ({"dtype": "<f4"}, "dtype"),
    ({"dtype": ">f8"}, "dtype"),
    ({"shape": [2, True, 2, 2]}, "shape"),
    ({"shape": [2, -2, 2, 2]}, "shape"),
    ({"shape": [2, 2.0, 2, 2]}, "shape"),
    ({"shape": 16}, "shape"),
    ({"data": "not base64!"}, "base64"),
    ({"data": _encoded(range(16))[:-1]}, "base64"),
    ({"data": 1.0}, "base64"),
    ({"data": _encoded(range(15))}, "120 bytes"),
    ({"shape": [2, 2, 2, 3]}, "needs 192"),
], ids=["dtype-f4", "dtype-big-endian", "shape-bool", "shape-negative", "shape-float",
        "shape-not-a-list", "data-outside-alphabet", "data-bad-padding", "data-not-a-string",
        "data-too-short", "data-for-another-shape"])
def test_malformed_encoded_array_is_a_format_error(edit, match, tmp_path):
    path = tmp_path / "game.json"
    gamefile.save_game(path, chain_game(seed=69, horizon=2, states=2))
    doc = json.loads(path.read_text())
    doc["rewards"]["p1"].update(edit)
    path.write_text(json.dumps(doc))
    with pytest.raises(GameFormatError, match=f"'rewards.p1'.*{match}"):
        gamefile.load_game(path)
    assert cli.main(["validate", str(path)]) == 2


def test_list_form_files_load_bit_exact():
    g, belief, p1, p2 = list_form_arrays()
    doc = gamefile.load_game(DATA / "list_form_game.json")
    for name in ("mu", "rewards", "transitions"):
        assert same_bits(getattr(doc.game, name), getattr(g, name)), name
    (loaded_belief,) = doc.beliefs
    assert same_bits(loaded_belief.entries, belief.entries)
    for name, pol in (("p1", p1), ("p2", p2)):
        loaded = gamefile.load_policy(DATA / f"list_form_{name}.json")
        assert loaded.player == pol.player
        assert same_bits(loaded.entries, pol.entries)


def test_tied_game_file_loads_bit_exact_and_runs_the_attacker_lp(monkeypatch):
    # the game CI's console smoke step verifies on a grid: integer_reward_game(0),
    # 3 steps, 4 states, 3 x 3, with no inline belief, so verify solves it
    # against the secure belief, where tied victim optima send stages to
    # the attacker LP
    g = integer_reward_game(0)
    doc = gamefile.load_game(DATA / "tied_game.json")
    assert (doc.game.horizon, doc.game.num_states, doc.game.n, doc.game.m) == (3, 4, 3, 3)
    for name in ("mu", "rewards", "transitions"):
        assert same_bits(getattr(doc.game, name), getattr(g, name)), name
    assert doc.beliefs == ()
    stages, real = [], stage.attacker_br_lp

    def counted(z_star, cols, b):
        stages.append(cols.shape[0])
        return real(z_star, cols, b)

    monkeypatch.setattr(stage, "attacker_br_lp", counted)
    mg.markov_attacker_best_response(doc.game, mg.secure_belief(doc.game))
    assert sum(stages) >= 1


def test_simulate_prints_the_same_for_list_and_encoded_files(tmp_path, capsys):
    doc = gamefile.load_game(DATA / "list_form_game.json")
    gamefile.save_game(tmp_path / "game.json", doc.game, beliefs=doc.beliefs)
    for name in ("p1", "p2"):
        gamefile.save_policy(tmp_path / f"{name}.json",
                             gamefile.load_policy(DATA / f"list_form_{name}.json"))
    outputs = []
    for game, p1, p2 in ((DATA / "list_form_game.json", DATA / "list_form_p1.json",
                          DATA / "list_form_p2.json"),
                         (tmp_path / "game.json", tmp_path / "p1.json", tmp_path / "p2.json")):
        assert cli.main(["simulate", str(game), "--p1", str(p1), "--p2", str(p2),
                         "--episodes", "500", "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "player 2: mean = " in outputs[0]


def test_fake_rewards_round_trip(tmp_path):
    rng = np.random.default_rng(63)
    rewards = rng.uniform(-1, 1, (2, 2, 2, 3))
    path = tmp_path / "fake.json"
    gamefile.save_fake_rewards(path, 0.25, rewards)
    iota, back = gamefile.load_fake_rewards(path)
    assert iota == 0.25
    assert np.array_equal(back, rewards)


def test_fake_rewards_need_a_numeric_iota(tmp_path):
    # JSON true is a Python bool, which isinstance counts as an int
    path = tmp_path / "fake.json"
    for iota in (True, False, "1", None):
        path.write_text(json.dumps({"iota": iota, "rewards_p2": [[[[0.0]]]]}))
        with pytest.raises(GameFormatError, match='"iota" must be a number'):
            gamefile.load_fake_rewards(path)
    path.write_text(json.dumps({"rewards_p2": [[[[0.0]]]]}))
    with pytest.raises(GameFormatError, match='"iota" must be a number'):
        gamefile.load_fake_rewards(path)


def test_fake_rewards_need_a_finite_nonnegative_iota(tmp_path):
    # the domain check_iota_dominance accepts; Python's json reads NaN,
    # Infinity and a 1e400 that overflows to inf as floats
    path = tmp_path / "fake.json"
    for iota in ("NaN", "Infinity", "-Infinity", "1e400", "-3", "-0.5", "1" + "0" * 400):
        path.write_text(f'{{"iota": {iota}, "rewards_p2": [[[[0.0]]]]}}')
        with pytest.raises(GameFormatError, match='"iota" must be finite and nonnegative'):
            gamefile.load_fake_rewards(path)
    for iota in ("0", "0.0", "2.5"):
        path.write_text(f'{{"iota": {iota}, "rewards_p2": [[[[0.0]]]]}}')
        assert gamefile.load_fake_rewards(path)[0] == float(iota)


def test_truncated_file_is_a_format_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"horizon": 1, "states": 1, "actions": [2,')
    with pytest.raises(GameFormatError):
        gamefile.load_game(path)


def test_missing_and_malformed_fields(tmp_path):
    doc = list_form_doc(chain_game(seed=64, horizon=1, states=1))

    broken = dict(doc)
    del broken["transitions"]
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(broken))
    with pytest.raises(GameFormatError, match="transitions"):
        gamefile.load_game(p)

    broken = dict(doc)
    broken["actions"] = [2]
    p2 = tmp_path / "actions.json"
    p2.write_text(json.dumps(broken))
    with pytest.raises(GameFormatError, match="actions"):
        gamefile.load_game(p2)

    broken = dict(doc)
    broken["mu"] = [[0.5], [0.5, 0.5]]
    p3 = tmp_path / "jagged.json"
    p3.write_text(json.dumps(broken))
    with pytest.raises(GameFormatError):
        gamefile.load_game(p3)


def test_value_level_problems_surface_as_validation_not_format(tmp_path):
    path = tmp_path / "game.json"
    doc = list_form_doc(chain_game(seed=65, horizon=1, states=2))
    doc["transitions"][0][0][0][0] = [0.9, 0.0]
    path.write_text(json.dumps(doc))
    loaded = gamefile.load_game(path)  # parses fine
    report = mg.validate_game(loaded.game)
    assert not report.ok
    assert any(v.code == "transition-sum" for v in report)


def test_policy_with_bad_rows_is_rejected_at_load(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"player": 2, "entries": [[[0.7, 0.7]]]}))
    with pytest.raises(ValueError, match="sums to"):
        gamefile.load_policy(path)


@pytest.mark.parametrize("player", [True, 1.0, "1"])
def test_policy_with_a_non_integer_player_is_a_format_error(player, tmp_path, capsys):
    g = chain_game(seed=67, horizon=1, states=1)
    game, p1, p2 = (tmp_path / name for name in ("game.json", "p1.json", "p2.json"))
    gamefile.save_game(game, g)
    p1.write_text(json.dumps({"player": player, "entries": [[[1.0, 0.0]]]}))
    p2.write_text(json.dumps({"player": 2, "entries": [[[1.0, 0.0]]]}))
    with pytest.raises(GameFormatError, match="player must be 1 or 2"):
        gamefile.load_policy(p1)
    assert cli.main(["simulate", str(game), "--p1", str(p1), "--p2", str(p2),
                     "--episodes", "10", "--seed", "0"]) == 2


def test_beliefs_file_accepts_list_or_wrapper(tmp_path):
    rng = np.random.default_rng(66)
    pol = random_policy(rng, 2, 1, 1, 2)
    entry = {"entries": pol.entries.tolist()}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([entry]))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"beliefs": [entry, entry]}))
    assert len(gamefile.load_beliefs(bare)) == 1
    assert len(gamefile.load_beliefs(wrapped)) == 2
    assert all(b.player == 2 for b in gamefile.load_beliefs(wrapped))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"beliefs": []}))
    with pytest.raises(GameFormatError):
        gamefile.load_beliefs(empty)


@pytest.mark.parametrize("bad, error, match", [
    ("not a policy", GameFormatError, r"^beliefs\[1\]: policy object must be a JSON object$"),
    ({}, GameFormatError, r"^beliefs\[1\]: missing field 'entries'$"),
    ({"entries": [[[1.0], [0.0, 1.0]]]}, GameFormatError,
     r"^beliefs\[1\]: field 'entries' is not a numeric array"),
    ({"entries": [[[0.7, 0.7]]]}, ValueError, r"^beliefs\[1\]: policy row .* sums to")])
def test_both_belief_readers_name_the_bad_belief(bad, error, match, tmp_path):
    # the game file's embedded list and a beliefs file share one reader; a
    # structural fault stays a format error and a bad row a value error
    good = {"entries": [[[1.0, 0.0]]]}
    game = tmp_path / "game.json"
    doc = list_form_doc(chain_game(seed=68, horizon=1, states=1))
    doc["beliefs"] = [good, bad]
    game.write_text(json.dumps(doc))
    beliefs = tmp_path / "beliefs.json"
    beliefs.write_text(json.dumps({"beliefs": [good, bad]}))
    for load, path in ((gamefile.load_game, game), (gamefile.load_beliefs, beliefs)):
        with pytest.raises(error, match=match) as info:
            load(path)
        assert isinstance(info.value, GameFormatError) == (error is GameFormatError)


@pytest.mark.parametrize("entries", [[[[1.0, 0.0]]], [[[0.7, 0.7]]]], ids=["valid", "bad-rows"])
def test_load_game_refuses_inline_beliefs_of_another_shape(entries, tmp_path):
    # a 2-step, 2-state, 2x2 game takes (2, 2, 2) belief entries; the shape
    # is checked before the rows, so a belief that is wrong in both is
    # still a format error
    doc = list_form_doc(chain_game(seed=70))
    doc["beliefs"] = [{"entries": np.full((2, 2, 2), 0.5).tolist()}, {"entries": entries}]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GameFormatError, match=re.escape(
            "beliefs[1]: field 'entries' has shape (1, 1, 2), expected (2, 2, 2) from")):
        gamefile.load_game(path)


READERS = {
    "game": (gamefile.load_game, lambda: list_form_doc(chain_game(seed=69, horizon=1, states=1))),
    "policy": (gamefile.load_policy, lambda: {"player": 1, "entries": [[[1.0, 0.0]]]}),
    "beliefs": (gamefile.load_beliefs, lambda: {"beliefs": [{"entries": [[[1.0, 0.0]]]}]}),
    "fake rewards": (gamefile.load_fake_rewards,
                     lambda: {"iota": 1.0, "rewards_p2": [[[[0.0]]]]}),
}


@pytest.mark.parametrize("reader", READERS)
def test_non_utf8_file_is_a_format_error(reader, tmp_path):
    # UnicodeDecodeError is a ValueError, the value-level exit code's type
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"iota": "\xff"}')
    with pytest.raises(GameFormatError, match="cannot read .*'utf-8' codec"):
        READERS[reader][0](path)


@pytest.mark.parametrize("reader, field, leaf", [
    ("game", "mu", "1.0"), ("game", "rewards.p1", True), ("game", "transitions", None),
    ("policy", "entries", False), ("beliefs", "entries", "0"),
    ("fake rewards", "rewards_p2", True)])
def test_list_leaves_must_be_json_numbers(reader, field, leaf, tmp_path):
    # numpy turns "1.0", true and null into floats; a JSON number is an int
    # or a float, and JSON true loads as a bool
    load, make = READERS[reader]
    doc = make()
    src = doc["beliefs"][0] if reader == "beliefs" else doc
    *parents, last = field.split(".")
    for part in parents:
        src = src[part]
    row = src[last]
    while isinstance(row[0], list):
        row = row[0]
    row[0] = leaf
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    message = f"field {field!r} holds {leaf!r}, not a JSON number"
    with pytest.raises(GameFormatError, match=re.escape(message)):
        load(path)


def test_integers_beyond_float64_are_a_format_error(tmp_path):
    doc = list_form_doc(chain_game(seed=69, horizon=1, states=1))
    doc["rewards"]["p1"][0][0][0][0] = 10 ** 400
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GameFormatError, match="field 'rewards.p1' is not a numeric array"):
        gamefile.load_game(path)
