import json

import numpy as np
import pytest

import mgincept as mg
from conftest import chain_game, random_policy
from mgincept import cli, gamefile
from mgincept.gamefile import GameFormatError


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


def test_truncated_file_is_a_format_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"horizon": 1, "states": 1, "actions": [2,')
    with pytest.raises(GameFormatError):
        gamefile.load_game(path)


def test_missing_and_malformed_fields(tmp_path):
    g = chain_game(seed=64, horizon=1, states=1)
    path = tmp_path / "game.json"
    gamefile.save_game(path, g)
    doc = json.loads(path.read_text())

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
    g = chain_game(seed=65, horizon=1, states=2)
    path = tmp_path / "game.json"
    gamefile.save_game(path, g)
    doc = json.loads(path.read_text())
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
