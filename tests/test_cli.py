import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import mgincept as mg
import mgincept.cli as cli
import mgincept.solver as solver
from conftest import chain_game, list_form_doc, pure_stage_policy, random_policy, single_step_game
from mgincept import gamefile, lp
from mgincept.lp import LpError

# a 2-step, 2-state, 2x2 game whose one inline belief holds (1, 1, 2) entries
MISSHAPED_BELIEF_GAME = Path(__file__).parent / "data" / "misshaped_belief_game.json"


@pytest.fixture
def decoy_path(tmp_path, decoy_game):
    path = tmp_path / "decoy.json"
    gamefile.save_game(path, decoy_game, beliefs=[pure_stage_policy(2, 1, 2)])
    return path


def value_of(label, out):
    match = re.search(rf"{re.escape(label)}\s*=\s*(-?[\d.e+-]+)", out)
    assert match, f"label {label!r} not found in output:\n{out}"
    return float(match.group(1))


def test_validate_ok(decoy_path, capsys):
    assert cli.main(["validate", str(decoy_path)]) == 0
    assert "game ok" in capsys.readouterr().out


def test_validate_exit_2_on_parse_error(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"horizon": 1,')
    assert cli.main(["validate", str(path)]) == 2


def test_validate_exit_2_on_non_utf8_text_and_non_number_leaves(tmp_path, decoy_game, capsys):
    # both loaded as values before: a UnicodeDecodeError is a ValueError
    # (exit 1), and numpy reads JSON true as 1.0 ("game ok")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"horizon": "\xff"}')
    doc = list_form_doc(decoy_game)
    doc["mu"][0] = True
    bool_leaf = tmp_path / "bool.json"
    bool_leaf.write_text(json.dumps(doc))
    for path in (not_utf8, bool_leaf):
        assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'utf-8' codec" in err and "field 'mu' holds True, not a JSON number" in err


def test_validate_exit_1_with_coordinates(tmp_path, decoy_game, capsys):
    path = tmp_path / "bad.json"
    doc = list_form_doc(decoy_game)
    doc["transitions"][0][0][1][0] = [0.9]
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "transition-sum" in out and "a1=1" in out


@pytest.mark.parametrize("field, value, named", [
    ("horizon", 3, "rewards.p1"), ("states", 3, "mu"), ("actions", [2, 3], "rewards.p1")])
def test_header_disagreeing_with_arrays_is_a_format_error(field, value, named, tmp_path,
                                                          capsys):
    g = chain_game(seed=70, horizon=2, states=2)
    path = tmp_path / "game.json"
    gamefile.save_game(path, g)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert f"field {named!r} has shape" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, error", [
    ("horizon", 0, "field 'horizon' must be a positive integer, got 0"),
    ("states", 0, "field 'states' must be a positive integer, got 0"),
    ("actions", [0, 2], 'field "actions" must be a pair of positive integers [n, m], got [0, 2]'),
    ("actions", [2, 0], 'field "actions" must be a pair of positive integers [n, m], got [2, 0]'),
], ids=["horizon", "states", "n", "m"])
def test_header_with_a_nonpositive_dimension_is_a_format_error(field, value, error, tmp_path,
                                                               capsys):
    # encoded arrays of the shapes the header names, empty where it names a
    # 0, so they agree with it and only the dimension itself is wrong
    doc = {"horizon": 1, "states": 1, "actions": [2, 2], field: value}
    H, S, (n, m) = doc["horizon"], doc["states"], doc["actions"]
    stage = gamefile._encode(np.zeros((H, S, n, m)))
    doc.update(mu=gamefile._encode(np.zeros(S)), rewards={"p1": stage, "p2": stage},
               transitions=gamefile._encode(np.zeros((H, S, n, m, S))))
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


def test_solve_br_with_inline_beliefs(decoy_path, capsys):
    assert cli.main(["solve-br", str(decoy_path)]) == 0
    out = capsys.readouterr().out
    assert value_of("attacker worst-case value", out) == pytest.approx(5.0, abs=1e-9)
    assert value_of("victim worst-case value", out) == pytest.approx(1.0, abs=1e-9)


def test_solve_br_with_beliefs_file_and_output(decoy_path, tmp_path, capsys):
    beliefs = tmp_path / "beliefs.json"
    left = pure_stage_policy(2, 0, 2)
    beliefs.write_text(json.dumps({"beliefs": [{"entries": left.entries.tolist()}]}))
    out_path = tmp_path / "attacker.json"
    assert cli.main(["solve-br", str(decoy_path), "--beliefs", str(beliefs),
                     "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert value_of("attacker worst-case value", out) == pytest.approx(0.0, abs=1e-9)
    saved = gamefile.load_policy(out_path)
    assert saved.player == 2


def test_solve_br_secure(decoy_path, capsys):
    assert cli.main(["solve-br", str(decoy_path), "--secure"]) == 0
    out = capsys.readouterr().out
    assert value_of("victim worst-case value", out) == pytest.approx(0.5, abs=1e-9)


def test_solve_br_without_beliefs_is_usage_error(tmp_path, decoy_game, capsys):
    path = tmp_path / "plain.json"
    gamefile.save_game(path, decoy_game)
    assert cli.main(["solve-br", str(path)]) == 2


def test_solve_failure_in_the_lp_engine_is_one_error_line(decoy_path, capsys, monkeypatch):
    def fail(g, belief):
        raise LpError("pivot limit exceeded; simplex did not converge")

    monkeypatch.setattr(cli, "markov_attacker_best_response", fail)
    assert cli.main(["solve-br", str(decoy_path)]) == 1
    assert capsys.readouterr().err == "error: pivot limit exceeded; simplex did not converge\n"


def test_bad_second_belief_is_named_by_its_index(decoy_path, tmp_path, decoy_game, capsys):
    good = {"entries": [[[1.0, 0.0]]]}
    game = tmp_path / "game.json"
    gamefile.save_game(game, decoy_game)
    doc = json.loads(game.read_text())
    doc["beliefs"] = [good, {"entries": [[[1.0], [0.0, 1.0]]]}]
    game.write_text(json.dumps(doc))
    assert cli.main(["solve-br", str(game)]) == 2
    assert "beliefs[1]: field 'entries'" in capsys.readouterr().err
    beliefs = tmp_path / "beliefs.json"
    beliefs.write_text(json.dumps([good, "not a policy"]))
    assert cli.main(["solve-br", str(decoy_path), "--beliefs", str(beliefs)]) == 2
    assert "beliefs[1]: policy object" in capsys.readouterr().err


def test_incept_prints_policy_and_writes_files(decoy_path, tmp_path, capsys):
    pol = tmp_path / "fake_policy.json"
    rew = tmp_path / "fake_rewards.json"
    assert cli.main(["incept", str(decoy_path), "--iota", "1",
                     "--out-policy", str(pol), "--out-rewards", str(rew)]) == 0
    out = capsys.readouterr().out
    assert value_of("attacker inception value", out) == pytest.approx(5.0, abs=1e-9)
    assert value_of("victim best-response value", out) == pytest.approx(1.0, abs=1e-9)
    assert re.search(r"h=0:\s*1", out)
    saved = gamefile.load_policy(pol)
    assert saved.action_at(0, 0) == 1
    iota, fake = gamefile.load_fake_rewards(rew)
    assert iota == 1.0
    assert np.array_equal(fake[0, 0], [[0.0, 1.0], [0.0, 1.0]])


def test_incept_rejects_nonpositive_iota(decoy_path, capsys):
    assert cli.main(["incept", str(decoy_path), "--iota", "0"]) == 1


def test_incept_aborts_before_writing_on_dominance_failure(
        decoy_path, tmp_path, capsys, monkeypatch):
    # corrupting the designer must be caught by the pre-write check
    monkeypatch.setattr(cli, "design_dominant_rewards",
                        lambda pol, cfg, g: np.zeros((g.horizon, g.num_states, g.n, g.m)))
    rew = tmp_path / "fake_rewards.json"
    assert cli.main(["incept", str(decoy_path), "--iota", "1",
                     "--out-rewards", str(rew)]) == 1
    assert "dominance check FAILED" in capsys.readouterr().out
    assert not rew.exists()


def test_verify_all_on_game_file(decoy_path, capsys):
    assert cli.main(["verify", str(decoy_path), "--mode", "all"]) == 0
    out = capsys.readouterr().out
    assert "victim-stage-vs-grid" in out
    assert "inception-vs-enumeration" in out
    assert "result: PASS" in out


def test_verify_random_grid(capsys):
    assert cli.main(["verify", "--mode", "grid", "--random", "2,2,2,2",
                     "--seed", "3", "--trials", "4", "--step", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "seed = 3" in out and "result: PASS" in out


def test_verify_fails_on_corrupted_solver(decoy_path, capsys, monkeypatch):
    # negative control: a solver returning biased victim values must trip
    # the grid cross-check and exit nonzero; every belief's layers, the
    # decoy's singleton included, go through the one stage entry point
    real = solver.belief_stage_solves

    def biased(cols, b):
        br = real(cols, b)
        return dataclasses.replace(br, z_star=br.z_star - 0.05, v2_star=br.v2_star - 0.05)

    monkeypatch.setattr(solver, "belief_stage_solves", biased)
    assert cli.main(["verify", str(decoy_path), "--mode", "grid"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_requires_source(capsys):
    assert cli.main(["verify", "--mode", "grid"]) == 2


@pytest.mark.parametrize("mode, trials", [("enum", "0"), ("grid", "-3")])
def test_verify_rejects_trial_counts_below_one(mode, trials, capsys):
    # zero games would print an empty table and "result: PASS"
    assert cli.main(["verify", "--mode", mode, "--random", "2,2,2,2",
                     "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert f"error: --trials must be at least 1, got {trials}" in captured.err
    assert "result:" not in captured.out


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "grid", "--random", "2,2,2,2"],
    ["simulate", "{game}", "--p1", "missing_p1.json", "--p2", "missing_p2.json",
     "--episodes", "10"],
], ids=["verify", "simulate"])
def test_negative_seed_is_refused_up_front(argv, decoy_path, capsys):
    # numpy would refuse it with a bare "expected non-negative integer" and
    # exit 1; it is a parse failure, exit 2, before any file is read
    argv = [a.format(game=decoy_path) for a in argv] + ["--seed", "-1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "error: --seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, error", [
    (["verify", "--mode", "enum", "--random", "2,2,2,-1"],
     "--random expects positive n,m,S,H, got 2,2,2,-1"),
    (["verify", "--mode", "grid", "--random", "2,2,2,0"],
     "--random expects positive n,m,S,H, got 2,2,2,0"),
    (["simulate", "{game}", "--p1", "missing_p1.json", "--p2", "missing_p2.json",
      "--episodes", "0", "--seed", "0"], "--episodes must be at least 1, got 0"),
], ids=["verify-negative", "verify-zero", "simulate"])
def test_flag_values_below_one_are_refused_up_front(argv, error, decoy_path, capsys):
    # numpy or the library would refuse them with exit 1, after reading
    # files; they are parse failures, exit 2, before any file is read
    assert cli.main([a.format(game=decoy_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["grid", "enum"])
def test_verify_rejects_a_bad_step_before_any_work(mode, capsys, monkeypatch):
    # the grid step is checked once, up front, in every mode: no header,
    # no solve
    def unreachable(*args):
        raise AssertionError("solved before the step was checked")

    monkeypatch.setattr(cli, "markov_attacker_best_response", unreachable)
    monkeypatch.setattr(cli, "policy_inception", unreachable)
    assert cli.main(["verify", "--mode", mode, "--random", "2,2,2,1", "--step", "0"]) == 2
    captured = capsys.readouterr()
    assert "error: --step: grid step must be in (0, 0.5], got 0.0" in captured.err
    assert captured.out == ""


def test_verify_refuses_an_oversized_grid_before_any_work(capsys, monkeypatch):
    # random 2,4,3,2 games at the default step: the attacker's grid over 4
    # actions would hold C(1003, 3) points, 5.4 GB; the step is refused up
    # front, with no header, no solve and no grid built
    def unreachable(*args):
        raise AssertionError("worked before the grid size was checked")

    monkeypatch.setattr(cli, "markov_attacker_best_response", unreachable)
    monkeypatch.setattr(mg.oracle, "_compositions", unreachable)
    assert cli.main(["verify", "--mode", "grid", "--random", "2,4,3,2", "--seed", "4",
                     "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --step: a grid over 4 actions at step 0.001 has 167668501 "
                            "points, above the limit of 1000000; use a step of 0.0056 or "
                            "coarser\n")


def _count_validations(monkeypatch):
    """Record every game the underlying validity check runs on."""
    calls = []
    real = mg.model._check_game

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(mg.model, "_check_game", counted)
    return calls


@pytest.mark.parametrize("command", [
    ["solve-br", "{game}", "--secure"],
    ["incept", "{game}", "--iota", "1"],
    ["simulate", "{game}", "--p1", "{p1}", "--p2", "{p2}", "--episodes", "10", "--seed", "0"],
    ["verify", "{game}", "--mode", "all", "--step", "0.05"],
], ids=["solve-br", "incept", "simulate", "verify-all"])
def test_each_command_validates_its_game_once(command, decoy_path, decoy_game, tmp_path,
                                              capsys, monkeypatch):
    paths = {"game": decoy_path, "p1": tmp_path / "p1.json", "p2": tmp_path / "p2.json"}
    gamefile.save_policy(paths["p1"], pure_stage_policy(1, 1, 2))
    gamefile.save_policy(paths["p2"], pure_stage_policy(2, 0, 2))
    argv = [arg.format(**paths) for arg in command]
    calls = _count_validations(monkeypatch)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    # an invalid game still fails validation, with exit code 1
    bad = tmp_path / "bad.json"
    doc = list_form_doc(decoy_game)
    doc["transitions"][0][0][1][0] = [0.9]
    bad.write_text(json.dumps(doc))
    paths["game"] = bad
    capsys.readouterr()
    assert cli.main([arg.format(**paths) for arg in command]) == 1
    assert capsys.readouterr().err.startswith("error: game failed validation")


def test_zero_reward_game_prints_zeros(tmp_path, capsys):
    g = mg.MarkovGame(1, 1, 2, 2, [1.0], np.zeros((2, 1, 1, 2, 2)),
                      np.ones((1, 1, 2, 2, 1)))
    path = tmp_path / "zero.json"
    gamefile.save_game(path, g)
    assert cli.main(["solve-br", str(path), "--secure"]) == 0
    out = capsys.readouterr().out
    assert value_of("victim worst-case value", out) == 0.0
    assert value_of("attacker worst-case value", out) == 0.0
    assert cli.main(["incept", str(path), "--iota", "0.5"]) == 0
    out = capsys.readouterr().out
    assert value_of("attacker inception value", out) == 0.0


def test_verify_all_checks_each_random_game_once(capsys, monkeypatch):
    # the solvers it runs all validate their game; the check itself runs
    # once per game
    calls = _count_validations(monkeypatch)
    assert cli.main(["verify", "--mode", "all", "--random", "2,2,2,1", "--trials", "3",
                     "--step", "0.05"]) == 0
    assert len(calls) == len({id(g) for g in calls}) == 3


def test_verify_random_draws_each_game_when_it_checks_it(capsys, monkeypatch):
    # one game is held at a time: draw, check, draw, check
    calls = []
    real_draw, real_check = cli.random_game, cli.brute_force_inception

    def draw(*args):
        calls.append("draw")
        return real_draw(*args)

    def check(g):
        calls.append("check")
        return real_check(g)

    monkeypatch.setattr(cli, "random_game", draw)
    monkeypatch.setattr(cli, "brute_force_inception", check)
    assert cli.main(["verify", "--mode", "enum", "--random", "2,2,2,1", "--trials", "2"]) == 0
    assert calls == ["draw", "check", "draw", "check"]
    assert "games = 2," in capsys.readouterr().out


@pytest.mark.parametrize("command", [["validate"], ["solve-br"], ["verify", "--mode", "grid"]],
                         ids=["validate", "solve-br", "verify-grid"])
def test_a_misshaped_inline_belief_is_a_format_error(command, capsys):
    # the game loader refuses the belief before any output, naming it and
    # the shape the game asks for, so every command exits 2
    assert cli.main([command[0], str(MISSHAPED_BELIEF_GAME), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: beliefs[0]: field 'entries' has shape (1, 1, 2), expected "
                            '(2, 2, 2) from "horizon", "states" and "actions"\n')


@pytest.mark.parametrize("entries", [[[[1.0, 0.0, 0.0]]], [[[0.7, 0.7, 0.7]]]],
                         ids=["valid", "bad-rows"])
def test_a_misshaped_beliefs_file_is_a_format_error(entries, decoy_path, tmp_path, capsys):
    # the decoy game is one step, one state, 2x2; the loader checks a
    # --beliefs file against that shape, as it does an inline belief, and
    # before the rows, so a belief that is wrong in both is a format error
    beliefs = tmp_path / "beliefs.json"
    beliefs.write_text(json.dumps([{"entries": entries}]))
    assert cli.main(["solve-br", str(decoy_path), "--beliefs", str(beliefs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: beliefs[0]: field 'entries' has shape (1, 1, 3), expected "
                            '(1, 1, 2) from "horizon", "states" and "actions"\n')


def test_incept_refuses_an_lp_stack_too_large_to_hold(tmp_path, capsys):
    # 20000 tied victim rows: each fake action's maximin LP over them would
    # be a 3.2 GB tableau; the LP engine refuses it, and incept exits 1
    path = tmp_path / "tied.json"
    gamefile.save_game(path, single_step_game(np.zeros((20000, 2)), np.ones((20000, 2))))
    assert cli.main(["incept", str(path), "--iota", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: step 0, LP stack (2, 20001, 20003) needs 6401280048 bytes, "
                            f"above the limit of {lp.MAX_STACK_BYTES}\n")


@pytest.mark.parametrize("spec, reason", [
    ("2,2,x,1", "invalid literal for int() with base 10: 'x'"),
    ("2,2,2", "not enough values to unpack (expected 4, got 3)")], ids=["not-an-integer", "three"])
def test_verify_refuses_a_random_spec_of_other_than_four_integers(spec, reason, capsys):
    assert cli.main(["verify", "--mode", "enum", "--random", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --random expects n,m,S,H: {reason}\n"


def test_verify_enum_mode_builds_no_secure_belief(tmp_path, capsys, monkeypatch):
    # only the grid checks read a belief, so enum mode builds none, on
    # random games and on a game file without inline beliefs, and prints
    # the lines it printed when it built the secure belief of every game
    def refuse(g):
        raise AssertionError("enum mode built a secure belief")

    monkeypatch.setattr(cli, "secure_belief", refuse)
    assert cli.main(["verify", "--mode", "enum", "--random", "2,2,2,2", "--seed", "2",
                     "--trials", "10"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed = 2, games = 10, source = random 2,2,2,2, mode = enum",
        "check                         cases      max-dev   status",
        "inception-vs-enumeration         10    1.438e-01     FAIL",
        "result: FAIL"]
    doc = json.loads((MISSHAPED_BELIEF_GAME.parent / "list_form_game.json").read_text())
    del doc["beliefs"]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--mode", "enum", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"seed = 0, games = 1, source = {path}, mode = enum",
        "check                         cases      max-dev   status",
        "inception-vs-enumeration          1    0.000e+00     PASS",
        "result: PASS"]


def test_verify_enum_mode_on_random_two_step_games(capsys):
    # seed pinned to games where the backward pass is exhaustively optimal
    assert cli.main(["verify", "--mode", "enum", "--random", "2,2,2,2",
                     "--seed", "0", "--trials", "3"]) == 0
    assert "inception-vs-enumeration" in capsys.readouterr().out


def test_verify_sweep_of_single_step_games(capsys):
    # at horizon 1 the stagewise pass is exhaustively optimal everywhere,
    # so a broad random sweep must come back clean
    assert cli.main(["verify", "--mode", "all", "--random", "2,2,2,1",
                     "--seed", "5", "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert re.search(r"inception-vs-enumeration\s+200\s+0\.0", out)


def test_simulate_command(decoy_path, tmp_path, capsys):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    gamefile.save_policy(p1, pure_stage_policy(1, 1, 2))
    gamefile.save_policy(p2, pure_stage_policy(2, 0, 2))
    assert cli.main(["simulate", str(decoy_path), "--p1", str(p1), "--p2", str(p2),
                     "--episodes", "100", "--seed", "17"]) == 0
    out = capsys.readouterr().out
    assert "seed = 17" in out
    assert value_of("player 1: mean", out) == 1.0
    assert value_of("player 2: mean", out) == 0.0


def test_nine_significant_digit_output(tmp_path, capsys):
    g = chain_game(seed=90, horizon=2, states=2)
    rng = np.random.default_rng(91)
    path = tmp_path / "g.json"
    gamefile.save_game(path, g, beliefs=[random_policy(rng, 2, 2, 2, 2)])
    assert cli.main(["solve-br", str(path)]) == 0
    out = capsys.readouterr().out
    printed = value_of("attacker worst-case value", out)
    doc = gamefile.load_game(path)
    exact = mg.markov_attacker_best_response(doc.game, mg.BeliefSet(doc.beliefs)).v2_root
    assert printed == pytest.approx(exact, rel=1e-8)
    assert re.search(r"attacker worst-case value = -?\d\.\d{8}", out)
