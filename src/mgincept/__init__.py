"""Solvers for two-player finite-horizon Markov games with misinformation.

Computes worst-case optimal attacker best responses against finitely
generated victim beliefs, dominant-policy inception (fake-reward) attacks,
and brute-force oracle verification at small scale.
"""

from .model import (
    BeliefSet,
    InvalidGameError,
    MarkovGame,
    MarkovPolicy,
    ValidationReport,
    ValueTables,
    evaluate_policy,
    q_from_v,
    validate_game,
)
from .lp import LpBatch, LpStatus
from .stage import StageBR, StageSolveError
from .solver import (
    BRSolveReport,
    QMatrices,
    markov_attacker_best_response,
    secure_belief,
)
from .inception import (
    InceptionConfig,
    InceptionResult,
    check_iota_dominance,
    design_dominant_rewards,
    exploit_fixed_fake,
    policy_inception,
    recover_dominant_policy,
)
from .oracle import (
    GridSpec,
    brute_force_inception,
    grid_victim_value,
    victim_br_vertices,
)
from .rollout import RolloutStats, simulate

__all__ = [
    "BeliefSet", "InvalidGameError", "MarkovGame", "MarkovPolicy",
    "ValidationReport", "ValueTables", "evaluate_policy", "validate_game",
    "LpBatch", "LpStatus",
    "StageBR", "StageSolveError", "victim_br_vertices",
    "BRSolveReport", "QMatrices", "markov_attacker_best_response", "q_from_v",
    "secure_belief",
    "InceptionConfig", "InceptionResult", "check_iota_dominance",
    "design_dominant_rewards", "exploit_fixed_fake", "policy_inception",
    "recover_dominant_policy",
    "GridSpec", "brute_force_inception", "grid_victim_value",
    "RolloutStats", "simulate",
]

__version__ = "0.1.0"
