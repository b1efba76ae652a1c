"""Per-layer tracing from outside the package.

The tracer replaces mgincept's functions at every module attribute that is
bound to them (for example `mgincept.stage.solve_lp` and
`mgincept.lp.solve_lp`), and wraps `__init__` of `LinearProgram` and
`MarkovPolicy`, whose validation is paid on every construction.  Each
wrapper counts calls and adds busy time (wall time inside the call) and self
time (busy time minus the busy time of wrapped callees).  Nothing under `src/` changes, and `uninstall()`
puts every original back.

Times are buffered per op and committed with that op's machine-speed scale
(see `harness.reference_scale`), so per-layer seconds are in the same
reference-machine seconds as the end-to-end metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) pairs; a class means its constructor.
WRAPPED = (
    ("lp", "LinearProgram"),
    ("lp", "solve_lp"),
    ("lp", "_standardize"),
    ("lp", "_phase1"),
    ("lp", "_run"),
    ("lp", "_pivot"),
    ("stage", "nf_attacker_best_response"),
    ("stage", "victim_br_lp"),
    ("stage", "attacker_br_lp"),
    ("solver", "markov_attacker_best_response"),
    ("solver", "q_from_v"),
    ("solver", "clean_mix"),
    ("model", "validate_game"),
    ("model", "MarkovPolicy"),
    ("model", "stage_mix_matrix"),
    ("inception", "policy_inception"),
    ("inception", "design_dominant_rewards"),
    ("inception", "check_iota_dominance"),
    ("inception", "recover_dominant_policy"),
    ("inception", "exploit_fixed_fake"),
    ("oracle", "brute_force_inception"),
    ("gamefile", "load_game"),
    ("gamefile", "load_policy"),
    ("gamefile", "_read_json"),
    ("rollout", "simulate"),
    ("rollout", "_sample"),
)

SEARCH = "inception.policy_inception"
TIE_TOL = 1e-9


def _tied_stages(result) -> int:
    top2 = np.sort(result.candidate_values, axis=2)[:, :, -2:]
    if top2.shape[2] < 2:
        return 0
    return int(np.sum(top2[:, :, 1] - top2[:, :, 0] <= TIE_TOL))


def _arg_counter(key, fn):
    """For the calls whose size is read off their arguments, a function that
    adds that size to the tracer's counts; None for every other call."""
    if key not in (SEARCH, "gamefile._read_json", "rollout.simulate"):
        return None
    signature = inspect.signature(fn)

    def count(args, kwargs, counts):
        bound = signature.bind(*args, **kwargs).arguments
        if key == SEARCH:
            counts["inception.stages"] += bound["g"].horizon * bound["g"].num_states
        elif key == "gamefile._read_json":
            counts["gamefile.bytes_read"] += os.path.getsize(bound["path"])
        else:
            counts["rollout.episode_steps"] += bound["episodes"] * bound["g"].horizon

    return count


PER_LAYER_EXTRA = (
    # name, unit, better
    ("lp.solve_lp.us_per_call", "us", "lower"),
    ("inception.lp_per_stage", "LP/stage", "lower"),
    ("inception.tied_stages", "count", "lower"),
    ("oracle.policies_enumerated", "count", "lower"),
    ("oracle.gap_games", "count", "lower"),
    ("gamefile.bytes_read", "B", "lower"),
    ("rollout.simulate.ns_per_episode_step", "ns", "lower"),
    ("bench.op_p50_ms", "ms", "lower"),
    ("machine.ref_kernel_ms", "ms", "lower"),
)


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for mod, attr in WRAPPED:
        out += [(f"{mod}.{attr}.calls", "count", "lower"),
                (f"{mod}.{attr}.busy_s", "s", "lower"),
                (f"{mod}.{attr}.self_s", "s", "lower")]
    return out + list(PER_LAYER_EXTRA)


class Tracer:
    """Counts calls and busy/self time of the wrapped mgincept functions."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self._pending_busy = defaultdict(float)
        self._pending_self = defaultdict(float)
        self._children = []          # busy time of wrapped callees, per open call
        self._active = Counter()
        self._restore = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        import mgincept

        modules = [m for name, m in sys.modules.items()
                   if name == "mgincept" or name.startswith("mgincept.")]
        for mod, attr in WRAPPED:
            key = f"{mod}.{attr}"
            original = getattr(getattr(mgincept, mod), attr, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            if inspect.isclass(original):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap(key, init)
                continue
            wrapper = self._wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapper)
        enum = getattr(mgincept.oracle, "enumerate_deterministic_policies", None)
        if enum is not None:
            self._restore.append((mgincept.oracle, "enumerate_deterministic_policies", enum))
            mgincept.oracle.enumerate_deterministic_policies = self._count_yields(enum)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- wrappers --------------------------------------------------------
    def _wrap(self, key, fn):
        count_args = _arg_counter(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_args is not None:
                count_args(args, kwargs, self.counts)
            if key == "lp.solve_lp" and self._active[SEARCH]:
                self.counts["inception.search_lps"] += 1
            self._active[key] += 1
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._children.pop()
                self._active[key] -= 1
                self.calls[key] += 1
                self._pending_busy[key] += dur
                self._pending_self[key] += dur - child
                if self._children:
                    self._children[-1] += dur
            if key == SEARCH:
                self.counts["inception.tied_stages"] += _tied_stages(result)
            return result

        return wrapper

    def _count_yields(self, gen_fn):
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.counts["oracle.policies_enumerated"] += 1
                yield item

        return wrapper

    def commit(self, scale: float) -> None:
        """Add the buffered times of one op, scaled to reference-machine seconds."""
        for key, value in self._pending_busy.items():
            self.busy[key] += value * scale
        for key, value in self._pending_self.items():
            self.self_time[key] += value * scale
        self._pending_busy.clear()
        self._pending_self.clear()

    # -- results ---------------------------------------------------------
    def metrics(self, rounds: int, extra_counts: dict, op_p50_ms: float,
                ref_kernel_ms: float) -> dict:
        """Every per-layer metric, per round of ops (rounds are identical)."""
        values = {}
        for mod, attr in WRAPPED:
            key = f"{mod}.{attr}"
            values[f"{key}.calls"] = self.calls[key] / rounds
            values[f"{key}.busy_s"] = self.busy[key] / rounds
            values[f"{key}.self_s"] = self.self_time[key] / rounds
        counts = Counter(self.counts)
        counts.update(extra_counts)

        def ratio(num, den):
            return num / den if den else 0.0

        values["lp.solve_lp.us_per_call"] = 1e6 * ratio(
            self.busy["lp.solve_lp"], self.calls["lp.solve_lp"])
        values["inception.lp_per_stage"] = ratio(
            counts["inception.search_lps"], counts["inception.stages"])
        values["inception.tied_stages"] = counts["inception.tied_stages"] / rounds
        values["oracle.policies_enumerated"] = counts["oracle.policies_enumerated"] / rounds
        values["oracle.gap_games"] = counts["oracle.gap_games"]
        values["gamefile.bytes_read"] = counts["gamefile.bytes_read"] / rounds
        values["rollout.simulate.ns_per_episode_step"] = 1e9 * ratio(
            self.busy["rollout.simulate"], counts["rollout.episode_steps"])
        values["bench.op_p50_ms"] = op_p50_ms
        values["machine.ref_kernel_ms"] = ref_kernel_ms
        units = {name: unit for name, unit, _ in per_layer_names()}
        return {name: {"value": values[name], "unit": units[name]} for name in units}
