"""Command-line entry point for the named scenarios.

Usage:
    qworlds <scenario> [options]

Scenarios: the entries of `SCENARIOS`, which `qworlds --help` lists.
Every run emits one self-describing JSON document (keys: scenario, params,
seed, results, flags, version) to stdout or to --out. Identical requests,
including the seed, produce byte-identical documents; no timestamps are
recorded.

Exit status: 0 when every pass/fail flag passes, 1 when a flag fails,
2 for usage errors (unknown scenario or malformed flags), 3 for invalid
parameter values, 4 for an unwritable output path, 5 when an internal check
breaks down numerically at the requested tolerance.

The numeric tolerance defaults to the QWORLDS_TOL environment variable when
set, and --tol overrides both. `run_scenario` scopes it to its own run, so the
process default τ (`qmat.set_tolerance`) and other threads' runs never see it.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import operator
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, qmat
from .algebra import CloneRefusal, _broadcast_deviations, _broadcaster_kraus, clone_orthogonal_pair
from .channels import GeneralizedMeasurement
from .entangle import (
    Ensemble,
    SteeringExampleConfig,
    _corrected,
    canonical_chsh_settings,
    chsh_score,
    epr_singlet,
    four_state_ensemble,
    hjw_steering_measurement,
    singlet_vector,
    steer,
    teleport,  # noqa: F401  re-exported: the library's one-trial entry point, which bench/test_bench.py reads here
    teleport_branches,
)
from .protocols import REPORT_EDGE, commitment_round, concealment_check
from .worlds import _WORLD_KINDS, World, _ginibre, evaluate_constraints

TOL_ENV_VAR = "QWORLDS_TOL"

EXIT_FLAGS_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_PARAMS = 3
EXIT_UNWRITABLE = 4
EXIT_NUMERICAL = 5

_MAX_SCORE = float(2.0 * np.sqrt(2.0))


class InvalidParameterError(ValueError):
    """A parameter value is outside its documented range."""


class NumericalBreakdownError(ValueError):
    """A valid request failed an internal check at its tolerance (roundoff, not input)."""


@dataclass
class ScenarioRequest:
    scenario: str
    world_kind: str = "quantum"
    strength: float = 1.0
    alpha: float = 0.6
    beta: float = 0.8
    trials: int = 100
    seed: int = 0
    tol: float = qmat.DEFAULT_TOL


@dataclass
class ScenarioReport:
    scenario: str
    params: dict
    seed: int
    results: dict
    flags: dict
    version: str = __version__

    def render(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    def all_flags_pass(self) -> bool:
        return all(bool(v) for v in self.flags.values())


def _integer(name: str, value) -> int:
    """`value` as a Python int, if `operator.index` takes it and it is not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def _validate(req: ScenarioRequest) -> tuple[ScenarioRequest, World]:
    """Scope τ to `req.tol` in the current context, reject every out-of-range request parameter, and return (req, world).

    The returned request holds its seed and trials as Python ints. τ is scoped
    before the scenario's check, so tolerance-dependent checks (the steering
    amplitudes) judge the input at the requested tolerance.
    """
    if req.scenario not in _SCENARIOS:
        raise InvalidParameterError(f"unknown scenario {req.scenario!r}")
    req = replace(req, seed=_integer("seed", req.seed), trials=_integer("trials", req.trials))
    if req.seed < 0:
        raise InvalidParameterError(f"seed must be nonnegative, got {req.seed}")
    try:
        qmat._scoped.set(qmat._checked_tolerance(req.tol))
        _SCENARIOS[req.scenario].check(req)
        world = World(req.world_kind, req.strength if req.world_kind == "dephased" else 0.0)
    except ValueError as exc:
        raise InvalidParameterError(str(exc)) from exc
    return req, world


def _attack_expected(world: World) -> bool:
    """Whether the EPR attack should succeed: its acceptance is 1 - lambda/2 at the world's lambda."""
    return 1.0 - world._lambda / 2.0 >= 1.0 - REPORT_EDGE


def _steering_setup(config: SteeringExampleConfig) -> tuple[Ensemble, GeneralizedMeasurement]:
    """The steer target and its HJW measurement on the singlet at the current τ, kept for the latest (config, τ).

    Neither depends on the world, which acts later on the separated pair, and both are immutable.
    """

    def build():
        target = four_state_ensemble(config)
        return target, hjw_steering_measurement(singlet_vector(), (2, 2), target)

    return qmat._kept(qmat, "steering setup", build, config)


def _run_steer(req: ScenarioRequest, world: World) -> tuple[dict, dict]:
    target, measurement = _steering_setup(SteeringExampleConfig(req.alpha, req.beta))
    state = world.separate(epr_singlet())
    ensemble = steer(state, measurement)
    probs = [float(p) for p in ensemble.probabilities]
    fidelities = [
        float(np.real(np.trace(t @ c)))
        for t, c in zip(target.members, ensemble.members)
    ]
    marginal_gap = qmat.frobenius_distance(ensemble.average(), state.marginal_b())
    results = {
        "outcome_probabilities": probs,
        "conditional_fidelities": fidelities,
        "ensemble_average_marginal_gap": marginal_gap,
    }
    # built-in expectation is the quantum steering outcome; running in a
    # decohering world fails these flags, which is the point of the comparison
    flags = {
        "ensemble_average_matches_marginal": marginal_gap <= REPORT_EDGE,
        "probabilities_uniform": all(abs(p - 0.25) <= REPORT_EDGE for p in probs),
        "conditionals_match_targets": all(abs(f - 1.0) <= REPORT_EDGE for f in fidelities),
    }
    return results, flags


def _run_teleport(req: ScenarioRequest, world: World) -> tuple[dict, dict]:
    """Every trial through one `teleport_branches` call, with inputs and outcomes from the run's one generator.

    One bulk draw gives every input, the real parts before the imaginary
    ones; one stacked `qmat.sample_index` call then draws every outcome, as
    one `random()` per trial in trial order would.
    """
    rng = np.random.default_rng(req.seed)
    shared = world.separate(epr_singlet())
    z = _ginibre(rng, req.trials, 2)
    inputs = z / np.linalg.norm(z, axis=1, keepdims=True)
    p, branches = teleport_branches(inputs, shared)
    outcomes = qmat.sample_index(p, rng)
    _, fidelities = _corrected(inputs, p, branches, outcomes)
    counts = np.bincount(outcomes, minlength=4).tolist()
    mean_fid = float(np.mean(fidelities))
    min_fid = float(np.min(fidelities))
    results = {
        "trials": req.trials,
        "mean_fidelity": mean_fid,
        "min_fidelity": min_fid,
        "outcome_counts": counts,
    }
    flags = {
        "mean_fidelity_unity": abs(mean_fid - 1.0) <= REPORT_EDGE,
        "all_outcomes_observed": all(c > 0 for c in counts) if req.trials >= 50 else True,
    }
    return results, flags


def _run_bitcommit(req: ScenarioRequest, world: World) -> tuple[dict, dict]:
    commit = commitment_round(world, np.random.default_rng(req.seed))
    concealed, distance = concealment_check(commit.attack_scheme, world)
    results = {
        "honest_scheme": commit.honest_scheme_name,
        "attack_scheme": commit.attack_scheme_name,
        "honest_acceptance": commit.honest_acceptance,
        "attack_acceptance": commit.attack_acceptance,
        "min_attack_acceptance": min(commit.attack_acceptance),
        "concealment_distance": distance,
        "attack_succeeds": commit.attack_succeeds,
        "attack_transcripts": [t.to_dict() for t in commit.attack_transcripts],
    }
    flags = {
        "honest_acceptance_unity": all(abs(a - 1.0) <= REPORT_EDGE for a in commit.honest_acceptance),
        "concealing": bool(concealed),
        "attack_matches_world_expectation": commit.attack_succeeds == _attack_expected(world),
    }
    return results, flags


def _run_constraints(req: ScenarioRequest, world: World) -> tuple[dict, dict]:
    report = evaluate_constraints(world, rng_seed=req.seed)
    expected = (False, world.kind == "classical", _attack_expected(world))
    flags = {
        "signaling_matches_expectation": report.signaling_possible == expected[0],
        "broadcasting_matches_expectation": report.broadcasting_possible == expected[1],
        "steering_attack_matches_expectation": report.steering_attack_succeeds == expected[2],
    }
    return report.to_dict(), flags


def _run_chsh(req: ScenarioRequest, world: World) -> tuple[dict, dict]:
    state = world.separate(epr_singlet())
    settings = canonical_chsh_settings()
    score = chsh_score(state, settings)
    results = {
        "settings": [[float(a), float(b)] for a, b in settings],
        "score": score,
        "abs_score": abs(score),
        "tsirelson_bound": _MAX_SCORE,
    }
    # the singlet's |CHSH| at the canonical settings is 2*sqrt(2)*(1 - lambda/2): sqrt(2) if classical
    expectation_met = abs(abs(score) - _MAX_SCORE * (1.0 - world._lambda / 2.0)) <= REPORT_EDGE
    flags = {
        "bound_respected": bool(abs(score) <= _MAX_SCORE + REPORT_EDGE),
        "score_matches_world_expectation": bool(expectation_met),
    }
    return results, flags


def _run_broadcast(req: ScenarioRequest, world: World) -> tuple[dict, dict]:
    t = qmat.tolerance()
    rng = np.random.default_rng(req.seed)
    p = float(rng.uniform(0.05, 0.95))
    # a diagonal pair, then |+><+|
    states = np.array([np.diag([p, 1 - p]), np.diag([0.5, 0.5]), [[0.5, 0.5], [0.5, 0.5]]], dtype=complex)
    kraus = _broadcaster_kraus(np.eye(2, dtype=complex))  # the computational basis, orthonormal as written
    *commuting, off_diag = _broadcast_deviations(kraus, states).tolist()
    refusal = clone_orthogonal_pair(
        np.array([1, 0], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
    )
    refused = isinstance(refusal, CloneRefusal)
    results = {
        "commuting_deviations": commuting,
        "noncommuting_deviation": off_diag,
        "clone_refusal": (
            {"overlap": refusal.overlap, "overlap_squared": refusal.overlap_squared}
            if refused
            else None
        ),
    }
    flags = {
        "commuting_pair_broadcasts": all(dev <= t for dev in commuting),
        "noncommuting_state_fails": off_diag > t,
        "nonorthogonal_clone_refused": refused,
    }
    return results, flags


def _check_trials(req: ScenarioRequest) -> None:
    if req.trials < 1:
        raise ValueError(f"trials must be positive, got {req.trials}")


@dataclass(frozen=True)
class _Scenario:
    """A scenario's runner, the request fields it reads beyond the shared ones, and their check."""

    run: Callable[[ScenarioRequest, World], tuple[dict, dict]]
    fields: tuple[str, ...] = ()
    check: Callable[[ScenarioRequest], object] = lambda req: None


_SCENARIOS = {
    "steer": _Scenario(_run_steer, ("alpha", "beta"), lambda req: SteeringExampleConfig(req.alpha, req.beta)),
    "teleport": _Scenario(_run_teleport, ("trials",), _check_trials),
    "bitcommit": _Scenario(_run_bitcommit),
    "constraints": _Scenario(_run_constraints),
    "chsh": _Scenario(_run_chsh),
    "broadcast": _Scenario(_run_broadcast),
}
SCENARIOS = tuple(_SCENARIOS)


def run_scenario(req: ScenarioRequest) -> ScenarioReport:
    """Dispatch a request to its scenario and assemble the structured report.

    The request is validated first (InvalidParameterError). Any ValueError
    the run raises after that is a numerical breakdown at the request's
    tolerance and is re-raised as NumericalBreakdownError. Both steps run in
    one copy of the caller's context, where τ is `req.tol`: neither the
    caller nor another thread sees that τ.
    """
    in_scope = contextvars.copy_context().run
    req, world = in_scope(_validate, req)
    try:
        results, flags = in_scope(_SCENARIOS[req.scenario].run, req, world)
    except ValueError as exc:
        raise NumericalBreakdownError(f"at tolerance {req.tol}: {exc}") from exc
    params = {"world": req.world_kind, "tol": req.tol}
    params.update((field, getattr(req, field)) for field in _SCENARIOS[req.scenario].fields)
    if req.world_kind == "dephased":
        params["lambda"] = req.strength
    return ScenarioReport(
        scenario=req.scenario,
        params=params,
        seed=req.seed,
        results=results,
        flags=flags,
    )


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return qmat.DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise InvalidParameterError(f"{TOL_ENV_VAR} is not a number: {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qworlds",
        description="Run steering/teleportation/bit-commitment scenarios and constraint batteries.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="|".join(SCENARIOS))
    for name, scenario in _SCENARIOS.items():
        p = sub.add_parser(name)
        p.add_argument("--world", default="quantum", choices=_WORLD_KINDS)
        p.add_argument("--lambda", dest="strength", type=float, default=1.0,
                       help="dephasing strength in [0,1]; used when --world dephased")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None,
                       help=f"numeric tolerance (default {TOL_ENV_VAR} or {qmat.DEFAULT_TOL})")
        p.add_argument("--out", default=None, help="write the JSON report to this path")
        # absent flags keep the ScenarioRequest defaults
        for field in scenario.fields:
            p.add_argument(f"--{field}", type=type(getattr(ScenarioRequest, field)), default=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        req = ScenarioRequest(
            scenario=args.scenario,
            world_kind=args.world,
            strength=args.strength,
            seed=args.seed,
            tol=args.tol if args.tol is not None else _default_tol(),
            **{k: v for k, v in vars(args).items() if k in _SCENARIOS[args.scenario].fields},
        )
        report = run_scenario(req)
    except NumericalBreakdownError as exc:
        print(f"qworlds: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"qworlds: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    text = report.render()
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qworlds: cannot write report: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
    return 0 if report.all_flags_pass() else EXIT_FLAGS_FAILED

