"""Seeded workloads for the qworlds benchmark and the verdict table that checks them.

Each workload is a schedule of operations. An operation is one closed-loop
call into the public qworlds API (`call`) plus the benchmark's own check of
its output (`verdict`), which returns the problems it found and the bytes that
go into the report digest. The schedule cycles through its cells (one
`scenario/world` or `call/d/world` combination each) round-robin, so any
prefix of one full cycle or more exercises every cell.

The verdicts are physics, not stored bytes: a later correctness fix that
changes a witness value does not count as a failure, a wrong verdict does.

Library entry points are looked up on their modules at call time
(`qcli.run_scenario`, not a name bound here), so a tracer that patches the
module namespaces sees every call the benchmark makes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

import numpy as np

import qworlds
from qworlds import cli as qcli
from qworlds import protocols as qprotocols

WORLD_KINDS = ("quantum", "dephased", "classical")
GRID_SCENARIOS = ("steer", "bitcommit", "constraints", "chsh", "broadcast")
QUDIT_DIMS = (2, 3, 4, 8)
# the CLI default; at 1000 trials an operation takes ~0.25 s, too few per
# timed round for a p90 with ten samples beyond it
TELEPORT_TRIALS = 100

# verdict thresholds: the CLI's default tolerance and its flag edges
TOL = 1e-9
SIGNALING_EDGE = 1e-10
TSIRELSON = 2.0 * math.sqrt(2.0)

WORKLOADS = {
    "scenario-grid": (
        "What a CLI user runs: small (<=6-dim) matrices where Python overhead, the "
        "validators and worlds.separate dominate; p50 lands on light scenarios, p90 on constraints."
    ),
    "teleport-trials": (
        "The per-trial loop of entangle.teleport (5 np.kron calls per trial, 100 trials per "
        "call) on one reused separated pair, with validators a small share of the time."
    ),
    "qudit-sweep": (
        "Library calls at d in {2,3,4,8}: up to 64x64 matrices where eigh, eigvalsh and kron "
        "outweigh interpreter overhead, with one commitment scheme reused across calls."
    ),
}


class Op(NamedTuple):
    cell: str
    call: Callable[[], Any]
    verdict: Callable[[Any], tuple[list[str], bytes]]


def quantum_like(world: str, strength: float | None) -> bool:
    """Worlds in which steering survives separation: quantum, or dephased at lambda 0."""
    return world == "quantum" or (world == "dephased" and strength == 0.0)


def _lambda_stream(rng: np.random.Generator):
    """Dephasing strengths over the whole documented range [0, 1].

    Every fourth draw is 0, every fourth 1, and the rest are uniform interior
    values, so both endpoints appear in every run whatever the seed.
    """
    k = 0
    while True:
        yield (0.0, 1.0)[k % 4] if k % 4 < 2 else float(rng.uniform(0.0, 1.0))
        k += 1


# -- verdict table ---------------------------------------------------------------


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _steer_physics(res: dict, world: str, strength: float | None, qlike: bool) -> list[str]:
    out = []
    if not _close(sum(res["outcome_probabilities"]), 1.0):
        out.append("steering outcome probabilities do not sum to 1")
    if qlike != all(_close(f, 1.0, 1e-10) for f in res["conditional_fidelities"]):
        out.append("conditional fidelities disagree with the world's steering verdict")
    return out


def _teleport_physics(res: dict, world: str, strength: float | None, qlike: bool) -> list[str]:
    out = []
    if sum(res["outcome_counts"]) != res["trials"]:
        out.append("outcome counts do not add up to the trials")
    if qlike != _close(res["mean_fidelity"], 1.0, 1e-10):
        out.append(f"mean fidelity {res['mean_fidelity']!r} disagrees with the world")
    return out


def _bitcommit_physics(res: dict, world: str, strength: float | None, qlike: bool) -> list[str]:
    out = []
    if not all(_close(a, 1.0) for a in res["honest_acceptance"]):
        out.append("honest commitment rejected")
    if res["attack_succeeds"] != qlike:
        out.append(f"EPR attack success {res['attack_succeeds']} in a world where it should be {qlike}")
    if (res["min_attack_acceptance"] >= 1.0 - TOL) != qlike:
        out.append(f"EPR attack acceptance {res['min_attack_acceptance']!r} disagrees with the world")
    return out


def _constraints_physics(res: dict, world: str, strength: float | None, qlike: bool) -> list[str]:
    out = []
    if res["signaling"]["possible"]:
        out.append("signaling reported possible")
    if res["broadcasting"]["possible"] != (world == "classical"):
        out.append("broadcasting verdict disagrees with the world")
    if res["steering_attack"]["succeeds"] != qlike:
        out.append("steering-attack verdict disagrees with the world")
    return out


def _chsh_physics(res: dict, world: str, strength: float | None, qlike: bool) -> list[str]:
    score = res["abs_score"]
    if score > TSIRELSON + TOL:
        return [f"CHSH score {score!r} exceeds the Tsirelson bound"]
    if qlike and not _close(score, TSIRELSON):
        return [f"CHSH score {score!r} is not maximal in a quantum-like world"]
    if (world == "classical" or strength == 1.0) and score > 2.0 + TOL:
        return [f"CHSH score {score!r} violates the local bound after full decoherence"]
    return []


def _broadcast_physics(res: dict, world: str, strength: float | None, qlike: bool) -> list[str]:
    out = []
    if res["noncommuting_deviation"] <= 1e-3:
        out.append("a noncommuting state was broadcast")
    if res["clone_refusal"] is None:
        out.append("a nonorthogonal pair was cloned")
    return out


def check_report(doc: dict) -> list[str]:
    """Problems with one scenario report, given as the dict its JSON renders.

    `steer` and `teleport` must pass every flag exactly in quantum-like
    worlds; every other scenario must pass every flag in every world. The
    results are checked against the physics independently of the flags.
    """
    scenario, params = doc["scenario"], doc["params"]
    world, strength = params["world"], params.get("lambda")
    flags, res = doc["flags"], doc["results"]
    qlike = quantum_like(world, strength)
    problems = []
    failed = sorted(k for k, v in flags.items() if not v)
    if scenario in ("steer", "teleport"):
        if (not failed) != qlike:
            problems.append(f"flags {'all pass' if not failed else failed} in a "
                            f"{'quantum-like' if qlike else 'decohering'} world")
    elif failed:
        problems.append(f"failed flags {failed}")
    return problems + _PHYSICS[scenario](res, world, strength, qlike)


_PHYSICS = {
    "steer": _steer_physics,
    "teleport": _teleport_physics,
    "bitcommit": _bitcommit_physics,
    "constraints": _constraints_physics,
    "chsh": _chsh_physics,
    "broadcast": _broadcast_physics,
}


def check_commitment(world: str, strength: float | None, acceptance: float) -> list[str]:
    """EPR-attack acceptance is 1 within tolerance exactly in quantum-like worlds."""
    if quantum_like(world, strength):
        return [] if _close(acceptance, 1.0) else [f"EPR attack acceptance {acceptance!r} < 1 in a quantum-like world"]
    return [] if acceptance < 1.0 - TOL else [f"EPR attack acceptance {acceptance!r} is 1 in a decohering world"]


def check_signaling(distance: float) -> list[str]:
    return [] if distance <= SIGNALING_EDGE else [f"Bob's marginal moved by {distance!r}"]


# -- scenario workloads ----------------------------------------------------------


def _scenario_op(req) -> Op:
    cell = f"{req.scenario}/{req.world_kind}"

    def call():
        report = qcli.run_scenario(req)
        return report, report.render()

    def verdict(out):
        report, text = out
        doc = {"scenario": report.scenario, "params": report.params,
               "results": report.results, "flags": report.flags}
        return check_report(doc), text.encode()

    return Op(cell, call, verdict)


def _request(rng, lambdas, scenario: str, world: str, **extra):
    return qcli.ScenarioRequest(
        scenario=scenario,
        world_kind=world,
        strength=next(lambdas) if world == "dephased" else 1.0,
        seed=int(rng.integers(2**31)),
        **extra,
    )


def scenario_grid(seed: int, cycles: int = 100) -> list[Op]:
    """run_scenario + render over every non-teleport scenario in every world."""
    rng = np.random.default_rng(seed)
    lambdas = _lambda_stream(rng)
    return [
        _scenario_op(_request(rng, lambdas, s, w))
        for _ in range(cycles) for s in GRID_SCENARIOS for w in WORLD_KINDS
    ]


def teleport_trials(seed: int, cycles: int = 100) -> list[Op]:
    """`teleport --trials TELEPORT_TRIALS` cycling through the three worlds."""
    rng = np.random.default_rng(seed)
    lambdas = _lambda_stream(rng)
    return [
        _scenario_op(_request(rng, lambdas, "teleport", w, trials=TELEPORT_TRIALS))
        for _ in range(cycles) for w in WORLD_KINDS
    ]


# -- qudit workload --------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    """Rows of a Haar-random unitary (QR of a Ginibre matrix, phases fixed)."""
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    ph = np.diag(r) / np.abs(np.diag(r))
    return (q * ph).T


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    z = _ginibre(rng, d, d)
    m = z @ np.conj(z).T
    return m / float(np.trace(m).real)


def random_kraus(rng: np.random.Generator, d: int, n_kraus: int) -> tuple[np.ndarray, ...]:
    """Kraus operators of a trace-preserving channel: blocks of an isometry."""
    q, _ = np.linalg.qr(_ginibre(rng, d * n_kraus, d))
    return tuple(q[i * d:(i + 1) * d, :] for i in range(n_kraus))


def random_scheme(rng: np.random.Generator, d: int):
    """Two random orthonormal bases with uniform weights; both average to I/d."""
    w = [1.0 / d] * d
    return qworlds.CommitmentScheme(
        qworlds.Ensemble.from_pure_states(w, random_basis(rng, d)),
        qworlds.Ensemble.from_pure_states(w, random_basis(rng, d)),
    )


def _world(kind: str, strength: float | None):
    if kind == "dephased":
        return qworlds.World.dephased(strength)
    return qworlds.World(kind)


def _commit_op(cell, scheme, bit, world, strength, seed) -> Op:
    attack = qworlds.EprAttack(bit)

    def call():
        return qprotocols.run_commitment(scheme, attack, world, seed)

    def verdict(t):
        material = f"{cell}:{t.acceptance_probability.hex()}:{t.opened_index}:{t.accept}\n"
        return check_commitment(world.kind, strength, t.acceptance_probability), material.encode()

    return Op(cell, call, verdict)


def _signal_op(cell, rho, d, channel, world) -> Op:
    def call():
        return qprotocols.no_signaling_trial(world.separate(qworlds.BipartiteState(rho, (d, d))), channel)

    def verdict(distance):
        return check_signaling(distance), f"{cell}:{distance.hex()}\n".encode()

    return Op(cell, call, verdict)


def qudit_sweep(seed: int, cycles: int = 50, pool: int = 6) -> list[Op]:
    """EPR-attack commitments and no-signaling trials at d in QUDIT_DIMS.

    One scheme per dimension is reused by every commitment; states and
    channels come from a seeded pool of `pool` per dimension.
    """
    rng = np.random.default_rng(seed)
    lambdas = _lambda_stream(rng)
    schemes = {d: random_scheme(rng, d) for d in QUDIT_DIMS}
    # 1, 2 or 3 Kraus operators in turn, so every seed does the same amount of work
    pairs = {
        d: [(random_density(rng, d * d), qworlds.KrausChannel(random_kraus(rng, d, 1 + k % 3)))
            for k in range(pool)]
        for d in QUDIT_DIMS
    }
    ops = []
    for k in range(cycles):
        for d in QUDIT_DIMS:
            for kind in WORLD_KINDS:
                strength = next(lambdas) if kind == "dephased" else None
                world = _world(kind, strength)
                ops.append(_commit_op(f"commit/{d}/{kind}", schemes[d], k % 2, world,
                                      strength, int(rng.integers(2**31))))
                rho, channel = pairs[d][k % pool]
                ops.append(_signal_op(f"signal/{d}/{kind}", rho, d, channel, world))
    return ops


BUILDERS = {
    "scenario-grid": scenario_grid,
    "teleport-trials": teleport_trials,
    "qudit-sweep": qudit_sweep,
}


def cell_count(ops: list[Op]) -> int:
    """Length of one full cycle of the schedule's distinct cells."""
    return len({op.cell for op in ops})
