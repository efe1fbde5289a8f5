"""Two-party bit-commitment runs, concealment checks, and locality trials.

A commitment scheme encodes the bits 0 and 1 as two pure-state ensembles over
Bob's space. Honest Alice samples a member and sends it; a cheating Alice
keeps half of an entangled pair whose Bob marginal matches the scheme average
and steers Bob's side into whichever ensemble she wants at unveiling. Bob
verifies an opened claim with the two-outcome projective test onto the claimed
member, which makes honest acceptance exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmat
from .algebra import BlockAlgebra, is_commutative
from .channels import GeneralizedMeasurement, KrausChannel
from .entangle import (
    BipartiteState,
    Ensemble,
    _pure_vectors,
    _require_average,
    hjw_steering_measurement,
    purify,
    steered_branches,
)
from .qmat import DimensionMismatchError

# threshold separating a numerically-zero witness from a genuine violation;
# an EPR attack succeeds when its acceptance is 1 within this edge, and the
# CLI's steer and teleport flags compare against it too
REPORT_EDGE = 1e-10


class _EprAttack(NamedTuple):
    """A purification of the scheme average, and each bit's HJW measurement on Alice's half."""

    pair: BipartiteState
    measurements: tuple[GeneralizedMeasurement, GeneralizedMeasurement]


@dataclass(frozen=True, eq=False)
class CommitmentScheme:
    """Bit encodings: one pure-state ensemble per bit, over Bob's space.

    Immutable: the ensembles are validated once, at construction, and never
    re-validated. The concealment verdict and the EPR attack depend only on
    the scheme and τ, so each scheme builds them once and keeps those of the
    latest τ.
    """

    ensemble_0: Ensemble
    ensemble_1: Ensemble

    def __post_init__(self):
        if self.ensemble_0.dim != self.ensemble_1.dim:
            raise DimensionMismatchError("both ensembles must live on Bob's space")
        _pure_vectors(np.concatenate((self.ensemble_0.members, self.ensemble_1.members)))  # raises if not rank 1

    @property
    def dim(self) -> int:
        return self.ensemble_0.dim

    def ensemble(self, bit: int) -> Ensemble:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return self.ensemble_0 if bit == 0 else self.ensemble_1

    def average(self) -> np.ndarray:
        """The shared pre-open density operator when the scheme conceals."""
        return self.ensemble_0.average()

    def is_concealing(self) -> bool:
        """Whether the two bits' averages agree within τ·dim; the scheme keeps the verdict of the latest τ."""

        def build():
            gap = qmat.frobenius_distance(self.ensemble_0.average(), self.ensemble_1.average())
            return gap <= qmat.tolerance() * self.dim

        return qmat._kept(self, "concealing", build)

    def _epr_attack(self) -> _EprAttack:
        """The EPR attack at the current τ, which the scheme keeps for the latest τ (`qmat._kept`)."""

        def build():
            d = self.dim
            psi = purify(self.average(), d)
            return _EprAttack(
                BipartiteState(qmat.projector(psi), (d, d)),
                tuple(hjw_steering_measurement(psi, (d, d), self.ensemble(b)) for b in (0, 1)),
            )

        return qmat._kept(self, "epr attack", build)


def bb84_scheme() -> CommitmentScheme:
    """Qubit scheme: bit 0 as the uniform z-basis mixture, bit 1 as the x-basis one."""
    s = 1.0 / np.sqrt(2.0)
    z0, z1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    xp, xm = np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex)
    return CommitmentScheme(
        Ensemble.from_pure_states([0.5, 0.5], [z0, z1]),
        Ensemble.from_pure_states([0.5, 0.5], [xp, xm]),
    )


def classical_scheme() -> CommitmentScheme:
    """Diagonal qubit scheme; both bits induce the same point distribution."""
    z0, z1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    return CommitmentScheme(
        Ensemble.from_pure_states([0.5, 0.5], [z0, z1]),
        Ensemble.from_pure_states([0.5, 0.5], [z1, z0]),
    )


def _reference_schemes() -> tuple[CommitmentScheme, CommitmentScheme]:
    """The BB84 and classical schemes at the current τ, shared, being immutable, by every round at that τ."""
    return qmat._kept(qmat, "reference schemes", lambda: (bb84_scheme(), classical_scheme()))


@dataclass(frozen=True)
class Honest:
    """Follow the protocol for a fixed bit."""

    bit: int


@dataclass(frozen=True)
class EprAttack:
    """Commit to nothing, choose the bit at unveiling via remote steering."""

    unveil_bit: int


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """Phase-ordered record of one complete commitment run."""

    rng_seed: int
    commit_description: str
    opened_bit: int
    opened_index: int
    accept: bool
    acceptance_probability: float

    def phases(self) -> tuple[str, ...]:
        return ("commit", "hold", "open", "verify")

    def to_dict(self) -> dict:
        return {
            "phases": list(self.phases()),
            "rng_seed": int(self.rng_seed),
            "commit": {"description": self.commit_description},
            "open": {"bit": int(self.opened_bit), "index": int(self.opened_index)},
            "verify": {
                "accept": bool(self.accept),
                "acceptance_probability": float(self.acceptance_probability),
            },
        }


class ConcealmentCheck(NamedTuple):
    concealed: bool
    distance: float


def concealment_check(scheme: CommitmentScheme, world) -> ConcealmentCheck:
    """Compare Bob's pre-open density operators for the two bits in a world."""
    omega_0, omega_1 = world.transmit(np.stack((scheme.ensemble_0.average(), scheme.ensemble_1.average())))
    distance = qmat.frobenius_distance(omega_0, omega_1)
    return ConcealmentCheck(distance <= qmat.tolerance() * scheme.dim, distance)


def run_commitment(scheme: CommitmentScheme, strategy, world, rng_seed: int) -> ProtocolTranscript:
    """Execute one commitment round and return its transcript.

    Honest(bit): Alice samples a member of that bit's ensemble and sends it
    through the world; at opening she reveals (bit, index) and Bob applies the
    projective test onto the claimed member. EprAttack(unveil_bit): Alice
    instead sends Bob half of a purification of the scheme average, and at
    opening measures her half with the steering measurement for the chosen
    ensemble, revealing the observed index. Each strategy yields the claimed
    members T_j, their weights p_j and Bob's unnormalized branches U_j, and
    both are scored alike: the acceptance probability is the exact Born value
    sum_j tr(T_j U_j) / sum_j tr U_j, where a branch of weight at or below τ,
    or the attack's complement effect, accepts nothing, and `accept` is its
    seeded sample. Honest: p_j is the ensemble's and U_j = p_j ω(T_j), ω being
    `world.transmit`. Attack: U_j = Tr_A[(E_j x I) rho] and p_j = tr U_j, read
    by `steered_branches`, the kernel `steer` runs too.
    """
    t = qmat.tolerance()
    if not scheme.is_concealing():
        raise ValueError("scheme violates concealment: ensemble averages differ")
    rng = np.random.default_rng(rng_seed)

    if isinstance(strategy, Honest):
        bit = strategy.bit
        target = scheme.ensemble(bit)
        p = target.probabilities
        branches = p[:, None, None] * world.transmit(target.members)
        description = f"honest pure member on dim {scheme.dim}"
    elif isinstance(strategy, EprAttack):
        bit = strategy.unveil_bit
        attack = scheme._epr_attack()
        separated = world.separate(attack.pair)
        target = scheme.ensemble(bit)  # raises on a bit outside {0, 1} before it indexes the measurements
        _require_average(
            target, separated.marginal_b(), "world transformation moved Bob's marginal off the target average"
        )
        p, branches = steered_branches(separated, attack.measurements[bit])
        description = f"purification half on dim {scheme.dim} (EPR attack)"
    else:
        raise TypeError(f"unknown strategy {type(strategy).__name__}")
    # outcome j has probability p_j, and Bob accepts it with tr(T_j U_j) / p_j
    n = len(target.members)  # a complement effect, if any, comes last and claims no member
    hits = np.zeros_like(p)
    hits[:n] = np.einsum("jab,jba->j", target.members, branches[:n]).real
    hits[p <= t] = 0.0
    probs = np.maximum(p, 0.0)
    acceptance = float(hits.sum() / probs.sum())
    index = qmat.sample_index(probs, rng)
    fidelity = hits[index] / max(p[index], t)  # hits[index] is 0 unless p[index] > τ
    return ProtocolTranscript(rng_seed, description, bit, index, bool(rng.random() < fidelity), acceptance)


class CommitmentRound(NamedTuple):
    """Schemes, acceptance probabilities and attack verdict of one `commitment_round`."""

    honest_scheme: CommitmentScheme
    honest_scheme_name: str
    attack_scheme: CommitmentScheme
    attack_scheme_name: str
    honest_acceptance: list[float]
    attack_transcripts: list[ProtocolTranscript]
    attack_acceptance: list[float]
    attack_succeeds: bool


def commitment_round(world, rng: np.random.Generator) -> CommitmentRound:
    """Run bits 0 and 1 honestly, then as the EPR attack, each seeded by `rng.integers(2**63)`.

    Honest runs use a scheme the world carries intact (classical in the
    classical world, else BB84); the attack always targets BB84. It succeeds
    when both unveilings are accepted with probability 1 within REPORT_EDGE.
    Every round at one τ shares one pair of schemes, and so their EPR attack.
    """
    bb84, classical = _reference_schemes()
    honest_name, honest_scheme = ("classical", classical) if world.kind == "classical" else ("bb84", bb84)
    honest = [
        run_commitment(honest_scheme, Honest(bit), world, int(rng.integers(2**63))).acceptance_probability
        for bit in (0, 1)
    ]
    transcripts = [
        run_commitment(bb84, EprAttack(bit), world, int(rng.integers(2**63)))
        for bit in (0, 1)
    ]
    attack = [t.acceptance_probability for t in transcripts]
    return CommitmentRound(
        honest_scheme, honest_name, bb84, "bb84", honest, transcripts, attack,
        min(attack) >= 1.0 - REPORT_EDGE,
    )


def point_mass_distribution(ensemble: Ensemble, algebra: BlockAlgebra) -> np.ndarray:
    """Distribution over the algebra's points induced by a point-mass ensemble."""
    t = qmat.tolerance()
    if not is_commutative(algebra):
        raise ValueError("algebra is not commutative; point distributions are undefined")
    n = algebra.dim
    if ensemble.dim != n:
        raise DimensionMismatchError(
            f"ensemble dim {ensemble.dim} does not match algebra with {n} points"
        )
    dist = np.zeros(n)
    for p, member in zip(ensemble.probabilities, ensemble.members):
        diag = np.real(np.diag(member))
        off = qmat.frobenius_distance(member - np.diag(np.diag(member)))
        k = int(np.argmax(diag))
        if off > t * n or abs(diag[k] - 1.0) > max(t, 1e-9):
            raise ValueError("ensemble member is not a point mass of the commutative algebra")
        dist[k] += p
    return dist


def classical_unique_decomposition(
    ensemble_0: Ensemble,
    ensemble_1: Ensemble,
    algebra: BlockAlgebra,
) -> bool:
    """True iff two classical pure-state ensembles induce one point distribution.

    On a commutative algebra the average of a point-mass ensemble *is* its
    distribution, so equal averages leave Bob nothing that distinguishes the
    two commitments: perfectly concealing classical encodings carry no binding
    information.
    """
    d0 = point_mass_distribution(ensemble_0, algebra)
    d1 = point_mass_distribution(ensemble_1, algebra)
    return float(np.max(np.abs(d0 - d1))) <= max(qmat.tolerance(), 1e-10)


def no_signaling_trial(state: BipartiteState, local_op: KrausChannel) -> float:
    """Distance between Bob's marginal before and after a nonselective op on A.

    Selective (trace-decreasing) channels are rejected: conditioning on an
    outcome changes the sampled ensemble and is not a locality violation.
    """
    da, db = state.dims
    if local_op.d_in != da or local_op.d_out != da:
        raise DimensionMismatchError(
            f"local channel must act on dim {da}, got {local_op.d_in} -> {local_op.d_out}"
        )
    rows = local_op.kraus_ops.reshape(-1, da)
    return float(_marginal_shifts(state.rho, state.dims, rows, local_op._total))


def _marginal_shifts(rho, dims: tuple[int, int], kraus_rows, totals) -> np.ndarray:
    """`no_signaling_trial` over the last two axes, once the channels act on side A.

    Each channel is given as its Kraus operators one under another (rows of
    zeros add nothing) and its sum of K^dag K, as `channels._kraus_totals`
    returns it; leading axes of the three arrays broadcast.
    """
    qmat._require_members(
        totals, qmat._near_identity("selective channel rejected: no-signaling holds for nonselective operations")
    )
    before = qmat.partial_trace(rho, dims, "B")
    # the Kraus operators stacked into one isometry: tracing out its output
    # sums Tr_A[(K x I) rho (K x I)^dagger] over every K
    after = qmat.marginal_b_after(kraus_rows, rho, dims, kraus_rows)
    return np.linalg.norm(before - after, axis=(-2, -1))
