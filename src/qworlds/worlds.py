"""Physics backends and the three-constraint scenario battery.

The three worlds are one dephasing family. Separation damps a shared pair's
off-diagonals by a strength λ: 0 (quantum), λ in the product of the marginal
eigenbases (dephased; see `World.separation_basis`), or 1 in the computational
product basis, where lone states dephase too (classical); a pair keeps what it
alone fixes at τ (see `World.separate`). `evaluate_constraints`
runs a fixed seeded battery of signaling, broadcasting, and bit-commitment
scenarios in a world and reports which of the three constraints hold there,
each with its concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .algebra import BlockAlgebra, _broadcast_deviations, _broadcaster_kraus
from .channels import _damped, _dephase, _in_basis, _kraus_totals
from .entangle import BipartiteState
from .protocols import REPORT_EDGE, _marginal_shifts, classical_unique_decomposition, commitment_round
from .qmat import dagger

_WORLD_KINDS = ("classical", "quantum", "dephased")


@dataclass(frozen=True)
class World:
    """Physics backend tag: classical, quantum, or dephased with a strength."""

    kind: str
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in _WORLD_KINDS:
            raise ValueError(f"unknown world kind {self.kind!r}; expected one of {_WORLD_KINDS}")
        s = float(self.strength)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"dephasing strength lambda must lie in [0, 1], got {s}")
        if self.kind != "dephased" and s != 0.0:
            raise ValueError(f"{self.kind} world takes no dephasing strength")
        object.__setattr__(self, "strength", s)

    @classmethod
    def dephased(cls, strength: float) -> "World":
        return cls("dephased", strength)

    @property
    def _lambda(self) -> float:
        """The effective separation strength: 0 quantum, `strength` dephased, 1 classical."""
        return 1.0 if self.kind == "classical" else self.strength

    def separation_basis(self, state: BipartiteState) -> np.ndarray:
        """The dephased world's product basis rows (A eigenbasis x B eigenbasis) for the pair, read-only.

        Every world returns these rows, though only the dephased world
        separates in them: the classical world separates in the computational
        basis and the quantum world not at all. The rows are the Kronecker
        products of the eigenvectors of the two marginals, from the
        deterministic `qmat.eigh` ordering and phases. This is the marginal
        rule for every state, pure or mixed. For a pure
        state it is the Schmidt product basis only when no marginal
        eigenvalue is degenerate; a degenerate pure pair such as
        (|0+> + |1->)/sqrt(2) gets two unrelated marginal bases instead of
        its Schmidt pairs (ROADMAP item 4). Fixed by the pair alone, not by λ.
        """
        return _frame(state)[0]

    def separate(self, state: BipartiteState) -> BipartiteState:
        """Transform a shared pair as the world's separation process dictates.

        Off-diagonals are damped by (1 - λ), λ the world's effective strength:
        none in the quantum world, in the separation basis with both marginals
        kept exactly (dephased), and λ = 1 in the computational basis (classical).
        Quantum returns `state`; `qmat._kept` keeps the classical pair, and the basis with ρ in it, per (pair, τ).
        """
        if self._lambda == 0.0:
            return state
        if self.kind == "dephased":
            return BipartiteState(_damped(*_frame(state), self._lambda), state.dims)
        return qmat._kept(
            state, "classical", lambda: BipartiteState(self._separated(state.rho, state.dims), state.dims)
        )

    def _separated(self, rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
        """The separation rule on validated density operators, over the last two axes.

        One `_dephase` (the two halves `separate` runs) at the effective strength, in the computational basis
        (classical) or the checked separation basis. Returns `rho` itself at λ = 0; a new output is not yet checked.
        """
        if self._lambda == 0.0:
            return rho
        basis = None if self.kind == "classical" else _separation_basis(rho, dims)
        return _dephase(basis, rho, self._lambda)

    def transmit(self, rho: np.ndarray) -> np.ndarray:
        """Transform a lone state, or a stack over the last two axes, handed from one party to the other.

        Separation dephasing erases phase relations *between* subsystems; a
        lone state has none (dephasing in its own eigenbasis fixes it), so the
        quantum and dephased worlds pass it through. The classical world
        dephases it as it does pairs: λ = 1 in the computational basis.
        """
        rho = qmat._require_densities(rho)
        return _dephase(None, rho, self._lambda) if self.kind == "classical" else rho


def _separation_basis(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """`World.separation_basis` over the last two axes of a stack of density operators, checked orthonormal."""
    _, va = qmat.eigh(qmat.partial_trace(rho, dims, "A"))
    _, vb = qmat.eigh(qmat.partial_trace(rho, dims, "B"))
    return qmat.require_orthonormal_rows(qmat.kron_pairs(va.swapaxes(-1, -2), vb.swapaxes(-1, -2)))


def _frame(state: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """The pair's kept separation frame: its checked basis B and ρ in it, both read-only."""

    def build():
        basis = qmat._readonly(_separation_basis(state.rho, state.dims))
        return basis, qmat._readonly(_in_basis(basis, state.rho))

    return qmat._kept(state, "frame", build)


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of the battery: one verdict plus witness per constraint."""

    signaling_possible: bool
    signaling_witness: dict
    broadcasting_possible: bool
    broadcasting_witness: dict
    steering_attack_succeeds: bool
    steering_witness: dict

    def to_dict(self) -> dict:
        return {
            "signaling": {"possible": self.signaling_possible, **self.signaling_witness},
            "broadcasting": {"possible": self.broadcasting_possible, **self.broadcasting_witness},
            "steering_attack": {"succeeds": self.steering_attack_succeeds, **self.steering_witness},
        }


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrix: the real parts drawn first, then the imaginary parts."""
    z = rng.normal(size=(2, rows, cols))
    return z[0] + 1j * z[1]


def _normalized_gram(z: np.ndarray) -> np.ndarray:
    """z z^dagger over its trace, over the last two axes: a random density operator."""
    m = z @ dagger(z)
    return m / m.trace(0, -2, -1).real[..., None, None]


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    return _normalized_gram(_ginibre(rng, d, d))


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def _isometry_rows(blocks: list[np.ndarray], rows: int) -> np.ndarray:
    """The isometries from QR of each Ginibre block, zero-padded to `rows` rows, as one stack.

    An isometry's row blocks are the Kraus operators of a trace-preserving
    channel, and zero rows add no branch. Blocks of one shape share one
    stacked QR.
    """
    out = np.zeros((len(blocks), rows, blocks[0].shape[1]), dtype=complex)
    for n in sorted({len(b) for b in blocks}):
        same = [i for i, b in enumerate(blocks) if len(b) == n]
        out[same, :n] = np.linalg.qr(np.stack([blocks[i] for i in same]))[0]
    return out


def _signaling_battery(world: World, rng: np.random.Generator) -> tuple[bool, dict]:
    """No-signaling sweep: 10 seeded (state, channel) trials for each dims pair, run as one stack.

    Each trial draws its state, its Kraus count (1 to 3) and its channel, in
    that order. Every check of a single trial (state density, separation,
    output density, Kraus normalization, trace preservation) runs once on
    the whole stack.
    """
    max_dist = 0.0
    trials = 0
    for dims in ((2, 2), (2, 3)):
        da, d = dims[0], dims[0] * dims[1]
        states, blocks = [], []
        for _ in range(10):
            states.append(_ginibre(rng, d, d))
            blocks.append(_ginibre(rng, da * int(rng.integers(1, 4)), da))
        rho = qmat._require_densities(_normalized_gram(np.stack(states)))
        separated = world._separated(rho, dims)
        if separated is not rho:
            qmat._require_densities(separated)
        kraus_rows = _isometry_rows(blocks, 3 * da)
        shifts = _marginal_shifts(separated, dims, kraus_rows, _kraus_totals(kraus_rows))
        max_dist = max(max_dist, float(shifts.max()))
        trials += len(shifts)
    witness = {"trials": trials, "max_marginal_distance": max_dist, "dims": [[2, 2], [2, 3]]}
    return max_dist > REPORT_EDGE, witness


def _broadcasting_battery(world: World, rng: np.random.Generator) -> tuple[bool, dict]:
    """Broadcast checks of the classical broadcaster, every (basis, state) case in one kernel call.

    The classical world checks 10 diagonal states. The others check 5 commuting pairs, diagonal
    in a random basis, and 5 non-commuting pairs on the eigenbasis of their first state. Every
    draw comes first, pair by pair, rejected pairs included; the bases are checked as one stack.
    """
    t = qmat.tolerance()
    d = 2
    if world.kind == "classical":
        bases = np.eye(d)[None]
        states = rng.dirichlet(np.ones(d), size=(1, 10))[..., None, :] * np.eye(d)  # diagonal
    else:
        unitaries, weights = [], []
        for _ in range(5):
            unitaries.append(_random_unitary(rng, d))
            weights.append(rng.dirichlet(np.ones(d), size=2))
        pairs = []
        while len(pairs) < 5:
            rho, sigma = _random_density(rng, d), _random_density(rng, d)
            if qmat.frobenius_distance(rho @ sigma, sigma @ rho) > 0.1:
                pairs.append((rho, sigma))
        u = np.stack(unitaries)
        noncommuting = np.stack(pairs)
        _, v = qmat.eigh(noncommuting[:, 0])
        bases = np.concatenate((u, v)).swapaxes(-1, -2)
        commuting = u[:, None] @ (np.stack(weights)[..., None, :] * np.eye(d)) @ dagger(u)[:, None]
        states = np.concatenate((commuting, noncommuting))
    kraus = _broadcaster_kraus(qmat.require_orthonormal_rows(bases))
    dev = _broadcast_deviations(kraus[:, None], states)  # (basis, state)
    possible = bool((dev <= t).all())
    if world.kind == "classical":
        family = "diagonal (all commuting)"
        return possible, {"pairs": 10, "state_family": family, "max_deviation": float(dev.max())}
    pair_dev = dev[5:].max(axis=1)
    failed = pair_dev[pair_dev > t]  # a pair fails where either of its states does
    return possible, {
        "commuting_pairs": 10,
        "commuting_max_deviation": float(dev[:5].max()),
        "noncommuting_pairs": 5,
        "noncommuting_failures": len(failed),
        "noncommuting_min_deviation": float(failed.min(initial=np.inf)),
    }


def _complex_rows(mat: np.ndarray, digits: int = 12) -> list:
    return [
        [[round(float(z.real), digits), round(float(z.imag), digits)] for z in row]
        for row in np.asarray(mat, dtype=complex)
    ]


def _commitment_battery(world: World, rng: np.random.Generator) -> tuple[bool, dict]:
    commit = commitment_round(world, rng)
    witness = {
        "attack_scheme": commit.attack_scheme_name,
        "honest_scheme": commit.honest_scheme_name,
        "honest_acceptance": commit.honest_acceptance,
        "acceptance_by_bit": commit.attack_acceptance,
        "min_acceptance": min(commit.attack_acceptance),
    }
    if world.kind == "classical":
        scheme = commit.honest_scheme
        algebra = BlockAlgebra((1,) * scheme.dim)
        witness["unique_decomposition_identical"] = bool(
            classical_unique_decomposition(scheme.ensemble_0, scheme.ensemble_1, algebra)
        )
    if world.kind == "dephased" and world.strength > 0.0:
        state = commit.attack_scheme._epr_attack().pair  # the pair the attack used
        witness["dephasing_basis"] = _complex_rows(world.separation_basis(state))
    return commit.attack_succeeds, witness


def evaluate_constraints(world: World, rng_seed: int = 7) -> ConstraintReport:
    """Run the fixed battery in one world and report the three constraints.

    The battery: (a) a no-signaling sweep over seeded random states and
    nonselective local channels, (b) broadcast checks with the classical
    broadcaster over commuting and (outside the classical world) non-commuting
    pairs, and (c) honest and EPR-attack commitment runs on the world's
    reference scheme. The report carries no world tag, so two worlds whose
    physics agree produce equal reports.
    """
    rng = np.random.default_rng(rng_seed)
    signaling_possible, signaling_witness = _signaling_battery(world, rng)
    broadcasting_possible, broadcasting_witness = _broadcasting_battery(world, rng)
    attack_succeeds, steering_witness = _commitment_battery(world, rng)
    return ConstraintReport(
        signaling_possible=signaling_possible,
        signaling_witness=signaling_witness,
        broadcasting_possible=broadcasting_possible,
        broadcasting_witness=broadcasting_witness,
        steering_attack_succeeds=attack_succeeds,
        steering_witness=steering_witness,
    )
