"""Bipartite states: Schmidt data, purification, remote steering, teleportation.

Vector comparisons in this module are global-phase blind (fidelity based),
because measurement branches pick up outcome-dependent signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .channels import GeneralizedMeasurement
from .qmat import DimensionMismatchError, dagger

_RANK_CUTOFF = 1e-12  # spectral weight below which a branch counts as absent


class AverageMismatchError(ValueError):
    """Target ensemble does not average to the steered side's marginal."""


class UnsupportedTargetError(ValueError):
    """Target state lies outside the support of the reduced density operator."""


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Density operator on a two-factor space with dims (dA, dB), A index major.

    Immutable, as `Ensemble` is: `rho` is a read-only copy of the input.
    `World.separate` keeps, per pair, what the pair alone fixes at the latest τ.
    """

    rho: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        da, db = int(self.dims[0]), int(self.dims[1])
        rho = qmat.require_density(self.rho)
        if rho.shape != (da * db, da * db):
            raise DimensionMismatchError(
                f"state of shape {rho.shape} does not match dims {da}x{db}"
            )
        object.__setattr__(self, "rho", qmat._readonly(rho.copy()))
        object.__setattr__(self, "dims", (da, db))

    def marginal_b(self) -> np.ndarray:
        return qmat.partial_trace(self.rho, self.dims, "B")


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthogonal expansion data: psi = sum_k c_k |a_k> |b_k>.

    Coefficients are the nonnegative square roots of the marginal eigenvalues,
    sorted descending; a_basis and b_basis hold the paired vectors as rows.
    Immutable: the three arrays are read-only copies of the inputs.
    """

    coefficients: np.ndarray
    a_basis: np.ndarray
    b_basis: np.ndarray

    def __post_init__(self):
        t = qmat.tolerance()
        c = np.array(self.coefficients, dtype=float).reshape(-1)
        if c.size == 0:
            raise ValueError("empty Schmidt decomposition")
        if float(c.min()) < -t or np.any(np.diff(c) > t):
            raise ValueError("coefficients must be nonnegative and descending")
        if not abs(float(np.sum(c**2)) - 1.0) <= t:  # a pass-test, so that NaN fails it
            raise ValueError(f"squared coefficients sum to {float(np.sum(c ** 2))}, not 1")
        a_basis = qmat.require_orthonormal_rows(self.a_basis, "a_basis")
        b_basis = qmat.require_orthonormal_rows(self.b_basis, "b_basis")
        if not len(a_basis) == len(b_basis) == c.size:
            raise DimensionMismatchError(f"a_basis and b_basis need one row per coefficient ({c.size})")
        object.__setattr__(self, "coefficients", qmat._readonly(c))
        object.__setattr__(self, "a_basis", qmat._readonly(a_basis.copy()))
        object.__setattr__(self, "b_basis", qmat._readonly(b_basis.copy()))

    def vector(self) -> np.ndarray:
        """Reassemble the decomposed vector."""
        return sum(
            c * np.kron(a, b)
            for c, a, b in zip(self.coefficients, self.a_basis, self.b_basis)
        )


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability-weighted mixture of density operators of one dimension.

    Immutable: the fields cannot be reassigned, and `probabilities` and
    `members`, a (n, d, d) stack, are read-only copies of the inputs, so an
    ensemble validated once stays valid wherever it is shared. The caller's
    arrays stay writeable.
    """

    probabilities: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        t = qmat.tolerance()
        members = qmat._member_stack(
            self.members, "empty ensemble", "ensemble members must share one dimension", *qmat._DENSITY
        )
        p = np.array(self.probabilities, dtype=float).reshape(-1)
        if p.size != len(members):
            raise DimensionMismatchError("one probability per member is required")
        if float(p.min()) < -t:
            raise ValueError(f"negative probability {float(p.min())}")
        if not abs(float(p.sum()) - 1.0) <= max(t, 1e-12 * p.size):  # a pass-test, so that NaN fails it
            raise ValueError(f"probabilities sum to {float(p.sum())}, not 1")
        object.__setattr__(self, "probabilities", qmat._readonly(p))
        object.__setattr__(self, "members", members)

    @classmethod
    def from_pure_states(cls, probabilities, vectors) -> "Ensemble":
        return cls(
            np.asarray(probabilities, dtype=float),
            tuple(qmat.projector(qmat.as_unit_vector(v)) for v in vectors),
        )

    @property
    def dim(self) -> int:
        return self.members.shape[1]

    def average(self) -> np.ndarray:
        return (self.probabilities[:, None, None] * self.members).sum(axis=0)


@dataclass(frozen=True)
class SteeringExampleConfig:
    """Real amplitudes (alpha, beta) with alpha^2 + beta^2 = 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        for name, value in (("alpha", a), ("beta", b)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if abs(a * a + b * b - 1.0) > qmat.tolerance():
            raise ValueError(f"alpha^2 + beta^2 = {a * a + b * b}, not 1")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def steering_states(config: SteeringExampleConfig) -> list[np.ndarray]:
    """The four nonorthogonal qubit states whose uniform mixture is I/2."""
    a, b = config.alpha, config.beta
    return [
        np.array([a, b], dtype=complex),
        np.array([a, -b], dtype=complex),
        np.array([b, a], dtype=complex),
        np.array([b, -a], dtype=complex),
    ]


def four_state_ensemble(config: SteeringExampleConfig) -> Ensemble:
    return Ensemble.from_pure_states([0.25] * 4, steering_states(config))


def bell_basis() -> list[np.ndarray]:
    """The four maximally entangled two-qubit vectors, singlet first."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([0, s, -s, 0], dtype=complex),
        np.array([0, s, s, 0], dtype=complex),
        np.array([s, 0, 0, -s], dtype=complex),
        np.array([s, 0, 0, s], dtype=complex),
    ]


def singlet_vector() -> np.ndarray:
    return bell_basis()[0]


def epr_singlet() -> BipartiteState:
    """Projector onto (|01> - |10>)/sqrt(2) as a 2x2 bipartite state."""
    return BipartiteState(qmat.projector(singlet_vector()), (2, 2))


def schmidt(psi, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt (biorthogonal) decomposition of a bipartite unit vector.

    Coefficients below the rank cutoff are dropped, so the returned rank equals
    the rank of either marginal. Pair phases are fixed deterministically by
    making the largest component of each a-vector real nonnegative.
    """
    psi = qmat.as_unit_vector(psi)
    da, db = int(dims[0]), int(dims[1])
    if psi.size != da * db:
        raise DimensionMismatchError(f"vector of size {psi.size} does not match dims {da}x{db}")
    m = psi.reshape(da, db)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > _RANK_CUTOFF
    s = s[keep]
    a_rows = u.T[keep]
    b_rows = vh[keep]
    b_rows = b_rows * np.conj(qmat._fix_phases(a_rows))[:, None]
    dec = SchmidtDecomposition(s, a_rows, b_rows)
    if not qmat.vectors_match(dec.vector(), psi):
        raise RuntimeError("Schmidt reconstruction failed to match the input vector")
    return dec


def purify(rho, ancilla_dim: int) -> np.ndarray:
    """Canonical purification of `rho` as a unit vector on ancilla x system.

    Built from the eigendecomposition: sum_k sqrt(l_k) |k>_anc |v_k>; requires
    the ancilla dimension to be at least the rank of rho.
    """
    rho = qmat.require_density(rho)
    w, v = qmat._eigh(rho)
    w = np.clip(w, 0.0, None)
    rank = int(np.sum(w > _RANK_CUTOFF))
    ancilla_dim = int(ancilla_dim)
    if ancilla_dim < rank:
        raise ValueError(f"ancilla dim {ancilla_dim} is below the state rank {rank}")
    psi = np.zeros((ancilla_dim, rho.shape[0]), dtype=complex)
    psi[:rank] += np.sqrt(w[:rank])[:, None] * v[:, :rank].T  # adding into zeros turns -0.0 into 0.0
    psi = psi.reshape(-1)
    return psi / np.linalg.norm(psi)


def pure_vector(rho) -> np.ndarray:
    """Extract the state vector of a rank-1 density operator."""
    return _pure_vectors(qmat.require_density(rho))


def _pure_vectors(rho: np.ndarray) -> np.ndarray:
    """`pure_vector` for one checked density operator, or for each of a checked stack along the leading axis.

    One eigendecomposition and one purity check serve the whole stack. For a
    stack a failure names the member.
    """
    w, v = qmat._eigh(rho)
    top = w[..., 0].reshape(-1)
    impure = np.flatnonzero(np.abs(top - 1.0) > max(qmat.tolerance(), 1e-8))
    if impure.size:
        message = f"state is not pure: top eigenvalue {float(top[impure[0]])}"
        raise ValueError(message if w.ndim == 1 else f"stack member {impure[0]}: {message}")
    return v[..., 0]


def _require_average(target: Ensemble, marginal_b: np.ndarray, mismatch: str) -> None:
    """Raise AverageMismatchError, as "<mismatch> by <gap>", unless the target averages to marginal_b."""
    gap = qmat.frobenius_distance(target.average(), marginal_b)
    if gap > max(qmat.tolerance(), 1e-7):
        raise AverageMismatchError(f"{mismatch} by {gap}")


def hjw_steering_measurement(
    purification, dims: tuple[int, int], target: Ensemble
) -> GeneralizedMeasurement:
    """Measurement on side A that steers side B into the target ensemble.

    Given a bipartite unit vector whose B marginal equals the target average,
    returns effects E_i on A such that outcome i occurs with probability p_i
    and leaves B in the i-th target member. Effects are built from the Schmidt
    data, one rank-1 effect per target member (linearly independent targets of
    full count make them orthogonal projectors); a final complement effect is
    appended when the A-side support does not exhaust the space, and it never
    fires on the purification itself.

    Raises AverageMismatchError when the target average differs from the
    B marginal, and UnsupportedTargetError when a member leaves the support
    of the reduced density operator.
    """
    t = qmat.tolerance()
    psi = qmat.as_unit_vector(purification)
    da, db = int(dims[0]), int(dims[1])
    if psi.size != da * db:
        raise DimensionMismatchError(f"vector of size {psi.size} does not match dims {da}x{db}")
    if target.dim != db:
        raise DimensionMismatchError(
            f"target members have dim {target.dim}, steered side has dim {db}"
        )
    marginal_b = qmat.partial_trace(qmat.projector(psi), (da, db), "B")
    _require_average(target, marginal_b, "target ensemble average deviates from the B marginal")
    dec = schmidt(psi, (da, db))
    vectors = _pure_vectors(target.members)
    overlaps = vectors @ dec.b_basis.conj().T  # [i, k] = <b_k|t_i>
    # ||t_i||^2 - ||B t_i||^2: the weight of |t_i> outside the support spanned by the b_k
    residuals = (abs(vectors) ** 2).sum(axis=1) - (abs(overlaps) ** 2).sum(axis=1)
    outside = np.flatnonzero(residuals > max(t, 1e-9))
    if outside.size:
        i = int(outside[0])
        raise UnsupportedTargetError(
            f"target member {i} lies outside the marginal support (residual {float(residuals[i])})"
        )
    alphas = (np.sqrt(target.probabilities)[:, None] * overlaps / dec.coefficients).conj() @ dec.a_basis
    effects = alphas[:, :, None] * alphas.conj()[:, None, :]  # |alpha_i><alpha_i|
    remainder = np.eye(da, dtype=complex) - effects.sum(axis=0)
    if qmat.frobenius_distance(remainder) > t * da:
        effects = np.concatenate((effects, [(remainder + dagger(remainder)) / 2.0]))
    return GeneralizedMeasurement(effects)


def steered_branches(state: BipartiteState, measurement) -> tuple[np.ndarray, np.ndarray]:
    """Bob's branches under a measurement on side A: the one kernel of `steer` and the EPR attack.

    Returns, one entry per effect in order, the outcome probabilities
    p_i = Re tr U_i and the unnormalized conditionals U_i = Tr_A[(E_i x I) rho],
    all from one `qmat.marginal_b_after` contraction. Outcome i leaves B in
    U_i / p_i; callers decide what a branch at or below τ means.
    """
    effects = measurement.effects
    da, db = state.dims
    if effects.shape[1] != da:
        raise DimensionMismatchError(
            f"measurement dim {effects.shape[1]} does not match side A dim {da}"
        )
    branches = qmat.marginal_b_after(effects, state.rho, (da, db))
    return branches.trace(0, -2, -1).real, branches


def steer(state: BipartiteState, measurement) -> Ensemble:
    """Apply a measurement on side A and collect Bob's conditional states.

    Branches with probability at or below tolerance (see `steered_branches`)
    are dropped and the remaining probabilities renormalized.
    """
    p, branches = steered_branches(state, measurement)
    kept = p > qmat.tolerance()
    conditionals = branches[kept] / p[kept, None, None]
    return Ensemble(p[kept] / p[kept].sum(), (conditionals + dagger(conditionals)) / 2.0)


@dataclass(frozen=True)
class TeleportResult:
    outcome: int  # 1..4, indexing the Bell basis
    corrected_state: np.ndarray
    fidelity: float


def teleport_corrections() -> tuple[np.ndarray, ...]:
    """Local fix-ups for Bell outcomes 1..4: I, sigma_z, sigma_x, -i sigma_y."""
    return (
        np.eye(2, dtype=complex),
        np.array(qmat.PAULI_Z),
        np.array(qmat.PAULI_X),
        -1j * np.array(qmat.PAULI_Y),
    )


def teleport(
    input_state,
    shared: BipartiteState,
    rng_seed: int = 0,
    force_outcome: int | None = None,
    corrections: tuple[np.ndarray, ...] | None = None,
) -> TeleportResult:
    """Teleport a qubit through a shared singlet.

    Measures the (input, A) pair in the Bell basis, applies the outcome's
    correction to B, and reports the fidelity of the corrected state against
    the input. `force_outcome` (1..4) conditions on a specific branch instead
    of sampling; `corrections` may override the canonical fix-up table.
    """
    chi = qmat.as_unit_vector(input_state)
    if chi.size != 2:
        raise DimensionMismatchError("teleportation input must be a qubit")
    if shared.dims != (2, 2):
        raise DimensionMismatchError(f"shared state must be 2x2 bipartite, got {shared.dims}")
    table = teleport_corrections() if corrections is None else tuple(corrections)
    if len(table) != 4:
        raise ValueError("correction table needs exactly four entries")
    joint = np.kron(qmat.projector(chi), shared.rho)  # order: input, A, B
    eye_b = np.eye(2, dtype=complex)
    branch_projs = [np.kron(qmat.projector(v), eye_b) for v in bell_basis()]
    probs = np.array([float(np.real(np.trace(p @ joint))) for p in branch_projs])
    if force_outcome is not None:
        outcome = int(force_outcome)
        if not 1 <= outcome <= 4:
            raise ValueError(f"force_outcome must be 1..4, got {force_outcome}")
        idx = outcome - 1
        if probs[idx] <= qmat.tolerance():
            raise ValueError(f"forced outcome {outcome} has vanishing probability")
    else:
        idx = qmat.sample_index(probs, np.random.default_rng(rng_seed))
    post = branch_projs[idx] @ joint @ branch_projs[idx] / probs[idx]
    bob = qmat.partial_trace(post, (4, 2), "B")
    c = table[idx]
    corrected = c @ bob @ dagger(c)
    fid = qmat.fidelity_to_vector(chi, corrected)
    return TeleportResult(outcome=idx + 1, corrected_state=corrected, fidelity=fid)


def negativity(state: BipartiteState) -> float:
    """Sum of |negative eigenvalues| of the partial transpose; 0 on separable states."""
    da, db = state.dims
    pt = state.rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    w = np.linalg.eigvalsh((pt + dagger(pt)) / 2.0)
    return float(np.abs(w[w < 0.0]).sum())  # +0.0 where no eigenvalue is negative


def spin_observable(theta: float) -> np.ndarray:
    """Spin component along angle theta in the x-z plane: cos(t) Z + sin(t) X."""
    return np.cos(theta) * np.array(qmat.PAULI_Z) + np.sin(theta) * np.array(qmat.PAULI_X)


def correlation(state: BipartiteState, theta_a: float, theta_b: float) -> float:
    """Joint spin-correlation expectation for x-z plane angles on each side."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(f"correlations need a 2x2 state, got {state.dims}")
    obs = np.kron(spin_observable(theta_a), spin_observable(theta_b))
    return float(np.real(np.trace(obs @ state.rho)))


def canonical_chsh_settings() -> tuple[tuple[float, float], ...]:
    """Angle pairs at which the singlet reaches score magnitude 2 sqrt(2).

    The four pairs are (a,b), (a,b'), (a',b), (a',b') for a = pi/2, a' = 0,
    b = pi/4, b' = 3 pi/4; the signed score there is -2 sqrt(2).
    """
    a, ap, b, bp = np.pi / 2, 0.0, np.pi / 4, 3 * np.pi / 4
    return ((a, b), (a, bp), (ap, b), (ap, bp))


def chsh_score(state: BipartiteState, settings) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') over four angle pairs."""
    pairs = tuple(settings)
    if len(pairs) != 4:
        raise ValueError("CHSH needs exactly four angle pairs")
    e = [correlation(state, float(ta), float(tb)) for ta, tb in pairs]
    return e[0] + e[1] + e[2] - e[3]
