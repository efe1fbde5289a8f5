"""Completely positive maps, measurements, and strength-parameterized dephasing.

Channels carry explicit Kraus operator sets; a channel is nonselective
(trace preserving) when the Kraus operators resolve the identity, and
sub-normalized sets represent selective operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qmat
from .qmat import DimensionMismatchError, dagger


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CP map given by Kraus operators, all of shape (d_out, d_in).

    Immutable, as `BipartiteState` is: `kraus_ops` is a read-only
    (n, d_out, d_in) stack copied from the inputs, and the channel keeps the
    sum of K^dag K from its construction check.
    """

    kraus_ops: np.ndarray
    _total: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = qmat._member_stack(
            self.kraus_ops, "a channel needs at least one Kraus operator",
            "Kraus operators must share one shape", qmat._finite,
        )
        object.__setattr__(self, "kraus_ops", ops)
        rows = ops.reshape(-1, ops.shape[2])  # one under another, a view
        object.__setattr__(self, "_total", qmat._readonly(_kraus_totals(rows)))

    @property
    def d_in(self) -> int:
        return self.kraus_ops.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus_ops.shape[1]

    def is_trace_preserving(self) -> bool:
        return bool(_TRACE_PRESERVING(self._total, qmat.tolerance())[0])


def _subnormalized(s: np.ndarray, t: float):
    w = np.linalg.eigvalsh((s + dagger(s)) / 2.0)[..., -1]
    return w <= 1.0 + t, lambda k: ValueError(
        f"Kraus set is super-normalized: max eigenvalue of sum K^dag K is {float(w[k])}"
    )


def _kraus_totals(rows: np.ndarray) -> np.ndarray:
    """Sum of K^dag K for Kraus operators stacked as rows, after the super-normalization check.

    `rows` is (n d_out, d_in), the Kraus operators one under another, or a
    stack of such sets along the leading axes; rows of zeros add nothing.
    """
    return qmat._require_members(dagger(rows) @ rows, _subnormalized)


# each sum of K^dag K is the identity within τ times the input dim
_TRACE_PRESERVING = qmat._near_identity("channel is not trace preserving (selective operation)")


def _projectivity_defect(effects: np.ndarray) -> str | None:
    """Message naming the first non-idempotent effect or non-orthogonal pair at τ, or None."""
    t, dim = qmat.tolerance(), effects[0].shape[0]
    for i, e in enumerate(effects):
        if qmat.frobenius_distance(e @ e, e) > t * dim:
            return f"projector {i} is not idempotent"
        for j in range(i + 1, len(effects)):
            if qmat.frobenius_distance(e @ effects[j]) > t * dim:
                return f"projectors {i} and {j} are not orthogonal"
    return None


@dataclass(frozen=True, eq=False)
class GeneralizedMeasurement:
    """POVM: positive effects summing to the identity.

    Immutable: `effects` cannot be reassigned and is a read-only (n, d, d)
    stack copied from the inputs, so a measurement validated once stays valid
    wherever it is shared. The caller's arrays stay writeable.
    """

    effects: np.ndarray

    def __post_init__(self):
        es = qmat._member_stack(
            self.effects, "a measurement needs at least one effect",
            "effects must share one dimension", qmat._hermitian, qmat._positive("effect"),
        )
        qmat._require_members(es.sum(axis=0), qmat._near_identity("effects do not sum to the identity"))
        object.__setattr__(self, "effects", es)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]


class ProjectiveMeasurement(GeneralizedMeasurement):
    """Complete set of mutually orthogonal projectors: a POVM with idempotent effects."""

    def __post_init__(self):
        super().__post_init__()
        defect = _projectivity_defect(self.effects)
        if defect is not None:
            raise ValueError(defect)

    @property
    def projectors(self) -> np.ndarray:
        return self.effects


@dataclass(frozen=True, eq=False)
class DephasingChannel:
    """Damp off-diagonal entries in a fixed orthonormal basis by (1 - strength).

    `basis` holds the basis vectors as rows. strength 0 is the identity map;
    strength 1 removes the off-diagonal entries in that basis exactly.
    Immutable: `basis` is a read-only copy of the input.
    """

    basis: np.ndarray
    strength: float

    def __post_init__(self):
        basis = qmat.require_orthonormal_basis(self.basis)
        strength = float(self.strength)
        if not 0.0 <= strength <= 1.0:
            raise ValueError(f"strength must lie in [0, 1], got {strength}")
        object.__setattr__(self, "basis", qmat._readonly(basis.copy()))
        object.__setattr__(self, "strength", strength)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def apply_nonselective(channel: KrausChannel, rho) -> np.ndarray:
    """Apply a trace-preserving channel: rho -> sum_k K rho K^dag."""
    rho = qmat.require_density(rho)
    if rho.shape[0] != channel.d_in:
        raise DimensionMismatchError(
            f"state dim {rho.shape[0]} does not match channel input dim {channel.d_in}"
        )
    qmat._require_members(channel._total, _TRACE_PRESERVING)
    ks = channel.kraus_ops
    return (ks @ rho @ dagger(ks)).sum(axis=0)


def dephase(channel: DephasingChannel, rho) -> np.ndarray:
    """Apply basis dephasing: diagonal entries kept, off-diagonals scaled by (1 - strength)."""
    rho = qmat.require_density(rho)
    if rho.shape[0] != channel.dim:
        raise DimensionMismatchError(
            f"state dim {rho.shape[0]} does not match channel dim {channel.dim}"
        )
    if channel.strength == 0.0:
        return rho.copy()
    return _dephase(channel.basis, rho, channel.strength)


def _dephase(basis: np.ndarray | None, rho: np.ndarray, strength: float) -> np.ndarray:
    """`dephase` over the last two axes, unchecked, in the rows of each `basis` member; None: computational."""
    return _damped(basis, _in_basis(basis, rho), strength)


def _in_basis(basis: np.ndarray | None, rho: np.ndarray) -> np.ndarray:
    """The first half of `_dephase`: ρ's entries in the rows of `basis`, (conj(B) ρ) Bᵀ; None: ρ itself."""
    return rho if basis is None else np.conj(basis) @ rho @ basis.swapaxes(-1, -2)


def _damped(basis: np.ndarray | None, in_basis: np.ndarray, strength: float) -> np.ndarray:
    """The second half of `_dephase`: off-diagonals of `in_basis` times (1 - strength), back in the standard basis."""
    damp = np.full(in_basis.shape[-2:], 1.0 - strength)
    np.fill_diagonal(damp, 1.0)
    if basis is None:
        return in_basis * damp
    return basis.swapaxes(-1, -2) @ (in_basis * damp) @ np.conj(basis)
