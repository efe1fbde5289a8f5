"""Finite-dimensional *-algebras as direct sums of matrix blocks.

Commutativity is decidable by inspection (all blocks one-dimensional), states
are weight/density pairs per block, and the classical universal broadcaster
plus cloning checks live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmat
from .channels import _TRACE_PRESERVING, KrausChannel, _kraus_totals
from .qmat import DimensionMismatchError, dagger


@dataclass(frozen=True)
class BlockAlgebra:
    """Algebra isomorphic to a direct sum of full matrix blocks M_{n_i}."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims:
            raise ValueError("an algebra needs at least one block")
        if any(d < 1 for d in dims):
            raise ValueError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def dim(self) -> int:
        return sum(self.block_dims)


def is_commutative(algebra: BlockAlgebra) -> bool:
    """True iff every block is one-dimensional."""
    return all(d == 1 for d in algebra.block_dims)


@dataclass(frozen=True, eq=False)
class AlgebraState:
    """Positive normalized functional: block weights plus one density per block.

    Immutable, as `Ensemble` is: `weights` and each density are read-only
    copies of the inputs, and the caller's arrays stay writeable.
    """

    algebra: BlockAlgebra
    weights: np.ndarray
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        t = qmat.tolerance()
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.size != len(self.algebra.block_dims):
            raise DimensionMismatchError("one weight per block is required")
        if float(w.min()) < -t:
            raise ValueError(f"negative block weight {float(w.min())}")
        if not abs(float(w.sum()) - 1.0) <= t:  # a pass-test, so that NaN fails it
            raise ValueError(f"block weights sum to {float(w.sum())}, not 1")
        if len(self.densities) != len(self.algebra.block_dims):  # before zip can drop the extra ones
            raise DimensionMismatchError("one density per block is required")
        ds = []
        for k, (d, dim) in enumerate(zip(self.densities, self.algebra.block_dims)):
            d = qmat.require_density(d)
            if d.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"block {k} density has shape {d.shape}, expected {(dim, dim)}"
                )
            # require_density may return the caller's own array: copy before freezing
            ds.append(qmat._readonly(d.copy()))
        object.__setattr__(self, "weights", qmat._readonly(w))
        object.__setattr__(self, "densities", tuple(ds))

    def to_density(self) -> np.ndarray:
        """Block-diagonal density operator on the direct-sum space."""
        n = self.algebra.dim
        out = np.zeros((n, n), dtype=complex)
        offset = 0
        for w, d in zip(self.weights, self.densities):
            k = d.shape[0]
            out[offset : offset + k, offset : offset + k] = w * d
            offset += k
        return out


def classical_broadcaster(basis) -> KrausChannel:
    """Universal broadcaster for states diagonal in `basis`.

    Measures in the basis and prepares two copies of the observed basis state:
    rho -> sum_i <i|rho|i> |i><i| x |i><i|. Trace preserving by construction.
    """
    return KrausChannel(_broadcaster_kraus(qmat.require_orthonormal_basis(basis)))


def _broadcaster_kraus(b: np.ndarray) -> np.ndarray:
    """`classical_broadcaster`'s Kraus operators (|i>|i>) <i| for each basis of rows in a stack, unchecked."""
    d = b.shape[-1]
    kets = (b[..., :, :, None] * b[..., :, None, :]).reshape(b.shape[:-1] + (d * d, 1))  # kets[i] = |i>|i>
    return kets * np.conj(b)[..., :, None, :]


class BroadcastCheck(NamedTuple):
    ok: bool
    deviation: float


def broadcast_check(channel: KrausChannel, rho) -> BroadcastCheck:
    """Test whether a one-in/two-out channel broadcasts `rho`.

    ok is True iff both marginals of the channel output equal the input within
    tolerance; deviation is the larger Frobenius distance of the two marginals
    from the input. `rho` is validated as `apply_nonselective` validates it.
    """
    deviation = float(_broadcast_deviations(channel.kraus_ops, qmat._operands(rho, stack=False)))
    return BroadcastCheck(deviation <= qmat.tolerance(), deviation)


def _broadcast_deviations(ks: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """`broadcast_check`'s deviations: Kraus sets (..., n, d^2, d) on states (..., d, d), leading axes broadcast.

    Each check runs once on the whole stack and names the first failing member: finite and
    not super-normalized sets, density operators of dim d, trace preservation.
    """
    d = ks.shape[-1]
    if ks.shape[-2] != d * d:
        raise DimensionMismatchError(
            f"broadcast channel must map dim {d} to dim {d * d}, got {d} -> {ks.shape[-2]}"
        )
    rows = ks.reshape(ks.shape[:-3] + (-1, d))  # each set's operators one under another
    totals = _kraus_totals(qmat._require_members(rows, qmat._finite))
    rho = qmat._require_densities(rho)
    if rho.shape[-1] != d:
        raise DimensionMismatchError(f"state dim {rho.shape[-1]} does not match channel input dim {d}")
    qmat._require_members(totals, _TRACE_PRESERVING)
    out = (ks @ rho[..., None, :, :] @ dagger(ks)).sum(axis=-3)
    dev_a = qmat._frobenius_norms(qmat.partial_trace(out, (d, d), "A") - rho)
    dev_b = qmat._frobenius_norms(qmat.partial_trace(out, (d, d), "B") - rho)
    return np.maximum(dev_a, dev_b)


@dataclass(frozen=True)
class CloneRefusal:
    """Witness that a cloning unitary cannot exist for a nonorthogonal pair.

    A unitary would have to preserve the inner product, forcing
    |<psi|phi>| (before) to equal |<psi|phi>|^2 (after).
    """

    overlap: float
    overlap_squared: float


def _complete_orthonormal(seeds: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis (columns) whose leading columns are the given unit vectors, within their overlaps."""
    cols = np.array(seeds).T
    basis = np.linalg.qr(cols, mode="complete")[0]
    turn = np.einsum("ik,ik->k", np.conj(basis[:, : cols.shape[1]]), cols)  # QR fixes each column only up to phase
    basis[:, : cols.shape[1]] *= turn / np.abs(turn)
    return basis


def clone_orthogonal_pair(psi, phi):
    """Cloning unitary for an orthogonal (or identical) pair, else a refusal.

    For orthogonal inputs, returns a unitary U on the doubled space with
    U(psi x ready) = psi x psi and U(phi x ready) = phi x phi, where the ready
    state is the first basis vector. For overlaps strictly between 0 and 1 a
    CloneRefusal carrying the inner-product invariance witness is returned.
    """
    t = qmat.tolerance()
    psi = qmat.as_unit_vector(psi)
    phi = qmat.as_unit_vector(phi)
    if psi.size != phi.size:
        raise DimensionMismatchError(
            f"states live in different dimensions: {psi.size} vs {phi.size}"
        )
    d = psi.size
    overlap = float(abs(np.vdot(psi, phi)))
    if t < overlap < 1.0 - t:
        return CloneRefusal(overlap=overlap, overlap_squared=overlap**2)
    ready = np.zeros(d, dtype=complex)
    ready[0] = 1.0
    sources = [np.kron(psi, ready)]
    targets = [np.kron(psi, psi)]
    if overlap <= t:
        sources.append(np.kron(phi, ready))
        targets.append(np.kron(phi, phi))
    s_basis = _complete_orthonormal(sources)
    t_basis = _complete_orthonormal(targets)
    return t_basis @ dagger(s_basis)
