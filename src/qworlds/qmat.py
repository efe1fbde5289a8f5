"""Dense complex linear algebra for small operators (dims <= 64).

Everything here works on plain numpy arrays with complex128 entries.
Vectors are 1-D arrays, operators are square 2-D arrays, and sequences
of basis vectors are stored as rows of a 2-D array.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

_tolerance = DEFAULT_TOL


class DimensionMismatchError(ValueError):
    """Operands do not have the dimensions an operation requires."""


class ConvergenceError(RuntimeError):
    """Eigendecomposition failed to converge within its iteration budget."""


def tolerance() -> float:
    """Current process-wide numeric tolerance used by invariant checks."""
    return _tolerance


def set_tolerance(value: float) -> None:
    """Override the process-wide tolerance. Set once, before concurrent use.

    The tolerance must be finite and at least machine epsilon: below that, one
    rounding step in a state the library builds itself fails its unit-norm or
    unit-trace check.
    """
    global _tolerance
    value = float(value)
    if not (_EPS <= value < np.inf):
        raise ValueError(f"tolerance must be finite and at least machine epsilon {_EPS:.4g}, got {value}")
    _tolerance = value


def _tol(tol: float | None) -> float:
    return _tolerance if tol is None else float(tol)


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a 2-D complex matrix, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_unit_vector(amplitudes, tol: float | None = None) -> np.ndarray:
    """Coerce to a 1-D complex vector with unit norm within tolerance."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(v).all():
        raise ValueError("vector contains NaN or Inf entries")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _tol(tol):
        raise ValueError(f"vector norm {norm} is not 1 within tolerance")
    return v


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def require_hermitian(m, tol: float | None = None) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {m.shape}")
    dev = float(np.abs(m - m.conj().T).max())
    if dev > _tol(tol):
        raise ValueError(f"operator deviates from Hermiticity by {dev}")
    return m


def require_density(rho, tol: float | None = None) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD, and unit trace within tolerance."""
    t = _tol(tol)
    rho = require_hermitian(rho, t)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > t:
        raise ValueError(f"density operator trace {tr} is not 1 within tolerance")
    _require_psd(rho, t, "density operator")
    return rho


def _require_psd(m: np.ndarray, t: float, name: str) -> None:
    """Raise unless the Hermitian part of `m` has no eigenvalue below -t."""
    w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
    if float(w.min()) < -t:
        raise ValueError(f"{name} has negative eigenvalue {float(w.min())}")


def projector(v) -> np.ndarray:
    """Rank-1 projector |v><v| from a vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, np.conj(v))


def tensor(*factors) -> np.ndarray:
    """Kronecker product with the first factor's index as the major index."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    mats = [as_complex_matrix(f) for f in factors]
    return reduce(np.kron, mats)


def partial_trace(m, dims: tuple[int, int], keep) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator, keeping the other.

    `dims` is (dA, dB) with the A index major; `keep` names the surviving
    subsystem, "A" or "B". The total trace is preserved.
    """
    m = as_complex_matrix(m)
    da, db = int(dims[0]), int(dims[1])
    if m.shape != (da * db, da * db):
        raise DimensionMismatchError(
            f"operator of shape {m.shape} does not match subsystem dims {da}x{db}"
        )
    t = m.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def marginal_b_after(left, rho, dims: tuple[int, int], right=None) -> np.ndarray:
    """Bob's operator Tr_A[(L x I) rho (R x I)^dagger], without forming L x I.

    `dims` is (dA, dB) with the A index major, as in `partial_trace`. L and R
    have shape (m, dA): they map A into an m-dimensional space that is traced
    out, so a stack of Kraus operators gives the sum over its branches.
    `right=None` gives Tr_A[(L x I) rho] and needs a square L. The cost is
    O(m dA^2 dB^2), against O(dA^3 dB^3) for multiplying by L x I. Shapes
    are checked, entries are not: pass operators that were validated.
    """
    da, db = int(dims[0]), int(dims[1])
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (da * db, da * db):
        raise DimensionMismatchError(
            f"operator of shape {rho.shape} does not match subsystem dims {da}x{db}"
        )
    left = np.asarray(left, dtype=complex)
    if left.ndim != 2 or left.shape[1] != da:
        raise DimensionMismatchError(f"operator of shape {left.shape} does not act on side A of dim {da}")
    # rows of rho.reshape(da, -1) are the A row index: L acts on it alone
    lr = (left @ rho.reshape(da, -1)).reshape(left.shape[0], db, da, db)
    if right is None:
        if left.shape[0] != da:
            raise DimensionMismatchError(f"operator of shape {left.shape} is not square")
        return np.einsum("ajal->jl", lr)
    right = np.asarray(right, dtype=complex)
    if right.shape != left.shape:
        raise DimensionMismatchError(
            f"right operator of shape {right.shape} does not match left operator of shape {left.shape}"
        )
    return np.einsum("ajkl,ak->jl", lr, right.conj())


def eigh(h, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as the corresponding columns. The output is deterministic:
    LAPACK ordering plus a phase fix that makes the largest-magnitude component
    of each eigenvector real and nonnegative.
    """
    m = require_hermitian(h, tol)
    m = (m + dagger(m)) / 2.0
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    w = w[::-1].astype(float)
    v = v[:, ::-1]
    _fix_phases(v.T)
    return w, v


def _fix_phases(rows: np.ndarray) -> list:
    """Make the largest-magnitude entry a of each row real and nonnegative, in place.

    Returns the factor conj(a)/|a| applied to each row (1 for a zero row), so
    a paired basis can take in its conjugate.
    """
    fixes = []
    for k, row in enumerate(rows):
        a = row[int(np.argmax(np.abs(row)))]
        fixes.append(np.conj(a) / abs(a) if abs(a) > 0.0 else 1.0)
        rows[k] = row * fixes[k]  # not `*=`: numpy's in-place loop can round differently
    return fixes


def frobenius_distance(a, b=None) -> float:
    a = np.asarray(a, dtype=complex)
    if b is not None:
        a = a - np.asarray(b, dtype=complex)
    return float(np.linalg.norm(a))


def fidelity_to_vector(v, rho) -> float:
    """<v|rho|v> for a unit vector and a density operator."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return float(np.real(np.conj(v) @ np.asarray(rho, dtype=complex) @ v))


def require_orthonormal_rows(basis, tol: float | None = None, name: str = "basis") -> np.ndarray:
    """Coerce to a complex array whose rows are orthonormal within tolerance."""
    b = np.asarray(basis, dtype=complex)
    gram = np.conj(b) @ b.T
    if frobenius_distance(gram, np.eye(b.shape[0])) > _tol(tol) * b.shape[0]:
        raise ValueError(f"{name} rows are not orthonormal")
    return b


def require_orthonormal_basis(basis, tol: float | None = None) -> np.ndarray:
    """Coerce to a square complex matrix whose rows form an orthonormal basis."""
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError(f"basis must be square (one row per vector), got shape {b.shape}")
    return require_orthonormal_rows(b, tol)


def sample_index(weights, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to `weights`, from one `rng.random()`."""
    weights = np.asarray(weights, dtype=float)
    draw = rng.random() * weights.sum()
    index = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
    return min(index, weights.size - 1)


def vectors_match(u, v, tol: float | None = None) -> bool:
    """Equality up to global phase: |<u|v>| = 1 within tolerance."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    return abs(abs(np.vdot(u, v)) - 1.0) <= _tol(tol)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


IDENTITY_2 = _readonly(np.eye(2, dtype=complex))
PAULI_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
