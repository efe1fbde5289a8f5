"""Dense complex linear algebra for small operators (dims <= 64).

Everything here works on plain numpy arrays with complex128 entries.
Vectors are 1-D arrays, operators are square 2-D arrays, and sequences
of basis vectors are stored as rows of a 2-D array.

The kernels `dagger`, `kron_pairs`, `partial_trace`, `marginal_b_after`
and `eigh`, and the check `require_orthonormal_rows`, also take a stack of
operators: they work over the last two axes, and a 2-D operator is a stack
of one; `sample_index` takes a stack of weight rows, of any depth, and
draws them from one generator as it would draw the rows one by one.
The public validators (`as_complex_matrix`, `require_hermitian`,
`require_density`) take one 2-D matrix. Every check is written once, over
the last two axes, and run by the one runner `_require_members`, which
reads τ, on a stack or on a validator's one matrix; a failing stack raises
the single-matrix message prefixed with "stack member k:", k the index of
its first failing member. `_near_identity` is the one identity test
(within τ·dim): orthonormal rows, trace preservation, POVM completeness.

Ensemble members, POVM effects and Kraus operators are each held as one
read-only (n, rows, cols) stack, built and checked once by `_member_stack`.

Positivity of density operators and POVM effects (no eigenvalue of the
Hermitian part H below -τ) is certified for members of 9x9 and up by a
Cholesky factorization of H + (τ/2)·I, where τ lies far enough above
ε·‖H‖_F (`_cholesky_certifies`). Any stack it does not pass goes to
`eigvalsh`, which decides the verdict and words the failure, so verdicts
and messages are those of the eigenvalue rule.
"""

from __future__ import annotations

import weakref
from contextvars import ContextVar

import numpy as np

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

_tolerance = DEFAULT_TOL  # the process default τ
_scoped = ContextVar("tolerance")  # the τ of a context that scopes its own
_KEPT = weakref.WeakKeyDictionary()  # owner -> {slot: ((inputs, τ), what was built)}; see `_kept`


class DimensionMismatchError(ValueError):
    """Operands do not have the dimensions an operation requires."""


class ConvergenceError(RuntimeError):
    """Eigendecomposition failed to converge within its iteration budget."""


def tolerance() -> float:
    """τ for every invariant check: the current context's own if it scopes one, else the process default."""
    return _scoped.get(_tolerance)


def set_tolerance(value: float) -> None:
    """Set the process default τ, which every thread reads outside a scoped run (`cli.run_scenario`).

    The tolerance must be finite and at least machine epsilon: below that, one
    rounding step in a state the library builds itself fails its unit-norm or
    unit-trace check.
    """
    global _tolerance
    _tolerance = _checked_tolerance(value)


def _checked_tolerance(value: float) -> float:
    value = float(value)
    if not (_EPS <= value < np.inf):
        raise ValueError(f"tolerance must be finite and at least machine epsilon {_EPS:.4g}, got {value}")
    return value


def _kept(owner, slot: str, build, *inputs):
    """`build()` at the current τ, kept by `owner` in `slot` for the latest (inputs, τ) only.

    `inputs` is what `build` reads beside `owner` and τ. The entry lives as long as `owner` (a module for
    what the process shares), so it must not refer to it. The store is not read after building: runs at
    two τ may both build, but each gets what it built.
    """
    key = inputs, tolerance()
    slots = _KEPT.get(owner) or _KEPT.setdefault(owner, {})  # `setdefault` alone makes a weakref per call
    entry = slots.get(slot)
    if entry is None or entry[0] != key:
        entry = slots[slot] = key, build()
    return entry[1]


def _operands(entries, stack: bool) -> np.ndarray:
    """Complex array of one matrix, or with `stack` of a stack of matrices; shape only."""
    m = np.asarray(entries, dtype=complex)
    if (m.ndim < 2 if stack else m.ndim != 2) or 0 in m.shape:
        what = "matrix or stack of matrices" if stack else "2-D matrix"
        raise ValueError(f"expected a nonempty {what}, got shape {m.shape}")
    return m


def _require_members(m: np.ndarray, *checks) -> np.ndarray:
    """The one check runner: `m`, a matrix or a stack of matrices, if every member passes every check.

    The runner reads τ. A check maps `s`, one matrix or a stack of shape
    (n, r, c), and τ to whether each member passes it (a scalar for one
    matrix) and a function giving, for member k (`()` for one matrix), the
    failure as an exception with the single-matrix message. Each member meets
    the checks in order and only while it passes, so a stack fails where a
    loop over its members would fail first. For a stack the message names it.
    """
    s = m if m.ndim <= 3 else m.reshape((-1,) + m.shape[-2:])
    t = tolerance()
    single = s.ndim == 2
    first, failure = None, None
    for check in checks:
        ok, fail = check(s, t)
        # a numpy bool tests as fast as a Python one; ok.all() costs microseconds
        if ok if single else np.count_nonzero(ok) == len(s):
            continue
        first = () if single else int(np.argmin(ok))
        failure = fail(first)
        if first in ((), 0):
            break
        s = s[:first]  # later checks only need the members before this failure
    if failure is None:
        return m
    if single:
        raise failure
    raise type(failure)(f"stack member {first}: {failure}")


def _finite(s: np.ndarray, t: float):
    return np.isfinite(s).all(axis=(-2, -1)), lambda k: _nonfinite_error()


def _nonfinite_error() -> ValueError:
    return ValueError("matrix contains NaN or Inf entries")


def _hermitian(s: np.ndarray, t: float):
    """Finite entries, a square shape, and Hermiticity within τ, checked in that order.

    One pass serves all three: a non-finite entry makes the deviation from
    Hermiticity NaN or infinite, which fails the comparison with τ, so
    finiteness is only looked at to word a failure.
    """
    if s.shape[-2] != s.shape[-1]:
        ok = np.zeros(s.shape[:-2], dtype=bool)
        failure = DimensionMismatchError(f"operator must be square, got shape {s.shape[-2:]}")
        return ok, lambda k: failure if np.isfinite(s[k]).all() else _nonfinite_error()
    dev = abs(s - dagger(s)).max(axis=(-2, -1))
    return dev <= t, lambda k: (
        ValueError(f"operator deviates from Hermiticity by {float(dev[k])}")
        if np.isfinite(s[k]).all()
        else _nonfinite_error()
    )


def _unit_trace(s: np.ndarray, t: float):
    tr = s.trace(0, -2, -1).real
    return (
        abs(tr - 1.0) <= t,
        lambda k: ValueError(f"density operator trace {float(tr[k])} is not 1 within tolerance"),
    )


def _positive(name: str):
    """Check that the Hermitian part of each member has no eigenvalue below -τ."""

    def check(s: np.ndarray, t: float):
        if _cholesky_certifies(s, t):
            return np.ones(s.shape[:-2], dtype=bool), None
        w = np.linalg.eigvalsh((s + dagger(s)) / 2.0)[..., 0]
        return w >= -t, lambda k: ValueError(f"{name} has negative eigenvalue {float(w[k])}")

    return check


# The whole check, one matrix, one BLAS thread (numpy 2.4, OpenBLAS 0.3.31,
# x86-64): eigvalsh 13 µs at 8x8, where Cholesky with its guard takes 15; at
# 9x9 the two cost about the same, at 16x16 24 against 18 µs, at 64x64 280 against 86.
_CHOLESKY_MIN_DIM = 9


def _cholesky_certifies(s: np.ndarray, t: float) -> bool:
    """Whether a Cholesky factorization proves that no member's Hermitian part H has an eigenvalue below -τ.

    A factorization of A = H + (τ/2)·I that completes is exact for some
    A + ΔA with ‖ΔA‖₂ ≤ γ_{n+1}·tr(A + ΔA) ≲ (n+1)·√n·ε·‖A‖_F (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10), so
    λ_min(H) ≥ -τ/2 - ‖ΔA‖₂. Only where τ ≥ 10³·n·ε·max(1, ‖H‖_F) for every
    member, which keeps ‖ΔA‖₂ below τ/30 up to n = 64, is that at least -τ.
    The norm factor matters: effects are checked before anything bounds
    their norm. False decides nothing: the factorization failed, or the
    members are too small or τ too close to ε for it to be tried.
    """
    n = s.shape[-1]
    max_norm = t / (1e3 * n * _EPS)  # the largest ‖H‖_F the guard allows, once it is at least 1
    if n < _CHOLESKY_MIN_DIM or max_norm < 1.0:
        return False
    # C order, whatever the caller's layout: the view and reshape below rely on it
    a = np.ascontiguousarray((s + dagger(s)) / 2.0)
    v = a.view(float)  # ‖H‖_F² is the sum of the squared real and imaginary parts
    # a NaN norm fails the comparison, so non-finite members are left to eigvalsh
    if not (np.einsum("...ij,...ij->...", v, v) <= max_norm * max_norm).all():
        return False
    a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] += t / 2.0  # the diagonal, in place
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


_DENSITY = (_hermitian, _unit_trace, _positive("density operator"))


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a 2-D complex matrix, rejecting non-finite entries."""
    return _require_members(_operands(entries, stack=False), _finite)


def as_unit_vector(amplitudes) -> np.ndarray:
    """Coerce to a 1-D complex vector with unit norm within tolerance."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(v).all():
        raise ValueError("vector contains NaN or Inf entries")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tolerance():
        raise ValueError(f"vector norm {norm} is not 1 within tolerance")
    return v


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.conj(m).swapaxes(-1, -2)


def require_hermitian(m) -> np.ndarray:
    return _require_members(_operands(m, stack=False), _hermitian)


def require_density(rho) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD, and unit trace within tolerance."""
    return _require_members(_operands(rho, stack=False), *_DENSITY)


def _require_densities(rho) -> np.ndarray:
    """`require_density` for a stack of density operators along the leading axes."""
    return _require_members(_operands(rho, stack=True), *_DENSITY)


def _member_stack(members, empty: str, mismatch: str, *checks) -> np.ndarray:
    """Read-only (n, r, c) copy of a collection of matrices, with shapes checked first.

    No member raises `ValueError(empty)` and mixed shapes `DimensionMismatchError(mismatch)`;
    then one `_require_members` call runs the checks on the whole stack.
    """
    ms = [_operands(m, stack=False) for m in members]
    if not ms:
        raise ValueError(empty)
    if any(m.shape != ms[0].shape for m in ms):
        raise DimensionMismatchError(mismatch)
    return _readonly(_require_members(np.stack(ms), *checks))


def projector(v) -> np.ndarray:
    """Rank-1 projector |v><v| from a vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, np.conj(v))


def kron_pairs(a, b) -> np.ndarray:
    """Kronecker product of matching members of two stacks, A index major.

    Over the last two axes, so two matrices give `np.kron(a, b)` bit for bit;
    the leading axes broadcast.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def partial_trace(m, dims: tuple[int, int], keep) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator, keeping the other.

    `dims` is (dA, dB) with the A index major; `keep` names the surviving
    subsystem, "A" or "B". The total trace is preserved. Over the last two
    axes: a stack of operators gives the stack of their partial traces.
    """
    m = _require_members(_operands(m, stack=True), _finite)
    da, db = int(dims[0]), int(dims[1])
    if m.shape[-2:] != (da * db, da * db):
        raise DimensionMismatchError(
            f"operator of shape {m.shape} does not match subsystem dims {da}x{db}"
        )
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if keep == "A":
        return t.trace(0, -3, -1)
    if keep == "B":
        return t.trace(0, -4, -2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def marginal_b_after(left, rho, dims: tuple[int, int], right=None) -> np.ndarray:
    """Bob's operator Tr_A[(L x I) rho (R x I)^dagger], without forming L x I.

    `dims` is (dA, dB) with the A index major, as in `partial_trace`. L and R
    have shape (m, dA): they map A into an m-dimensional space that is traced
    out, so a stack of Kraus operators gives the sum over its branches.
    `right=None` gives Tr_A[(L x I) rho] and needs a square L. The cost is
    O(m dA^2 dB^2), against O(dA^3 dB^3) for multiplying by L x I. Over the
    last two axes: leading axes of L, rho and R broadcast. Shapes are
    checked, entries are not: pass operators that were validated.
    """
    da, db = int(dims[0]), int(dims[1])
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (da * db, da * db):
        raise DimensionMismatchError(
            f"operator of shape {rho.shape} does not match subsystem dims {da}x{db}"
        )
    left = np.asarray(left, dtype=complex)
    if left.ndim < 2 or left.shape[-1] != da:
        raise DimensionMismatchError(f"operator of shape {left.shape} does not act on side A of dim {da}")
    # rows of rho's (dA, dB dA dB) view are the A row index: L acts on it alone
    lr = left @ rho.reshape(rho.shape[:-2] + (da, -1))
    lr = lr.reshape(lr.shape[:-2] + (left.shape[-2], db, da, db))
    if right is None:
        if left.shape[-2] != da:
            raise DimensionMismatchError(f"operator of shape {left.shape} is not square")
        return lr.trace(0, -4, -2)
    right = np.asarray(right, dtype=complex)
    if right.shape[-2:] != left.shape[-2:]:
        raise DimensionMismatchError(
            f"right operator of shape {right.shape} does not match left operator of shape {left.shape}"
        )
    return np.einsum("...ajkl,...ak->...jl", lr, right.conj())


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator, or of each in a stack.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as the corresponding columns. The output is deterministic:
    LAPACK ordering plus a phase fix that makes the largest-magnitude component
    of each eigenvector real and nonnegative. Over the last two axes, with
    the Hermiticity check of `require_hermitian` for each member.
    """
    return _eigh(_require_members(_operands(h, stack=True), _hermitian))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eigh` without its check, for operators the caller has just checked Hermitian at τ."""
    m = (m + dagger(m)) / 2.0
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    w = w[..., ::-1].astype(float)
    v = v[..., ::-1]
    _fix_phases(v.swapaxes(-1, -2))
    return w, v


def _fix_phases(rows: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry a of each row real and nonnegative, in place.

    Over the last two axes. Returns the factor conj(a)/|a| applied to each
    row (1 for a zero row), so a paired basis can take in its conjugate.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    a = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=-1)].reshape(rows.shape[:-1] + (1,))
    # |a| as the scalar abs computes it (hypot): numpy's vectorized complex
    # abs can differ from it in the last bit
    size = np.hypot(a.real, a.imag)
    fixes = np.divide(np.conj(a), size, out=np.ones(a.shape, dtype=complex), where=size > 0.0)
    rows[...] = rows * fixes  # not `*=`: numpy's in-place loop can round differently
    return fixes[..., 0]


def frobenius_distance(a, b=None) -> float:
    a = np.asarray(a, dtype=complex)
    if b is not None:
        a = a - np.asarray(b, dtype=complex)
    return float(np.linalg.norm(a))


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """`frobenius_distance` of each member of a stack, bit for bit: row times column is `norm`'s dot."""
    v = a.reshape(a.shape[:-2] + (1, -1))  # summing elementwise squares would round differently
    return np.sqrt((v.real @ v.real.swapaxes(-1, -2) + v.imag @ v.imag.swapaxes(-1, -2))[..., 0, 0])


def fidelity_to_vector(v, rho) -> float:
    """<v|rho|v> for a unit vector and a density operator."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return float(np.real(np.conj(v) @ np.asarray(rho, dtype=complex) @ v))


def _near_identity(message: str):
    """Check that each member is the identity within τ times its dim: the one identity test, failing as `message`."""

    def check(s: np.ndarray, t: float):
        n = s.shape[-1]
        return np.linalg.norm(s - np.eye(n), axis=(-2, -1)) <= t * n, lambda k: ValueError(message)

    return check


def require_orthonormal_rows(basis, name: str = "basis") -> np.ndarray:
    """Coerce to a complex array whose rows are orthonormal within tolerance: whose Gram matrix is near the identity.

    Over the last two axes: each member of a stack of bases is checked.
    """
    b = _operands(basis, stack=True)
    _require_members(np.conj(b) @ b.swapaxes(-1, -2), _near_identity(f"{name} rows are not orthonormal"))
    return b


def require_orthonormal_basis(basis) -> np.ndarray:
    """Coerce to a square complex matrix whose rows form an orthonormal basis."""
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError(f"basis must be square (one row per vector), got shape {b.shape}")
    return require_orthonormal_rows(b)


def sample_index(weights, source) -> int | np.ndarray:
    """Index drawn from one `source.random()`, with probability ∝ `weights`: finite, each ≥ -τ, of positive sum.

    `source` is a numpy `Generator`. Over the last axis: a stack of T rows, of
    any shape (..., n), draws them in C order with the T values of one
    `source.random(shape[:-1])`, which equal T successive `source.random()`
    calls, so a stack draws as its rows would one by one. The stack is checked
    as one, and a failing row is named by its flat index as "stack member k".
    """
    weights = np.asarray(weights, dtype=float)
    single = weights.ndim == 1
    total = weights.sum(axis=-1)
    # pass-tests, so that NaN fails them; an empty row fails on its sum
    ok = (0.0 < total) & (total < np.inf) & (weights.min(axis=-1, initial=np.inf) >= -tolerance())
    if not (ok if single else np.count_nonzero(ok) == ok.size):  # a numpy bool tests faster than ok.all()
        k = () if single else int(np.argmin(ok))
        row = weights if single else weights.reshape(-1, weights.shape[-1])[k]
        message = f"weights must be finite, at least -τ and of positive sum, got {row.tolist()}"
        raise ValueError(message if single else f"stack member {k}: {message}")
    draws = source.random() if single else source.random(weights.shape[:-1])
    # the number of cumulative weights at or below the draw: a search, side="right", of each row
    index = (weights.cumsum(axis=-1) <= (draws * total)[..., None]).sum(axis=-1)
    return min(int(index), weights.size - 1) if single else np.minimum(index, weights.shape[-1] - 1)


def vectors_match(u, v) -> bool:
    """Equality up to global phase: |<u|v>| = 1 within tolerance."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    return abs(abs(np.vdot(u, v)) - 1.0) <= tolerance()


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


PAULI_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
