import inspect
import re
from types import SimpleNamespace

import numpy as np
import pytest

from qworlds import algebra, channels, entangle, protocols, qmat, worlds

from tests.oracles import (
    kron_by_loops,
    marginal_b_after_by_loops,
    partial_trace_by_loops,
    positivity_by_eigvalsh,
    rand_density,
    rand_pure,
    rand_unitary,
)
from tests.scoping import scoped_tolerance

NONFINITE = (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf))


def test_tensor_of_identities_is_identity():
    assert np.array_equal(qmat.kron_pairs(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_of_projectors_is_product_projector():
    s = 1 / np.sqrt(2)
    plus = np.array([s, s])
    minus = np.array([s, -s])
    left = qmat.kron_pairs(qmat.projector(plus), qmat.projector(minus))
    right = qmat.projector(np.kron(plus, minus))
    assert np.allclose(left, right, atol=1e-15)
    w = np.linalg.eigvalsh(left)
    assert np.sum(w > 1e-12) == 1


def test_tensor_sigma_z_sigma_x_matches_hand_expansion():
    expected = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, -1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(qmat.kron_pairs(qmat.PAULI_Z, qmat.PAULI_X), expected)


def test_tensor_matches_loop_expansion_on_random_pair():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.allclose(qmat.kron_pairs(a, b), kron_by_loops(a, b), atol=1e-13)


def test_tensor_associative():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 5]], dtype=complex)
    c = np.array([[2, 0], [7, 1]], dtype=complex)
    assert np.array_equal(qmat.kron_pairs(qmat.kron_pairs(a, b), c), qmat.kron_pairs(a, qmat.kron_pairs(b, c)))
    rng = np.random.default_rng(3)
    x, y, z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(qmat.kron_pairs(qmat.kron_pairs(x, y), z), qmat.kron_pairs(x, qmat.kron_pairs(y, z)), atol=1e-14)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(5)
    rho_a = rand_density(rng, 2)
    rho_b = rand_density(rng, 3)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(qmat.partial_trace(joint, (2, 3), "A"), rho_a, atol=1e-13)
    assert np.allclose(qmat.partial_trace(joint, (2, 3), "B"), rho_b, atol=1e-13)


def test_partial_trace_singlet_gives_maximally_mixed():
    s = 1 / np.sqrt(2)
    singlet = qmat.projector(np.array([0, s, -s, 0]))
    for keep in ("A", "B"):
        assert np.allclose(qmat.partial_trace(singlet, (2, 2), keep), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.allclose(qmat.partial_trace(m, (2, 3), "A"), partial_trace_by_loops(m, 2, 3, "A"), atol=1e-13)
    assert np.allclose(qmat.partial_trace(m, (2, 3), "B"), partial_trace_by_loops(m, 2, 3, "B"), atol=1e-13)


def test_partial_trace_marginals_share_spectrum_for_pure_states():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = rand_pure(rng, 6)
        rho = qmat.projector(psi)
        wa, _ = qmat.eigh(qmat.partial_trace(rho, (2, 3), "A"))
        wb, _ = qmat.eigh(qmat.partial_trace(rho, (2, 3), "B"))
        nza = wa[wa > 1e-10]
        nzb = wb[wb > 1e-10]
        assert nza.size == nzb.size
        assert np.allclose(nza, nzb[: nza.size], atol=1e-10)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for keep in ("A", "B"):
            assert abs(np.trace(qmat.partial_trace(m, (2, 3), keep)) - np.trace(m)) < 1e-9


def test_partial_trace_dimension_mismatch():
    with pytest.raises(qmat.DimensionMismatchError):
        qmat.partial_trace(np.eye(5), (2, 3), "A")


def test_partial_trace_keeps_side_a_or_b_only():
    for keep in (0, 1, "a", "b", None):
        with pytest.raises(ValueError, match="keep must be 'A' or 'B'"):
            qmat.partial_trace(np.eye(4), (2, 2), keep)


def test_eigh_identity():
    w, _ = qmat.eigh(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eigh_sigma_z():
    w, v = qmat.eigh(qmat.PAULI_Z)
    assert np.allclose(w, [1.0, -1.0])
    assert qmat.vectors_match(v[:, 0], [1, 0])
    assert qmat.vectors_match(v[:, 1], [0, 1])


def test_eigh_reconstructs_random_hermitian():
    rng = np.random.default_rng(41)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = z + np.conj(z).T
    w, v = qmat.eigh(h)
    rebuilt = (v * w) @ np.conj(v).T
    assert np.linalg.norm(rebuilt - h) < 1e-10
    assert np.allclose(np.conj(v).T @ v, np.eye(8), atol=1e-10)
    assert np.all(np.diff(w) <= 1e-12)


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValueError):
        qmat.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermiticity_survives_symbolically_hermitian_closure():
    rng = np.random.default_rng(7)
    z1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    z2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h1 = z1 + np.conj(z1).T
    h2 = z2 + np.conj(z2).T
    combos = [
        h1 + h2,
        h1 @ h2 + h2 @ h1,
        np.kron(h1, h2),
        np.kron(h1, h1) + np.kron(h2, h2),
    ]
    for h in combos:
        assert float(np.max(np.abs(h - qmat.dagger(h)))) < qmat.tolerance()


def test_unit_vector_validation():
    qmat.as_unit_vector([1, 0, 0])
    with pytest.raises(ValueError):
        qmat.as_unit_vector([1, 1])


def test_matrix_rejects_nonfinite_entries():
    for bad in NONFINITE:
        with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
            qmat.as_complex_matrix([[1, 0], [0, bad]])


def test_vector_rejects_nonfinite_entries():
    for bad in NONFINITE:
        with pytest.raises(ValueError, match="vector contains NaN or Inf entries"):
            qmat.as_unit_vector([1, bad])


def test_tolerance_override_roundtrip():
    assert qmat.tolerance() == qmat.DEFAULT_TOL
    qmat.set_tolerance(1e-7)
    try:
        assert qmat.tolerance() == 1e-7
    finally:
        qmat.set_tolerance(qmat.DEFAULT_TOL)
    with pytest.raises(ValueError):
        qmat.set_tolerance(-1.0)
    # a tolerance that is not finite or is below machine epsilon is refused
    try:
        for bad in (1e-17, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="machine epsilon"):
                qmat.set_tolerance(bad)
        assert qmat.tolerance() == qmat.DEFAULT_TOL
        qmat.set_tolerance(np.finfo(float).eps)
        assert qmat.tolerance() == np.finfo(float).eps
    finally:
        qmat.set_tolerance(qmat.DEFAULT_TOL)


def test_sample_index_draws_by_weight_from_one_random_number():
    weights = np.array([0.0, 0.3, 0.0, 0.7, 0.0])  # zero weights leading, in the middle and trailing
    counts = np.zeros(weights.size)
    for seed in range(10_000):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        index = qmat.sample_index(weights, rng)
        assert qmat.sample_index(weights, twin) == index  # the same seed draws the same index
        assert rng.random() == twin.random() == np.random.default_rng(seed).random(2)[1]  # one draw used
        counts[index] += 1
    assert counts[[0, 2, 4]].sum() == 0
    assert np.all(np.abs(counts / counts.sum() - weights) < 0.02)
    # draws that land exactly on a cumulative weight, which seeds almost never give, skip zero weights too
    for u, index in ((0.0, 1), (0.3, 3), (np.nextafter(1.0, 0.0), 3)):
        assert qmat.sample_index(weights, SimpleNamespace(random=lambda: u)) == index


@pytest.mark.parametrize("shape, row, member", [((300, 4), (7,), 7), ((2, 3, 4), (1, 2), 5)], ids=["2d", "3d"])
def test_sample_index_draws_each_row_of_a_stack_as_it_draws_the_row_alone(shape, row, member):
    weights = np.random.default_rng(5).random(shape)
    rows = weights.reshape(-1, 4)  # a view: the rows in C order, which a stack of any depth draws in
    rows[::3, 1] = 0.0
    rng, twin = np.random.default_rng(6), np.random.default_rng(6)
    got = qmat.sample_index(weights, rng)
    assert got.shape == shape[:-1]
    assert got.reshape(-1).tolist() == [qmat.sample_index(w, twin) for w in rows]
    assert rng.bit_generator.state == twin.bit_generator.state  # one draw per row, in row order
    weights[row + (2,)] = np.nan  # one check covers the stack, before any draw, and names the row's flat index
    with pytest.raises(ValueError, match=rf"^stack member {member}: weights must be finite, at least -τ and of positive sum"):
        qmat.sample_index(weights, None)


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [-1.0, 2.0], [0.0, 0.0], [np.inf, 1.0], [1.0, -np.inf], []])
def test_sample_index_rejects_weights_that_are_not_a_distribution(weights):
    with pytest.raises(ValueError, match=r"^weights must be finite, at least -τ and of positive sum, got \["):
        qmat.sample_index(weights, np.random.default_rng(0))
    # a weight within τ below zero is roundoff, and draws as a zero weight
    assert qmat.sample_index([-0.5 * qmat.tolerance(), 1.0], np.random.default_rng(0)) == 1


# the (s, t) checks that the runner `qmat._require_members` passes τ to, and the certificate `_positive` calls
_CHECKS_GIVEN_TAU = {"_finite", "_hermitian", "_unit_trace", "_cholesky_certifies", "_subnormalized"}


def test_no_library_function_takes_a_per_call_tolerance():
    # τ is one process-wide value: every check of a run compares against qmat.tolerance()
    assert not hasattr(qmat, "_tol")
    checked = []
    for module in (qmat, algebra, channels, entangle, protocols, worlds):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if name.startswith("_"):  # private functions too, but for the checks the runner passes τ to
                if inspect.isfunction(obj):
                    params = list(inspect.signature(obj).parameters)
                    if name in _CHECKS_GIVEN_TAU:
                        assert params == ["s", "t"], f"{module.__name__}.{name}"
                    else:
                        assert not {"t", "tol"} & set(params), f"{module.__name__}.{name}"
                    checked.append(name)
                continue
            members = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):  # its own public methods; inherited ones are checked on their class
                members = [
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))
                ]
            for qualname, fn in members:
                assert "tol" not in inspect.signature(fn).parameters, f"{module.__name__}.{qualname}"
                checked.append(qualname)
    assert {"require_density", "KrausChannel.is_trace_preserving", "teleport", "no_signaling_trial"} <= set(checked)
    assert _CHECKS_GIVEN_TAU <= set(checked)
    assert {"_require_members", "_kraus_totals", "_marginal_shifts", "_require_average"} <= set(checked)


def _off_identity(delta: float) -> np.ndarray:
    """K = diag(sqrt(1 - δ), 1, 1): K^dag K and the Gram matrix of K's rows lie δ (Frobenius) from the identity."""
    return np.diag([np.sqrt(1.0 - delta), 1.0, 1.0]).astype(complex)


# each user of the identity test `qmat._near_identity`, by the message it raises, run on a 3x3 K
_NEAR_IDENTITY_USERS = {
    "basis rows are not orthonormal": qmat.require_orthonormal_rows,
    "channel is not trace preserving (selective operation)": lambda k: channels.apply_nonselective(
        channels.KrausChannel([k]), np.eye(3) / 3
    ),
    "selective channel rejected: no-signaling holds for nonselective operations": lambda k: (
        protocols.no_signaling_trial(entangle.BipartiteState(np.eye(6) / 6, (3, 2)), channels.KrausChannel([k]))
    ),
    "effects do not sum to the identity": lambda k: channels.GeneralizedMeasurement([qmat.dagger(k) @ k]),
}


@pytest.mark.parametrize("message", list(_NEAR_IDENTITY_USERS))
@pytest.mark.parametrize("t", [qmat.DEFAULT_TOL, 1e-4])
def test_each_identity_check_passes_within_tau_times_dim_and_words_its_failure(message, t):
    run = _NEAR_IDENTITY_USERS[message]
    with scoped_tolerance(t):
        run(_off_identity(0.5 * t * 3))  # half the edge τ·dim passes
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(_off_identity(2.0 * t * 3))  # twice the edge raises


def _rand_op(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_marginal_b_after_matches_kron_oracle():
    rng = np.random.default_rng(31)
    for da, db in ((2, 2), (2, 3), (3, 2), (4, 4), (8, 8)):
        rho = rand_density(rng, da * db)
        left, right = _rand_op(rng, da, da), _rand_op(rng, da, da)
        got = qmat.marginal_b_after(left, rho, (da, db), right)
        assert np.max(np.abs(got - marginal_b_after_by_loops(left, rho, db, right))) < 1e-12
        got = qmat.marginal_b_after(left, rho, (da, db))
        assert np.max(np.abs(got - marginal_b_after_by_loops(left, rho, db))) < 1e-12
        # stacked operators (m != dA) sum the branches they stack
        tall = _rand_op(rng, 3 * da, da)
        got = qmat.marginal_b_after(tall, rho, (da, db), tall)
        assert np.max(np.abs(got - marginal_b_after_by_loops(tall, rho, db, tall))) < 1e-12


def test_marginal_b_after_dimension_mismatch():
    rho = np.eye(6, dtype=complex) / 6
    op = np.eye(2, dtype=complex)
    with pytest.raises(qmat.DimensionMismatchError):
        qmat.marginal_b_after(op, rho, (2, 2))  # rho is not 4x4
    with pytest.raises(qmat.DimensionMismatchError):
        qmat.marginal_b_after(np.eye(3), rho, (2, 3))  # L acts on dim 3, A has dim 2
    with pytest.raises(qmat.DimensionMismatchError):
        qmat.marginal_b_after(op, rho, (2, 3), np.ones((4, 2)))  # R shape differs from L
    with pytest.raises(qmat.DimensionMismatchError):
        qmat.marginal_b_after(np.ones((4, 2)), rho, (2, 3))  # Tr_A[(L x I) rho] needs square L


def test_stacked_kernels_match_per_item_calls_bit_for_bit():
    rng = np.random.default_rng(43)
    for da, db in ((2, 2), (2, 3), (3, 2), (4, 4)):
        n = 7
        rho = np.stack([rand_density(rng, da * db) for _ in range(n)])
        for keep in ("A", "B"):
            want = [qmat.partial_trace(r, (da, db), keep) for r in rho]
            assert np.array_equal(qmat.partial_trace(rho, (da, db), keep), want)
        tall = np.stack([_rand_op(rng, 3 * da, da) for _ in range(n)])
        want = [qmat.marginal_b_after(k, r, (da, db), k) for k, r in zip(tall, rho)]
        assert np.array_equal(qmat.marginal_b_after(tall, rho, (da, db), tall), want)
        square = tall[:, :da]
        want = [qmat.marginal_b_after(k, r, (da, db)) for k, r in zip(square, rho)]
        assert np.array_equal(qmat.marginal_b_after(square, rho, (da, db)), want)
        w, v = qmat.eigh(rho)
        per_item = [qmat.eigh(r) for r in rho]
        assert np.array_equal(w, [x for x, _ in per_item])
        assert np.array_equal(v, [y for _, y in per_item])
        a, b = tall[:, :da], np.stack([_rand_op(rng, db, db) for _ in range(n)])
        assert np.array_equal(qmat.kron_pairs(a, b), [np.kron(x, y) for x, y in zip(a, b)])


def _bad_members(rng):
    good = rand_density(rng, 4)
    nonhermitian = good.copy()
    nonhermitian[0, 1] += 0.1
    nan = good.copy()
    nan[1, 1] = np.nan
    return {
        "nonhermitian": nonhermitian,
        "trace": 1.2 * good,
        "negative": np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),
        "nan": nan,
    }


@pytest.mark.parametrize("defect", ["nonhermitian", "trace", "negative", "nan"])
@pytest.mark.parametrize("position", [0, 3, 6])
def test_stacked_density_check_names_the_bad_member_with_the_single_matrix_message(defect, position):
    rng = np.random.default_rng(47)
    bad = _bad_members(rng)[defect]
    stack = np.stack([rand_density(rng, 4) for _ in range(7)])
    stack[position] = bad
    with pytest.raises(ValueError) as single:
        qmat.require_density(bad)
    with pytest.raises(type(single.value)) as stacked:
        qmat._require_densities(stack)
    assert str(stacked.value) == f"stack member {position}: {single.value}"


def test_stacked_density_check_fails_where_a_loop_over_the_members_fails_first():
    rng = np.random.default_rng(53)
    bad = _bad_members(rng)
    stack = np.stack([rand_density(rng, 4) for _ in range(7)])
    # member 2 fails a late check (PSD), member 5 an early one (finiteness)
    stack[2], stack[5] = bad["negative"], bad["nan"]
    with pytest.raises(ValueError, match=r"^stack member 2: density operator has negative eigenvalue"):
        qmat._require_densities(stack)
    # the public validator keeps its 2-D contract
    with pytest.raises(ValueError, match="expected a nonempty 2-D matrix"):
        qmat.require_density(stack)
    qmat._require_densities(np.delete(stack, [2, 5], axis=0))


# -- positivity: the Cholesky certificate and its eigvalsh fallback


def _with_spectrum(rng, w) -> np.ndarray:
    """Exactly Hermitian matrix with eigenvalues `w` in a Haar-random basis."""
    u = rand_unitary(rng, len(w))
    h = (u * w) @ np.conj(u).T
    return (h + np.conj(h).T) / 2.0


def _cholesky_at_its_error_bound(a):
    """Stand-in for np.linalg.cholesky that completes wherever its backward-error bound allows.

    A factorization that completes is exact for some A + ΔA with
    ‖ΔA‖₂ ≤ γ_{n+1}·n·‖A‖₂ (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10). So this completes on every member whose
    smallest eigenvalue is at least -2·n·(n+1)·ε·‖A‖₂, the 2 allowing for
    complex arithmetic, and raises as LAPACK does otherwise. It returns no
    factor: the positivity check reads only whether it completes.
    """
    n = a.shape[-1]
    w = np.linalg.eigvalsh(a)
    slack = 2 * n * (n + 1) * np.finfo(float).eps * abs(w).max(axis=-1)
    if (w[..., 0] < -slack).any():
        raise np.linalg.LinAlgError("Matrix is not positive definite")


@pytest.fixture(params=["lapack", "at its error bound"])
def certificates(request, monkeypatch):
    """Run with numpy's Cholesky or the stand-in at its error bound; list the factorizations that complete."""
    factor = np.linalg.cholesky if request.param == "lapack" else _cholesky_at_its_error_bound
    done = []

    def cholesky(a):
        factor(a)
        done.append(a.shape)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    return done


def _assert_positivity_verdict(run, s, t, name):
    """`run()` passes exactly where the eigenvalue rule passes `s`, and fails with its message."""
    w, ok = positivity_by_eigvalsh(s, t)
    if ok.all():
        run()
        return
    with pytest.raises(ValueError) as failure:
        run()
    if s.ndim == 2:
        assert str(failure.value) == f"{name} has negative eigenvalue {float(w)}"
    else:
        k = int(np.argmin(ok))
        assert str(failure.value) == f"stack member {k}: {name} has negative eigenvalue {float(w[k])}"


@pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-4])
@pytest.mark.parametrize("n", [9, 16, 64])
def test_positivity_verdicts_match_the_eigenvalue_rule_near_minus_tau(n, t, certificates):
    # smallest eigenvalue within 10τ of -τ on either side, the rest positive
    rng = np.random.default_rng(n * 100 + round(-np.log10(t)))
    densities, effects = [], []
    for _ in range(6):
        w = rng.uniform(0.01, 1.0, n)
        w[0] = -t + rng.uniform(-10 * t, 10 * t)
        w[1:] *= (1.0 - w[0]) / w[1:].sum()  # unit trace
        densities.append(_with_spectrum(rng, w))
        w[1:] *= 0.8 / (6 * w[1:].max())  # six effects leave the identity a positive remainder
        effects.append(_with_spectrum(rng, w))
    densities, effects = np.stack(densities), np.stack(effects)
    _, dense_ok = positivity_by_eigvalsh(densities, t)
    _, effect_ok = positivity_by_eigvalsh(effects, t)
    assert 0 < dense_ok.sum() < 6 and 0 < effect_ok.sum() < 6
    with scoped_tolerance(t):
        for rho in densities:
            _assert_positivity_verdict(lambda: qmat.require_density(rho), rho, t, "density operator")
        for stack in (densities, densities[dense_ok], np.asfortranarray(densities)):
            _assert_positivity_verdict(lambda: qmat._require_densities(stack), stack, t, "density operator")
        for stack in (effects, effects[effect_ok]):
            povm = np.concatenate([stack, [np.eye(n) - stack.sum(axis=0)]])
            _assert_positivity_verdict(lambda: channels.GeneralizedMeasurement(povm), povm, t, "effect")
    # at τ = 1e-12 the guard keeps the certificate off every member; above it, it passed some
    assert bool(certificates) == (t > 1e-12)


@pytest.mark.parametrize("name", ["density operator", "effect"])
def test_positivity_failure_at_16x16_names_the_first_negative_member_with_its_eigenvalue(name):
    rng = np.random.default_rng(59)
    stack = np.stack([rand_density(rng, 16) for _ in range(5)])
    for k in (2, 4):
        w = rng.uniform(0.01, 1.0, 16)
        w[0] = -1e-3
        stack[k] = _with_spectrum(rng, w / w.sum())
    run = {
        "density operator": lambda: qmat._require_densities(stack),
        "effect": lambda: channels.GeneralizedMeasurement(stack),
    }[name]
    with pytest.raises(ValueError) as failure:
        run()
    lowest, _ = positivity_by_eigvalsh(stack[2], qmat.tolerance())
    assert str(failure.value) == f"stack member 2: {name} has negative eigenvalue {float(lowest)}"


def test_positivity_at_machine_epsilon_makes_no_cholesky_call(monkeypatch):
    factor, calls = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or factor(a))
    rho = np.eye(16, dtype=complex) / 16  # unit trace and sixteen of them the identity, exactly

    def check():
        qmat.require_density(rho)
        qmat._require_densities(np.stack([rho, rho]))
        channels.GeneralizedMeasurement([rho] * 16)

    with scoped_tolerance(np.finfo(float).eps):
        check()
    assert calls == []
    check()  # at the default τ the same checks are certified
    assert calls == [(16, 16), (2, 16, 16), (16, 16, 16)]


def test_large_norm_effect_with_an_eigenvalue_below_minus_tau_is_rejected(certificates):
    # a Cholesky factorization of a matrix of norm 1e6 may complete although an
    # eigenvalue lies 1e-7 below zero; the norm factor of the guard keeps it off
    t = qmat.tolerance()
    h = _with_spectrum(np.random.default_rng(61), np.r_[-1.5 * t, np.geomspace(1.0, 1e6, 15)])
    lowest, ok = positivity_by_eigvalsh(h, t)
    assert not ok and 1e6 <= np.linalg.norm(h) < 1.1e6
    with pytest.raises(ValueError) as failure:
        channels.GeneralizedMeasurement([h])
    assert str(failure.value) == f"stack member 0: effect has negative eigenvalue {float(lowest)}"


def test_stacked_frobenius_norms_equal_frobenius_distance_bit_for_bit():
    rng = np.random.default_rng(61)
    for d in (2, 3, 4, 8):
        scale = 10.0 ** rng.uniform(-17, 0, size=(600, 1, 1))
        a = (rng.normal(size=(600, d, d)) + 1j * rng.normal(size=(600, d, d))) * scale
        norms = qmat._frobenius_norms(a.reshape(60, 10, d, d))
        assert norms.shape == (60, 10)
        assert norms.reshape(-1).tolist() == [qmat.frobenius_distance(m) for m in a]
