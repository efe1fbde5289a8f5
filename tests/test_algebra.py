import dataclasses

import numpy as np
import pytest

from qworlds import algebra, qmat
from qworlds.algebra import (
    AlgebraState,
    BlockAlgebra,
    CloneRefusal,
    broadcast_check,
    classical_broadcaster,
    clone_orthogonal_pair,
    is_commutative,
)
from qworlds.channels import KrausChannel, apply_nonselective

from tests.oracles import classical_broadcaster_by_row, rand_density, rand_pure, rand_unitary
from tests.scoping import scoped_tolerance

SQRT_HALF = 1 / np.sqrt(2)


def test_commutativity_by_block_dims():
    assert is_commutative(BlockAlgebra((1, 1, 1)))
    assert not is_commutative(BlockAlgebra((2,)))
    assert not is_commutative(BlockAlgebra((1, 2)))


def test_noncommutative_block_has_noncommuting_witness():
    # two elements supported on the M_2 block of the (1, 2) algebra
    e01 = np.zeros((3, 3), dtype=complex)
    e01[1, 2] = 1.0
    e10 = e01.T.copy()
    assert qmat.frobenius_distance(e01 @ e10, e10 @ e01) > 0.5


def test_block_algebra_validation():
    with pytest.raises(ValueError):
        BlockAlgebra(())
    with pytest.raises(ValueError):
        BlockAlgebra((0, 2))


def commute(a, b) -> bool:
    return qmat.frobenius_distance(a @ b, b @ a) <= qmat.tolerance() * a.shape[0]


def test_kinematic_independence_of_tensor_factors():
    sz_i, sx_i = qmat.kron_pairs([qmat.PAULI_Z, qmat.PAULI_X], np.eye(2))
    i_sx = qmat.kron_pairs(np.eye(2), qmat.PAULI_X)
    assert commute(sz_i, i_sx) and commute(sx_i, i_sx)
    assert not commute(sz_i, sx_i)


def test_kinematic_independence_over_full_operator_bases():
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    a_ops = qmat.kron_pairs(units, np.eye(2))
    b_ops = qmat.kron_pairs(np.eye(2), units)
    assert all(commute(a, b) for a in a_ops for b in b_ops)
    assert not all(commute(a, b) for a in a_ops for b in a_ops)


def test_kinematic_independence_dimension_mismatch():
    # an operator is applied to one factor of a joint space only if it fits that factor
    joint = np.eye(4, dtype=complex) / 4
    with pytest.raises(qmat.DimensionMismatchError, match="side A of dim 2"):
        qmat.marginal_b_after(np.eye(4), joint, (2, 2))
    with pytest.raises(qmat.DimensionMismatchError):
        qmat.partial_trace(np.eye(2), (2, 2), "A")


def test_algebra_state_invariants():
    algebra = BlockAlgebra((1, 2))
    state = AlgebraState(algebra, [0.25, 0.75], (np.eye(1), np.eye(2) / 2))
    assert np.isclose(np.trace(state.to_density()).real, 1.0)
    with pytest.raises(ValueError):
        AlgebraState(algebra, [0.5, 0.6], (np.eye(1), np.eye(2) / 2))
    with pytest.raises(ValueError):
        AlgebraState(algebra, [0.5, 0.5], (np.eye(1), np.eye(2)))  # trace 2 block
    with pytest.raises(ValueError, match="block weights sum to nan, not 1"):
        AlgebraState(BlockAlgebra((1, 1)), [np.nan, np.nan], (np.eye(1), np.eye(1)))
    # an extra density is an error, not dropped
    with pytest.raises(qmat.DimensionMismatchError, match="one density per block is required"):
        AlgebraState(BlockAlgebra((1,)), [1.0], (np.eye(1), np.eye(1)))
    # immutable: a reassigned or edited weight would bypass the checks above
    s = AlgebraState(BlockAlgebra((1, 1)), [0.5, 0.5], (np.eye(1), np.eye(1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.weights = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        s.weights[0] = 7.0
    assert np.array_equal(s.weights, [0.5, 0.5])
    # the state holds copies: the caller's later writes do not reach it
    block = np.eye(2, dtype=complex) / 2  # complex128: validated without a copy
    state = AlgebraState(algebra, [0.25, 0.75], (np.eye(1), block))
    block[0, 0] = 7.0
    assert block.flags.writeable and state.densities[1][0, 0] == 0.5
    with pytest.raises(ValueError):
        state.densities[1][0, 0] = 7.0



def is_idempotent(rho) -> bool:
    return qmat.frobenius_distance(rho @ rho, rho) <= qmat.tolerance() * rho.shape[0]


def test_pure_state_flag_iff_single_idempotent_block():
    algebra = BlockAlgebra((1, 2))
    pure = AlgebraState(algebra, [0.0, 1.0], (np.eye(1), np.diag([1.0, 0.0]).astype(complex)))
    mixed_density = AlgebraState(algebra, [0.0, 1.0], (np.eye(1), np.eye(2) / 2))
    split_weight = AlgebraState(algebra, [0.5, 0.5], (np.eye(1), np.diag([1.0, 0.0]).astype(complex)))
    assert is_idempotent(pure.to_density())
    assert not is_idempotent(mixed_density.to_density())
    assert not is_idempotent(split_weight.to_density())


def test_classical_state_lives_on_all_one_blocks():
    state = AlgebraState(BlockAlgebra((1, 1, 1)), [0.2, 0.3, 0.5], (np.eye(1),) * 3)
    assert is_commutative(state.algebra)
    assert np.allclose(state.to_density(), np.diag([0.2, 0.3, 0.5]))

def test_broadcaster_copies_basis_state_exactly():
    channel = classical_broadcaster(np.eye(2, dtype=complex))
    out = apply_nonselective(channel, np.diag([1.0, 0.0]).astype(complex))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(out, expected, atol=1e-14)


def test_broadcaster_copies_diagonal_mixture_exactly():
    channel = classical_broadcaster(np.eye(2, dtype=complex))
    rho = np.diag([0.3, 0.7]).astype(complex)
    ok, deviation = broadcast_check(channel, rho)
    assert ok
    assert deviation < 1e-12


def test_broadcaster_fails_on_off_diagonal_state():
    channel = classical_broadcaster(np.eye(2, dtype=complex))
    plus_x = qmat.projector([SQRT_HALF, SQRT_HALF])
    ok, deviation = broadcast_check(channel, plus_x)
    assert not ok
    out = apply_nonselective(channel, plus_x)
    assert np.allclose(qmat.partial_trace(out, (2, 2), "A"), np.eye(2) / 2, atol=1e-12)
    assert abs(deviation - SQRT_HALF) < 1e-12


def test_broadcaster_rejects_nonorthonormal_basis():
    with pytest.raises(ValueError):
        classical_broadcaster(np.array([[1, 0], [1, 0]], dtype=complex))


def test_broadcast_check_rejects_wrong_channel_shape():
    channel = classical_broadcaster(np.eye(2, dtype=complex))
    with pytest.raises(qmat.DimensionMismatchError, match="state dim 3 does not match channel input dim 2"):
        broadcast_check(channel, np.eye(3, dtype=complex) / 3)
    identity = KrausChannel((np.eye(2, dtype=complex),))
    with pytest.raises(qmat.DimensionMismatchError, match=r"must map dim 2 to dim 4, got 2 -> 2"):
        broadcast_check(identity, np.eye(2, dtype=complex) / 2)


def test_swap_with_ready_channel_is_not_a_broadcaster():
    # K(rho) = |0><0| x rho
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    channel = KrausChannel((np.kron(e0, np.eye(2, dtype=complex)),))
    rng = np.random.default_rng(2)
    rho = rand_density(rng, 2)
    ok, deviation = broadcast_check(channel, rho)
    assert not ok and deviation > 1e-3
    ready = np.diag([1.0, 0.0]).astype(complex)
    assert broadcast_check(channel, ready).ok


def test_states_of_commutative_algebras_always_broadcast():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        channel = classical_broadcaster(np.eye(n, dtype=complex))
        for w in (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))):
            ok, deviation = broadcast_check(channel, np.diag(w))
            assert ok and deviation < 1e-12


def test_random_commuting_pairs_always_broadcast():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        u = rand_unitary(rng, d)
        channel = classical_broadcaster(u.T)
        for _ in range(2):
            w = rng.dirichlet(np.ones(d))
            rho = u @ np.diag(w).astype(complex) @ np.conj(u).T
            ok, deviation = broadcast_check(channel, rho)
            assert ok, f"commuting state failed with deviation {deviation}"


def test_noncommuting_pairs_defeat_the_broadcaster():
    rng = np.random.default_rng(37)
    tested = 0
    while tested < 20:
        rho = rand_density(rng, 2)
        sigma = rand_density(rng, 2)
        if qmat.frobenius_distance(rho @ sigma, sigma @ rho) <= 0.1:
            continue
        tested += 1
        _, v = qmat.eigh(rho)
        channel = classical_broadcaster(v.T)
        ok_rho = broadcast_check(channel, rho).ok
        ok_sigma = broadcast_check(channel, sigma).ok
        assert not (ok_rho and ok_sigma)


def test_clone_orthogonal_pair_builds_exact_cloner():
    rng = np.random.default_rng(83)
    pairs = [(np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))]
    pairs += [tuple(rand_unitary(rng, d)[:2]) for d in (2, 3, 4)]  # random orthogonal pairs
    same = rand_pure(rng, 3)
    pairs.append((same, same.copy()))  # an identical pair
    phi = np.append(rand_pure(rng, 2), 0.0)
    pairs.append((np.array([0, 0, 1], dtype=complex), phi))  # psi x ready is a computational basis vector
    for psi, phi in pairs:
        d = psi.size
        u = clone_orthogonal_pair(psi, phi)
        assert isinstance(u, np.ndarray) and u.shape == (d * d, d * d)
        assert np.abs(np.conj(u).T @ u - np.eye(d * d)).max() <= 1e-12
        ready = np.eye(d)[0]
        for v in (psi, phi):
            assert np.abs(u @ np.kron(v, ready) - np.kron(v, v)).max() <= 1e-12
    # a pair orthogonal within τ: the cloner is still unitary and clones psi, and phi within their overlap
    eps = 5e-5
    psi, phi = np.array([1, 0], dtype=complex), np.array([eps, np.sqrt(1 - eps**2)], dtype=complex)
    with scoped_tolerance(1e-4):
        u = clone_orthogonal_pair(psi, phi)
    ready = np.eye(2)[0]
    assert np.abs(np.conj(u).T @ u - np.eye(4)).max() <= 1e-12
    assert np.abs(u @ np.kron(psi, ready) - np.kron(psi, psi)).max() <= 1e-12
    assert np.abs(u @ np.kron(phi, ready) - np.kron(phi, phi)).max() <= eps


def test_clone_refusal_carries_invariance_witness():
    refusal = clone_orthogonal_pair([1, 0], [SQRT_HALF, SQRT_HALF])
    assert isinstance(refusal, CloneRefusal)
    assert abs(refusal.overlap - SQRT_HALF) < 1e-12
    assert abs(refusal.overlap_squared - 0.5) < 1e-12


def test_identical_states_clone_trivially():
    u = clone_orthogonal_pair([1, 0], [1, 0])
    assert isinstance(u, np.ndarray)
    ready = np.array([1, 0], dtype=complex)
    target = np.kron([1, 0], [1, 0])
    assert np.allclose(u @ np.kron([1, 0], ready), target, atol=1e-12)


def test_no_unitary_for_intermediate_overlaps():
    rng = np.random.default_rng(43)
    for overlap in (1e-5, 0.1, 0.5, 0.9, 1 - 1e-5):
        psi = rand_pure(rng, 3)
        z = rand_pure(rng, 3)
        perp = z - np.vdot(psi, z) * psi
        perp = perp / np.linalg.norm(perp)
        phi = overlap * psi + np.sqrt(1 - overlap**2) * perp
        result = clone_orthogonal_pair(psi, phi)
        assert isinstance(result, CloneRefusal)


def test_clone_dimension_mismatch():
    with pytest.raises(qmat.DimensionMismatchError):
        clone_orthogonal_pair([1, 0], [1, 0, 0])


def test_classical_broadcaster_matches_the_per_row_kron_bit_for_bit():
    rng = np.random.default_rng(71)
    for d in (2, 3, 4):
        basis = rand_unitary(rng, d).T
        assert np.array_equal(classical_broadcaster(basis).kraus_ops, classical_broadcaster_by_row(basis))


def _stack_failure_matches_single(single_call, stacked_call, k):
    with pytest.raises(ValueError) as single:
        single_call()
    with pytest.raises(type(single.value)) as stacked:
        stacked_call()
    assert str(stacked.value) == f"stack member {k}: {single.value}"


def test_stacked_broadcast_checks_name_the_bad_member_with_the_single_matrix_message():
    rng = np.random.default_rng(59)
    channel = classical_broadcaster(np.eye(2, dtype=complex))
    states = np.stack([rand_density(rng, 2) for _ in range(5)])
    states[3] = np.diag([1.5, -0.5])
    _stack_failure_matches_single(
        lambda: broadcast_check(channel, states[3]),
        lambda: algebra._broadcast_deviations(channel.kraus_ops, states),
        3,
    )
    # the bases are checked as one stack before their Kraus sets are built
    bases = np.stack([rand_unitary(rng, 2).T for _ in range(5)])
    bases[2] = [[1, 0], [1, 0]]
    _stack_failure_matches_single(
        lambda: classical_broadcaster(bases[2]),
        lambda: algebra._broadcaster_kraus(qmat.require_orthonormal_rows(bases)),
        2,
    )
    good = np.stack([rand_density(rng, 2) for _ in range(5)])
    kraus = algebra._broadcaster_kraus(np.stack([rand_unitary(rng, 2).T for _ in range(5)]))
    for k, scale, single in (
        (1, 1.1, lambda ks: KrausChannel(ks)),
        (4, 0.9, lambda ks: broadcast_check(KrausChannel(ks), good[k])),
    ):
        off = kraus.copy()
        off[k] *= scale  # super-normalized above 1, not trace preserving below
        _stack_failure_matches_single(
            lambda: single(off[k]), lambda: algebra._broadcast_deviations(off, good), k
        )


def test_broadcast_check_keeps_its_one_matrix_contract():
    channel = classical_broadcaster(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="expected a nonempty 2-D matrix"):
        broadcast_check(channel, np.stack([np.eye(2, dtype=complex) / 2] * 3))


def test_stacked_broadcast_deviations_equal_the_per_state_checks_bit_for_bit():
    rng = np.random.default_rng(67)
    for d in (2, 3, 4):
        bases = np.stack([rand_unitary(rng, d).T for _ in range(6)])
        states = np.stack([[rand_density(rng, d) for _ in range(3)] for _ in range(6)])
        dev = algebra._broadcast_deviations(algebra._broadcaster_kraus(bases)[:, None], states)
        assert dev.shape == (6, 3)
        expected = [[broadcast_check(classical_broadcaster(b), rho).deviation for rho in row]
                    for b, row in zip(bases, states)]
        assert dev.tolist() == expected
