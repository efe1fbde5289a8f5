import dataclasses

import numpy as np
import pytest

from qworlds import qmat
from qworlds.channels import (
    _dephase,
    DephasingChannel,
    GeneralizedMeasurement,
    KrausChannel,
    ProjectiveMeasurement,
    apply_nonselective,
    dephase,
)
from qworlds.entangle import (
    BipartiteState,
    SteeringExampleConfig,
    bell_basis,
    schmidt,
    singlet_vector,
    steered_branches,
    steering_states,
)

from tests.oracles import (
    apply_nonselective_by_kraus,
    dephase_by_loops,
    rand_channel,
    rand_density,
    rand_unitary,
)

SQRT_HALF = 1 / np.sqrt(2)
PLUS_X = qmat.projector([SQRT_HALF, SQRT_HALF])


def sigma_z_measurement():
    return ProjectiveMeasurement((qmat.projector([1, 0]), qmat.projector([0, 1])))


def branch_probabilities(measurement, rho) -> np.ndarray:
    """trace(E_i rho) for each effect, as the branch weights of a state with a trivial side B."""
    state = BipartiteState(rho, (measurement.dim, 1))
    return steered_branches(state, measurement)[0]


def naimark_dilation(povm):
    """The isometry sum_i |i> x sqrt(E_i), ancilla index major, and the ancilla's readout."""
    w, v = qmat.eigh(povm.effects)
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ qmat.dagger(v)
    n, d = len(povm.effects), povm.dim
    embed = KrausChannel((roots.reshape(n * d, d),))
    readout = ProjectiveMeasurement(tuple(qmat.projector(row) for row in np.eye(n)))
    return embed, readout


def dilated_branches(povm, rho):
    """Probability and Lüders update sqrt(E_i) rho sqrt(E_i) / p_i per outcome, read through the dilation.

    The update is None where p_i is at or below τ.
    """
    embed, readout = naimark_dilation(povm)
    joint = BipartiteState(apply_nonselective(embed, rho), (readout.dim, povm.dim))
    p, branches = steered_branches(joint, readout)
    return [(q, u / q if q > qmat.tolerance() else None) for q, u in zip(p, branches)]


def test_kraus_validation():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 1.5,))
    sub = KrausChannel((np.eye(2) * 0.5,))  # selective, sub-normalized
    assert not sub.is_trace_preserving()
    assert KrausChannel((np.eye(2),)).is_trace_preserving()


def test_unitary_channel_preserves_spectrum():
    rng = np.random.default_rng(3)
    u = rand_unitary(rng, 3)
    rho = rand_density(rng, 3)
    out = apply_nonselective(KrausChannel((u,)), rho)
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12)


def test_identity_channel_is_identity():
    rng = np.random.default_rng(5)
    rho = rand_density(rng, 2)
    assert np.allclose(apply_nonselective(KrausChannel((np.eye(2),)), rho), rho, atol=1e-14)


def test_luders_channel_on_plus_x():
    out = apply_nonselective(KrausChannel(sigma_z_measurement().projectors), PLUS_X)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)


def test_nonselective_requires_trace_preservation():
    selective = KrausChannel((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(ValueError):
        apply_nonselective(selective, np.eye(2, dtype=complex) / 2)


def test_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        channel = KrausChannel(tuple(rand_channel(rng, d, int(rng.integers(1, 4)))))
        rho = rand_density(rng, d)
        out = apply_nonselective(channel, rho)
        assert abs(np.trace(out).real - 1.0) < qmat.tolerance()
        w, _ = qmat.eigh(out)
        assert float(w.min()) > -qmat.tolerance()


def test_selective_update_examples():
    branches = dilated_branches(sigma_z_measurement(), qmat.projector([1, 0]))
    prob, post = branches[0]
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post, qmat.projector([1, 0]), atol=1e-12)

    prob, post = dilated_branches(sigma_z_measurement(), qmat.projector([0, 1]))[0]
    assert prob == pytest.approx(0.0, abs=1e-12)
    assert post is None

    prob, post = dilated_branches(sigma_z_measurement(), PLUS_X)[0]
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(post, qmat.projector([1, 0]), atol=1e-12)


def test_selective_rejects_nonidempotent():
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        ProjectiveMeasurement((np.diag([1.0, 0.5]), np.diag([0.0, 0.5])))


def test_selective_probabilities_resolve_unity():
    rng = np.random.default_rng(11)
    rho = rand_density(rng, 2)
    total = sum(p for p, _ in dilated_branches(sigma_z_measurement(), rho))
    assert abs(total - 1.0) < qmat.tolerance()


def test_projective_measurement_validation():
    with pytest.raises(ValueError):
        ProjectiveMeasurement((qmat.projector([1, 0]), PLUS_X))  # not orthogonal
    with pytest.raises(ValueError):
        ProjectiveMeasurement((qmat.projector([1, 0]),))  # incomplete
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        ProjectiveMeasurement((0.5 * np.eye(2), 0.5 * np.eye(2)))  # a POVM, not projective
    assert isinstance(sigma_z_measurement(), GeneralizedMeasurement)


def test_generalized_measurement_validation():
    with pytest.raises(ValueError):
        GeneralizedMeasurement((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))
    with pytest.raises(ValueError):
        GeneralizedMeasurement((np.eye(2) * 0.4,))


def test_dilation_returns_projective_measurement_unchanged():
    m = sigma_z_measurement()
    embed, readout = naimark_dilation(m)
    assert readout.dim == 2
    assert np.allclose(embed.kraus_ops[0], m.projectors.reshape(4, 2), atol=1e-12)  # sqrt(P) = P

    as_povm = GeneralizedMeasurement(m.projectors)
    assert np.array_equal(ProjectiveMeasurement(as_povm.effects).projectors, m.projectors)


def test_dilation_reproduces_steering_povm_statistics():
    config = SteeringExampleConfig(0.6, 0.8)
    effects = tuple(0.5 * qmat.projector(v) for v in steering_states(config))
    povm = GeneralizedMeasurement(effects)
    with pytest.raises(ValueError, match="not idempotent"):
        ProjectiveMeasurement(effects)
    embed, readout = naimark_dilation(povm)
    assert readout.dim == 4 and embed.d_out == 8 and embed.is_trace_preserving()
    rng = np.random.default_rng(13)
    for _ in range(100):
        rho = rand_density(rng, 2)
        joint = [p for p, _ in dilated_branches(povm, rho)]
        assert np.allclose(branch_probabilities(povm, rho), joint, atol=1e-10)


def test_dilation_reproduces_random_three_outcome_povm():
    rng = np.random.default_rng(17)
    a = rand_density(rng, 2) * 0.4
    b = rand_density(rng, 2) * 0.3
    povm = GeneralizedMeasurement((a, b, np.eye(2) - a - b))
    for _ in range(20):
        rho = rand_density(rng, 2)
        joint = [p for p, _ in dilated_branches(povm, rho)]
        assert np.allclose(branch_probabilities(povm, rho), joint, atol=1e-10)


def test_dephase_zero_strength_is_identity():
    rng = np.random.default_rng(19)
    rho = rand_density(rng, 2)
    channel = DephasingChannel(np.eye(2, dtype=complex), 0.0)
    assert np.array_equal(dephase(channel, rho), rho)


def test_dephase_full_strength_on_singlet_schmidt_basis():
    singlet = qmat.projector(singlet_vector())
    channel = DephasingChannel(np.eye(4, dtype=complex), 1.0)
    out = dephase(channel, singlet)
    expected = 0.5 * (qmat.projector([0, 1, 0, 0]) + qmat.projector([0, 0, 1, 0]))
    assert np.allclose(out, expected, atol=1e-14)


def test_dephase_half_strength_purity():
    channel = DephasingChannel(np.eye(2, dtype=complex), 0.5)
    out = dephase(channel, PLUS_X)
    assert abs(out[0, 1] - 0.25) < 1e-14
    purity = float(np.real(np.trace(out @ out)))
    assert abs(purity - 0.625) < 1e-12


def test_dephase_matches_loop_oracle_in_random_basis():
    rng = np.random.default_rng(23)
    basis = rand_unitary(rng, 3).T
    rho = rand_density(rng, 3)
    lam = 0.37
    out = dephase(DephasingChannel(basis, lam), rho)
    assert np.allclose(out, dephase_by_loops(rho, basis, lam), atol=1e-12)


def test_dephase_composition_law():
    rng = np.random.default_rng(29)
    basis = rand_unitary(rng, 2).T
    rho = rand_density(rng, 2)
    l1, l2 = 0.3, 0.6
    two_step = dephase(DephasingChannel(basis, l2), dephase(DephasingChannel(basis, l1), rho))
    combined = 1.0 - (1.0 - l1) * (1.0 - l2)
    one_step = dephase(DephasingChannel(basis, combined), rho)
    assert np.allclose(two_step, one_step, atol=qmat.tolerance())


def test_dephase_validation():
    with pytest.raises(ValueError):
        DephasingChannel(np.eye(2, dtype=complex), 1.5)
    channel = DephasingChannel(np.eye(2, dtype=complex), 0.5)
    with pytest.raises(qmat.DimensionMismatchError):
        dephase(channel, np.eye(3, dtype=complex) / 3)
    # a NaN deviation from orthonormality fails the check rather than slipping past it
    with pytest.raises(ValueError, match="basis rows are not orthonormal"):
        DephasingChannel(np.full((2, 2), np.nan, dtype=complex), 0.5)


def test_sample_outcome_certain_result():
    m = sigma_z_measurement()
    branches = dilated_branches(m, qmat.projector([1, 0]))
    for seed in (0, 1, 12345):
        index = qmat.sample_index([p for p, _ in branches], np.random.default_rng(seed))
        assert index == 0
        assert np.allclose(branches[index][1], qmat.projector([1, 0]), atol=1e-12)


def test_sample_outcome_deterministic_for_fixed_seed():
    weights = branch_probabilities(sigma_z_measurement(), PLUS_X)
    first = [qmat.sample_index(weights, np.random.default_rng(seed)) for seed in range(50)]
    second = [qmat.sample_index(weights, np.random.default_rng(seed)) for seed in range(50)]
    assert first == second
    assert len(set(first)) == 2  # both outcomes appear


def test_bell_measurement_frequencies_on_steering_state():
    config = SteeringExampleConfig(0.6, 0.8)
    phi1 = steering_states(config)[0]
    joint = BipartiteState(qmat.projector(np.kron(phi1, singlet_vector())), (4, 2))
    m = ProjectiveMeasurement(tuple(qmat.projector(v) for v in bell_basis()))
    weights = steered_branches(joint, m)[0]
    assert np.allclose(weights, 0.25, atol=1e-12)
    rng = np.random.default_rng(0)
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        counts[qmat.sample_index(weights, rng)] += 1
    assert np.all(np.abs(counts / n - 0.25) < 0.02)


def test_nonselective_dimension_mismatch():
    with pytest.raises(qmat.DimensionMismatchError):
        apply_nonselective(KrausChannel((np.eye(2),)), np.eye(3, dtype=complex) / 3)



def test_povm_update_equals_dilation_projective_update():
    config = SteeringExampleConfig(0.6, 0.8)
    povm = GeneralizedMeasurement(tuple(0.5 * qmat.projector(v) for v in steering_states(config)))
    rng = np.random.default_rng(37)
    rho = rand_density(rng, 2)
    index = qmat.sample_index(branch_probabilities(povm, rho), np.random.default_rng(5))
    p, post = dilated_branches(povm, rho)[index]
    embed, readout = naimark_dilation(povm)
    embedded = apply_nonselective(embed, rho)
    pi = np.kron(readout.projectors[index], np.eye(2))
    joint_post = pi @ embedded @ pi / float(np.real(np.trace(pi @ embedded)))
    traced = qmat.partial_trace(joint_post, (readout.dim, 2), "B")
    assert np.allclose(post, traced, atol=1e-12)


def test_sample_outcome_povm_luders_update():
    config = SteeringExampleConfig(0.6, 0.8)
    effects = tuple(0.5 * qmat.projector(v) for v in steering_states(config))
    povm = GeneralizedMeasurement(effects)
    rng = np.random.default_rng(31)
    rho = rand_density(rng, 2)
    index = qmat.sample_index(branch_probabilities(povm, rho), np.random.default_rng(7))
    prob, post = dilated_branches(povm, rho)[index]
    # manual sqrt(E) rho sqrt(E) / p for the rank-1 effect
    v = steering_states(config)[index]
    root = np.sqrt(0.5) * qmat.projector(v)
    p = float(np.real(np.trace(effects[index] @ rho)))
    assert prob == pytest.approx(p, abs=1e-12)
    assert np.allclose(post, root @ rho @ root / p, atol=1e-12)

def test_stacked_dephasing_matches_per_channel_calls_bit_for_bit():
    rng = np.random.default_rng(59)
    for d in (2, 4, 6):
        bases = np.stack([rand_unitary(rng, d).T for _ in range(5)])
        rho = np.stack([rand_density(rng, d) for _ in range(5)])
        for lam in (0.37, 1.0):
            want = [dephase(DephasingChannel(b, lam), r) for b, r in zip(bases, rho)]
            assert np.array_equal(_dephase(bases, rho, lam), want)


def test_channels_and_schmidt_data_are_immutable_and_leave_the_callers_arrays_writeable():
    eye = np.eye(2, dtype=complex)
    dec = schmidt(singlet_vector(), (2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.a_basis = dec.a_basis[:1]  # would give vector() a norm of 0.707
    k = KrausChannel((eye,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.kraus_ops = (2 * eye,)  # super-normalized, past the construction check
    dephasing = DephasingChannel(eye, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dephasing.strength = 7.0
    for array in (k.kraus_ops[0], dec.a_basis, dec.b_basis, dec.coefficients, dephasing.basis):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0
    assert k.is_trace_preserving()
    eye[0, 0] = 3.0  # the caller's array is a separate, writeable copy
    assert k.kraus_ops[0][0, 0] == 1.0 and dephasing.basis[0, 0] == 1.0


def test_stacked_channel_and_measurement_kernels_match_the_per_member_loops_bit_for_bit():
    rng = np.random.default_rng(61)
    for d in (2, 3, 4):
        rho = rand_density(rng, d)
        channel = KrausChannel(tuple(rand_channel(rng, d, 3)))
        assert np.array_equal(apply_nonselective(channel, rho), apply_nonselective_by_kraus(channel.kraus_ops, rho))


def test_kraus_channel_is_one_checked_read_only_stack():
    ops = [np.eye(2, dtype=complex) * 0.5 for _ in range(4)]
    ops[2] = ops[2].copy()
    ops[2][0, 1] = np.nan
    with pytest.raises(ValueError, match=r"^stack member 2: matrix contains NaN or Inf entries$"):
        KrausChannel(tuple(ops))
    # shapes are checked before contents: the NaN member does not decide the error
    with pytest.raises(qmat.DimensionMismatchError, match="Kraus operators must share one shape"):
        KrausChannel((ops[2], np.zeros((3, 2))))
    ops[2] = np.eye(2, dtype=complex) * 0.5
    channel = KrausChannel(tuple(ops))
    assert channel.kraus_ops.shape == (4, 2, 2) and channel.is_trace_preserving()
    with pytest.raises(ValueError, match="read-only"):
        channel.kraus_ops[1, 0, 0] = 1.0
    assert all(k.flags.writeable for k in ops)
    ops[1][0, 0] = 7.0
    assert channel.kraus_ops[1, 0, 0] == 0.5


def test_measurement_effects_are_one_checked_read_only_stack():
    effects = [np.diag([0.6, 0.0]), np.diag([0.6, 1.0]), np.diag([-0.2, 0.0])]  # sums to I
    with pytest.raises(ValueError, match=r"^stack member 2: effect has negative eigenvalue -0\.2"):
        GeneralizedMeasurement(tuple(effects))
    with pytest.raises(qmat.DimensionMismatchError, match="effects must share one dimension"):
        GeneralizedMeasurement((effects[2], np.eye(3)))
    z0 = qmat.projector([1, 0])
    z1 = qmat.projector([0, 1])
    for m, n in ((GeneralizedMeasurement((0.5 * z0, 0.5 * z0, z1)), 3), (ProjectiveMeasurement((z0, z1)), 2)):
        assert m.effects.shape == (n, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            m.effects[0, 0, 0] = 0.0
    assert m.projectors is m.effects
    assert z0.flags.writeable and z1.flags.writeable
    z0[0, 0] = 0.0
    assert m.projectors[0, 0, 0] == 1.0
