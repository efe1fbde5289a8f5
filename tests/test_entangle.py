import numpy as np
import pytest

from qworlds import qmat
from qworlds.channels import GeneralizedMeasurement, ProjectiveMeasurement
from qworlds.entangle import (
    AverageMismatchError,
    BipartiteState,
    Ensemble,
    SchmidtDecomposition,
    SteeringExampleConfig,
    UnsupportedTargetError,
    _pure_vectors,
    bell_basis,
    canonical_chsh_settings,
    chsh_score,
    correlation,
    epr_singlet,
    four_state_ensemble,
    hjw_steering_measurement,
    negativity,
    pure_vector,
    purify,
    schmidt,
    singlet_vector,
    steer,
    steered_branches,
    steering_states,
    teleport,
    teleport_branches,
    teleport_corrections,
)
from qworlds.qmat import DimensionMismatchError
from qworlds.worlds import World

from tests.oracles import (
    ensemble_average_by_member,
    hjw_effects_by_member,
    matching_pure_ensemble,
    pure_vector_by_member,
    rand_density,
    rand_povm,
    rand_pure,
    rand_unitary,
    steered_branches_by_effect,
    teleport_by_kron,
)
from tests.scoping import scoped_tolerance

SQRT_HALF = 1 / np.sqrt(2)


def z_measurement():
    return ProjectiveMeasurement((qmat.projector([1, 0]), qmat.projector([0, 1])))


def test_singlet_marginals_and_purity():
    s = epr_singlet()
    assert np.allclose(qmat.partial_trace(s.rho, s.dims, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(s.marginal_b(), np.eye(2) / 2, atol=1e-12)
    assert np.trace(s.rho @ s.rho).real == pytest.approx(1.0, abs=1e-12)


def test_singlet_schmidt_coefficients():
    dec = schmidt(singlet_vector(), (2, 2))
    assert np.allclose(dec.coefficients, [SQRT_HALF, SQRT_HALF], atol=1e-12)


def test_schmidt_of_product_vector():
    dec = schmidt(np.kron([1, 0], [0, 1]), (2, 2))
    assert dec.coefficients.size == 1
    assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_random_vector_matches_marginal_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rand_pure(rng, 6)
        dec = schmidt(psi, (3, 2))
        marginal = qmat.partial_trace(qmat.projector(psi), (3, 2), "A")
        w, _ = qmat.eigh(marginal)
        nz = w[w > 1e-12]
        assert np.allclose(np.sort(nz)[::-1], dec.coefficients**2, atol=1e-10)
        assert qmat.vectors_match(dec.vector(), psi)


def test_schmidt_dimension_mismatch():
    with pytest.raises(qmat.DimensionMismatchError):
        schmidt(rand_pure(np.random.default_rng(0), 6), (2, 2))


def test_schmidt_decomposition_needs_one_row_per_coefficient():
    # zip would pair two coefficients with one a-row and rebuild a vector of norm 0.707
    with pytest.raises(qmat.DimensionMismatchError):
        SchmidtDecomposition([SQRT_HALF, SQRT_HALF], np.eye(2)[:1], np.eye(2))
    with pytest.raises(qmat.DimensionMismatchError):
        SchmidtDecomposition([SQRT_HALF, SQRT_HALF], np.eye(2), np.eye(3)[:1])
    # a basis given as one flat vector is malformed input, not an IndexError
    with pytest.raises(ValueError, match="expected a nonempty matrix"):
        SchmidtDecomposition([1.0], [1, 0], [1, 0])
    # NaN passes "fail if the sum is off"; the sum check passes only a finite sum
    with pytest.raises(ValueError, match="squared coefficients sum to nan, not 1"):
        SchmidtDecomposition([1.0, np.nan], np.eye(2), np.eye(2))


def test_purify_pure_state_is_product():
    psi = rand_pure(np.random.default_rng(5), 3)
    purification = purify(qmat.projector(psi), 2)
    assert schmidt(purification, (2, 3)).coefficients.size == 1


def test_purify_maximally_mixed_qubit():
    purification = purify(np.eye(2, dtype=complex) / 2, 2)
    dec = schmidt(purification, (2, 2))
    assert np.allclose(dec.coefficients, [SQRT_HALF, SQRT_HALF], atol=1e-12)


def test_purify_recovers_marginal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho = rand_density(rng, 2)
        purification = purify(rho, 2)
        recovered = qmat.partial_trace(qmat.projector(purification), (2, 2), "B")
        assert np.allclose(recovered, rho, atol=1e-10)


def test_purify_rejects_small_ancilla():
    with pytest.raises(ValueError):
        purify(np.eye(2, dtype=complex) / 2, 1)


def test_steering_expansion_matches_frozen_coefficients():
    # phi_1 x singlet expanded in the Bell basis; coefficients derived by hand
    config = SteeringExampleConfig(0.6, 0.8)
    phis = steering_states(config)
    actual = np.kron(phis[0], singlet_vector())
    coefficients = (-0.5, -0.5, 0.5, -0.5)
    constructed = sum(c * np.kron(b, p) for c, b, p in zip(coefficients, bell_basis(), phis))
    assert np.allclose(actual, constructed, atol=1e-15)


def test_hjw_eigen_ensemble_gives_projective_measurement():
    rng = np.random.default_rng(11)
    rho = rand_density(rng, 2)
    w, v = qmat.eigh(rho)
    target = Ensemble.from_pure_states(w, [v[:, k] for k in range(2)])
    psi = purify(rho, 2)
    m = hjw_steering_measurement(psi, (2, 2), target)
    ProjectiveMeasurement(m.effects)  # raises unless the effects are orthogonal projectors
    ens = steer(BipartiteState(qmat.projector(psi), (2, 2)), m)
    for p, member, q, t in zip(ens.probabilities, ens.members, w, target.members):
        assert p == pytest.approx(q, abs=1e-10)
        assert float(np.real(np.trace(member @ t))) == pytest.approx(1.0, abs=1e-10)


def test_hjw_four_state_example_via_bell_route_and_povm_route():
    config = SteeringExampleConfig(0.6, 0.8)
    target = four_state_ensemble(config)

    # ancilla route: prepare phi_1 on A', measure (A', A) in the Bell basis
    phi1 = steering_states(config)[0]
    joint = BipartiteState(qmat.projector(np.kron(phi1, singlet_vector())), (4, 2))
    ens = steer(joint, ProjectiveMeasurement(tuple(qmat.projector(v) for v in bell_basis())))
    assert np.allclose(ens.probabilities, [0.25] * 4, atol=1e-10)
    for member, t in zip(ens.members, target.members):
        assert float(np.real(np.trace(member @ t))) == pytest.approx(1.0, abs=1e-10)

    # compressed route: POVM on A alone
    m = hjw_steering_measurement(singlet_vector(), (2, 2), target)
    assert isinstance(m, GeneralizedMeasurement)
    expected = [0.5 * qmat.projector(v) for v in steering_states(config)]
    for effect, e in zip(m.effects, expected):
        # effects are the conjugated steering states scaled by 1/2
        assert abs(np.trace(effect).real - 0.5) < 1e-10
    ens2 = steer(epr_singlet(), m)
    assert np.allclose(ens2.probabilities, [0.25] * 4, atol=1e-10)
    for member, t in zip(ens2.members, target.members):
        assert float(np.real(np.trace(member @ t))) == pytest.approx(1.0, abs=1e-10)


def test_hjw_random_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = rand_density(rng, 2)
        probs, vectors = matching_pure_ensemble(rho, 3, rng)
        target = Ensemble.from_pure_states(probs, vectors)
        psi = purify(rho, 2)
        m = hjw_steering_measurement(psi, (2, 2), target)
        assert np.abs(m.effects - hjw_effects_by_member(psi, (2, 2), target)).max() <= 1e-14
        ens = steer(BipartiteState(qmat.projector(psi), (2, 2)), m)
        assert np.allclose(ens.probabilities, probs, atol=1e-9)
        for member, t in zip(ens.members, target.members):
            assert float(np.real(np.trace(member @ t))) == pytest.approx(1.0, abs=1e-9)


def test_hjw_handles_rank_deficient_marginal():
    # a complement effect pads the measurement but never fires on the purification
    rng = np.random.default_rng(47)
    v1, v2 = rand_pure(rng, 3), rand_pure(rng, 3)
    v2 = v2 - np.vdot(v1, v2) * v1
    v2 = v2 / np.linalg.norm(v2)
    omega = 0.7 * qmat.projector(v1) + 0.3 * qmat.projector(v2)
    probs, vecs = matching_pure_ensemble(omega, 3, rng)
    target = Ensemble.from_pure_states(probs, vecs)
    psi = purify(omega, 3)
    m = hjw_steering_measurement(psi, (3, 3), target)
    assert len(m.effects) == 4
    assert np.abs(m.effects - hjw_effects_by_member(psi, (3, 3), target)).max() <= 1e-14
    ens = steer(BipartiteState(qmat.projector(psi), (3, 3)), m)
    assert len(ens.members) == 3
    assert np.allclose(ens.probabilities, probs, atol=1e-9)
    for member, vec in zip(ens.members, vecs):
        assert abs(qmat.fidelity_to_vector(vec, member) - 1.0) < 1e-9


def test_hjw_measurement_is_checked_at_the_tolerance_that_built_it():
    # an average gap of 1.4e-6 fails at the default τ; at τ = 1e-4 the nested
    # POVM check judges the effects at that same τ
    with scoped_tolerance(1e-4):
        target = Ensemble.from_pure_states([0.5 + 1e-6, 0.5 - 1e-6], [[1, 0], [0, 1]])
        m = hjw_steering_measurement(singlet_vector(), (2, 2), target)
        assert len(m.effects) == 2
    with pytest.raises(AverageMismatchError):
        hjw_steering_measurement(singlet_vector(), (2, 2), target)


def test_hjw_rejects_average_mismatch():
    target = Ensemble.from_pure_states([0.7, 0.3], [[1, 0], [0, 1]])
    with pytest.raises(AverageMismatchError):
        hjw_steering_measurement(singlet_vector(), (2, 2), target)


def test_hjw_rejects_target_outside_support():
    # marginal is |0><0|; a vanishing-weight |1> member passes the average
    # check (off by sqrt(2)·eps, below τ = 1e-9) but sits outside the support
    eps = 5e-10
    psi = np.kron([1, 0], [1, 0])
    target = Ensemble.from_pure_states([1 - eps, eps], [[1, 0], [0, 1]])
    with pytest.raises(UnsupportedTargetError, match=r"^target member 1 lies outside the marginal support") as got:
        hjw_steering_measurement(psi, (2, 2), target)
    with pytest.raises(UnsupportedTargetError) as want:
        hjw_effects_by_member(psi, (2, 2), target)
    assert str(got.value) == str(want.value)


def test_steer_singlet_z_measurement_anticorrelates():
    ens = steer(epr_singlet(), z_measurement())
    assert np.allclose(ens.probabilities, [0.5, 0.5], atol=1e-12)
    assert np.allclose(ens.members[0], qmat.projector([0, 1]), atol=1e-12)
    assert np.allclose(ens.members[1], qmat.projector([1, 0]), atol=1e-12)


def test_steer_product_state_cannot_be_steered():
    rng = np.random.default_rng(17)
    rho_b = rand_density(rng, 2)
    state = BipartiteState(np.kron(qmat.projector([SQRT_HALF, SQRT_HALF]), rho_b), (2, 2))
    ens = steer(state, z_measurement())
    for member in ens.members:
        assert np.allclose(member, rho_b, atol=1e-10)


def test_steer_dimension_mismatch():
    m = ProjectiveMeasurement((qmat.projector([1, 0, 0]), qmat.projector([0, 1, 0]), qmat.projector([0, 0, 1])))
    with pytest.raises(qmat.DimensionMismatchError):
        steer(epr_singlet(), m)


def test_steer_ensemble_average_equals_marginal():
    rng = np.random.default_rng(19)
    for _ in range(10):
        rho = rand_density(rng, 4)
        state = BipartiteState(rho, (2, 2))
        u = rand_unitary(rng, 2)
        m = ProjectiveMeasurement((qmat.projector(u[:, 0]), qmat.projector(u[:, 1])))
        ens = steer(state, m)
        assert qmat.frobenius_distance(ens.average(), state.marginal_b()) < qmat.tolerance()


def test_teleport_forced_branches_hit_fidelity_one():
    rng = np.random.default_rng(23)
    shared = epr_singlet()
    for _ in range(5):
        chi = rand_pure(rng, 2)
        for outcome in range(1, 5):
            result = teleport(chi, shared, force_outcome=outcome)
            assert result.outcome == outcome
            assert result.fidelity == pytest.approx(1.0, abs=1e-10)


def test_teleport_identity_branch_on_plus_x():
    result = teleport([SQRT_HALF, SQRT_HALF], epr_singlet(), force_outcome=1)
    assert np.allclose(result.corrected_state, qmat.projector([SQRT_HALF, SQRT_HALF]), atol=1e-12)


def test_teleport_seeded_runs():
    rng = np.random.default_rng(29)
    shared = epr_singlet()
    fidelities = []
    counts = np.zeros(4)
    n = 1000
    for _ in range(n):
        chi = rand_pure(rng, 2)
        result = teleport(chi, shared, rng_seed=int(rng.integers(2**63)))
        fidelities.append(result.fidelity)
        counts[result.outcome - 1] += 1
    assert abs(np.mean(fidelities) - 1.0) < 1e-10
    assert np.all(np.abs(counts / n - 0.25) < 0.05)


def test_teleport_rejects_wrong_shared_dims():
    bad = BipartiteState(np.eye(6, dtype=complex) / 6, (2, 3))
    with pytest.raises(qmat.DimensionMismatchError):
        teleport([1, 0], bad)


# the quantum world, dephased λ ∈ {0, 0.3, 1} and the classical world
TELEPORT_WORLDS = (World("quantum"), *(World.dephased(s) for s in (0.0, 0.3, 1.0)), World("classical"))


@pytest.mark.parametrize("world", TELEPORT_WORLDS, ids=repr)
def test_teleport_matches_the_kron_oracle_sampled_and_forced(world):
    shared = world.separate(epr_singlet())
    rng = np.random.default_rng(41)
    for _ in range(40):
        chi = rand_pure(rng, 2)
        seed = int(rng.integers(2**63))
        forced = (None, 1, 2, 3, 4) if world.kind == "quantum" else (None,)
        for force in forced:
            got = teleport(chi, shared, rng_seed=seed, force_outcome=force)
            outcome, corrected, fidelity = teleport_by_kron(chi, shared, np.random.default_rng(seed), force)
            assert got.outcome == outcome
            assert abs(got.fidelity - fidelity) <= 1e-15
            assert np.abs(got.corrected_state - corrected).max() <= 1e-15


def test_teleport_branches_check_the_input_stack_and_the_pair_shapes():
    with pytest.raises(DimensionMismatchError, match="input must be a qubit"):
        teleport_branches(np.ones((5, 3)) / np.sqrt(3), epr_singlet())
    with pytest.raises(DimensionMismatchError, match="input must be a qubit"):
        teleport_branches([1, 0], epr_singlet())  # one vector is a stack of one only as shape (1, 2)
    with pytest.raises(DimensionMismatchError, match="2x2 bipartite"):
        teleport_branches([[1, 0]], BipartiteState(np.eye(6, dtype=complex) / 6, (2, 3)))


# |0>|00> on (input, A, B): the singlet on (input, A) has no overlap with |00>
_PRODUCT_PAIR = BipartiteState(qmat.projector([1, 0, 0, 0]), (2, 2))


@pytest.mark.parametrize("chi, pair, options, error, match", [
    ([1, 0, 0], epr_singlet(), {}, DimensionMismatchError, "input must be a qubit"),
    ([1, 1], epr_singlet(), {}, ValueError, "vector norm"),
    ([1, 0], epr_singlet(), {"force_outcome": 0}, ValueError, "force_outcome must be 1..4"),
    ([1, 0], epr_singlet(), {"force_outcome": 5}, ValueError, "force_outcome must be 1..4"),
    ([1, 0], _PRODUCT_PAIR, {"force_outcome": 1}, ValueError, "forced outcome 1 has vanishing probability"),
    ([1, 0], epr_singlet(), {"corrections": teleport_corrections()[:3]}, ValueError, "exactly four entries"),
])
def test_teleport_rejects_bad_input(chi, pair, options, error, match):
    with pytest.raises(error, match=match):
        teleport(chi, pair, **options)


def test_correction_table_shape():
    table = teleport_corrections()
    assert np.array_equal(table[0], np.eye(2))
    assert np.array_equal(table[1], qmat.PAULI_Z)
    assert np.array_equal(table[2], qmat.PAULI_X)
    assert np.allclose(table[3], np.array([[0, -1], [1, 0]]), atol=0)


def test_negativity_values():
    rng = np.random.default_rng(31)
    product = BipartiteState(np.kron(rand_density(rng, 2), rand_density(rng, 2)), (2, 2))
    assert negativity(product) == pytest.approx(0.0, abs=1e-12)

    singlet = epr_singlet()
    assert negativity(singlet) == pytest.approx(0.5, abs=1e-12)
    # spectrum of the partially transposed singlet
    pt = singlet.rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_negativity_of_fully_dephased_singlet_is_zero():
    dephased = 0.5 * (qmat.projector([0, 1, 0, 0]) + qmat.projector([0, 0, 1, 0]))
    assert negativity(BipartiteState(dephased, (2, 2))) == pytest.approx(0.0, abs=1e-12)


def _dephase_b_side(rho: np.ndarray, lam: float) -> np.ndarray:
    out = (1.0 - lam) * rho
    for j in range(2):
        pj = np.kron(np.eye(2, dtype=complex), qmat.projector(np.eye(2)[j]))
        out += lam * pj @ rho @ pj
    return out


def test_negativity_nonincreasing_under_local_dephasing():
    singlet = epr_singlet()
    values = [
        negativity(BipartiteState(_dephase_b_side(singlet.rho, lam), (2, 2)))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[-1] == pytest.approx(0.0, abs=1e-12)


def test_correlation_closed_form_for_singlet():
    rng = np.random.default_rng(37)
    singlet = epr_singlet()
    for _ in range(20):
        ta, tb = rng.uniform(0, 2 * np.pi, size=2)
        assert correlation(singlet, ta, tb) == pytest.approx(-np.cos(ta - tb), abs=1e-12)


def test_chsh_singlet_at_canonical_settings():
    score = chsh_score(epr_singlet(), canonical_chsh_settings())
    assert abs(score) == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_chsh_product_states_bounded_by_two():
    rng = np.random.default_rng(41)
    for _ in range(10):
        state = BipartiteState(np.kron(rand_density(rng, 2), rand_density(rng, 2)), (2, 2))
        settings = [tuple(rng.uniform(0, 2 * np.pi, size=2)) for _ in range(4)]
        assert abs(chsh_score(state, settings)) <= 2.0 + 1e-9


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.4]), (np.eye(2, dtype=complex) / 2,) * 2)
    with pytest.raises(ValueError):
        Ensemble(np.array([]), ())
    with pytest.raises(ValueError, match="probabilities sum to nan, not 1"):
        Ensemble([np.nan, np.nan], (qmat.projector([1, 0]), qmat.projector([0, 1])))
    ens = Ensemble.from_pure_states([0.5, 0.5], [[1, 0], [0, 1]])
    assert np.allclose(ens.average(), np.eye(2) / 2, atol=1e-12)


def test_pure_vector_extraction():
    v = rand_pure(np.random.default_rng(43), 3)
    assert qmat.vectors_match(pure_vector(qmat.projector(v)), v)
    with pytest.raises(ValueError):
        pure_vector(np.eye(2, dtype=complex) / 2)


def test_stacked_pure_state_extraction_matches_pure_vector_bit_for_bit():
    rng = np.random.default_rng(71)
    for d in (2, 3, 4, 8):
        for n in (1, 2, 4, 9):
            members = np.stack([qmat.projector(rand_pure(rng, d)) for _ in range(n)])
            got = _pure_vectors(members)
            assert got.shape == (n, d)
            for vector, member in zip(got, members):
                assert vector.tobytes() == pure_vector(member).tobytes() == pure_vector_by_member(member).tobytes()


def test_purify_and_pure_state_extraction_check_their_input_once(monkeypatch):
    rng = np.random.default_rng(72)
    checks = []
    require_members = qmat._require_members

    def counted(m, *args):
        checks.append(m.shape)
        return require_members(m, *args)

    monkeypatch.setattr(qmat, "_require_members", counted)
    purify(rand_density(rng, 3), 3)
    assert checks == [(3, 3)]
    checks.clear()
    pure_vector(qmat.projector(rand_pure(rng, 4)))
    assert checks == [(4, 4)]
    checks.clear()
    # the stacked extraction serves members an Ensemble or a scheme has checked already
    _pure_vectors(np.stack([qmat.projector(rand_pure(rng, 4)) for _ in range(5)]))
    assert checks == []
    # the one density check words a non-Hermitian input as the eigendecomposition's check did
    with pytest.raises(ValueError, match=r"^operator deviates from Hermiticity by 1\.0$"):
        purify(np.array([[1, 1], [0, 0]], dtype=complex), 2)
    with pytest.raises(ValueError, match=r"^operator deviates from Hermiticity by 1\.0$"):
        pure_vector(np.array([[1, 1], [0, 0]], dtype=complex))


def test_stacked_pure_state_extraction_names_the_failing_member():
    members = np.stack([qmat.projector([1, 0]), qmat.projector([0, 1]), np.eye(2, dtype=complex) / 2])
    with pytest.raises(ValueError, match=r"^stack member 2: state is not pure: top eigenvalue 0\.5$"):
        _pure_vectors(members)
    with pytest.raises(ValueError, match=r"^state is not pure: top eigenvalue 0\.5$"):
        pure_vector(members[2])
    with pytest.raises(ValueError, match=r"^stack member 0: state is not pure"):
        hjw_steering_measurement(singlet_vector(), (2, 2), Ensemble(np.array([1.0]), members[2:]))
    # the density check runs at the current tolerance: a trace 1e-6 off passes at 1e-4 only
    loose = qmat.projector(np.array([1, 0], dtype=complex) * np.sqrt(1 + 1e-6))
    with scoped_tolerance(1e-4):
        assert pure_vector(loose).shape == (2,)
    with scoped_tolerance(1e-9):
        with pytest.raises(ValueError, match=r"^density operator trace"):
            pure_vector(loose)


def test_steering_config_validation():
    SteeringExampleConfig(0.6, 0.8)
    with pytest.raises(ValueError):
        SteeringExampleConfig(0.6, 0.9)


def test_stacked_steering_and_average_match_the_per_member_loops_bit_for_bit():
    rng = np.random.default_rng(67)
    for d in (2, 3, 4):
        state = BipartiteState(rand_density(rng, d * d), (d, d))
        measurement = GeneralizedMeasurement((*rand_povm(rng, d, 3), np.zeros((d, d))))  # the last branch never fires
        p, branches = steered_branches(state, measurement)
        want = steered_branches_by_effect(measurement.effects, state.rho, (d, d))
        assert p.tolist() == [q for q, _ in want] and want[-1] == (0.0, None)
        assert not branches[-1].any()
        ens = steer(state, measurement)
        assert np.array_equal(ens.probabilities, p[:-1] / p[:-1].sum())
        assert all(np.array_equal(a, b) for a, (_, b) in zip(ens.members, want[:-1], strict=True))
        assert np.array_equal(ens.average(), ensemble_average_by_member(ens.probabilities, ens.members))


def test_ensemble_members_are_one_checked_read_only_stack():
    members = [np.eye(2, dtype=complex) / 2 for _ in range(3)]
    members[2] = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=r"^stack member 2: density operator trace 2\.0 is not 1"):
        Ensemble([0.5, 0.25, 0.25], tuple(members))
    # shapes are checked before contents: the bad trace does not decide the error
    with pytest.raises(qmat.DimensionMismatchError, match="ensemble members must share one dimension"):
        Ensemble([0.5, 0.5], (members[2], np.eye(3) / 3))
    with pytest.raises(ValueError, match="^empty ensemble$"):
        Ensemble([], ())
    with pytest.raises(qmat.DimensionMismatchError, match="one probability per member"):
        Ensemble([1.0], (members[0], members[1]))
    members[2] = qmat.projector([1, 0])
    ens = Ensemble([0.5, 0.25, 0.25], tuple(members))
    assert ens.members.shape == (3, 2, 2) and ens.dim == 2
    with pytest.raises(ValueError, match="read-only"):
        ens.members[2, 1, 1] = 1.0
    assert all(m.flags.writeable for m in members)
    members[2][0, 0] = 0.0
    assert ens.members[2, 0, 0] == 1.0
