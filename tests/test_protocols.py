import dataclasses
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import qworlds
from qworlds import protocols, qmat
from qworlds.algebra import BlockAlgebra
from qworlds.channels import (
    GeneralizedMeasurement,
    KrausChannel,
    ProjectiveMeasurement,
)
from qworlds.cli import ScenarioRequest, run_scenario
from qworlds.entangle import (
    AverageMismatchError,
    BipartiteState,
    Ensemble,
    epr_singlet,
    purify,
    steered_branches,
)
from qworlds.protocols import (
    CommitmentScheme,
    ConcealmentCheck,
    EprAttack,
    Honest,
    ProtocolTranscript,
    bb84_scheme,
    classical_scheme,
    classical_unique_decomposition,
    concealment_check,
    no_signaling_trial,
    point_mass_distribution,
    run_commitment,
)
from qworlds.worlds import World

from tests.oracles import (
    attack_acceptance_by_enumeration,
    epr_attack_by_branch,
    hjw_effects_by_member,
    honest_run_by_member,
    marginal_b_after_by_loops,
    matching_pure_ensemble,
    rand_channel,
    rand_density,
    rand_unitary,
)
from tests.scoping import scoped_tolerance


SQRT_HALF = 1 / np.sqrt(2)


def z_measurement():
    return ProjectiveMeasurement((qmat.projector([1, 0]), qmat.projector([0, 1])))


def steering_contrast(state: BipartiteState, measurement) -> float:
    """Largest Frobenius distance of any steered conditional from Bob's marginal."""
    marginal = state.marginal_b()
    p, branches = steered_branches(state, measurement)
    kept = p > qmat.tolerance()
    return max(qmat.frobenius_distance(u / q, marginal) for q, u in zip(p[kept], branches[kept]))


def test_scheme_requires_pure_members():
    mixed = Ensemble(np.array([1.0]), (np.eye(2, dtype=complex) / 2,))
    pure = Ensemble.from_pure_states([1.0], [[1, 0]])
    for ensembles in ((mixed, pure), (pure, mixed)):
        with pytest.raises(ValueError, match="state is not pure"):
            CommitmentScheme(*ensembles)


def test_bb84_scheme_conceals():
    scheme = bb84_scheme()
    assert scheme.is_concealing()
    assert np.allclose(scheme.average(), np.eye(2) / 2, atol=1e-12)


def test_concealment_verdict_is_kept_per_scheme_and_tolerance(monkeypatch):
    # bit 1 leans toward |0> by 1e-6: its average is 1.4e-6 from bit 0's, hidden at τ = 1e-4 alone
    eps = 1e-6
    scheme = CommitmentScheme(
        Ensemble.from_pure_states([0.5, 0.5], [[1, 0], [0, 1]]),
        Ensemble.from_pure_states([0.5 + eps, 0.5 - eps], [[1, 0], [0, 1]]),
    )
    distance, gaps = qmat.frobenius_distance, []
    monkeypatch.setattr(qmat, "frobenius_distance", lambda *a: gaps.append(distance(*a)) or gaps[-1])
    assert not scheme.is_concealing() and len(gaps) == 1
    assert not scheme.is_concealing() and len(gaps) == 1  # the same τ reads the kept verdict
    with scoped_tolerance(1e-4):
        assert scheme.is_concealing() and len(gaps) == 2  # a new τ computes its own
        assert scheme.is_concealing() and len(gaps) == 2
    assert not scheme.is_concealing() and len(gaps) == 3  # only the latest τ is kept
    with pytest.raises(ValueError, match="scheme violates concealment"):
        run_commitment(scheme, Honest(0), World("quantum"), 0)
    assert len(gaps) == 3


def test_honest_acceptance_is_one_in_every_world():
    worlds = [
        (World("quantum"), bb84_scheme()),
        (World.dephased(0.5), bb84_scheme()),
        (World.dephased(1.0), bb84_scheme()),
        (World("classical"), classical_scheme()),
    ]
    for world, scheme in worlds:
        for bit in (0, 1):
            transcript = run_commitment(scheme, Honest(bit), world, rng_seed=5)
            assert transcript.acceptance_probability == pytest.approx(1.0, abs=1e-12)
            assert transcript.accept is True
            assert transcript.opened_bit == bit
            assert transcript.phases() == ("commit", "hold", "open", "verify")


def test_run_commitment_rejects_nonconcealing_scheme():
    biased = CommitmentScheme(
        Ensemble.from_pure_states([1.0], [[1, 0]]),
        Ensemble.from_pure_states([1.0], [[0, 1]]),
    )
    with pytest.raises(ValueError):
        run_commitment(biased, Honest(0), World("quantum"), rng_seed=1)


def test_transcript_is_seed_deterministic():
    scheme = bb84_scheme()
    t1 = run_commitment(scheme, Honest(1), World("quantum"), rng_seed=42)
    t2 = run_commitment(scheme, Honest(1), World("quantum"), rng_seed=42)
    assert t1.to_dict() == t2.to_dict()


def test_epr_attack_is_undetectable_in_quantum_world():
    scheme = bb84_scheme()
    for bit in (0, 1):
        transcript = run_commitment(scheme, EprAttack(bit), World("quantum"), rng_seed=9)
        assert transcript.acceptance_probability == pytest.approx(1.0, abs=1e-12)
        assert transcript.accept is True


def test_epr_attack_on_random_qutrit_scheme():
    rng = np.random.default_rng(3)
    omega = rand_density(rng, 3)
    p0, v0 = matching_pure_ensemble(omega, 3, rng)
    p1, v1 = matching_pure_ensemble(omega, 4, rng)
    scheme = CommitmentScheme(
        Ensemble.from_pure_states(p0, v0), Ensemble.from_pure_states(p1, v1)
    )
    for bit in (0, 1):
        transcript = run_commitment(scheme, EprAttack(bit), World("quantum"), rng_seed=11)
        assert transcript.acceptance_probability == pytest.approx(1.0, abs=1e-9)


def random_basis_scheme(rng: np.random.Generator, d: int) -> CommitmentScheme:
    """Two Haar-random orthonormal bases with uniform weights, drawn as the qudit benchmark draws them."""
    w = [1.0 / d] * d
    return CommitmentScheme(
        Ensemble.from_pure_states(w, rand_unitary(rng, d).T), Ensemble.from_pure_states(w, rand_unitary(rng, d).T)
    )


ATTACK_WORLDS = (World("quantum"), World("dephased", 0.3), World("dephased", 1.0), World("classical"))


@pytest.mark.parametrize("d", (2, 3, 4, 8))
def test_epr_attack_and_its_measurements_match_the_per_branch_and_per_member_loops(d):
    for seed in range(50):
        scheme = random_basis_scheme(np.random.default_rng(seed), d)
        attack = scheme._epr_attack()
        psi = purify(scheme.average(), d)
        for bit in (0, 1):
            want = hjw_effects_by_member(psi, (d, d), scheme.ensemble(bit))
            assert len(attack.measurements[bit].effects) == len(want)
            assert np.abs(attack.measurements[bit].effects - want).max() <= 1e-14
            for world in ATTACK_WORLDS:
                got = run_commitment(scheme, EprAttack(bit), world, seed)
                index, accept, acceptance = epr_attack_by_branch(scheme, bit, world, seed)
                assert (got.opened_index, got.accept) == (index, accept)
                assert abs(got.acceptance_probability - acceptance) <= 1e-14


def test_a_branch_that_never_fires_or_is_below_tolerance_accepts_nothing():
    # a pure average has a product purification: the HJW measurement's complement |1><1| has probability 0
    scheme = CommitmentScheme(*[Ensemble.from_pure_states([1.0], [[1, 0]])] * 2)
    effects = scheme._epr_attack().measurements[0].effects
    assert np.array_equal(effects, [qmat.projector([1, 0]), qmat.projector([0, 1])])
    # a member of weight 1e-11 steers a branch below τ, which counts as rejected
    eps = 1e-11
    faint = CommitmentScheme(*[Ensemble.from_pure_states([1 - eps, eps], [[1, 0], [0, 1]])] * 2)
    for world in ATTACK_WORLDS:
        for seed in range(20):
            got = run_commitment(scheme, EprAttack(0), world, seed)
            assert (got.opened_index, got.accept, got.acceptance_probability) == (0, True, 1.0)
            assert epr_attack_by_branch(scheme, 0, world, seed) == (0, True, 1.0)
            got = run_commitment(faint, EprAttack(1), world, seed)
            assert (got.opened_index, got.accept) == (0, True)
            assert got.acceptance_probability == pytest.approx(1 - eps, abs=1e-15)
            assert epr_attack_by_branch(faint, 1, world, seed) == (0, True, got.acceptance_probability)
            # an honest member below τ accepts nothing either, in a scheme that still conceals
            got = run_commitment(faint, Honest(1), world, seed)
            assert (got.opened_index, got.accept) == (0, True)
            assert got.acceptance_probability == pytest.approx(1 - eps, abs=1e-15)
    # at τ = 1e-4, seed 16283's first draw, 0.99997..., opens the member of weight 5e-5 ≤ τ
    eps = 5e-5
    with scoped_tolerance(1e-4):
        faint = CommitmentScheme(*[Ensemble.from_pure_states([1 - eps, eps], [[1, 0], [0, 1]])] * 2)
        for world in ATTACK_WORLDS:
            got = run_commitment(faint, Honest(0), world, 16283)
            assert (got.opened_index, got.accept) == (1, False)
            assert got.acceptance_probability == pytest.approx(1 - eps, abs=1e-15)


def test_epr_attack_detected_in_fully_dephased_world():
    scheme = bb84_scheme()
    world = World.dephased(1.0)
    acceptances = {}
    for bit in (0, 1):
        transcript = run_commitment(scheme, EprAttack(bit), world, rng_seed=13)
        acceptances[bit] = transcript.acceptance_probability
    assert acceptances[0] == pytest.approx(1.0, abs=1e-12)
    assert acceptances[1] == pytest.approx(0.5, abs=1e-12)

    # independent enumeration of the verification Born probability
    from qworlds.entangle import hjw_steering_measurement, pure_vector

    omega = scheme.average()
    psi = purify(omega, 2)
    separated = world.separate(BipartiteState(qmat.projector(psi), (2, 2)))
    for bit in (0, 1):
        target = scheme.ensemble(bit)
        m = hjw_steering_measurement(psi, (2, 2), target)
        vecs = [pure_vector(t) for t in target.members]
        oracle = attack_acceptance_by_enumeration(list(m.effects)[: len(vecs)], vecs, separated.rho)
        assert oracle == pytest.approx(acceptances[bit], abs=1e-12)


def test_attack_acceptance_interpolates_with_strength():
    scheme = bb84_scheme()
    for lam in (0.25, 0.5, 0.75):
        transcript = run_commitment(scheme, EprAttack(1), World.dephased(lam), rng_seed=17)
        assert transcript.acceptance_probability == pytest.approx(1.0 - lam / 2.0, abs=1e-12)


def test_concealment_check_examples():
    scheme = bb84_scheme()
    assert concealment_check(scheme, World("quantum")) == ConcealmentCheck(True, pytest.approx(0.0, abs=1e-12))
    check = concealment_check(scheme, World.dephased(1.0))
    assert check.concealed and check.distance < 1e-12
    biased = CommitmentScheme(
        Ensemble.from_pure_states([0.5, 0.5], [[1, 0], [0, 1]]),
        Ensemble.from_pure_states([0.8, 0.2], [[1, 0], [0, 1]]),
    )
    check = concealment_check(biased, World("quantum"))
    gap = qmat.frobenius_distance(biased.ensemble_0.average(), biased.ensemble_1.average())
    assert not check.concealed
    assert check.distance == pytest.approx(gap, abs=1e-12)


def test_classical_unique_decomposition_on_equal_averages():
    algebra = BlockAlgebra((1, 1, 1))
    points = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    ens0 = Ensemble(np.array([0.2, 0.3, 0.5]), tuple(p.astype(complex) for p in points))
    ens1 = Ensemble(
        np.array([0.5, 0.3, 0.2]), (points[2].astype(complex), points[1].astype(complex), points[0].astype(complex))
    )
    assert classical_unique_decomposition(ens0, ens1, algebra)
    assert np.allclose(point_mass_distribution(ens0, algebra), [0.2, 0.3, 0.5])


def test_classical_unique_decomposition_detects_unequal_averages():
    algebra = BlockAlgebra((1, 1))
    p0 = np.diag([1.0, 0]).astype(complex)
    p1 = np.diag([0, 1.0]).astype(complex)
    ens0 = Ensemble(np.array([0.6, 0.4]), (p0, p1))
    ens1 = Ensemble(np.array([0.4, 0.6]), (p0, p1))
    assert not classical_unique_decomposition(ens0, ens1, algebra)
    d0 = point_mass_distribution(ens0, algebra)
    d1 = point_mass_distribution(ens1, algebra)
    assert int(np.argmax(np.abs(d0 - d1))) in (0, 1)


def test_classical_unique_decomposition_rejects_noncommutative_algebra():
    algebra = BlockAlgebra((2,))
    ens = Ensemble.from_pure_states([1.0], [[1, 0]])
    with pytest.raises(ValueError):
        classical_unique_decomposition(ens, ens, algebra)


def test_no_signaling_for_luders_channel_on_singlet():
    distance = no_signaling_trial(epr_singlet(), KrausChannel(z_measurement().projectors))
    assert distance < 1e-12


def test_no_signaling_identity_channel():
    assert no_signaling_trial(epr_singlet(), KrausChannel((np.eye(2),))) == pytest.approx(0.0, abs=1e-15)


def test_no_signaling_random_sweep():
    rng = np.random.default_rng(19)
    worst = 0.0
    for dims in ((2, 2), (2, 3)):
        for _ in range(25):
            rho = rand_density(rng, dims[0] * dims[1])
            channel = KrausChannel(tuple(rand_channel(rng, dims[0], int(rng.integers(1, 4)))))
            worst = max(worst, no_signaling_trial(BipartiteState(rho, dims), channel))
    assert worst < 1e-10


def _separated_random_pairs(rng):
    """Random pairs at dims (2,2), (2,3), (3,2) and (4,4), each as the three worlds leave it."""
    for dims in ((2, 2), (2, 3), (3, 2), (4, 4)):
        rho = rand_density(rng, dims[0] * dims[1])
        for world in (World("quantum"), World.dephased(0.3), World("classical")):
            yield world.separate(BipartiteState(rho, dims))


def test_no_signaling_trial_matches_kron_reference():
    rng = np.random.default_rng(37)
    for state in _separated_random_pairs(rng):
        kraus = rand_channel(rng, state.dims[0], int(rng.integers(1, 4)))
        after = sum(marginal_b_after_by_loops(k, state.rho, state.dims[1], k) for k in kraus)
        expected = qmat.frobenius_distance(state.marginal_b(), after)
        assert abs(no_signaling_trial(state, KrausChannel(tuple(kraus))) - expected) < 1e-12


def test_steered_branches_match_kron_reference():
    rng = np.random.default_rng(41)
    for state in _separated_random_pairs(rng):
        da = state.dims[0]
        effects = [qmat.dagger(k) @ k for k in rand_channel(rng, da, 3)]
        effects.append(np.zeros((da, da)))  # a branch below tolerance keeps its index
        p, branches = steered_branches(state, GeneralizedMeasurement(tuple(effects)))
        assert len(p) == len(branches) == len(effects)
        for e, q, u in zip(effects, p, branches):
            unnormalized = marginal_b_after_by_loops(e, state.rho, state.dims[1])
            assert abs(q - np.trace(unnormalized).real) < 1e-12
            assert np.max(np.abs(u - unnormalized)) < 1e-12
        assert p[-1] == 0.0 and not branches[-1].any()


def test_no_signaling_rejects_selective_channel():
    selective = KrausChannel((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(ValueError):
        no_signaling_trial(epr_singlet(), selective)


def test_selective_steering_contrast_examples():
    rng = np.random.default_rng(23)
    product = BipartiteState(np.kron(rand_density(rng, 2), rand_density(rng, 2)), (2, 2))
    assert steering_contrast(product, z_measurement()) == pytest.approx(0.0, abs=1e-10)

    contrast = steering_contrast(epr_singlet(), z_measurement())
    assert contrast == pytest.approx(SQRT_HALF, abs=1e-12)


def test_selective_steering_contrast_positive_for_nondegenerate_measurements():
    from tests.oracles import rand_unitary

    rng = np.random.default_rng(29)
    singlet = epr_singlet()
    for _ in range(10):
        u = rand_unitary(rng, 2)
        m = ProjectiveMeasurement((qmat.projector(u[:, 0]), qmat.projector(u[:, 1])))
        assert steering_contrast(singlet, m) > 0.1


@pytest.mark.parametrize("d", (2, 3, 4, 8))
def test_honest_run_draws_as_the_per_member_run_and_scores_the_born_average(d):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        bases = [rand_unitary(rng, d).T for _ in range(2)]
        scheme = CommitmentScheme(*(Ensemble.from_pure_states([1.0 / d] * d, basis) for basis in bases))
        for bit in (0, 1):
            for world in ATTACK_WORLDS:
                got = run_commitment(scheme, Honest(bit), world, seed)
                index, accept, _ = honest_run_by_member(scheme, bit, world, seed)
                assert (got.opened_index, got.accept) == (index, accept)
                # sum_j p_j tr(T_j ω(T_j)) with p_j = 1/d and T_j = |v_j><v_j|: each term is 1 where the
                # world carries a lone state intact, sum_i |v_ji|^4 where it dephases it computationally
                kept = (np.abs(bases[bit]) ** 4).sum(axis=1) if world.kind == "classical" else np.ones(d)
                assert abs(got.acceptance_probability - kept.mean()) <= 1e-14


def test_honest_acceptance_is_the_born_average_when_members_transmit_unequally():
    # both bits average to I/2; the classical world keeps |0> and |1> intact but halves |+> and |->
    s = SQRT_HALF
    scheme = CommitmentScheme(
        Ensemble.from_pure_states([0.5, 0.5], [[1, 0], [0, 1]]),
        Ensemble.from_pure_states([0.25] * 4, [[1, 0], [0, 1], [s, s], [s, -s]]),
    )
    for seed in range(40):
        got = run_commitment(scheme, Honest(1), World("classical"), seed)
        assert got.acceptance_probability == pytest.approx(0.75, abs=1e-15)


def test_selective_steering_contrast_bell_route():
    from qworlds.entangle import SteeringExampleConfig, bell_basis, singlet_vector, steering_states

    config = SteeringExampleConfig(0.6, 0.8)
    phi1 = steering_states(config)[0]
    joint = BipartiteState(qmat.projector(np.kron(phi1, singlet_vector())), (4, 2))
    bell_on_a = ProjectiveMeasurement(tuple(qmat.projector(v) for v in bell_basis()))
    contrast = steering_contrast(joint, bell_on_a)
    assert contrast == pytest.approx(SQRT_HALF, abs=1e-10)


def test_transcripts_are_complete_frozen_records():
    scheme = bb84_scheme()
    for world in (World("quantum"), World.dephased(0.5), World("classical")):
        for strategy in (Honest(0), Honest(1), EprAttack(0), EprAttack(1)):
            t = run_commitment(scheme, strategy, world, rng_seed=4)
            assert t.phases() == ("commit", "hold", "open", "verify")
            doc = t.to_dict()
            assert doc["phases"] == list(t.phases())
            assert set(doc) == {"phases", "rng_seed", "commit", "open", "verify"}
            assert set(doc["open"]) == {"bit", "index"}
            assert set(doc["verify"]) == {"accept", "acceptance_probability"}
            with pytest.raises(dataclasses.FrozenInstanceError):
                t.accept = not t.accept
    with pytest.raises(TypeError):
        ProtocolTranscript(
            rng_seed=0, commit_description="x", opened_index=0, accept=True, acceptance_probability=1.0
        )


@pytest.mark.parametrize("world", (World("quantum"), World.dephased(0.5)), ids=("quantum", "dephased-0.5"))
@pytest.mark.parametrize("strategy", (EprAttack, Honest))
@pytest.mark.parametrize("bit", (-1, 2))
def test_out_of_range_bits_raise(world, strategy, bit):
    # -1 must not index the attack's measurements as bit 1
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        run_commitment(bb84_scheme(), strategy(bit), world, rng_seed=3)


def test_attack_builds_both_bits_measurements_before_either_runs():
    # concealing at τ·dim, but bit 1's average misses the pair's marginal by more than τ
    z = Ensemble.from_pure_states([0.5, 0.5], [[1, 0], [0, 1]])
    x = Ensemble.from_pure_states([0.5 + 1e-4, 0.5 - 1e-4], [[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])
    with scoped_tolerance(1e-4):
        scheme = CommitmentScheme(z, x)
        assert scheme.is_concealing()
        for bit in (0, 1):
            with pytest.raises(AverageMismatchError, match="target ensemble average deviates"):
                run_commitment(scheme, EprAttack(bit), World("quantum"), rng_seed=3)


MEMO_WORLDS = (
    World("quantum"), World.dephased(0.0), World.dephased(0.3), World.dephased(1.0), World("classical")
)


def test_reused_scheme_matches_fresh_schemes():
    reused = bb84_scheme()
    for world in MEMO_WORLDS:
        for bit in (0, 1):
            for seed in (0, 7, 2**40 + 3):
                warm = run_commitment(reused, EprAttack(bit), world, seed)
                cold = run_commitment(bb84_scheme(), EprAttack(bit), world, seed)
                assert warm.to_dict() == cold.to_dict()
                assert warm.acceptance_probability == cold.acceptance_probability


def count_epr_builds(monkeypatch) -> dict:
    """Count calls of the purification and HJW builders that `protocols` makes."""
    counts = {"purify": 0, "hjw": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(protocols, "purify", counting("purify", protocols.purify))
    monkeypatch.setattr(
        protocols, "hjw_steering_measurement", counting("hjw", protocols.hjw_steering_measurement)
    )
    return counts


def test_epr_setup_is_built_once_per_scheme_bit_and_tolerance(monkeypatch):
    counts = count_epr_builds(monkeypatch)
    schemes = (bb84_scheme(), bb84_scheme())

    def run_ten():
        for k in range(10):
            world = MEMO_WORLDS[k % len(MEMO_WORLDS)]
            for scheme in schemes:
                run_commitment(scheme, EprAttack(k % 2), world, k)

    run_ten()
    assert counts == {"purify": 2, "hjw": 4}  # one pair per scheme, one measurement per (scheme, bit)
    with scoped_tolerance(1e-8):
        run_ten()
        assert counts == {"purify": 4, "hjw": 8}  # a new tolerance builds once more
    run_ten()
    assert counts == {"purify": 6, "hjw": 12}  # only the latest tolerance is kept


def test_what_a_scheme_or_pair_keeps_does_not_keep_it_alive():
    # the kept concealment verdict and EPR attack, and the frame and classical separation kept for its pair,
    # refer to neither owner
    scheme = bb84_scheme()
    for world in MEMO_WORLDS:
        run_commitment(scheme, EprAttack(1), world, 3)
    pair = scheme._epr_attack().pair
    assert set(qmat._KEPT[scheme]) == {"concealing", "epr attack"} and set(qmat._KEPT[pair]) == {"frame", "classical"}
    owners = weakref.ref(scheme), weakref.ref(pair)
    kept = len(qmat._KEPT)
    del scheme, pair
    assert [owner() for owner in owners] == [None, None]  # freed at once: no reference, not even a cycle
    assert len(qmat._KEPT) <= kept - 2  # and their entries with them


def test_commitment_scheme_is_frozen():
    scheme = bb84_scheme()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scheme.ensemble_0 = scheme.ensemble_1
    # an edited ensemble would leave the memoized HJW measurement stale
    assert run_commitment(scheme, EprAttack(1), World("quantum"), 3).acceptance_probability == pytest.approx(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scheme.ensemble_1.members = scheme.ensemble_0.members
    with pytest.raises(ValueError):
        scheme.ensemble_1.members[0][...] = scheme.ensemble_0.members[0]
    assert run_commitment(scheme, EprAttack(1), World("quantum"), 3).acceptance_probability == pytest.approx(1.0)


def test_epr_pair_and_steering_measurements_are_immutable():
    # each write once reached a scheme's EPR memo and turned an attack acceptance of 1 into 0.5
    scheme = bb84_scheme()
    attack = scheme._epr_attack()
    with pytest.raises(AttributeError):
        attack.pair = BipartiteState(np.diag([0.25] * 4).astype(complex), (2, 2))
    with pytest.raises(AttributeError):
        attack.measurements = attack.measurements[::-1]
    with pytest.raises(TypeError):
        attack.measurements[0] = attack.measurements[1]
    pair = attack.pair
    with pytest.raises(ValueError):
        pair.rho[...] = np.diag([0.25] * 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.rho = np.diag([0.25] * 4).astype(complex)
    measurement = attack.measurements[1]
    with pytest.raises(ValueError):
        measurement.effects[0][...] = measurement.effects[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        measurement.effects = measurement.effects[::-1]
    for bit in (0, 1):
        assert run_commitment(scheme, EprAttack(bit), World("quantum"), 3).acceptance_probability == pytest.approx(1.0)
    rho, effect = qmat.projector([1, 0, 0, 0]), qmat.projector([1, 0])
    state = BipartiteState(rho, (2, 2))
    povm = GeneralizedMeasurement((effect, np.eye(2, dtype=complex) - effect))
    rho[0, 0] = effect[0, 0] = 0.0  # the caller's arrays stay writeable, and the copies keep their values
    assert state.rho[0, 0] == 1.0 and povm.effects[0][0, 0] == 1.0


def test_ensembles_are_immutable_and_leave_the_callers_arrays_writeable():
    probabilities = np.array([0.5, 0.5])
    member = np.array([[1, 0], [0, 0]], dtype=complex)  # complex128: validated without a copy
    ens = Ensemble(probabilities, (member, np.eye(2, dtype=complex) - member))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ens.members = ens.members[::-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ens.probabilities = probabilities
    with pytest.raises(ValueError):
        ens.members[0][1, 1] = 1.0
    with pytest.raises(ValueError):
        ens.probabilities[0] = 1.0
    assert member.flags.writeable and probabilities.flags.writeable
    member[1, 1], probabilities[0] = 1.0, 1.0  # the caller's later writes do not reach the ensemble
    assert ens.members[0][1, 1] == 0.0 and ens.probabilities[0] == 0.5
    pure = Ensemble.from_pure_states([1.0], [np.array([1, 0], dtype=complex)])
    with pytest.raises(ValueError):
        pure.members[0][0, 0] = 0.0


def test_reference_schemes_are_built_once_per_tolerance(monkeypatch):
    counts = count_epr_builds(monkeypatch)
    qmat._KEPT.clear()
    rng = np.random.default_rng(5)

    def run_ten():
        for k in range(10):
            protocols.commitment_round(MEMO_WORLDS[k % len(MEMO_WORLDS)], rng)

    run_ten()
    assert counts == {"purify": 1, "hjw": 2}  # one pair, one measurement per bit, for every round
    with scoped_tolerance(1e-8):
        run_ten()
        assert counts == {"purify": 2, "hjw": 4}  # a new tolerance builds one more set
    run_ten()
    assert counts == {"purify": 3, "hjw": 6}  # only the latest tolerance is kept


def test_commitment_round_names_the_schemes_it_ran():
    bb84, classical = protocols._reference_schemes()
    cases = ((World("quantum"), "bb84", bb84), (World("classical"), "classical", classical))
    for world, honest_name, honest_scheme in cases:
        commit = protocols.commitment_round(world, np.random.default_rng(0))
        assert (commit.honest_scheme_name, commit.attack_scheme_name) == (honest_name, "bb84")
        assert commit.honest_scheme is honest_scheme and commit.attack_scheme is bb84


REFERENCE_REQUESTS = [
    ScenarioRequest(scenario, world_kind=kind, strength=strength, seed=11)
    for scenario in ("bitcommit", "constraints")
    for kind, strength in (
        ("quantum", 1.0), ("dephased", 0.0), ("dephased", 0.3), ("dephased", 1.0), ("classical", 1.0)
    )
]


@pytest.mark.parametrize(
    "req", REFERENCE_REQUESTS, ids=[f"{r.scenario}-{r.world_kind}-{r.strength}" for r in REFERENCE_REQUESTS]
)
def test_shared_reference_schemes_give_the_reports_of_fresh_ones(req):
    run_scenario(req)
    warm = run_scenario(req).render()
    qmat._KEPT.clear()
    cold = run_scenario(req).render()
    assert warm == cold


def test_shared_reference_schemes_match_a_fresh_process():
    req = ScenarioRequest("constraints", world_kind="dephased", strength=0.3, seed=11)
    run_scenario(req)
    warm = run_scenario(req).render()
    src = str(Path(qworlds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("QWORLDS_TOL", None)
    fresh = subprocess.run(
        [sys.executable, "-m", "qworlds", "constraints", "--world", "dephased", "--lambda", "0.3", "--seed", "11"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert fresh.stdout == warm
