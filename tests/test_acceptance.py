"""Acceptance suite: one test per numbered criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import numpy as np
import pytest

from qworlds import qmat
from qworlds.algebra import CloneRefusal, broadcast_check, classical_broadcaster, clone_orthogonal_pair
from qworlds.channels import KrausChannel, ProjectiveMeasurement
from qworlds.cli import ScenarioRequest, main, run_scenario
from qworlds.entangle import (
    BipartiteState,
    Ensemble,
    SteeringExampleConfig,
    bell_basis,
    canonical_chsh_settings,
    chsh_score,
    epr_singlet,
    hjw_steering_measurement,
    pure_vector,
    purify,
    singlet_vector,
    steer,
    steering_states,
    teleport,
    teleport_corrections,
)
from qworlds.protocols import (
    CommitmentScheme,
    EprAttack,
    Honest,
    bb84_scheme,
    classical_scheme,
    classical_unique_decomposition,
    no_signaling_trial,
    point_mass_distribution,
    run_commitment,
)
from qworlds.worlds import World, evaluate_constraints

from tests.oracles import (
    attack_acceptance_by_enumeration,
    chsh_grid_max,
    matching_pure_ensemble,
    rand_channel,
    rand_density,
    rand_pure,
    rand_unitary,
)


def _verdict(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS - {text}")


def test_criterion_01_singlet_marginal():
    singlet = epr_singlet()
    for keep in ("A", "B"):
        marginal = qmat.partial_trace(singlet.rho, (2, 2), keep)
        assert np.max(np.abs(marginal - np.eye(2) / 2)) < 1e-12
    _verdict(1, "singlet marginals equal I/2 within 1e-12 on both sides")


def test_criterion_02_steering_example():
    config = SteeringExampleConfig(0.6, 0.8)
    phis = steering_states(config)

    # independent oracle: the direct product-state expansion in the Bell basis
    frozen_coefficients = (-0.5, -0.5, 0.5, -0.5)
    expansion = sum(
        c * np.kron(b, p) for c, b, p in zip(frozen_coefficients, bell_basis(), phis)
    )
    assert np.max(np.abs(expansion - np.kron(phis[0], singlet_vector()))) < 1e-14

    joint = BipartiteState(qmat.projector(np.kron(phis[0], singlet_vector())), (4, 2))
    bell_on_a = ProjectiveMeasurement(tuple(qmat.projector(v) for v in bell_basis()))
    ensemble = steer(joint, bell_on_a)
    assert np.all(np.abs(ensemble.probabilities - 0.25) < 1e-10)
    for member, phi in zip(ensemble.members, phis):
        assert abs(qmat.fidelity_to_vector(phi, member) - 1.0) < 1e-10
    _verdict(2, "Bell steering gives probabilities 1/4 and conditionals phi_1..phi_4 at fidelity 1")


def test_criterion_03_hjw_roundtrip():
    rng = np.random.default_rng(101)
    for trial in range(50):
        db = 2 if trial % 2 == 0 else 3
        rho = rand_density(rng, db)
        n_members = int(rng.integers(db, 2 * db + 1))
        probs, vectors = matching_pure_ensemble(rho, n_members, rng)
        target = Ensemble.from_pure_states(probs, vectors)
        psi = purify(rho, db)
        measurement = hjw_steering_measurement(psi, (db, db), target)
        steered = steer(BipartiteState(qmat.projector(psi), (db, db)), measurement)
        assert np.all(np.abs(steered.probabilities[: len(probs)] - probs) < 1e-9)
        for member, vec in zip(steered.members, vectors):
            assert abs(qmat.fidelity_to_vector(vec, member) - 1.0) < 1e-9
    _verdict(3, "steer after hjw_steering_measurement reproduces 50 random ensembles within 1e-9")


def test_criterion_04_teleportation():
    rng = np.random.default_rng(202)
    shared = epr_singlet()
    for k in range(1000):
        chi = rand_pure(rng, 2)
        outcome = (k % 4) + 1
        result = teleport(chi, shared, force_outcome=outcome)
        assert abs(result.fidelity - 1.0) < 1e-10

    # the outcome-1 correction already is the identity, so mutating it is vacuous
    table = teleport_corrections()
    assert np.array_equal(table[0], np.eye(2))
    probe_inputs = [np.array([0.6, 0.8]), np.array([0.6, 0.8j]), rand_pure(rng, 2)]
    for mutated_index in (1, 2, 3):
        mutated = list(teleport_corrections())
        mutated[mutated_index] = np.eye(2, dtype=complex)
        worst = min(
            teleport(chi, shared, force_outcome=mutated_index + 1, corrections=tuple(mutated)).fidelity
            for chi in probe_inputs
        )
        assert worst < 0.999
    _verdict(4, "1000 forced-branch teleports at fidelity 1; every non-identity correction is load-bearing")


def test_criterion_05_no_signaling():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(500):
        dims = (2, 2) if trial % 2 == 0 else (2, 3)
        rho = rand_density(rng, dims[0] * dims[1])
        channel = KrausChannel(tuple(rand_channel(rng, dims[0], int(rng.integers(1, 4)))))
        worst = max(worst, no_signaling_trial(BipartiteState(rho, dims), channel))
    assert worst < 1e-10

    selective = KrausChannel((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(ValueError):
        no_signaling_trial(epr_singlet(), selective)
    _verdict(5, f"500 nonselective trials move Bob's marginal by at most {worst:.2e}; selective channels rejected")


def test_criterion_06_broadcasting_dichotomy():
    rng = np.random.default_rng(404)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        u = rand_unitary(rng, d)
        channel = classical_broadcaster(u.T)
        for _ in range(2):
            w = rng.dirichlet(np.ones(d))
            rho = u @ np.diag(w).astype(complex) @ np.conj(u).T
            ok, deviation = broadcast_check(channel, rho)
            assert ok and deviation < 1e-12

    tested = 0
    while tested < 50:
        rho = rand_density(rng, 2)
        sigma = rand_density(rng, 2)
        if qmat.frobenius_distance(rho @ sigma, sigma @ rho) <= 0.1:
            continue
        tested += 1
        _, v = qmat.eigh(rho)
        channel = classical_broadcaster(v.T)
        dev = max(broadcast_check(channel, rho).deviation, broadcast_check(channel, sigma).deviation)
        assert dev > 1e-3

    for overlap in np.concatenate(([2e-6, 1 - 2e-6], np.linspace(0.01, 0.99, 21))):
        psi = rand_pure(rng, 2)
        z = rand_pure(rng, 2)
        perp = z - np.vdot(psi, z) * psi
        perp = perp / np.linalg.norm(perp)
        phi = overlap * psi + np.sqrt(1 - overlap**2) * perp
        assert isinstance(clone_orthogonal_pair(psi, phi), CloneRefusal)
    _verdict(6, "commuting pairs broadcast exactly, non-commuting pairs fail, nonorthogonal cloning refused")


def test_criterion_07_bit_commitment():
    # honest acceptance is exactly 1 in every world (world-valid schemes)
    honest_cases = [
        (World("quantum"), bb84_scheme()),
        (World.dephased(0.5), bb84_scheme()),
        (World.dephased(1.0), bb84_scheme()),
        (World("classical"), classical_scheme()),
    ]
    for world, scheme in honest_cases:
        for bit in (0, 1):
            t = run_commitment(scheme, Honest(bit), world, rng_seed=1)
            assert abs(t.acceptance_probability - 1.0) < qmat.tolerance()

    # quantum world: the EPR attack is perfect on 50 random concealing schemes
    rng = np.random.default_rng(505)
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        omega = rand_density(rng, d)
        p0, v0 = matching_pure_ensemble(omega, int(rng.integers(d, 2 * d + 1)), rng)
        p1, v1 = matching_pure_ensemble(omega, int(rng.integers(d, 2 * d + 1)), rng)
        scheme = CommitmentScheme(
            Ensemble.from_pure_states(p0, v0), Ensemble.from_pure_states(p1, v1)
        )
        for bit in (0, 1):
            t = run_commitment(scheme, EprAttack(bit), World("quantum"), rng_seed=trial)
            assert abs(t.acceptance_probability - 1.0) < 1e-9

    # dephased world at full strength: frozen regression margin delta = 0.5
    world = World.dephased(1.0)
    scheme = bb84_scheme()
    acceptances = [
        run_commitment(scheme, EprAttack(bit), world, rng_seed=7).acceptance_probability
        for bit in (0, 1)
    ]
    min_acceptance = min(acceptances)
    delta = 1.0 - min_acceptance
    assert delta > 0.0
    assert abs(delta - 0.5) < 1e-9  # frozen after first computation by the exact oracle

    # independent Born-probability enumeration of the same attack
    psi = purify(scheme.average(), 2)
    separated = world.separate(BipartiteState(qmat.projector(psi), (2, 2)))
    for bit, expected in zip((0, 1), acceptances):
        target = scheme.ensemble(bit)
        m = hjw_steering_measurement(psi, (2, 2), target)
        vecs = [pure_vector(t) for t in target.members]
        oracle = attack_acceptance_by_enumeration(list(m.effects)[: len(vecs)], vecs, separated.rho)
        assert abs(oracle - expected) < 1e-12
    _verdict(7, "honest acceptance 1 everywhere; quantum attack perfect on 50 schemes; dephased margin delta = 0.5")


def test_criterion_08_classical_unique_decomposition():
    rng = np.random.default_rng(606)
    n_points = 6
    from qworlds.algebra import BlockAlgebra

    algebra = BlockAlgebra((1,) * n_points)
    points = [np.diag(np.eye(n_points)[k]).astype(complex) for k in range(n_points)]

    def random_point_ensemble(dist):
        probs, members = [], []
        for k, q in enumerate(dist):
            split = int(rng.integers(1, 3))
            for part in rng.dirichlet(np.ones(split)) * q:
                probs.append(part)
                members.append(points[k])
        order = rng.permutation(len(probs))
        return Ensemble(np.asarray(probs)[order], tuple(members[i] for i in order))

    for _ in range(100):
        dist = rng.dirichlet(np.ones(n_points))
        ens0 = random_point_ensemble(dist)
        ens1 = random_point_ensemble(dist)
        assert classical_unique_decomposition(ens0, ens1, algebra)
        d0 = point_mass_distribution(ens0, algebra)
        d1 = point_mass_distribution(ens1, algebra)
        assert np.max(np.abs(d0 - d1)) < 1e-10
    _verdict(8, "100 equal-average classical ensemble pairs induce identical point distributions")


def test_criterion_09_chsh():
    singlet = epr_singlet()
    score = chsh_score(singlet, canonical_chsh_settings())
    assert abs(abs(score) - 2 * np.sqrt(2)) < 1e-9

    dephased = World.dephased(1.0).separate(singlet)
    assert chsh_grid_max(dephased.rho, step_degrees=1.0) <= 2.0 + 1e-9

    rng = np.random.default_rng(707)
    for _ in range(3):
        product = np.kron(rand_density(rng, 2), rand_density(rng, 2))
        assert chsh_grid_max(product, step_degrees=1.0) <= 2.0 + 1e-9
    _verdict(9, "singlet scores 2*sqrt(2); dephased singlet and product states stay under 2 on a 1-degree grid")


def test_criterion_10_world_coherence():
    classical = evaluate_constraints(World("classical"))
    quantum = evaluate_constraints(World("quantum"))
    dephased0 = evaluate_constraints(World.dephased(0.0))
    dephased1 = evaluate_constraints(World.dephased(1.0))

    table = {
        "classical": (False, True, False),
        "quantum": (False, False, True),
        "dephased1": (False, False, False),
    }
    actual = {
        "classical": (classical.signaling_possible, classical.broadcasting_possible,
                      classical.steering_attack_succeeds),
        "quantum": (quantum.signaling_possible, quantum.broadcasting_possible,
                    quantum.steering_attack_succeeds),
        "dephased1": (dephased1.signaling_possible, dephased1.broadcasting_possible,
                      dephased1.steering_attack_succeeds),
    }
    assert actual == table
    assert quantum == dephased0
    assert min(dephased1.steering_witness["acceptance_by_bit"]) < 1.0
    assert all(abs(a - 1.0) < 1e-9 for a in quantum.steering_witness["acceptance_by_bit"])
    _verdict(10, "constraint reports match the classical/quantum/dephased table; dephased(0) equals quantum")


def test_criterion_11_cli_determinism(tmp_path):
    for argv in (
        ["steer", "--alpha", "0.6", "--beta", "0.8", "--world", "quantum", "--seed", "7"],
        ["constraints", "--world", "dephased", "--lambda", "1", "--seed", "9"],
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        code1 = main(argv + ["--out", str(out1)])
        code2 = main(argv + ["--out", str(out2)])
        assert code1 == code2
        assert out1.read_bytes() == out2.read_bytes()
    rendered = [
        run_scenario(ScenarioRequest(scenario="teleport", seed=1, trials=50)).render()
        for _ in range(2)
    ]
    assert rendered[0] == rendered[1]
    _verdict(11, "repeated identical requests produce byte-identical structured reports")
