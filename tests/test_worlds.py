import math
import re

import numpy as np
import pytest

from qworlds import qmat, worlds
from qworlds.channels import _dephase
from qworlds.entangle import BipartiteState, epr_singlet, negativity, purify, singlet_vector
from qworlds.worlds import World, _broadcasting_battery, _signaling_battery, evaluate_constraints

from tests.oracles import (
    broadcasting_battery_by_checks,
    dephase_by_loops,
    diagonal_part,
    rand_density,
    separate_by_parts,
    signaling_battery_by_trials,
)
from tests.scoping import scoped_tolerance

SQRT_HALF = 1 / np.sqrt(2)


def test_world_validation():
    with pytest.raises(ValueError):
        World("magic")
    with pytest.raises(ValueError):
        World.dephased(1.5)
    with pytest.raises(ValueError):
        World("quantum", 0.3)


def test_quantum_separation_is_identity():
    singlet = epr_singlet()
    assert World("quantum").separate(singlet) is singlet
    assert World.dephased(0.0).separate(singlet) is singlet


def test_full_dephasing_turns_singlet_into_correlated_mixture():
    separated = World.dephased(1.0).separate(epr_singlet())
    expected = 0.5 * (qmat.projector([0, 1, 0, 0]) + qmat.projector([0, 0, 1, 0]))
    assert np.allclose(separated.rho, expected, atol=1e-12)
    assert np.allclose(qmat.partial_trace(separated.rho, separated.dims, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(separated.marginal_b(), np.eye(2) / 2, atol=1e-12)
    assert negativity(separated) == pytest.approx(0.0, abs=1e-12)


def test_dephased_singlet_keeps_z_anticorrelation():
    separated = World.dephased(1.0).separate(epr_singlet())
    p_opposite = 0.0
    for a, b in ((0, 1), (1, 0)):
        proj = np.kron(qmat.projector(np.eye(2)[a]), qmat.projector(np.eye(2)[b]))
        p_opposite += float(np.real(np.trace(proj @ separated.rho)))
    assert p_opposite == pytest.approx(1.0, abs=1e-12)


def test_separation_preserves_marginals_for_random_states():
    rng = np.random.default_rng(3)
    for world in (World.dephased(0.3), World.dephased(1.0)):
        for _ in range(10):
            state = BipartiteState(rand_density(rng, 6), (2, 3))
            separated = world.separate(state)
            marginal_a = qmat.partial_trace(state.rho, state.dims, "A")
            assert qmat.frobenius_distance(qmat.partial_trace(separated.rho, separated.dims, "A"), marginal_a) < 1e-12
            assert qmat.frobenius_distance(separated.marginal_b(), state.marginal_b()) < 1e-12


def test_separation_matches_loop_dephasing_oracle():
    rng = np.random.default_rng(5)
    world = World.dephased(0.6)
    state = BipartiteState(rand_density(rng, 4), (2, 2))
    basis = world.separation_basis(state)
    assert np.allclose(world.separate(state).rho, dephase_by_loops(state.rho, basis, 0.6), atol=1e-12)


def test_classical_separation_forces_computational_diagonal():
    state = epr_singlet()
    separated = World("classical").separate(state)
    assert np.allclose(separated.rho, np.diag(np.diag(state.rho)), atol=0)


def test_computational_dephasing_is_one_kernel_and_the_classical_world_is_lambda_one():
    rng = np.random.default_rng(18)
    for d in (2, 3, 4, 8, 16):
        for rho in (rand_density(rng, d), np.stack([rand_density(rng, d) for _ in range(10)])):
            assert np.array_equal(_dephase(None, rho, 1.0), diagonal_part(rho))
            for lam in (0.3, 0.7):
                assert np.allclose(_dephase(None, rho, lam), _dephase(np.eye(d), rho, lam), atol=1e-12)
    # non-degenerate diagonal marginals: the separation basis is the computational one up to phases
    state = BipartiteState(qmat.projector([np.sqrt(0.7), 0, 0, np.sqrt(0.3)]), (2, 2))
    assert np.allclose(World("classical").separate(state).rho, World.dephased(1.0).separate(state).rho, atol=1e-12)


SEPARATING_WORLDS = [World("classical"), World.dephased(0.1), World.dephased(0.5), World.dephased(1.0)]


def _pairs(rng: np.random.Generator, d: int) -> list[BipartiteState]:
    """A mixed pair and a pure one, a purification as the EPR attack shares, on d x d."""
    return [
        BipartiteState(rand_density(rng, d * d), (d, d)),
        BipartiteState(qmat.projector(purify(rand_density(rng, d), d)), (d, d)),
    ]


def _same_pair(a: BipartiteState, b: BipartiteState) -> bool:
    return a.dims == b.dims and a.rho.tobytes() == b.rho.tobytes()


def test_kept_separation_equals_the_unkept_one_bit_for_bit():
    rng = np.random.default_rng(20)
    for d in (2, 3, 4, 8):
        for state in _pairs(rng, d):
            for _ in range(2):  # the second pass reuses what the first kept
                for world in SEPARATING_WORLDS:
                    want = separate_by_parts(world, state)
                    assert _same_pair(world.separate(state), want)
                    assert _same_pair(world.separate(BipartiteState(state.rho, state.dims)), want)


def test_a_pair_builds_and_checks_its_separation_once_per_tolerance(monkeypatch):
    calls = {"basis": 0, "orthonormal": 0, "density": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    state = BipartiteState(rand_density(np.random.default_rng(21), 9), (3, 3))
    monkeypatch.setattr(worlds, "_separation_basis", counted("basis", worlds._separation_basis))
    monkeypatch.setattr(qmat, "require_orthonormal_rows", counted("orthonormal", qmat.require_orthonormal_rows))
    monkeypatch.setattr(qmat, "require_density", counted("density", qmat.require_density))
    classical = World("classical")
    for t in (1e-6, 1e-4, 1e-6):
        with scoped_tolerance(t):
            before = dict(calls)
            for lam in (0.3, 0.7, 0.3):
                World.dephased(lam).separate(state)
            World.dephased(0.5).separation_basis(state)
            first = classical.separate(state)
            assert classical.separate(state) is first
            # one basis built and checked, one classical pair checked; each dephased output checked
            assert calls["basis"] - before["basis"] == 1
            assert calls["orthonormal"] - before["orthonormal"] == 1
            assert calls["density"] - before["density"] == 3 + 1
            assert {key for key, _ in qmat._KEPT[state].values()} == {((), t)}


def test_kept_basis_and_classical_pair_are_read_only():
    state = BipartiteState(rand_density(np.random.default_rng(22), 4), (2, 2))
    basis = World.dephased(0.5).separation_basis(state)
    kept = [basis, World("classical").separate(state).rho, *qmat._KEPT[state]["frame"][1]]
    for a in kept:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_distinct_pairs_keep_their_own_separation():
    rng = np.random.default_rng(23)
    rho = rand_density(rng, 4)
    a, b = BipartiteState(rho, (2, 2)), BipartiteState(rho, (2, 2))  # equal, but two pairs
    other = BipartiteState(rand_density(rng, 4), (2, 2))
    world = World.dephased(0.5)
    assert World("classical").separate(a) is not World("classical").separate(b)
    assert world.separation_basis(a) is not world.separation_basis(b)
    assert not np.array_equal(world.separation_basis(a), world.separation_basis(other))
    assert _same_pair(world.separate(other), separate_by_parts(world, other))
    assert qmat._KEPT[a] is not qmat._KEPT[b]


@pytest.mark.parametrize(
    "world", [World("classical"), World.dephased(0.3), World.dephased(1.0)],
    ids=["classical", "dephased-0.3", "dephased-1"],
)
def test_stacked_separation_runs_the_kernel_of_separate(world):
    rng = np.random.default_rng(24)
    for dims in ((2, 2), (2, 3), (3, 3), (4, 4), (8, 8)):
        rho = np.stack([rand_density(rng, dims[0] * dims[1]) for _ in range(6)])
        for member, separated in zip(rho, world._separated(rho, dims)):
            assert separated.tobytes() == world.separate(BipartiteState(member, dims)).rho.tobytes()


def test_transmit_policies():
    plus_x = qmat.projector([SQRT_HALF, SQRT_HALF])
    assert np.array_equal(World("quantum").transmit(plus_x), plus_x)
    assert np.array_equal(World.dephased(1.0).transmit(plus_x), plus_x)
    assert np.allclose(World("classical").transmit(plus_x), np.eye(2) / 2, atol=1e-12)
    # a stack over the last two axes is the per-matrix calls, bit for bit, and names a bad member
    rng = np.random.default_rng(17)
    stack = np.stack([rand_density(rng, 3) for _ in range(4)])
    bad = stack.copy()
    bad[2] = -bad[2]
    for world in (World("quantum"), World.dephased(0.5), World("classical")):
        got = world.transmit(stack)
        assert got.shape == stack.shape
        for member, sent in zip(stack, got):
            assert sent.tobytes() == world.transmit(member).tobytes()
        with pytest.raises(ValueError) as single:
            world.transmit(bad[2])
        with pytest.raises(ValueError, match=f"^stack member 2: {re.escape(str(single.value))}$"):
            world.transmit(bad)


def test_negativity_monotone_in_separation_strength():
    values = [
        negativity(World.dephased(lam).separate(epr_singlet()))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[-1] == pytest.approx(0.0, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_purification_separation_in_degenerate_case_uses_deterministic_basis():
    omega = np.eye(2, dtype=complex) / 2
    state = BipartiteState(qmat.projector(purify(omega, 2)), (2, 2))
    basis = World.dephased(1.0).separation_basis(state)
    # deterministic eigh ordering resolves the degenerate marginals to the
    # computational product basis (up to row order)
    mags = np.abs(basis)
    assert np.allclose(mags @ mags.T, np.eye(4), atol=1e-12)
    assert np.allclose(np.max(mags, axis=1), 1.0, atol=1e-12)


def test_constraint_reports_match_world_expectations():
    classical = evaluate_constraints(World("classical"))
    quantum = evaluate_constraints(World("quantum"))
    dephased0 = evaluate_constraints(World.dephased(0.0))
    dephased1 = evaluate_constraints(World.dephased(1.0))

    assert (classical.signaling_possible, classical.broadcasting_possible,
            classical.steering_attack_succeeds) == (False, True, False)
    assert (quantum.signaling_possible, quantum.broadcasting_possible,
            quantum.steering_attack_succeeds) == (False, False, True)
    assert (dephased1.signaling_possible, dephased1.broadcasting_possible,
            dephased1.steering_attack_succeeds) == (False, False, False)

    assert quantum == dephased0

    assert quantum.steering_witness["acceptance_by_bit"] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert min(dephased1.steering_witness["acceptance_by_bit"]) == pytest.approx(0.5, abs=1e-12)
    assert classical.steering_witness["unique_decomposition_identical"] is True
    assert "dephasing_basis" in dephased1.steering_witness
    assert "dephasing_basis" not in dephased0.steering_witness


def test_constraint_report_serializes():
    report = evaluate_constraints(World("quantum"))
    d = report.to_dict()
    assert set(d) == {"signaling", "broadcasting", "steering_attack"}
    assert d["signaling"]["possible"] is False
    assert d["steering_attack"]["succeeds"] is True


def test_battery_is_seed_deterministic():
    a = evaluate_constraints(World.dephased(1.0), rng_seed=123)
    b = evaluate_constraints(World.dephased(1.0), rng_seed=123)
    assert a == b


@pytest.mark.parametrize(
    "world",
    [World("quantum"), World.dephased(0.0), World.dephased(0.37), World.dephased(1.0), World("classical")],
    ids=["quantum", "dephased-0", "dephased-0.37", "dephased-1", "classical"],
)
def test_stacked_signaling_battery_matches_the_per_trial_loop(world):
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        possible, witness = _signaling_battery(world, rng)
        ref_possible, ref_witness = signaling_battery_by_trials(world, ref_rng)
        assert possible == ref_possible
        assert witness["trials"] == ref_witness["trials"] == 20
        assert witness["dims"] == ref_witness["dims"]
        gap = abs(witness["max_marginal_distance"] - ref_witness["max_marginal_distance"])
        assert gap <= 1e-14
        # the later batteries draw from the same generator state
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "world",
    [World("quantum"), World.dephased(0.0), World.dephased(0.37), World.dephased(1.0), World("classical")],
    ids=["quantum", "dephased-0", "dephased-0.37", "dephased-1", "classical"],
)
def test_stacked_broadcasting_battery_matches_the_per_check_loop_bit_for_bit(world):
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert repr(_broadcasting_battery(world, rng)) == repr(broadcasting_battery_by_checks(world, ref_rng))
        # the commitment battery draws next, from the same generator state
        assert rng.random() == ref_rng.random()


def test_negativity_is_positive_zero_where_no_eigenvalue_is_negative():
    product = BipartiteState(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex), (2, 2))
    maximally_mixed = BipartiteState(np.eye(4, dtype=complex) / 4, (2, 2))
    dephased_singlet = World.dephased(1.0).separate(epr_singlet())
    for state in (product, maximally_mixed, dephased_singlet):
        assert math.copysign(1.0, negativity(state)) == 1.0
