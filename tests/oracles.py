"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops or closed forms,
separate from the library code paths it checks. The exceptions are the
references for stacked paths: the per-item code that each one replaces.
"""

from __future__ import annotations

import numpy as np

from qworlds import qmat
from qworlds.algebra import classical_broadcaster
from qworlds.channels import KrausChannel, apply_nonselective
from qworlds.entangle import (
    BipartiteState,
    UnsupportedTargetError,
    bell_basis,
    epr_singlet,
    schmidt,
    teleport_corrections,
)
from qworlds.protocols import REPORT_EDGE, no_signaling_trial


def rand_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def rand_density(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = z @ np.conj(z).T
    return m / float(np.trace(m).real)


def rand_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


def rand_channel(rng: np.random.Generator, d: int, n_kraus: int) -> list[np.ndarray]:
    """Kraus blocks of a random isometry dilation; trace preserving by construction."""
    z = rng.normal(size=(d * n_kraus, d)) + 1j * rng.normal(size=(d * n_kraus, d))
    q, _ = np.linalg.qr(z)
    return [q[i * d : (i + 1) * d, :] for i in range(n_kraus)]


def rand_povm(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """K^dag K for the Kraus operators of a random channel: n effects summing to the identity."""
    return [np.conj(k).T @ k for k in rand_channel(rng, d, n)]


def kron_by_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product expanded index by index, A-index major."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def partial_trace_by_loops(m: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    """Partial trace written as explicit index sums."""
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for k in range(da):
                for j in range(db):
                    out[i, k] += m[i * db + j, k * db + j]
        return out
    out = np.zeros((db, db), dtype=complex)
    for j in range(db):
        for m_idx in range(db):
            for i in range(da):
                out[j, m_idx] += m[i * db + j, i * db + m_idx]
    return out


def marginal_b_after_by_loops(
    left: np.ndarray, rho: np.ndarray, db: int, right: np.ndarray | None = None
) -> np.ndarray:
    """Tr_A[(L x I) rho (R x I)^dagger] through the full Kronecker products.

    L and R have shape (m, dA); `right=None` gives Tr_A[(L x I) rho].
    """
    eye_b = np.eye(db, dtype=complex)
    joint = kron_by_loops(left, eye_b) @ rho
    if right is not None:
        joint = joint @ np.conj(kron_by_loops(right, eye_b)).T
    return partial_trace_by_loops(joint, left.shape[0], db, "B")


def matching_pure_ensemble(
    rho: np.ndarray, n_members: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Random pure-state ensemble averaging exactly to `rho`.

    Measures a random orthonormal basis on an n-dim ancilla purifying rho;
    the resulting branch states average to rho by construction.
    """
    d = rho.shape[0]
    w, v = np.linalg.eigh(rho)
    w = np.clip(w[::-1], 0.0, None)
    v = v[:, ::-1]
    rank = int(np.sum(w > 1e-12))
    if n_members < rank:
        raise ValueError("need at least rank many members")
    psi = np.zeros(n_members * d, dtype=complex)
    for k in range(rank):
        anc = np.zeros(n_members, dtype=complex)
        anc[k] = 1.0
        psi += np.sqrt(w[k]) * np.kron(anc, v[:, k])
    u = rand_unitary(rng, n_members)
    probs, members = [], []
    for k in range(n_members):
        basis_vec = u[:, k]
        # (<u_k| x I) psi
        branch = np.conj(basis_vec) @ psi.reshape(n_members, d)
        p = float(np.real(np.vdot(branch, branch)))
        probs.append(p)
        members.append(branch / np.sqrt(p))
    return np.asarray(probs), members


def dephase_by_loops(rho: np.ndarray, basis_rows: np.ndarray, lam: float) -> np.ndarray:
    """Basis dephasing computed entry by entry in the given basis."""
    n = rho.shape[0]
    coeff = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            coeff[i, j] = np.conj(basis_rows[i]) @ rho @ basis_rows[j]
            if i != j:
                coeff[i, j] *= 1.0 - lam
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out += coeff[i, j] * np.outer(basis_rows[i], np.conj(basis_rows[j]))
    return out


def diagonal_part(rho: np.ndarray) -> np.ndarray:
    """Each operator's diagonal, with the off-diagonal entries set to zero, over the last two axes."""
    d = rho.shape[-1]
    out = np.zeros(rho.shape, dtype=rho.dtype)
    # every (d + 1)-th entry of a flattened d x d matrix is on its diagonal
    out.reshape(rho.shape[:-2] + (-1,))[..., :: d + 1] = rho.reshape(rho.shape[:-2] + (-1,))[..., :: d + 1]
    return out


def attack_acceptance_by_enumeration(
    effects: list[np.ndarray], targets: list[np.ndarray], rho_joint: np.ndarray
) -> float:
    """Exact Born probability that Bob's verification accepts an EPR unveiling.

    Enumerates the steering-measurement branches: outcome j steers Bob, who
    then projects onto target j, so the acceptance is
    sum_j trace[(E_j x |t_j><t_j|) rho].
    """
    total = 0.0
    for e, t in zip(effects, targets):
        proj = np.outer(t, np.conj(t))
        total += float(np.real(np.trace(np.kron(e, proj) @ rho_joint)))
    return total


def correlation_matrix_xz(rho4: np.ndarray) -> np.ndarray:
    """2x2 matrix of spin correlations over the {z, x} axes of each qubit."""
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    axes = [sz, sx]
    m = np.zeros((2, 2))
    for i, oa in enumerate(axes):
        for j, ob in enumerate(axes):
            m[i, j] = float(np.real(np.trace(np.kron(oa, ob) @ rho4)))
    return m


def chsh_grid_max(rho4: np.ndarray, step_degrees: float = 1.0) -> float:
    """Largest |CHSH score| over an angle grid in the x-z plane.

    Exhaustive over all (a, a', b, b') grid assignments, using the identity
    S = [E(a,b) + E(a,b')] + [E(a',b) - E(a',b')] to split the maximization.
    """
    m = correlation_matrix_xz(rho4)
    angles = np.deg2rad(np.arange(0.0, 360.0, step_degrees))
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # (n, 2): (z, x) weights
    e = u @ m @ u.T  # e[a, b]
    n = e.shape[0]
    chunk = 64
    f_max = np.full((n, n), -np.inf)
    f_min = np.full((n, n), np.inf)
    g_max = np.full((n, n), -np.inf)
    g_min = np.full((n, n), np.inf)
    for start in range(0, n, chunk):
        block = e[start : start + chunk]  # (c, n)
        f = block[:, :, None] + block[:, None, :]  # (c, b, b')
        g = block[:, :, None] - block[:, None, :]
        f_max = np.maximum(f_max, f.max(axis=0))
        f_min = np.minimum(f_min, f.min(axis=0))
        g_max = np.maximum(g_max, g.max(axis=0))
        g_min = np.minimum(g_min, g.min(axis=0))
    best = max(float((f_max + g_max).max()), float(-(f_min + g_min).min()))
    return best


def signaling_battery_by_trials(world, rng: np.random.Generator) -> tuple[bool, dict]:
    """The no-signaling sweep of `worlds.evaluate_constraints`, one trial at a time.

    Each trial builds its own BipartiteState, separates it through
    `world.separate`, builds its own KrausChannel and calls
    `no_signaling_trial`, with the random draws in the battery's order.
    """
    max_dist = 0.0
    trials = 0
    for dims in ((2, 2), (2, 3)):
        for _ in range(10):
            rho = rand_density(rng, dims[0] * dims[1])
            state = world.separate(BipartiteState(rho, dims))
            channel = KrausChannel(tuple(rand_channel(rng, dims[0], int(rng.integers(1, 4)))))
            max_dist = max(max_dist, no_signaling_trial(state, channel))
            trials += 1
    witness = {"trials": trials, "max_marginal_distance": max_dist, "dims": [[2, 2], [2, 3]]}
    return max_dist > 1e-10, witness


def separate_by_parts(world, state: BipartiteState) -> BipartiteState:
    """The un-memoized `World.separate`: every call builds and checks the basis and the output.

    The marginal eigenbases come from `qmat.eigh`, their Kronecker product
    rows are checked orthonormal, and the off-diagonals in that basis (the
    computational one in the classical world) are damped by one minus the
    world's effective strength, in the evaluation order of the one kernel,
    `channels._dephase`. The result is checked as a new `BipartiteState`.
    """
    lam, rho = world._lambda, state.rho
    if lam == 0.0:
        return state
    damp = np.full(rho.shape, 1.0 - lam)
    np.fill_diagonal(damp, 1.0)
    if world.kind == "classical":
        return BipartiteState(rho * damp, state.dims)
    _, va = qmat.eigh(qmat.partial_trace(rho, state.dims, "A"))
    _, vb = qmat.eigh(qmat.partial_trace(rho, state.dims, "B"))
    basis = qmat.require_orthonormal_rows(qmat.kron_pairs(va.T, vb.T))
    in_basis = np.conj(basis) @ rho @ basis.T
    return BipartiteState(basis.T @ (in_basis * damp) @ np.conj(basis), state.dims)


def broadcast_check_by_parts(channel: KrausChannel, rho: np.ndarray) -> tuple[bool, float]:
    """One broadcast check as one channel application, two partial traces and two distances."""
    d = channel.d_in
    out = apply_nonselective(channel, rho)
    dev_a = qmat.frobenius_distance(qmat.partial_trace(out, (d, d), "A"), rho)
    dev_b = qmat.frobenius_distance(qmat.partial_trace(out, (d, d), "B"), rho)
    deviation = max(dev_a, dev_b)
    return deviation <= qmat.tolerance(), deviation


def broadcasting_battery_by_checks(world, rng: np.random.Generator) -> tuple[bool, dict]:
    """The broadcasting battery of `worlds.evaluate_constraints`, one check at a time.

    Each pair builds its own broadcaster and checks its states one by one,
    with the random draws in the battery's order.
    """
    d = 2
    results_ok = []
    commuting_max = 0.0
    if world.kind == "classical":
        channel = classical_broadcaster(np.eye(d, dtype=complex))
        for _ in range(10):
            w = rng.dirichlet(np.ones(d))
            ok, deviation = broadcast_check_by_parts(channel, np.diag(w).astype(complex))
            results_ok.append(ok)
            commuting_max = max(commuting_max, deviation)
        witness = {
            "pairs": 10,
            "state_family": "diagonal (all commuting)",
            "max_deviation": commuting_max,
        }
        return all(results_ok), witness

    noncommuting_min = np.inf
    failures = 0
    for _ in range(5):
        u = rand_unitary(rng, d)
        channel = classical_broadcaster(u.T)
        for _ in range(2):
            w = rng.dirichlet(np.ones(d))
            rho = u @ np.diag(w).astype(complex) @ np.conj(u).T
            ok, deviation = broadcast_check_by_parts(channel, rho)
            results_ok.append(ok)
            commuting_max = max(commuting_max, deviation)
    tested = 0
    while tested < 5:
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        if qmat.frobenius_distance(rho @ sigma, sigma @ rho) <= 0.1:
            continue
        tested += 1
        _, v = qmat.eigh(rho)
        channel = classical_broadcaster(v.T)
        ok_rho, dev_rho = broadcast_check_by_parts(channel, rho)
        ok_sigma, dev_sigma = broadcast_check_by_parts(channel, sigma)
        pair_ok = ok_rho and ok_sigma
        results_ok.append(pair_ok)
        if not pair_ok:
            failures += 1
            noncommuting_min = min(noncommuting_min, max(dev_rho, dev_sigma))
    witness = {
        "commuting_pairs": 10,
        "commuting_max_deviation": commuting_max,
        "noncommuting_pairs": 5,
        "noncommuting_failures": failures,
        "noncommuting_min_deviation": float(noncommuting_min),
    }
    return all(results_ok), witness


# One member at a time: references for the code over a stack of members, which
# must give the same bits.


def apply_nonselective_by_kraus(kraus_ops, rho: np.ndarray) -> np.ndarray:
    out = np.zeros((kraus_ops[0].shape[0],) * 2, dtype=complex)
    for k in kraus_ops:
        out += k @ rho @ np.conj(k).swapaxes(-1, -2)
    return out


def steered_branches_by_effect(effects, rho: np.ndarray, dims: tuple[int, int]) -> list:
    branches = []
    for e in effects:
        unnormalized = qmat.marginal_b_after(e, rho, dims)
        p = float(np.real(np.trace(unnormalized)))
        if p <= qmat.tolerance():
            branches.append((max(p, 0.0), None))
            continue
        cond = unnormalized / p
        branches.append((p, (cond + np.conj(cond).T) / 2.0))
    return branches


def pure_vector_by_member(rho) -> np.ndarray:
    """The per-matrix `pure_vector` that the stacked extraction replaced."""
    rho = qmat.require_density(rho)
    w, v = qmat.eigh(rho)
    if abs(float(w[0]) - 1.0) > max(qmat.tolerance(), 1e-8):
        raise ValueError(f"state is not pure: top eigenvalue {float(w[0])}")
    return v[:, 0]


def ensemble_average_by_member(probabilities, members) -> np.ndarray:
    return sum(p * m for p, m in zip(probabilities, members))


def classical_broadcaster_by_row(basis: np.ndarray) -> list[np.ndarray]:
    """Kraus operators (|i>|i>) <i| of the classical broadcaster, one basis row at a time."""
    return [np.outer(np.kron(v, v), np.conj(v)) for v in basis]


def positivity_by_eigvalsh(s: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Positivity decided by eigenvalues alone: the rule the Cholesky certificate of `qmat` must agree with.

    Over the last two axes. Returns the smallest eigenvalue of each member's
    Hermitian part and whether it is at least -τ.
    """
    w = np.linalg.eigvalsh((s + np.conj(s).swapaxes(-1, -2)) / 2.0)[..., 0]
    return w, w >= -t


def hjw_effects_by_member(purification, dims: tuple[int, int], target) -> list[np.ndarray]:
    """The HJW effects built one target member at a time, through the support projector.

    The per-member loop that `entangle.hjw_steering_measurement` replaced,
    with its checks of the purification and the target average left out.
    """
    t = qmat.tolerance()
    psi = qmat.as_unit_vector(purification)
    dec = schmidt(psi, dims)
    support = sum(qmat.projector(b) for b in dec.b_basis)
    effects = []
    vectors = [pure_vector_by_member(m) for m in target.members]
    for i, (p, tvec) in enumerate(zip(target.probabilities, vectors)):
        residual = float(np.real(np.vdot(tvec, tvec) - np.vdot(tvec, support @ tvec)))
        if residual > max(t, 1e-9):
            raise UnsupportedTargetError(
                f"target member {i} lies outside the marginal support (residual {residual})"
            )
        overlaps = np.conj(dec.b_basis) @ tvec  # <b_k|t_i>
        d_k = np.sqrt(p) * overlaps / dec.coefficients
        effects.append(qmat.projector(np.conj(d_k) @ dec.a_basis))
    remainder = np.eye(dims[0], dtype=complex) - sum(effects)
    if qmat.frobenius_distance(remainder) > t * dims[0]:
        effects.append((remainder + np.conj(remainder).T) / 2.0)
    return effects


def epr_attack_by_branch(scheme, bit: int, world, rng_seed: int) -> tuple[int, bool, float]:
    """(opened index, accept, acceptance) of an EPR-attack run, one steered branch at a time.

    The per-branch loop that `protocols.run_commitment` replaced: each branch
    above τ is normalized and Hermitized into Bob's conditional state, its
    fidelity to the claimed member is taken, and the fidelities are weighted
    by the branch probabilities.
    """
    rng = np.random.default_rng(rng_seed)
    attack = scheme._epr_attack()
    separated = world.separate(attack.pair)
    target = scheme.ensemble(bit)
    branches = steered_branches_by_effect(attack.measurements[bit].effects, separated.rho, separated.dims)
    fidelities = []
    for j, (p, cond) in enumerate(branches):
        if cond is None or j >= len(target.members):
            fidelities.append(0.0)
            continue
        fidelities.append(float(np.real(np.trace(target.members[j] @ cond))))
    probs = np.array([p for p, _ in branches])
    acceptance = float(np.dot(probs, fidelities) / probs.sum())
    index = qmat.sample_index(probs, rng)
    return index, bool(rng.random() < fidelities[index]), acceptance


def honest_run_by_member(scheme, bit: int, world, rng_seed: int) -> tuple[int, bool, float]:
    """(opened index, accept, acceptance) of an honest run, from the one member Alice draws.

    The honest branch that `protocols.run_commitment` replaced: the member is
    drawn by its ensemble weight, sent through the world alone, and its own
    fidelity after transmission is both the acceptance and the `accept` odds.
    """
    rng = np.random.default_rng(rng_seed)
    ens = scheme.ensemble(bit)
    index = qmat.sample_index(ens.probabilities, rng)
    member = ens.members[index]
    fidelity = float(np.real(np.trace(member @ world.transmit(member))))
    return index, bool(rng.random() < fidelity), fidelity


def teleport_by_kron(
    input_state, shared: BipartiteState, rng_seed: int = 0, force_outcome=None, corrections=None
) -> tuple[int, np.ndarray, float]:
    """(outcome, corrected state, fidelity) of one teleport, through the 8x8 joint state of one trial.

    The per-trial path that `entangle.teleport_branches` replaced: the input's
    projector is kron'd with the pair, each Bell projector on (input, A) with
    the identity on B, and the drawn branch is projected, normalized and traced
    down to B before its correction is applied.
    """
    chi = qmat.as_unit_vector(input_state)
    table = teleport_corrections() if corrections is None else tuple(corrections)
    joint = np.kron(qmat.projector(chi), shared.rho)  # order: input, A, B
    eye_b = np.eye(2, dtype=complex)
    branch_projs = [np.kron(qmat.projector(v), eye_b) for v in bell_basis()]
    probs = np.array([float(np.real(np.trace(p @ joint))) for p in branch_projs])
    if force_outcome is None:
        idx = qmat.sample_index(probs, np.random.default_rng(rng_seed))
    else:
        idx = int(force_outcome) - 1
    post = branch_projs[idx] @ joint @ branch_projs[idx] / probs[idx]
    bob = qmat.partial_trace(post, (4, 2), "B")
    corrected = table[idx] @ bob @ np.conj(table[idx]).T
    return idx + 1, corrected, qmat.fidelity_to_vector(chi, corrected)


def teleport_report_by_trial(world, trials: int, seed: int) -> tuple[dict, dict]:
    """The results and flags of `run_scenario("teleport")`, one `teleport_by_kron` call per trial.

    Each trial draws its input and its seed from the run's generator in the
    order the CLI draws them: two `normal` pairs, then one `integers`.
    """
    rng = np.random.default_rng(seed)
    shared = world.separate(epr_singlet())
    fidelities, counts = [], [0, 0, 0, 0]
    for _ in range(trials):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        outcome, _, fidelity = teleport_by_kron(z / np.linalg.norm(z), shared, int(rng.integers(2**63)))
        fidelities.append(fidelity)
        counts[outcome - 1] += 1
    mean_fid, min_fid = float(np.mean(fidelities)), float(np.min(fidelities))
    results = {"trials": trials, "mean_fidelity": mean_fid, "min_fidelity": min_fid, "outcome_counts": counts}
    flags = {
        "mean_fidelity_unity": abs(mean_fid - 1.0) <= REPORT_EDGE,
        "all_outcomes_observed": all(c > 0 for c in counts) if trials >= 50 else True,
    }
    return results, flags
