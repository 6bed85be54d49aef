"""End-to-end acceptance checks, one test per guaranteed behavior.

Numeric regression values are frozen from a brute-force oracle run
(dense diagonalization / dense matrix exponentials at desk scale).
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm

from bosonsim import (
    block_encoding,
    downfolding,
    dynamics,
    encodings,
    flows,
    ground_state,
    models,
    open_systems,
    state_prep,
    trunc_bounds,
)
from bosonsim.pauli import PauliSum, PauliTerm


def random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (A + A.conj().T) / 2.0


# ---------------------------------------------------------------------------
# 1. printed decompositions, coefficient-exact
# ---------------------------------------------------------------------------


def test_printed_decompositions_are_coefficient_exact():
    tol = 1e-12

    # spin-boson, one mode at cutoff 3, omega=2, eps=2, delta=1
    g = 0.4
    sb = models.build_spin_boson(models.SpinBosonParams(
        delta=1.0, epsilon=2.0, omegas=(2.0,), couplings=(g,), cutoffs=(3,)))
    c = {t.letters: t.coefficient for t in sb.pauli.terms}
    expect = {
        "III": 3.0, "IIZ": -1.0, "IZI": -2.0, "XII": 1.0, "ZII": 1.0,
        "XIX": (g / 2) * (1 + math.sqrt(3)),
        "XZX": (g / 2) * (1 - math.sqrt(3)),
        "XXX": (g / 2) * math.sqrt(2),
        "XYY": (g / 2) * math.sqrt(2),
    }
    assert set(c) == set(expect)
    for letters, value in expect.items():
        assert abs(c[letters] - value) < tol, letters

    # two-site hard-core chain: binary hopping block is -t/2 (XX + YY)
    bh = models.build_bose_hubbard(models.BoseHubbardParams(
        n_sites=2, t=1.0, U=0.0, V=0.0, mu=0.0, Nb=1))
    cb = {t.letters: t.coefficient for t in bh.pauli.terms}
    assert abs(cb["XX"] + 0.5) < tol and abs(cb["YY"] + 0.5) < tol

    # the same block in the one-hot encoding: eight words at 1/8
    un = models.build_bose_hubbard(models.BoseHubbardParams(
        n_sites=2, t=-1.0, U=0.0, V=0.0, mu=0.0, Nb=1), encoding="unary")
    cu = {t.letters: t.coefficient for t in un.pauli.terms}
    for letters, sign in (("XXXX", 1), ("XXYY", 1), ("YYXX", 1), ("YYYY", 1),
                          ("XYXY", 1), ("XYYX", -1), ("YXXY", -1),
                          ("YXYX", 1)):
        assert abs(cu[letters] - sign / 8.0) < tol, letters

    # parity-string fermion ladder and number operators on 3 sites
    Z = np.diag([1.0, -1.0])
    I = np.eye(2)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0| raises the bit
    c1 = encodings.fermion_ops_jw(1, 3)["creation"].to_matrix()
    assert np.max(np.abs(c1 - np.kron(np.kron(Z, lower), I))) < tol
    ops0 = encodings.fermion_ops_jw(0, 3)
    n0 = (ops0["creation"] * ops0["annihilation"]).to_matrix()
    assert np.max(np.abs(n0 - np.kron(np.kron((I - Z) / 2, I), I))) < tol

    # hard-core boson position operator embeds as a lone X in the
    # three-site electron-phonon layout (fermions first, then bosons)
    ep = models.build_holstein(models.HolsteinParams(
        n_sites=3, v=1.0, omega=1.0, g=0.5, Nb=1, boundary="periodic"))
    ops = encodings.boson_ops_binary(1)
    x = encodings.embed(ops["creation"] + ops["annihilation"], ep.layout, 3)
    (term,) = x.terms
    assert term.letters == "IIIXII" and abs(term.coefficient - 1.0) < tol


# ---------------------------------------------------------------------------
# 2. encoding equivalence
# ---------------------------------------------------------------------------


def test_compiled_pauli_matrices_match_fock_oracles():
    cases = [
        models.build_bose_hubbard(models.BoseHubbardParams(
            n_sites=2, t=0.7, U=1.3, V=0.2, mu=0.4, Nb=3)),
        models.build_bose_hubbard(models.BoseHubbardParams(
            n_sites=2, t=0.7, U=1.3, V=0.2, mu=0.4, Nb=2), encoding="unary"),
        models.build_spin_boson(models.SpinBosonParams(
            delta=0.9, epsilon=0.3, omegas=(1.0, 1.5), couplings=(0.2, 0.1),
            cutoffs=(3, 3))),
        models.build_holstein(models.HolsteinParams(
            n_sites=3, v=1.0, omega=0.8, g=0.5, Nb=1, boundary="periodic")),
    ]
    for model in cases:
        assert model.layout.total_qubits <= 10
        assert model.identification_defect() < 1e-10


@pytest.mark.parametrize("Nb", [1, 3, 7])
def test_unary_and_binary_encodings_agree_under_isometry(Nb):
    uo = encodings.boson_ops_unary(Nb)
    bo = encodings.boson_ops_binary(int(math.log2(Nb + 1)))
    ru = encodings.RegisterLayout.build(
        [{"kind": "boson", "encoding": "unary", "cutoff": Nb}]).encoded_rows()
    rb = encodings.RegisterLayout.build(
        [{"kind": "boson", "encoding": "binary", "cutoff": Nb}]).encoded_rows()
    for key in ("creation", "annihilation", "number"):
        a = uo[key].to_matrix()[np.ix_(ru, ru)]
        b = bo[key].to_matrix()[np.ix_(rb, rb)]
        assert np.max(np.abs(a - b)) < 1e-12, key


# ---------------------------------------------------------------------------
# 3. moment-method convergence on the 3-site electron-phonon chain
# ---------------------------------------------------------------------------

# frozen regression values from the dense diagonalization oracle
_PDS_FROZEN = {
    # g: (E_ED, |PDS(2)-E_ED|, |PDS(5)-E_ED|)
    0.0: (-2.0, 0.381966011250105, 8.9e-16),
    0.5: (-2.11745934952123, 0.714759601671949, 0.00163715637765538),
    1.0: (-2.40948319809717, 0.836098779945412, 0.0690000307597454),
    1.5: (-3.24341649025257, 1.19490448171715, 0.109067912684252),
    2.0: (-4.68465843842649, 2.04844657396827, 0.0689056831074923),
}


def test_moment_method_sweep_matches_frozen_regression():
    for g, (e0, err2, err5) in _PDS_FROZEN.items():
        m = models.build_holstein(models.HolsteinParams(
            n_sites=3, v=1.0, omega=1.0, g=g, Nb=1, boundary="periodic"))
        H = m.pauli.to_matrix()
        w, _ = ground_state.exact_diagonalize(H)
        assert w[0] == pytest.approx(e0, abs=1e-9)
        phi = ground_state.holstein_trial_state(m.layout)
        mom = ground_state.moments(H, phi, 9)
        roots = {K: ground_state.pds(mom, K, allow_degenerate=True).lowest_root
                 for K in (1, 2, 3, 4, 5)}
        for K, root in roots.items():
            assert root >= w[0] - 1e-9, (g, K)
        assert abs(roots[5] - w[0]) < abs(roots[2] - w[0])
        assert abs(roots[2] - w[0]) == pytest.approx(err2, rel=1e-9)
        if g == 0.0:
            assert abs(roots[5] - w[0]) < 1e-12
        else:
            assert abs(roots[5] - w[0]) == pytest.approx(err5, rel=1e-9)


# ---------------------------------------------------------------------------
# 4. product-formula error bounds and convergence orders
# ---------------------------------------------------------------------------


def test_first_order_error_bound_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        K = random_hermitian(rng, d)
        V = random_hermitian(rng, d)
        t = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 8))
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        exact = dynamics.evolve_exact(K + V, psi0, t)
        approx = dynamics.trotter_evolve([K, V], psi0, t, n, order=1)
        err = np.linalg.norm(exact - approx)
        assert err <= dynamics.trotter_error_bound(K, V, t, n) + 1e-12


def test_fitted_convergence_orders():
    rng = np.random.default_rng(12)
    K = random_hermitian(rng, 5)
    V = random_hermitian(rng, 5)
    psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi0 /= np.linalg.norm(psi0)
    exact = dynamics.evolve_exact(K + V, psi0, 1.0)
    for order, expect in ((1, 1.0), (2, 2.0)):
        errs = [np.linalg.norm(
            exact - dynamics.trotter_evolve([K, V], psi0, 1.0, n, order))
            for n in (8, 16, 32, 64)]
        slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert abs(np.mean(slopes) - expect) < 0.15


def test_dissipative_palindromic_splitting_order():
    b, bd, n = models.mode_matrices(3)
    H = 1.0 * n + 0.4 * (b + bd)
    L_h = open_systems.build_liouvillian(
        open_systems.LindbladSpec(H, 0.0, 0.0, b, n))
    L_d = open_systems.build_liouvillian(
        open_systems.LindbladSpec(np.zeros((4, 4)), 0.05, 0.03, b, n))
    L = L_h + L_d
    errs = []
    for dt in (0.1, 0.05, 0.025):
        step = open_systems.liouvillian_trotter_step([L_h, L_d], dt, 2)
        errs.append(np.linalg.norm(step - expm(L * dt), 2))
    slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(slopes) >= 2.9


# ---------------------------------------------------------------------------
# 5. circuit synthesis
# ---------------------------------------------------------------------------


def test_synthesis_exact_for_every_word_up_to_four_letters():
    delta = 0.8191
    for width in (2, 3, 4):
        for letters in itertools.product("IXYZ", repeat=width):
            word = "".join(letters)
            gl = dynamics.synthesize_pauli_exponential(word, delta)
            target = expm(-0.5j * delta * PauliTerm(word, 1.0).to_matrix())
            assert np.max(np.abs(gl.unitary() - target)) < 1e-12, word


# ---------------------------------------------------------------------------
# 6. short-time leakage lemma at the printed operating point
# ---------------------------------------------------------------------------


def test_dense_leakage_within_single_step_bound():
    dim = 61 + 40 + 1  # occupations 0..61 plus padding
    nmat = np.diag(np.arange(dim, dtype=float))
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    H = 1.0 * nmat + 1.0 * (b + b.T)  # g*omega = 1
    chi = 2.0
    dt = 1.0 / (chi * math.sqrt(1.0))
    rep = trunc_bounds.leakage_oracle(H, np.arange(dim), 1, 61, dt)
    bound = trunc_bounds.short_time_leakage_bound(60).value
    assert rep["value"] <= bound
    assert rep["sensitivity"] < 0.1 * bound


# ---------------------------------------------------------------------------
# 7. cutoff theorem end to end
# ---------------------------------------------------------------------------


def oscillator(dim, g):
    """Sparse H = n̂ + g(b + b†) on dim levels; its H_w has χ = 2g."""
    hop = g * np.sqrt(np.arange(1.0, dim))
    return scipy.sparse.diags([hop, np.arange(dim, dtype=float), hop], [-1, 0, 1],
                              format="csc")


def test_calculated_cutoff_controls_the_dense_defect():
    inp = trunc_bounds.TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    lam, plan = trunc_bounds.hamiltonian_cutoff(inp)
    assert lam == 3721
    # padded above Λ̃, so H̃ differs from H and the defect is not 0 by construction
    dim = lam + 1 + 200
    defect = trunc_bounds.truncation_defect(
        oscillator(dim, 1.0), np.arange(dim), lambda0=1, lambda_tilde=lam, t=1.0)
    assert defect <= 1e-2

    # empirical cutoff on a padded 200-level oscillator: the smallest Λ̃
    # whose defect meets ε, which the bound must not undercut
    H, occ = oscillator(200, 1.0), np.arange(200)
    defects = {}
    for lam_emp in itertools.count(1):
        defects[lam_emp] = trunc_bounds.truncation_defect(H, occ, 1, lam_emp, 1.0)
        if defects[lam_emp] <= 1e-2:
            break
    assert defects[lam_emp] <= 1e-2 < defects[lam_emp - 1]
    assert lam >= lam_emp
    # the bound's slack at this point: 3721 / 8 ≈ 465
    assert lam_emp == 8

    # schedule self-consistency: recomputed budget equals the claimed one
    recheck = plan.recompute_total_bound_log()
    for name, slot in plan.budget.items():
        assert recheck[name] == pytest.approx(slot["total_log_bound"],
                                              rel=1e-12)


@pytest.mark.parametrize("n_modes", [1, 100])
def test_cutoff_growth_envelope_is_linear_in_sqrt(n_modes):
    prev = 0
    for t in range(1, 11):
        inp = trunc_bounds.TruncationInput(
            lambda0=1, chi=2.0, t=float(t), eps=1e-2, n_modes=n_modes)
        lam, plan = trunc_bounds.hamiltonian_cutoff(inp)
        d = plan.delta_lambda
        base = math.sqrt(1.0) + 2.0 * t * d / 2.0  # sqrt(l0) + X*dL/2
        assert base <= math.sqrt(lam) <= math.sqrt(base ** 2 + d)
        assert lam >= prev
        prev = lam
    # splitting the budget over more modes never shrinks the cutoff
    one = trunc_bounds.hamiltonian_cutoff(trunc_bounds.TruncationInput(
        1, 2.0, 1.0, 1e-2, n_modes=1))[0]
    assert trunc_bounds.hamiltonian_cutoff(trunc_bounds.TruncationInput(
        1, 2.0, 1.0, 1e-2, n_modes=n_modes))[0] >= one


# ---------------------------------------------------------------------------
# 8. block encodings
# ---------------------------------------------------------------------------


def test_creation_operator_block_encoding_error_grid():
    for L in (2, 4, 8, 16):
        for p in range(4, 13):
            enc = block_encoding.boson_block_encode(L, 2 ** p)
            assert np.linalg.norm(enc.block - enc.target, 2) <= 2 / 2 ** p
            assert enc.measured_error <= enc.error_bound + 1e-15


def test_lcu_block_identity_and_xi_selection():
    rng = np.random.default_rng(13)
    betas = rng.uniform(0.2, 1.5, 6)
    unis = []
    for _ in range(6):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Q, R = np.linalg.qr(A)
        unis.append(Q * (np.diag(R) / np.abs(np.diag(R))))
    enc = block_encoding.lcu_encode(betas, unis)
    target = sum(b * U for b, U in zip(betas, unis)) / betas.sum()
    assert np.max(np.abs(enc.block - target)) < 1e-10
    assert block_encoding.choose_xi(1.0) == 2
    assert block_encoding.choose_xi(2 / 256) == 256
    assert block_encoding.choose_xi(2 / 256 - 1e-12) == 512


# ---------------------------------------------------------------------------
# 9. state preparation
# ---------------------------------------------------------------------------


def test_prep_probabilities_and_fidelity_on_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(20):
        K = int(rng.integers(1, 9))
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        c /= np.linalg.norm(c)
        A = rng.normal(size=(10, K)) + 1j * rng.normal(size=(10, K))
        Q, _ = np.linalg.qr(A)
        phis = [Q[:, i] for i in range(K)]
        for scheme, expect in (("A", 1.0 / K),
                               ("B", 1.0 / np.sum(np.abs(c)) ** 2)):
            plan = state_prep.plan_prep(c, scheme)
            out = state_prep.simulate_prep(plan, phis)
            assert out["fidelity"] >= 1 - 1e-10
            assert abs(out["probability"] - expect) < 1e-10


def test_permutation_synthesis_is_bit_exact():
    rng = np.random.default_rng(15)
    perm = rng.permutation(32)
    s = state_prep.synthesize_permutation(
        {i: int(perm[i]) for i in range(32)}, 32)
    assert all(s.apply(i) == perm[i] for i in range(32))


# ---------------------------------------------------------------------------
# 10. downfolding
# ---------------------------------------------------------------------------


def test_downfolding_identities_and_benchmark_convergence():
    sp = downfolding.BosonFockSpace(3, 2)

    # decomposition inverts the ansatz on random real states
    rng = np.random.default_rng(16)
    for _ in range(100):
        v = rng.normal(size=sp.dim)
        v /= np.linalg.norm(v)
        params = downfolding.decompose_state(v, sp)
        again = downfolding.apply_ansatz(params, sp)
        assert abs(np.dot(v, again)) >= 1 - 1e-9

    # benchmark chain: the nested loop reaches the exact ground energy
    Hb = downfolding.bose_hubbard_fixed_n(sp, t=1.0, U=0.5, V=1.0,
                                          mu=(-1.0, 0.0, 1.0))
    out = downfolding.nested_optimize(Hb, sp)
    assert abs(out["energy"] - np.linalg.eigvalsh(Hb)[0]) <= 1e-6

    # effective-Hamiltonian eigenvalue identity at exact amplitudes
    Hr = downfolding.bose_hubbard_fixed_n(sp, t=0.5, U=0.5, V=0.2,
                                          mu=(1.0, 0.0, -1.0))
    basis = downfolding.excitation_basis(sp)
    amps, energy, res = downfolding.solve_cc_amplitudes(Hr, sp, basis)
    assert res < 1e-10
    eff = downfolding.build_heff(Hr, sp, amps, basis, active_modes={1})
    vals = np.linalg.eigvals(eff.matrix)
    w, V = np.linalg.eigh(Hr)
    assert np.min(np.abs(vals - w[0])) < 1e-8

    # the asymmetric energy functional is exact at the true wavefunction
    basis1 = downfolding.excitation_basis(sp, max_rank=1)
    amps1, _, _ = downfolding.solve_cc_amplitudes(Hr, sp, basis1)
    T = downfolding.cluster_matrix(amps1, basis1, sp)
    mm = downfolding.mmcc_energy(Hr, T, sp.reference(), V[:, 0])
    assert mm["direct"].real == pytest.approx(w[0], abs=1e-10)


# ---------------------------------------------------------------------------
# 11. open systems
# ---------------------------------------------------------------------------


def test_open_system_guarantees():
    b, bd, n = models.mode_matrices(3)
    spec = open_systems.LindbladSpec(1.0 * n, 0.05, 0.02, b, n)
    L = open_systems.build_liouvillian(spec)

    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[1, 1] = 1.0
    rho = open_systems.propagate_lindblad(L, rho0, 10.0, dt=1e-3)
    assert abs(np.trace(rho) - 1.0) < 1e-8

    # closed-system limit reduces to unitary conjugation
    L0 = open_systems.build_liouvillian(
        open_systems.LindbladSpec(1.0 * n, 0.0, 0.0, b, n))
    rng = np.random.default_rng(17)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0)
    rho = open_systems.propagate_lindblad(L0, rho0, 1.5, dt=1e-3)
    U = expm(-1.5j * (1.0 * n))
    assert np.max(np.abs(rho - U @ rho0 @ U.conj().T)) < 1e-8

    # column-stacking identities
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Aop = rng.normal(size=(4, 4))
    Bop = rng.normal(size=(4, 4))
    v = open_systems.vectorize(X)
    assert np.max(np.abs(open_systems.devectorize(v, 4) - X)) < 1e-12
    assert np.max(np.abs(np.kron(Bop.T, Aop) @ v
                         - open_systems.vectorize(Aop @ X @ Bop))) < 1e-12

    # Hermitian/anti-Hermitian split of the channel: halving the step
    # quarters the reconstruction residual
    r1 = open_systems.lcu_split(L, 0.3, 1e-3)["residual"]
    r2 = open_systems.lcu_split(L, 0.3, 5e-4)["residual"]
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)


# ---------------------------------------------------------------------------
# 12. flows
# ---------------------------------------------------------------------------


def test_flow_guarantees():
    rng = np.random.default_rng(18)
    A = rng.normal(size=(8, 8))
    H0 = (A + A.T) / 2
    traj = flows.wegner_flow(H0, s_max=300.0)
    offs = [st.off_diagonal_norm for st in traj]
    assert all(a >= b - 1e-10 for a, b in zip(offs, offs[1:]))
    assert abs(traj[-1].trace_h2 - traj[0].trace_h2) < 1e-8
    d = np.sort(np.real(np.diag(traj[-1].H)))
    assert np.max(np.abs(d - np.linalg.eigvalsh(H0))) < 1e-6

    # closed-form quasiparticle energies
    assert flows.bogoliubov_2site(3.0, 4.0, "fermionic").energy == \
        pytest.approx(5.0)
    assert flows.bogoliubov_2site(5.0, 3.0, "bosonic").energy == \
        pytest.approx(4.0)

    for N in (4, 6, 7):
        spec = flows.xy_spectrum(N, 1.0, 0.5, 1.0)
        bdg = flows.xy_bdg_spectrum(N, 1.0, 0.5, 1.0)
        assert np.max(np.abs(np.sort(spec["E_k"]) - bdg)) < 1e-10


# ---------------------------------------------------------------------------
# 13. two-boson quantum walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("U", [1.0, 100.0])
def test_walk_trotter_agrees_with_exact_propagation(U):
    m = models.build_bose_hubbard(models.BoseHubbardParams(
        n_sites=3, t=1.0, U=U, V=0.0, mu=0.0, Nb=2))
    V = models.build_bose_hubbard(models.BoseHubbardParams(
        n_sites=3, t=0.0, U=U, V=0.0, mu=0.0, Nb=2)).fock
    K = m.fock - V
    dims = m.layout.fock_dims
    psi0 = np.zeros(int(np.prod(dims)), dtype=complex)
    idx = 0
    for d, occ in zip(dims, (0, 2, 0)):
        idx = idx * d + occ
    psi0[idx] = 1.0
    t = 0.5
    n = int(round(t / 1e-5))
    exact = dynamics.evolve_exact(m.fock, psi0, t)
    approx = dynamics.trotter_evolve([K, V], psi0, t, n, order=2)
    ann = [models.embed_fock(models.mode_matrices(dims[i] - 1)[0], dims, i)
           for i in range(3)]
    g_exact, dens = models.walk_observables(exact, ann)
    g_trot, _ = models.walk_observables(approx, ann)
    assert np.max(np.abs(g_exact - g_trot)) < 1e-6
    assert np.allclose(g_exact, g_exact.T, atol=1e-12)
    assert sum(dens) == pytest.approx(2.0, abs=1e-10)
