import math

import numpy as np
import pytest
from scipy.linalg import expm

from bosonsim import downfolding
from bosonsim.downfolding import (
    AnsatzParams,
    BosonFockSpace,
    Excitation,
    apply_ansatz,
    bose_hubbard_fixed_n,
    build_heff,
    cluster_matrix,
    decompose_state,
    excitation_basis,
    fci_dims,
    mmcc_energy,
    nested_optimize,
    solve_cc_amplitudes,
)
from bosonsim.errors import ParameterError


SP = BosonFockSpace(3, 2)

# reference-dominant model used for the CC/heff/mmcc identities
H_REF = bose_hubbard_fixed_n(SP, t=0.5, U=0.5, V=0.2, mu=(1.0, 0.0, -1.0))
# the nested-optimizer benchmark model
H_BENCH = bose_hubbard_fixed_n(SP, t=1.0, U=0.5, V=1.0, mu=(-1.0, 0.0, 1.0))


def test_dimension_formulas():
    assert fci_dims(3, 2) == 6
    assert fci_dims(10, 10) == math.comb(19, 10)
    assert fci_dims(2, 2) == 3
    # big-integer path
    assert fci_dims(200, 200) == math.comb(399, 200)


def test_basis_order_and_reference():
    assert SP.basis[0] == (2, 0, 0)
    assert SP.dim == 6
    ref = SP.reference()
    assert ref[0] == 1.0 and np.linalg.norm(ref) == 1.0


def test_excitation_matrix_matches_ladder_algebra():
    # b1† b0 on |2,0,0> -> sqrt(2)*sqrt(1) |1,1,0>
    E = SP.excitation_matrix((1,), (0,))
    out = E @ SP.state((2, 0, 0))
    expect = math.sqrt(2) * SP.state((1, 1, 0))
    assert np.allclose(out, expect)
    # number operator from the excitation matrix with equal targets
    n1 = SP.excitation_matrix((1,), (1,))
    assert np.allclose(n1, SP.number_matrix(1))


def test_fixed_n_hamiltonian_is_symmetric_with_expected_diagonal():
    assert np.allclose(H_REF, H_REF.T)
    # |2,0,0>: U*2*(2-1)/2 - 2*mu_0 = 0.5*2/2*2... compute directly
    i = SP.index[(2, 0, 0)]
    assert H_REF[i, i] == pytest.approx(0.5 * 0.5 * 2 * 1 - 2 * 1.0 + 0.2 * 0)


def test_cc_amplitudes_reproduce_exact_ground_energy():
    basis = excitation_basis(SP)
    amps, energy, res = solve_cc_amplitudes(H_REF, SP, basis)
    w = np.linalg.eigvalsh(H_REF)
    assert res < 1e-10
    assert energy == pytest.approx(w[0], abs=1e-9)


def test_cc_residual_meets_default_tol_across_parameter_box():
    # hybr's default xtol (1.5e-8) stopped at residuals up to ~2e-9 in this box
    rng = np.random.default_rng(5)
    basis = excitation_basis(SP)
    for _ in range(20):
        mu = (1.0 + rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
              -1.0 + rng.uniform(-0.2, 0.2))
        H = bose_hubbard_fixed_n(SP, t=rng.uniform(0.3, 0.6), U=rng.uniform(0.3, 0.7),
                                 V=rng.uniform(0.1, 0.3), mu=mu)
        _, energy, res = solve_cc_amplitudes(H, SP, basis)
        assert res <= 1e-10
        assert np.min(np.abs(np.linalg.eigvalsh(H) - energy)) < 1e-9


def test_heff_eigenvalue_identity_at_exact_amplitudes():
    basis = excitation_basis(SP)
    amps, energy, _ = solve_cc_amplitudes(H_REF, SP, basis)
    eff = build_heff(H_REF, SP, amps, basis, active_modes={1})
    vals = np.linalg.eigvals(eff.matrix)
    w = np.linalg.eigvalsh(H_REF)
    assert np.min(np.abs(vals - w[0])) < 1e-8
    assert eff.matrix.shape == (fci_dims(2, 2), fci_dims(2, 2))


def test_mmcc_exact_at_true_wavefunction():
    basis = excitation_basis(SP, max_rank=1)  # truncated cluster operator
    amps, e_cc, _ = solve_cc_amplitudes(H_REF, SP, basis)
    T = cluster_matrix(amps, basis, SP)
    w, V = np.linalg.eigh(H_REF)
    psi = V[:, 0]
    out = mmcc_energy(H_REF, T, SP.reference(), psi)
    assert out["direct"].real == pytest.approx(w[0], abs=1e-10)
    assert abs(out["direct"].imag) < 1e-12
    # the moment expansion agrees with the direct functional
    qa = [exc.matrix(SP) @ SP.reference() for exc in basis]
    qa = [v / np.linalg.norm(v) for v in qa]
    out2 = mmcc_energy(H_REF, T, SP.reference(), psi, qa_configs=qa)
    assert out2["moment"].real == pytest.approx(out2["direct"].real, abs=1e-10)


def test_fixed_n_excitations_must_conserve_particle_number():
    with pytest.raises(ParameterError, match="conserve particle number"):
        SP.excitation_matrix((1,), ())


def test_generators_are_antisymmetric_and_ordered():
    gens = SP.duccsd_generators
    assert [name for name, _ in gens] == ["r1", "r2", "s1", "s2", "s3"]
    for _, G in gens:
        assert np.allclose(G, -G.T)


def test_rotations_match_expm_and_stay_orthogonal():
    angles = np.linspace(-math.pi, math.pi, 65)  # holds 0 and ±π
    for name, G in SP.duccsd_generators:
        for theta in angles:
            R = SP.rotate(name, theta, np.eye(SP.dim))
            assert np.max(np.abs(R - expm(theta * G))) <= 1e-12
            assert np.max(np.abs(R.T @ R - np.eye(SP.dim))) <= 1e-14
            # a vector takes the same rotation; the reference is the first basis state
            assert np.allclose(SP.rotate(name, theta, SP.reference()), R[:, 0],
                               rtol=0, atol=1e-15)


def test_nested_optimize_makes_no_expm_calls(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(downfolding, "expm", counting)
    nested_optimize(H_BENCH, SP)
    decompose_state(apply_ansatz(AnsatzParams(r1=0.3, s2=-0.2), SP), SP)
    assert calls == []
    solve_cc_amplitudes(H_REF, SP, excitation_basis(SP))  # cluster matrices still use expm
    assert calls


def test_ansatz_reaches_all_configurations():
    params = AnsatzParams(r1=0.3, r2=0.2, s1=0.15, s2=0.1, s3=0.05)
    psi = apply_ansatz(params, SP)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.min(np.abs(psi)) > 1e-6  # every configuration populated


def test_decompose_round_trip_on_random_states():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=6)
        v /= np.linalg.norm(v)
        params = decompose_state(v, SP)
        again = apply_ansatz(params, SP)
        fid = abs(np.dot(v, again))
        worst = max(worst, 1 - fid)
    assert worst <= 1e-9


def test_decompose_inverts_apply():
    params = AnsatzParams(r1=-0.4, r2=0.25, s1=0.3, s2=-0.2, s3=0.1)
    psi = apply_ansatz(params, SP)
    rec = decompose_state(psi, SP)
    assert np.allclose(rec.as_list(), params.as_list(), atol=1e-10)


def test_nested_optimize_converges_on_benchmark_model():
    out = nested_optimize(H_BENCH, SP)
    w = np.linalg.eigvalsh(H_BENCH)
    assert abs(out["energy"] - w[0]) <= 1e-6
    assert len(out["trace"]) <= 10
    assert out["H_eff"].shape == (3, 3)


def test_nested_optimize_zero_coupling_reference_exact():
    H0 = bose_hubbard_fixed_n(SP, t=0.0, U=0.05, V=0.0, mu=(1.0, 0.0, -1.0))
    out = nested_optimize(H0, SP)
    w = np.linalg.eigvalsh(H0)
    assert out["energy"] == pytest.approx(w[0], abs=1e-10)


def test_external_cluster_matrix_excludes_internal_targets():
    basis = excitation_basis(SP)
    amps = np.arange(1.0, len(basis) + 1)
    eff = build_heff(H_REF, SP, amps, basis, active_modes={1})
    # retained configurations have no occupation on mode 2
    for i in eff.config_indices:
        assert SP.basis[i][2] == 0


def test_unitary_heff_is_similarity_by_orthogonal_matrix():
    basis = excitation_basis(SP)
    amps, _, _ = solve_cc_amplitudes(H_REF, SP, basis)
    eff = build_heff(H_REF, SP, amps, basis, active_modes={1}, unitary=True)
    # orthogonal conjugation preserves the full spectrum
    T_ext = np.zeros((6, 6))
    for t, exc in zip(amps, basis):
        if not exc.is_internal({1}):
            T_ext += t * exc.matrix(SP)
    gen = T_ext - T_ext.T
    Ht = expm(-gen) @ H_REF @ expm(gen)
    assert np.allclose(np.linalg.eigvalsh(Ht), np.linalg.eigvalsh(H_REF),
                       atol=1e-10)
