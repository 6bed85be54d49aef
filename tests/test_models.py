import math

import numpy as np
import pytest

from bosonsim import pauli
from bosonsim.encodings import boson_ops_binary, boson_ops_unary
from bosonsim.errors import ParameterError
from bosonsim.models import (
    BoseHubbardParams,
    HolsteinParams,
    SpinBosonParams,
    build_bose_hubbard,
    build_holstein,
    build_spin_boson,
    embed_fock,
    holstein_pairs,
    hw_hr_split,
    mode_matrices,
    mode_occupations,
    walk_observables,
)
from bosonsim.trunc_bounds import verify_conditions


def coeffs(pauli_sum):
    return {t.letters: t.coefficient for t in pauli_sum.terms}


def test_number_operator_two_qubit_binary_decomposition():
    n = boson_ops_binary(2)["number"]
    c = coeffs(n)
    assert c["II"] == pytest.approx(1.5)
    assert c["IZ"] == pytest.approx(-0.5)
    assert c["ZI"] == pytest.approx(-1.0)
    assert len(c) == 3


def test_bose_hubbard_binary_hopping_block():
    # two sites, one boson each (single qubit per site): hopping is -t/2 (XX+YY)
    p = BoseHubbardParams(n_sites=2, t=1.0, U=0.0, V=0.0, mu=0.0, Nb=1)
    m = build_bose_hubbard(p)
    c = coeffs(m.pauli)
    assert c["XX"] == pytest.approx(-0.5)
    assert c["YY"] == pytest.approx(-0.5)


def test_bose_hubbard_unary_hopping_block():
    p = BoseHubbardParams(n_sites=2, t=-1.0, U=0.0, V=0.0, mu=0.0, Nb=1)
    m = build_bose_hubbard(p, encoding="unary")
    c = coeffs(m.pauli)
    eighth = {
        "XXXX": 1, "XXYY": 1, "YYXX": 1, "YYYY": 1,
        "XYXY": 1, "XYYX": -1, "YXXY": -1, "YXYX": 1,
    }
    for letters, sign in eighth.items():
        assert c[letters] == pytest.approx(sign / 8.0), letters


def test_spin_boson_printed_decomposition():
    g = 0.4
    p = SpinBosonParams(delta=1.0, epsilon=2.0, omegas=(2.0,),
                        couplings=(g,), cutoffs=(3,))
    c = coeffs(build_spin_boson(p).pauli)
    assert c["III"] == pytest.approx(3.0)
    assert c["IIZ"] == pytest.approx(-1.0)
    assert c["IZI"] == pytest.approx(-2.0)
    assert c["XII"] == pytest.approx(1.0)
    assert c["ZII"] == pytest.approx(1.0)
    assert c["XIX"] == pytest.approx((g / 2) * (1 + math.sqrt(3)))
    assert c["XZX"] == pytest.approx((g / 2) * (1 - math.sqrt(3)))
    assert c["XXX"] == pytest.approx((g / 2) * math.sqrt(2))
    assert c["XYY"] == pytest.approx((g / 2) * math.sqrt(2))
    assert len(c) == 9


@pytest.mark.parametrize("encoding", ["binary", "unary"])
def test_identification_defect_bose_hubbard(encoding):
    p = BoseHubbardParams(n_sites=2, t=0.7, U=1.3, V=0.2, mu=0.4, Nb=3)
    m = build_bose_hubbard(p, encoding=encoding)
    assert m.identification_defect() < 1e-10


def test_identification_defect_spin_boson():
    p = SpinBosonParams(delta=0.9, epsilon=0.3, omegas=(1.0, 1.5),
                        couplings=(0.2, 0.1), cutoffs=(3, 1))
    assert build_spin_boson(p).identification_defect() < 1e-10


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_identification_defect_holstein(boundary):
    p = HolsteinParams(n_sites=3, v=1.0, omega=0.8, g=0.5, Nb=1,
                       boundary=boundary)
    assert build_holstein(p).identification_defect() < 1e-10


@pytest.mark.parametrize("build", [
    lambda: build_bose_hubbard(BoseHubbardParams(n_sites=2, t=0.7, U=1.3, V=0.2, mu=0.4, Nb=3)),
    lambda: build_spin_boson(SpinBosonParams(delta=0.9, epsilon=0.3, omegas=(1.0,),
                                             couplings=(0.2,), cutoffs=(3,))),
    lambda: build_holstein(HolsteinParams(n_sites=3, v=1.0, omega=0.8, g=0.5, Nb=1)),
], ids=["bose_hubbard", "spin_boson", "holstein"])
def test_reversed_pauli_matrices_fail_identification(build, monkeypatch):
    """The Fock oracle, not the Pauli matrices, decides the defect."""
    model = build()
    assert model.identification_defect() < 1e-10
    right = pauli.PauliTerm.to_matrix

    def reversed_qubits(self):
        return right(pauli.PauliTerm(self.letters[::-1], self.coefficient))

    monkeypatch.setattr(pauli.PauliTerm, "to_matrix", reversed_qubits)
    assert model.identification_defect() >= 1e-10


def test_holstein_pairs_boundary():
    assert holstein_pairs(HolsteinParams(3, 1.0, 1.0, 0.1, 1, "open")) == \
        [(0, 1), (1, 2)]
    assert holstein_pairs(HolsteinParams(3, 1.0, 1.0, 0.1, 1, "periodic")) == \
        [(0, 1), (1, 2), (2, 0)]
    assert holstein_pairs(HolsteinParams(2, 1.0, 1.0, 0.1, 1, "periodic")) == \
        [(0, 1)]


def test_spin_boson_zero_coupling_blocks_commute():
    p = SpinBosonParams(delta=1.0, epsilon=0.5, omegas=(1.0,),
                        couplings=(0.0,), cutoffs=(3,))
    m = build_spin_boson(p)
    dims = m.layout.fock_dims
    _, _, n = mode_matrices(dims[1] - 1)
    Hb = embed_fock(n, dims, 1)
    Hs = m.fock - Hb  # spin part (ω = 1 so boson block is exactly n̂)
    assert np.max(np.abs(Hs @ Hb - Hb @ Hs)) < 1e-12


def test_holstein_frozen_fermion_is_displaced_oscillator():
    # v = 0, one fermion pinned to a site: that site's boson block is a
    # displaced oscillator with ground energy -g^2 * omega
    omega, g = 1.0, 0.6
    Nb = 40
    b, bd, n = mode_matrices(Nb)
    H = omega * n + g * omega * (b + bd)
    w = np.linalg.eigvalsh(H)
    assert w[0] == pytest.approx(-g * g * omega, abs=1e-8)


def test_hw_hr_split_holstein():
    p = HolsteinParams(n_sites=3, v=1.0, omega=1.0, g=0.5, Nb=3,
                       boundary="periodic")
    m = build_holstein(p)
    Hw, Hr, chi, r = hw_hr_split(m, mode_index=0)
    assert np.allclose(Hw + Hr, m.fock, atol=1e-12)
    assert chi == pytest.approx(2 * 0.5 * 1.0)  # 2gω
    assert r == 0.5
    occ = mode_occupations(m, 0)
    diff = occ[:, None] - occ[None, :]
    assert np.max(np.abs(Hw[np.abs(diff) != 1])) < 1e-12
    assert np.max(np.abs(Hr[diff != 0])) < 1e-12
    # the growth condition ||Hw P_L|| <= chi sqrt(L+1) holds on the grid
    for lam in range(3):
        cols = occ <= lam
        assert np.linalg.norm(Hw[:, cols], 2) <= chi * math.sqrt(lam + 1) + 1e-12


def test_hw_hr_split_spin_boson():
    p = SpinBosonParams(delta=1.0, epsilon=0.5, omegas=(1.0,),
                        couplings=(0.3,), cutoffs=(3,))
    m = build_spin_boson(p)
    Hw, Hr, chi, r = hw_hr_split(m, mode_index=0)
    assert np.allclose(Hw + Hr, m.fock, atol=1e-12)
    assert chi == pytest.approx(0.3)  # gω


def test_hw_hr_split_bose_hubbard_fits_chi():
    p = BoseHubbardParams(n_sites=2, t=0.8, U=0.5, V=0.3, mu=0.2, Nb=3)
    m = build_bose_hubbard(p)
    Hw, Hr, chi, _ = hw_hr_split(m, mode_index=1)
    occ = mode_occupations(m, 1)
    assert chi > 0
    assert chi == verify_conditions(Hw, Hr, occ, occ.max() - 1)["fitted_chi"]
    for lam in range(occ.max() + 1):
        cols = occ <= lam
        assert np.linalg.norm(Hw[:, cols], 2) <= chi * math.sqrt(lam + 1) + 1e-12


@pytest.mark.parametrize("build", [
    lambda: build_bose_hubbard(BoseHubbardParams(n_sites=2, t=0.5, U=1.0, Nb=3)),
    lambda: build_spin_boson(SpinBosonParams(delta=1.0, epsilon=0.5, omegas=(1.0,),
                                             couplings=(0.2,), cutoffs=(3,))),
    lambda: build_holstein(HolsteinParams(n_sites=2, g=0.3)),
])
def test_fock_oracle_is_built_on_first_use(build):
    m = build()
    assert "fock" not in m.__dict__
    F = m.fock
    assert m.__dict__["fock"] is F and F.dtype == complex


def test_walk_observables_symmetry_and_number():
    p = BoseHubbardParams(n_sites=3, t=1.0, U=2.0, V=0.0, mu=0.0, Nb=2)
    m = build_bose_hubbard(p)
    dims = m.layout.fock_dims
    # two bosons on the middle site
    psi0 = np.zeros(int(np.prod(dims)), dtype=complex)
    idx = 0
    for d, occ in zip(dims, (0, 2, 0)):
        idx = idx * d + occ
    psi0[idx] = 1.0
    w, V = np.linalg.eigh(m.fock)
    psi = V @ (np.exp(-1j * w * 0.7) * (V.conj().T @ psi0))
    ann = [embed_fock(mode_matrices(dims[i] - 1)[0], dims, i)
           for i in range(3)]
    gamma, density = walk_observables(psi, ann)
    assert np.allclose(gamma, gamma.T, atol=1e-12)
    assert sum(density) == pytest.approx(2.0, abs=1e-10)
    # sum rule: sum_pq Gamma_pq = <N(N-1)> = 2 for a two-boson state
    assert gamma.sum() == pytest.approx(2.0, abs=1e-10)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        BoseHubbardParams(n_sites=0, t=1.0, U=0.0, V=0.0, mu=0.0, Nb=1)
    with pytest.raises(ParameterError):
        SpinBosonParams(delta=1.0, epsilon=0.0, omegas=(1.0,),
                        couplings=(0.1, 0.2), cutoffs=(3,))
    with pytest.raises(ParameterError):
        HolsteinParams(n_sites=3, v=1.0, omega=1.0, g=0.1, Nb=1,
                       boundary="twisted")
