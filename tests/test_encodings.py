import math

import numpy as np
import pytest

from bosonsim.encodings import (
    FockSpace,
    RegisterLayout,
    boson_ops_binary,
    boson_ops_unary,
    embed,
    fermion_ops_jw,
    normal_modes,
    occupation_sector,
)
from bosonsim.errors import DimensionError, ParameterError
from bosonsim.models import embed_fock, mode_matrices
from bosonsim.pauli import PauliSum


def truncated_creation(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), -1)


def test_unary_creation_matches_fock_ladder_on_encoded_subspace():
    for Nb in (1, 2, 3):
        ops = boson_ops_unary(Nb)
        layout = RegisterLayout.build(
            [{"kind": "boson", "encoding": "unary", "cutoff": Nb}])
        r = layout.encoded_rows()
        rows = np.ix_(r, r)
        bdag = ops["creation"].to_matrix()[rows]
        assert np.allclose(bdag, truncated_creation(Nb + 1), atol=1e-12)
        n = ops["number"].to_matrix()[rows]
        assert np.allclose(n, np.diag(np.arange(Nb + 1.0)), atol=1e-12)


def test_binary_creation_is_exactly_the_fock_ladder():
    for Nq in (1, 2, 3):
        d = 2 ** Nq
        ops = boson_ops_binary(Nq)
        assert np.allclose(ops["creation"].to_matrix(),
                           truncated_creation(d), atol=1e-12)
        assert np.allclose(ops["number"].to_matrix(),
                           np.diag(np.arange(float(d))), atol=1e-12)
        adj = ops["creation"].adjoint().to_matrix()
        assert np.allclose(adj, ops["annihilation"].to_matrix())


def test_truncated_commutator_defect():
    # [b, b†] = 1 − (Nb+1)|Nb⟩⟨Nb| on a truncated space
    for Nq in (1, 2):
        d = 2 ** Nq
        ops = boson_ops_binary(Nq)
        b = ops["annihilation"].to_matrix()
        bd = ops["creation"].to_matrix()
        expect = np.eye(d)
        expect[-1, -1] = -(d - 1)
        assert np.allclose(b @ bd - bd @ b, expect, atol=1e-12)


def test_jordan_wigner_anticommutation():
    n = 3
    ops = [fermion_ops_jw(i, n) for i in range(n)]
    a = [o["annihilation"].to_matrix() for o in ops]
    ad = [o["creation"].to_matrix() for o in ops]
    for i in range(n):
        for j in range(n):
            anti = a[i] @ ad[j] + ad[j] @ a[i]
            assert np.allclose(anti, np.eye(8) if i == j else 0, atol=1e-12)
            assert np.allclose(a[i] @ a[j] + a[j] @ a[i], 0, atol=1e-12)


def test_jw_number_operator_counts_set_bits():
    ops = fermion_ops_jw(1, 3)
    nmat = (ops["creation"] * ops["annihilation"]).to_matrix()
    diag = [(idx >> 1) & 1 for idx in range(8)]
    assert np.allclose(nmat, np.diag(np.array(diag, dtype=float)))


def test_layout_binary_rounds_cutoff_up():
    layout = RegisterLayout.build([{"kind": "boson", "cutoff": 5}])
    (reg,) = layout.registers
    assert reg.width == 3
    assert reg.cutoff == 7


def test_isometry_columns_orthonormal():
    layout = RegisterLayout.build([
        {"kind": "boson", "encoding": "unary", "cutoff": 2},
        {"kind": "boson", "encoding": "binary", "cutoff": 3},
    ])
    rows = layout.encoded_rows()
    d = int(np.prod(layout.fock_dims))
    assert rows.shape == (d,)
    assert 0 <= rows.min() and rows.max() < 2 ** layout.total_qubits
    # the row selection V = I[:, rows] has orthonormal columns
    V = np.eye(2 ** layout.total_qubits)[:, rows]
    assert np.allclose(V.conj().T @ V, np.eye(d))


def test_embed_places_identity_elsewhere():
    layout = RegisterLayout.build([
        {"kind": "spin"}, {"kind": "boson", "cutoff": 1}, {"kind": "spin"}])
    op = embed(PauliSum.from_term("Z"), layout, 1)
    (term,) = op.terms
    assert term.letters == "IZI"


def test_embed_width_mismatch():
    layout = RegisterLayout.build([{"kind": "boson", "cutoff": 3}])
    with pytest.raises(DimensionError):
        embed(PauliSum.from_term("Z"), layout, 0)


def test_unary_basis_index_is_one_hot():
    layout = RegisterLayout.build(
        [{"kind": "boson", "encoding": "unary", "cutoff": 2}])
    (reg,) = layout.registers
    # occupation n sets qubit n (qubit 0 = MSB)
    assert [reg.basis_index(n) for n in range(3)] == [4, 2, 1]


def test_normal_modes_single_oscillator():
    nm = normal_modes(np.array([[4.0]]), [1.0])
    assert nm.frequencies[0] == pytest.approx(2.0)


def test_normal_modes_coupled_pair():
    # two unit masses, springs k=1 to walls and k_c=0.5 between them
    k, kc = 1.0, 0.5
    V = np.array([[k + kc, -kc], [-kc, k + kc]])
    nm = normal_modes(V, [1.0, 1.0])
    assert sorted(nm.frequencies) == pytest.approx(
        [np.sqrt(k), np.sqrt(k + 2 * kc)])


def test_normal_modes_mass_scaling():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    V = A @ A.T  # positive semidefinite force constants
    masses = np.array([1.0, 2.0, 0.5])
    nm = normal_modes(V, masses)
    scaled = V / np.sqrt(np.outer(masses, masses))
    w = np.linalg.eigvalsh(scaled)
    assert np.allclose(np.sort(nm.frequencies ** 2), w, atol=1e-12)


def test_normal_modes_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        normal_modes(np.eye(2), [1.0, -1.0])
    with pytest.raises(DimensionError):
        normal_modes(np.eye(2), [1.0])


@pytest.mark.parametrize("dims", [(2, 3), (4, 2, 3), (3, 1, 2, 2)])
def test_tensor_fock_ladders_match_kronecker_reference(dims):
    space = FockSpace.tensor(dims)
    for k, d in enumerate(dims):
        b, _, n = mode_matrices(d - 1)
        assert np.array_equal(space.excitation_matrix((), (k,)), embed_fock(b, dims, k))
        assert np.array_equal(space.number_matrix(k), embed_fock(n, dims, k))


@pytest.mark.parametrize("create,annihilate", [
    ((0,), (2,)), ((2,), (0,)), ((1,), (3,)), ((3,), (1,)), ((0,), (1,)), ((0, 2), (3, 1)),
])
def test_fermion_excitations_match_jordan_wigner(create, annihilate):
    n = 4
    layout = RegisterLayout.build([{"kind": "fermion"}] * n)
    r = layout.encoded_rows()
    rows = np.ix_(r, r)
    P = PauliSum.identity(n)
    for i in create:
        P = P * fermion_ops_jw(i, n)["creation"]
    for j in annihilate:
        P = P * fermion_ops_jw(j, n)["annihilation"]
    E = layout.fock_space().excitation_matrix(create, annihilate)
    assert np.any(E)
    assert np.max(np.abs(P.to_matrix()[rows] - E)) < 1e-12


def test_occupation_sectors():
    assert occupation_sector(3, 2) == sorted(occupation_sector(3, 2), reverse=True)
    assert len(occupation_sector(3, 2)) == 6
    bounded = occupation_sector(7, 2, bounded=True)
    assert len(set(bounded)) == len(bounded) == math.comb(7 + 2, 2)
    assert {sum(occ) for occ in bounded} == {0, 1, 2}
    with pytest.raises(ParameterError):
        occupation_sector(0, 2)
