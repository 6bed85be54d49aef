import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


REGISTER_SPECS = st.one_of(
    st.sampled_from([{"kind": "spin"}, {"kind": "fermion"}]),
    st.builds(lambda enc, cutoff: {"kind": "boson", "encoding": enc, "cutoff": cutoff},
              st.sampled_from(["unary", "binary"]), st.integers(1, 6)))


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(REGISTER_SPECS, min_size=1, max_size=4))
def test_encoded_rows_are_distinct_qubit_states(specs):
    layout = RegisterLayout.build(specs)
    rows = layout.encoded_rows()
    assert rows.shape == (math.prod(layout.fock_dims),)
    assert len(set(rows.tolist())) == rows.size
    assert 0 <= rows.min() and rows.max() < 2 ** layout.total_qubits


@settings(max_examples=20, deadline=None)
@given(Nb=st.integers(1, 9))
def test_unary_and_binary_ladders_agree_at_any_cutoff(Nb):
    # binary rounds the cutoff up, so compare on the occupations 0..Nb both hold
    unary = RegisterLayout.build([{"kind": "boson", "encoding": "unary", "cutoff": Nb}])
    binary = RegisterLayout.build([{"kind": "boson", "encoding": "binary", "cutoff": Nb}])
    ru = unary.encoded_rows()
    rb = binary.encoded_rows()[:Nb + 1]
    uo = boson_ops_unary(Nb)
    bo = boson_ops_binary(binary.total_qubits)
    for key in ("creation", "annihilation", "number"):
        a = uo[key].to_matrix()[np.ix_(ru, ru)]
        b = bo[key].to_matrix()[np.ix_(rb, rb)]
        assert np.max(np.abs(a - b)) < 1e-12, key


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
    # occupation n sets qubit n (qubit 0 = MSB)
    assert layout.encoded_rows().tolist() == [4, 2, 1]


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


def _recursive_sector(M, N):
    """The former recursive enumeration, one call level per mode."""
    if M == 1:
        return [(N,)]
    return [(h,) + tail for h in range(N, -1, -1) for tail in _recursive_sector(M - 1, N - h)]


def test_occupation_sector_keeps_the_recursive_order():
    for M in range(1, 7):
        for N in range(0, 6):
            assert occupation_sector(M, N) == _recursive_sector(M, N)
            assert occupation_sector(M, N, bounded=True) == [
                occ[:-1] for occ in _recursive_sector(M + 1, N)]


def test_occupation_sector_has_no_recursion_limit_in_the_mode_count():
    one = occupation_sector(1500, 1)
    assert len(one) == 1500 and one[0] == (1,) + (0,) * 1499 and one[-1] == (0,) * 1499 + (1,)
    bounded = occupation_sector(1500, 1, bounded=True)
    assert bounded == one + [(0,) * 1500]


def test_occupation_sectors():
    assert occupation_sector(3, 2) == sorted(occupation_sector(3, 2), reverse=True)
    assert len(occupation_sector(3, 2)) == 6
    bounded = occupation_sector(7, 2, bounded=True)
    assert len(set(bounded)) == len(bounded) == math.comb(7 + 2, 2)
    assert {sum(occ) for occ in bounded} == {0, 1, 2}
    with pytest.raises(ParameterError):
        occupation_sector(0, 2)


def _two_pass_excitation(space, create, annihilate):
    """Reference rule: √n factors for the annihilations, then the creations, each in
    list order; then a second walk, in acting order over a copy of the
    occupations, for the Jordan-Wigner sign."""
    out = np.zeros((space.dim, space.dim))
    word = list(reversed([(m, 1) for m in create] + [(m, -1) for m in annihilate]))
    for col, occ in enumerate(space.basis):
        ns, amp = list(occ), 1.0
        for m in annihilate:
            if ns[m] == 0:
                break
            amp *= math.sqrt(ns[m])
            ns[m] -= 1
        else:
            for m in create:
                amp *= math.sqrt(ns[m] + 1)
                ns[m] += 1
            row = space.index.get(tuple(ns))
            if row is None:
                continue
            ns, flips = list(occ), 0
            for m, step in word:
                if m in space.fermions:
                    flips += sum(ns[f] for f in space.fermions if f < m)
                ns[m] += step
            out[row, col] += -amp if flips % 2 else amp
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_pass_ladder_words_match_the_two_pass_rule(data):
    dims = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    modes = st.integers(0, len(dims) - 1)
    fermions = data.draw(st.sets(modes.filter(lambda m: dims[m] == 2)))
    create = data.draw(st.lists(modes, max_size=3))
    annihilate = data.draw(st.lists(modes, max_size=3))
    space = FockSpace.tensor(dims, fermions)
    got = space.excitation_matrix(create, annihilate)
    want = _two_pass_excitation(space, create, annihilate)
    if len(create) + len(annihilate) <= 2:
        assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(got - want)) <= 1e-14
