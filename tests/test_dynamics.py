import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bosonsim import dynamics
from bosonsim.dynamics import (
    Gate,
    GateList,
    double_bracket_check,
    evolve_exact,
    gadget_anticommutator,
    hermitian_coefficients,
    synthesize_pauli_exponential,
    trotter_error_bound,
    trotter_evolve,
    trotter_steps_for,
)
from bosonsim.errors import CapacityError, DimensionError, DomainError, ParameterError
from bosonsim.flows import wegner_flow
from bosonsim.ground_state import exact_diagonalize
from bosonsim.models import (HolsteinParams, SpinBosonParams, build_holstein,
                             build_spin_boson)
from bosonsim.pauli import DENSE_LIMIT, PauliTerm


def random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (A + A.conj().T) / 2.0


def test_exact_evolution_is_unitary_and_matches_expm():
    rng = np.random.default_rng(0)
    H = random_hermitian(rng, 6)
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 /= np.linalg.norm(psi0)
    psi = evolve_exact(H, psi0, 0.83)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.allclose(psi, expm(-1j * 0.83 * H) @ psi0, atol=1e-12)


def test_hermiticity_tolerance_scales_with_the_largest_entry():
    H = np.ones((10, 10))
    H[0, 1] += 5e-10
    psi0 = np.eye(10)[0]
    for entry in (lambda: evolve_exact(H, psi0, 1.0), lambda: exact_diagonalize(H),
                  lambda: wegner_flow(H)):
        with pytest.raises(DomainError):
            entry()


def test_first_order_error_within_commutator_bound():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        K = random_hermitian(rng, d)
        V = random_hermitian(rng, d)
        t = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 8))
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        exact = evolve_exact(K + V, psi0, t)
        approx = trotter_evolve([K, V], psi0, t, n, order=1)
        err = np.linalg.norm(exact - approx)
        assert err <= trotter_error_bound(K, V, t, n) + 1e-12


def test_convergence_orders():
    rng = np.random.default_rng(2)
    K = random_hermitian(rng, 5)
    V = random_hermitian(rng, 5)
    psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi0 /= np.linalg.norm(psi0)
    t = 1.0
    exact = evolve_exact(K + V, psi0, t)
    for order, expect in ((1, 1.0), (2, 2.0)):
        ns = [8, 16, 32, 64]
        errs = [np.linalg.norm(exact - trotter_evolve([K, V], psi0, t, n, order))
                for n in ns]
        slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        fitted = np.mean(slopes)
        assert abs(fitted - expect) < 0.15


@settings(max_examples=60, deadline=None)
@given(letters=st.text(alphabet="IXYZ", min_size=1, max_size=8),
       c=st.floats(-2.0, 2.0), theta=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_pauli_factor_equals_expm(letters, c, theta, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2 ** len(letters)) + 1j * rng.normal(size=2 ** len(letters))
    psi /= np.linalg.norm(psi)
    term = PauliTerm(letters, c)
    want = expm(-1j * theta * term.to_matrix()) @ psi
    assert np.max(np.abs(trotter_evolve([term], psi, theta, 1) - want)) < 1e-12


@pytest.mark.parametrize("model", [
    build_spin_boson(SpinBosonParams(delta=1.0, epsilon=0.5, omegas=(1.0, 1.7),
                                     couplings=(0.3, 0.2), cutoffs=(3, 3))),
    build_holstein(HolsteinParams(n_sites=3, v=1.0, omega=1.2, g=0.8)),
], ids=["spin_boson", "holstein"])
@pytest.mark.parametrize("order", [1, 2])
def test_pauli_factors_match_the_dense_matrix_path(model, order):
    terms = [PauliTerm(t.letters, c) for t, c in
             zip(model.pauli.terms, hermitian_coefficients(model.pauli.terms))]
    rng = np.random.default_rng(order)
    psi0 = rng.normal(size=2 ** model.pauli.qubit_count) + 0j
    psi0 /= np.linalg.norm(psi0)
    fast = trotter_evolve(terms, psi0, 0.9, 12, order)
    dense = trotter_evolve([t.to_matrix() for t in terms], psi0, 0.9, 12, order)
    assert np.max(np.abs(fast - dense)) < 1e-12


def _letters(x, z, n):
    return "".join("IZXY"[(x >> k & 1) << 1 | (z >> k & 1)] for k in range(n - 1, -1, -1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), order=st.sampled_from([1, 2]))
def test_merged_runs_of_one_x_mask_match_the_dense_matrix_path(n, seed, order):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(int(rng.integers(1, 5))):  # runs of one x mask; x = 0 is a diagonal run
        x = 0 if rng.random() < 0.4 else int(rng.integers(1, 2**n))
        terms += [PauliTerm(_letters(x, int(rng.integers(0, 2**n)), n), float(rng.normal()))
                  for _ in range(int(rng.integers(1, 4)))]
    psi0 = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi0 /= np.linalg.norm(psi0)
    fast = trotter_evolve(terms, psi0, 0.7, 5, order)
    dense = trotter_evolve([t.to_matrix() for t in terms], psi0, 0.7, 5, order)
    assert np.max(np.abs(fast - dense)) < 1e-12


@pytest.mark.parametrize("sites, order, factors", [(3, 2, 147), (4, 2, 297), (3, 1, 74)])
def test_a_step_applies_one_factor_per_run_of_one_x_mask(sites, order, factors):
    from bosonsim.models import BoseHubbardParams, build_bose_hubbard
    model = build_bose_hubbard(BoseHubbardParams(n_sites=sites, t=1.0, U=0.5, V=0.3, Nb=3))
    terms = model.pauli.terms
    seq = dynamics._pauli_factors(terms, 2**model.pauli.qubit_count, 0.1, order)
    assert len(seq) == factors < order * len(terms)


def test_sparse_and_dense_exact_evolution_agree_in_both_branches(monkeypatch):
    import scipy.sparse.linalg
    model = build_holstein(HolsteinParams(n_sites=4, v=1.0, omega=1.2, g=0.8))
    H, D = model.pauli.to_sparse(), model.pauli.to_matrix()
    psi0 = np.eye(H.shape[0])[3]
    right_eigh = np.linalg.eigh

    def refused(*args, **kwargs):
        raise AssertionError("wrong branch")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    small = evolve_exact(H, psi0, 0.5)  # ‖tH‖₁ ≈ 5: expm_multiply
    monkeypatch.setattr(np.linalg, "eigh", right_eigh)
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refused)
    large = evolve_exact(H, psi0, 500.0)  # ‖tH‖₁ ≈ 5000: densified, eigh
    assert np.max(np.abs(small - evolve_exact(D, psi0, 0.5))) < 1e-12
    assert np.max(np.abs(large - evolve_exact(D, psi0, 500.0))) < 1e-10


def test_sparse_exact_evolution_refuses_a_non_hermitian_h():
    from bosonsim.pauli import PauliSum
    H = PauliSum({"XZ": 1.0, "YI": 0.3j}, 2).to_sparse()
    with pytest.raises(DomainError, match="not Hermitian"):
        evolve_exact(H, np.eye(4)[0], 1.0)


def test_sparse_exact_evolution_refuses_a_dense_fallback_past_the_limit():
    import tracemalloc
    from scipy.sparse import identity
    H = identity(2 ** (DENSE_LIMIT + 1), dtype=complex, format="csr")
    psi0 = np.eye(1, H.shape[0], 0)[0]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="dense H of dimension 32768"):
            evolve_exact(H, psi0, 1e300)  # ‖tH‖₁ = 1e300 takes the eigh branch
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def test_trotter_table_is_refused_past_the_limit():
    psi0 = np.eye(1, 2**16, 0)[0]
    with pytest.raises(CapacityError, match="16-qubit table of 2000 strings"):
        trotter_evolve([PauliTerm("Z" * 16, 1.0)] * 2000, psi0, 1.0, 1)


def test_pauli_factor_rejects_a_complex_coefficient_or_a_wrong_width():
    psi0 = np.eye(4)[0]
    with pytest.raises(DomainError):
        trotter_evolve([PauliTerm("XY", 0.3 + 1e-3j)], psi0, 1.0, 1)
    with pytest.raises(DimensionError):
        trotter_evolve([PauliTerm("XYZ", 0.3)], psi0, 1.0, 1)


def test_a_mixed_pauli_and_dense_term_list_is_refused():
    term = PauliTerm("XZ", 0.3)
    with pytest.raises(ParameterError, match="all PauliTerms or all dense"):
        trotter_evolve([term, term.to_matrix()], np.eye(4)[0], 1.0, 1)


def test_hermitian_terms_tolerance_scales_with_the_largest_coefficient():
    terms = [PauliTerm("XY", 1e3), PauliTerm("ZZ", 0.5 + 5e-8j)]
    assert hermitian_coefficients(terms) == [1e3, 0.5]
    with pytest.raises(DomainError):
        hermitian_coefficients(terms[1:])


@pytest.mark.parametrize("terms", [
    [PauliTerm("XY", 1e3), PauliTerm("ZZ", 0.5 + 5e-8j)],  # within 1e-10 of the list's 1e3
    [PauliTerm("ZZ", 0.5 + 5e-8j)],
    [PauliTerm("ZZ", 0.5 + 5e-8j), PauliTerm("XY", 1e3)],
    [PauliTerm("XY", 0.3 + 1e-3j), PauliTerm("ZI", 2.0)],
    [PauliTerm("XY", 1e9), PauliTerm("ZI", 2.0 + 0.05j)],
    [PauliTerm("XX", 0.7 + 1e-11j), PauliTerm("YZ", -0.2)],
])
def test_trotter_and_the_circuit_path_accept_the_same_pauli_lists(terms):
    # compile --circuits calls hermitian_coefficients on the whole list
    def accepts(fn):
        try:
            fn()
        except DomainError:
            return False
        return True

    circuit = accepts(lambda: hermitian_coefficients(terms))
    assert accepts(lambda: trotter_evolve(terms, np.eye(4)[0], 1.0, 1)) == circuit
    if circuit:  # both apply the real parts
        real = [PauliTerm(t.letters, complex(t.coefficient).real) for t in terms]
        assert np.array_equal(trotter_evolve(terms, np.eye(4)[1], 0.3, 2, 2),
                              trotter_evolve(real, np.eye(4)[1], 0.3, 2, 2))


def test_trotter_steps_for_meets_target():
    rng = np.random.default_rng(3)
    K = random_hermitian(rng, 4)
    V = random_hermitian(rng, 4)
    n = trotter_steps_for(K, V, 1.0, 1e-3)
    assert trotter_error_bound(K, V, 1.0, n) <= 1e-3
    assert n >= 1


def test_synthesis_matches_exponential_for_all_words():
    import itertools
    delta = 0.37
    for width in (2, 3):
        for letters in itertools.product("XYZ", repeat=width):
            term = PauliTerm("".join(letters), 1.0)
            gl = synthesize_pauli_exponential(term.letters, delta)
            target = expm(-0.5j * delta * term.to_matrix())
            assert np.max(np.abs(gl.unitary() - target)) < 1e-12


def test_synthesis_interleaved_identity_and_pure_identity():
    gl = synthesize_pauli_exponential("XIZY", 0.21)
    target = expm(-0.5j * 0.21 * PauliTerm("XIZY", 1.0).to_matrix())
    assert np.max(np.abs(gl.unitary() - target)) < 1e-12
    ident = synthesize_pauli_exponential("II", 0.5)
    assert len(ident.gates) == 0
    assert np.allclose(ident.unitary(), np.exp(-0.25j) * np.eye(4))


def test_synthesis_rejects_letters_outside_ixyz():
    with pytest.raises(ParameterError, match="invalid Pauli letters"):
        synthesize_pauli_exponential("XQ", 0.1)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_synthesis_rejects_non_finite_angle(theta):
    for letters in ("XZ", "II"):
        with pytest.raises(ParameterError, match="not finite"):
            synthesize_pauli_exponential(letters, theta)


def test_synthesis_shares_its_fixed_gates():
    a = synthesize_pauli_exponential("XYZ", 0.3)
    b = synthesize_pauli_exponential("XYX", 0.7)
    fixed = {(g.name, g.qubits): g for g in a.gates if g.name != "rz"}
    common = [g for g in b.gates if (g.name, g.qubits) in fixed]
    assert {"h", "sdg", "s", "cx"} == {g.name for g in common}
    assert all(g is fixed[g.name, g.qubits] for g in common)
    again = synthesize_pauli_exponential("XYZ", 0.3)
    assert again == a
    assert all((g is h) == (g.name != "rz") for g, h in zip(again.gates, a.gates))


def _per_letter_synthesis(letters, theta):
    """The gate sequence built letter by letter from fresh gates, in a checked GateList."""
    involved = [q for q, letter in enumerate(letters) if letter != "I"]
    if not involved:
        return GateList(len(letters), (), -theta / 2.0)
    pre, post = [], []
    for q in involved:
        if letters[q] == "X":
            pre.append(Gate("h", (q,)))
            post.append(Gate("h", (q,)))
        elif letters[q] == "Y":
            pre += [Gate("sdg", (q,)), Gate("h", (q,))]
            post += [Gate("h", (q,)), Gate("s", (q,))]
    stair = [Gate("cx", pair) for pair in zip(involved, involved[1:])]
    rz = Gate("rz", (involved[-1],), theta)
    return GateList(len(letters), tuple(pre + stair + [rz] + stair[::-1] + post))


@given(st.text(alphabet="IXYZ", min_size=1, max_size=10)
       | st.integers(1, 10).map(lambda n: "I" * n),
       st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_synthesis_keeps_the_per_letter_gate_sequence(letters, theta):
    got, want = synthesize_pauli_exponential(letters, theta), _per_letter_synthesis(letters, theta)
    assert got == want
    assert got.to_qasm() == want.to_qasm()  # reprs, so the sign of a zero angle too


def test_gate_list_refuses_synthesized_gates_off_its_register():
    gates = synthesize_pauli_exponential("IXY", 0.3).gates
    assert GateList(3, gates).gates == gates
    with pytest.raises(ParameterError, match="outside circuit of width 2"):
        GateList(2, gates)


@pytest.mark.parametrize("name, qubits", [("cx", (0,)), ("h", (0, 1)), ("ccx", (0, 1, 2)),
                                          ("rz", (0,))])
def test_fixed_gate_cache_holds_only_validated_gates(name, qubits):
    for _ in range(2):  # a refused gate is refused again, not served from the cache
        with pytest.raises(ParameterError):
            Gate(name, qubits)
        with pytest.raises(ParameterError):
            dynamics._fixed_gate(name, qubits)


def test_gate_list_refuses_a_gate_off_its_register():
    for qubits in [(3,), (-1,)]:
        with pytest.raises(ParameterError, match="outside circuit of width 1"):
            GateList(1, (Gate("h", qubits),))
    with pytest.raises(ParameterError, match=r"qubits \(0, 2\) outside circuit of width 2"):
        GateList(2, (Gate("h", (1,)), Gate("cx", (0, 2))))


def test_gate_list_unitary_refuses_a_register_past_the_dense_limit():
    with pytest.raises(CapacityError, match="exceeds dense limit"):
        GateList(DENSE_LIMIT + 1, ()).unitary()


def test_qasm_round_trip_preserves_unitary():
    gl = synthesize_pauli_exponential("XYZ", 1.2345)
    again = GateList.from_qasm(gl.to_qasm())
    assert again.n_qubits == gl.n_qubits
    assert np.max(np.abs(again.unitary() - gl.unitary())) < 1e-12


def kron_chain_unitary(gl):
    """The gate list's unitary as a product of full-width Kronecker chains."""
    mats = {"h": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "s": np.diag([1, 1j]),
            "sdg": np.diag([1, -1j]), "x": np.array([[0, 1], [1, 0]])}
    P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    def chain(factors):  # qubit 0 is the leftmost factor
        out = np.eye(1)
        for q in range(gl.n_qubits):
            out = np.kron(out, factors.get(q, np.eye(2)))
        return out

    U = np.exp(1j * gl.phase) * np.eye(2 ** gl.n_qubits)
    for g in gl.gates:
        if g.name == "cx":
            c, t = g.qubits
            G = chain({c: P0}) + chain({c: P1, t: mats["x"]})
        elif g.name == "rz":
            G = chain({g.qubits[0]: np.diag(np.exp([-0.5j * g.param, 0.5j * g.param]))})
        elif g.name == "ry":
            G = chain({g.qubits[0]: expm(-0.5j * g.param * np.array([[0, -1j], [1j, 0]]))})
        else:
            G = chain({g.qubits[0]: mats[g.name]})
        U = G @ U
    return U


def test_gate_list_unitary_matches_kronecker_chains():
    rng = np.random.default_rng(17)
    names = ["h", "s", "sdg", "x", "rz", "ry", "cx"]
    for _ in range(60):
        n = int(rng.integers(1, 7))
        gates = []
        for name in rng.choice(names[:6] if n == 1 else names, size=rng.integers(0, 25)):
            if name == "cx":
                gates.append(Gate("cx", tuple(int(q) for q in rng.choice(n, 2, replace=False))))
            else:
                param = float(rng.uniform(-4, 4)) if name in ("rz", "ry") else None
                gates.append(Gate(str(name), (int(rng.integers(n)),), param))
        gl = GateList(n, tuple(gates), float(rng.uniform(-3, 3)))
        assert np.max(np.abs(gl.unitary() - kron_chain_unitary(gl))) < 1e-13


def test_gate_arity_checked():
    with pytest.raises(ParameterError):
        Gate("cx", (0,), None)
    with pytest.raises(ParameterError):
        Gate("h", (0, 1), None)


def test_qasm_round_trip_keeps_the_global_phase():
    gl = GateList(2, (Gate("h", (0,)), Gate("rz", (1,), -0.75)), 0.3125)
    text = gl.to_qasm()
    assert "// global-phase 0.3125\n" in text
    assert GateList.from_qasm(text) == gl


QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


@pytest.mark.parametrize("line, why", [
    ("rz(inf) q[0];", "not finite"),
    ("rz(nan) q[0];", "not finite"),
    ("rz(1e400) q[0];", "not finite"),
    ("rz(half) q[0];", "could not convert"),
    ("// global-phase nan", "global phase is not finite"),
    ("h q[5];", "outside circuit of width 2"),
    ("h q[0] junk;", "cannot parse QASM line"),
    ("rz q[0];", "rz takes an angle"),
    ("h(0.3) q[0];", "h takes no angle"),
    ("cx q[0];", "cx expects 2 qubit"),
    ("ccx q[0],q[1],q[1];", "unsupported gate 'ccx'"),
])
def test_qasm_reader_rejects_what_it_cannot_mean_and_names_the_line(line, why):
    text = QASM_HEAD + "h q[1];\n" + line + "\n"
    with pytest.raises(ParameterError, match=why) as err:
        GateList.from_qasm(text)
    assert f"line 5 {line!r}" in str(err.value)


def test_qasm_reader_needs_the_register_first():
    with pytest.raises(ParameterError, match="lacks a qreg declaration"):
        GateList.from_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\n')
    with pytest.raises(ParameterError, match="lacks a qreg declaration"):
        GateList.from_qasm("h q[0];\nqreg q[1];\n")


def test_anticommutator_gadget():
    rng = np.random.default_rng(4)
    p = random_hermitian(rng, 4)
    q = random_hermitian(rng, 4)
    pg, qg, report = gadget_anticommutator(p, q, t=0.1, rng=5)
    assert pg.shape == (8, 8)
    assert report["commutator_deviation"] < 1e-12
    assert report["exponential_deviation"] < 1e-12


def test_double_bracket_group_commutator():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = random_hermitian(rng, 4)
        q = random_hermitian(rng, 4)
        for t in (0.01, 0.1):
            defect, bound = double_bracket_check(p, q, t)
            assert defect <= bound + 1e-12
