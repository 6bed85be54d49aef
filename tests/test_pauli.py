import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim.errors import CapacityError, DimensionError, ParameterError
from bosonsim.pauli import (
    DENSE_LIMIT,
    PauliSum,
    PauliTerm,
    ladder,
    outer_1q,
    projector,
    require_capacity,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def product(a, b):
    """The single term of the product of two Pauli strings, phase folded in."""
    (t,) = (PauliSum.from_term(a.letters, a.coefficient)
            * PauliSum.from_term(b.letters, b.coefficient)).terms
    return t


def dense(letters):
    out = np.array([[1.0]], dtype=complex)
    for ch in letters:
        out = np.kron(out, MATS[ch])
    return out


def test_single_qubit_products_reproduce_matrix_algebra():
    for a in "IXYZ":
        for b in "IXYZ":
            t = product(PauliTerm(a, 1.0), PauliTerm(b, 1.0))
            assert np.allclose(t.to_matrix(), MATS[a] @ MATS[b])


# the single-qubit Pauli group read off the 2×2 matrices: a·b = phase·c
PRODUCT_TABLE = {
    (a, b): next((ph, c) for c in "IXYZ" for ph in (1, -1, 1j, -1j)
                 if np.allclose(MATS[a] @ MATS[b], ph * MATS[c]))
    for a in "IXYZ" for b in "IXYZ"
}


def equal_length_strings(max_size):
    return st.integers(0, max_size).flatmap(
        lambda n: st.tuples(*[st.text(alphabet="IXYZ", min_size=n, max_size=n)] * 2))


@settings(max_examples=300, deadline=None)
@given(pair=equal_length_strings(12))
def test_mul_equals_the_letter_by_letter_table_fold(pair):
    a, b = pair
    phase, letters = 1.0, ""
    for la, lb in zip(a, b):
        ph, lc = PRODUCT_TABLE[la, lb]
        phase, letters = phase * ph, letters + lc
    t = product(PauliTerm(a, 1.0), PauliTerm(b, 1.0))
    assert (t.letters, t.coefficient) == (letters, phase)


def letter_maps(n, max_size=5):
    coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return st.dictionaries(st.text(alphabet="IXYZ", min_size=n, max_size=n), coeffs,
                           max_size=max_size)


def pauli_sums(n):
    return letter_maps(n).map(lambda terms: PauliSum(terms, n))


@settings(max_examples=100, deadline=None)
@given(abc=st.integers(1, 4).flatmap(lambda n: st.tuples(*[pauli_sums(n)] * 3)))
def test_sum_products_associate_reverse_under_adjoint_and_match_matrices(abc):
    a, b, c = abc
    ab = a * b
    assert np.allclose(ab.to_matrix(), a.to_matrix() @ b.to_matrix(), rtol=0, atol=1e-12)
    assert np.allclose((ab * c).to_matrix(), (a * (b * c)).to_matrix(), rtol=0, atol=1e-12)
    assert np.allclose(ab.adjoint().to_matrix(), (b.adjoint() * a.adjoint()).to_matrix(),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: PauliSum({"AB": 1.0}, 2),
    lambda: PauliSum({"XI": 1.0, "Xz": 2.0}, 2),
    lambda: PauliSum.from_term("IQ"),
    lambda: PauliSum.from_text("1.0 0.0 XY\n0.5 0.0 X-\n"),
    lambda: PauliTerm("XB", 1.0),
], ids=["mapping", "lower-case", "from_term", "from_text", "term"])
def test_invalid_letters_are_rejected_on_construction(build):
    with pytest.raises(ParameterError, match="invalid Pauli letters"):
        build()


def test_multi_qubit_product_folds_phases():
    t = product(PauliTerm("XY", 1.0), PauliTerm("YX", 1.0))
    assert t.letters == "ZZ"
    assert t.coefficient == pytest.approx(1.0)
    t = product(PauliTerm("XI", 2.0), PauliTerm("YI", 0.5))
    assert t.letters == "ZI"
    assert t.coefficient == pytest.approx(1j)


def test_qubit_zero_is_leftmost():
    # X on qubit 0 of a 2-qubit register acts on the most significant bit
    m = PauliTerm("XI", 1.0).to_matrix()
    assert np.allclose(m, np.kron(X, I2))


def test_sum_merges_duplicates_and_drops_zeros():
    s = PauliSum.from_term("XX", 1.0) + PauliSum.from_term("XX", -1.0)
    assert s.terms == ()
    s = PauliSum.from_term("XY", 0.25) + PauliSum.from_term("XY", 0.5)
    (t,) = s.terms
    assert t.coefficient == pytest.approx(0.75)


def test_operator_product_distributes():
    rng = np.random.default_rng(11)
    letters = ["XX", "YZ", "IZ", "ZI", "YY"]
    a = PauliSum.zero(2)
    b = PauliSum.zero(2)
    for ell in letters[:3]:
        a = a + PauliSum.from_term(ell, complex(rng.normal(), rng.normal()))
    for ell in letters[2:]:
        b = b + PauliSum.from_term(ell, complex(rng.normal(), rng.normal()))
    assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix())


def test_tensor_and_adjoint():
    a = PauliSum.from_term("X", 1.0 + 2.0j)
    b = PauliSum.from_term("ZZ", 1.0)
    t = a.tensor(b)
    assert np.allclose(t.to_matrix(), np.kron(a.to_matrix(), b.to_matrix()))
    assert np.allclose(a.adjoint().to_matrix(), a.to_matrix().conj().T)


def test_simplify_prunes_small_terms():
    s = PauliSum.from_term("X", 1.0) + PauliSum.from_term("Y", 1e-15)
    assert len(s.simplify().terms) == 1


def test_canonical_term_order_is_lexicographic():
    s = (PauliSum.from_term("ZZ", 1.0) + PauliSum.from_term("IX", 1.0)
         + PauliSum.from_term("XI", 1.0))
    assert [t.letters for t in s.terms] == ["IX", "XI", "ZZ"]


def test_text_round_trip():
    s = (PauliSum.from_term("XYZ", 0.1 + 0.2j)
         + PauliSum.from_term("III", -3.0)
         + PauliSum.from_term("ZZI", 1.0 / 3.0))
    again = PauliSum.from_text(s.to_text())
    assert again.terms == s.terms


@settings(max_examples=200, deadline=None)
@given(spec=st.integers(0, 14).flatmap(lambda n: st.tuples(st.just(n), letter_maps(n, 6))))
def test_text_round_trips_in_sorted_letter_order(spec):
    n, mapping = spec
    s = PauliSum(mapping, n)
    text = s.to_text()
    assert PauliSum.from_text(text, n) == s
    letters = [line.split(" ")[2] for line in text.splitlines()]
    assert letters == sorted(letters)
    # the letters read back are the letters put in: the mask bit order holds
    assert letters == sorted(k for k, v in mapping.items() if v != 0)


def test_zero_qubit_sum_reads_back_with_its_width_given_or_inferred():
    s = PauliSum.identity(0)
    assert s.to_text() == "1.0 0.0 \n"
    assert PauliSum.from_text(s.to_text()) == s
    assert PauliSum.from_text(s.to_text(), 0) == s
    with pytest.raises(ParameterError, match="expected 're im LETTERS'"):
        PauliSum.from_text("1.0 0.0\n", 2)


def test_dense_limit_guard():
    with pytest.raises(CapacityError):
        PauliSum.from_term("I" * 15).to_matrix()
    with pytest.raises(CapacityError):
        PauliTerm("I" * 15, 1).to_matrix()


def test_capacity_rule_refuses_one_byte_past_a_dense_limit_matrix():
    tracemalloc.start()
    try:
        n = 2**DENSE_LIMIT
        require_capacity((n, n), 16, "x")  # exactly one 2**14-row complex matrix
        require_capacity((4, n, n // 2), 8, "x")
        for shape, itemsize in [((n, n + 1), 16), ((n * n * 16 + 1,), 1), ((2, n, n + 1), 8)]:
            with pytest.raises(CapacityError, match=r"x of shape .* exceeds dense limit"):
                require_capacity(shape, itemsize, "x")
        with pytest.raises(CapacityError, match="exceeds dense limit"):
            PauliTerm("I" * (DENSE_LIMIT + 1), 1).to_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_masks_mark_x_and_z_parts_with_qubit_zero_most_significant():
    t = PauliTerm("XYZI", 1.0)
    assert (t.x_mask, t.z_mask) == (0b1100, 0b0110)
    assert (PauliTerm("", 1.0).x_mask, PauliTerm("", 1.0).z_mask) == (0, 0)


def test_masks_are_computed_on_first_use_only():
    t = product(PauliTerm("XY", 1.0), PauliTerm("ZZ", 2.0))
    assert "x_mask" not in vars(t) and "z_mask" not in vars(t)
    t.to_matrix()
    assert "x_mask" in vars(t) and "z_mask" in vars(t)


def test_every_short_string_equals_an_independent_kron_chain():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for letters in map("".join, itertools.product("IXYZ", repeat=n)):
            c = complex(rng.normal(), rng.normal())
            ref = np.array([[c]])
            for ch in letters:
                ref = np.kron(ref, MATS[ch])
            assert np.array_equal(PauliTerm(letters, c).to_matrix(), ref), letters


@settings(max_examples=60, deadline=None)
@given(letters=st.text(alphabet="IXYZ", min_size=1, max_size=8),
       re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_apply_equals_the_matrix_product(letters, re, im, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2 ** len(letters)) + 1j * rng.normal(size=2 ** len(letters))
    term = PauliTerm(letters, complex(re, im))
    assert np.max(np.abs(term.apply(psi) - term.to_matrix() @ psi)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(spec=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), letter_maps(n, 12))))
def test_sparse_form_equals_the_per_term_dense_sum(spec):
    n, mapping = spec
    s = PauliSum(mapping, n)
    H = s.to_sparse()
    assert H.format == "csr" and H.shape == (2**n, 2**n)
    assert np.max(np.abs(H.toarray() - s.to_matrix()), initial=0.0) <= 1e-13
    # one signed diagonal per distinct x mask: at most that many entries per row
    assert np.all(np.diff(H.indptr) <= len({PauliTerm(k, 1).x_mask for k in mapping}))


def test_sparse_form_refuses_a_table_past_the_dense_limit_before_allocating():
    tracemalloc.start()
    try:
        s = PauliSum({"I" * 27: 1.0, "X" * 27: 1.0, "Z" * 27: 1.0, "Y" * 27: 1.0}, 27)
        with pytest.raises(CapacityError, match="27-qubit table of 4 strings"):
            s.to_sparse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_term_view_is_built_once_and_serves_text_and_repr():
    s = PauliSum({"ZI": 0.5, "XY": -1.0 + 2.0j, "IX": 3.0}, 2)
    assert s.terms is s.terms
    assert [(t.letters, t.coefficient) for t in s.terms] == [
        ("IX", 3.0), ("XY", -1.0 + 2.0j), ("ZI", 0.5)]
    assert s.to_text() == "3.0 0.0 IX\n-1.0 2.0 XY\n0.5 0.0 ZI\n"
    assert repr(s) == "PauliSum[2](((3+0j))·IX + ((-1+2j))·XY + ((0.5+0j))·ZI)"
    # a derived sum has its own view
    assert [t.letters for t in (s + PauliSum.from_term("ZZ")).terms] == ["IX", "XY", "ZI", "ZZ"]


def test_apply_rejects_a_state_of_the_wrong_width():
    with pytest.raises(DimensionError):
        PauliTerm("XZ", 1.0).apply(np.ones(8))


def test_mismatched_width_rejected():
    with pytest.raises(DimensionError):
        PauliSum.from_term("XX") + PauliSum.from_term("X")


def test_ladder_and_projector_blocks():
    plus = ladder("plus").to_matrix()
    assert np.allclose(plus, np.array([[0, 1], [0, 0]]))  # |0><1|
    minus = ladder("minus").to_matrix()
    assert np.allclose(minus, plus.conj().T)
    assert np.allclose(projector(0).to_matrix(), np.diag([1.0, 0.0]))
    assert np.allclose(projector(1).to_matrix(), np.diag([0.0, 1.0]))
    assert np.allclose(outer_1q(1, 0).to_matrix(), np.array([[0, 0], [1, 0]]))


def test_random_sums_against_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 5)
        s = PauliSum.zero(n)
        ref = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for _ in range(rng.integers(1, 6)):
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            c = complex(rng.normal(), rng.normal())
            s = s + PauliSum.from_term(letters, c)
            ref = ref + c * dense(letters)
        assert np.allclose(s.to_matrix(), ref, atol=1e-12)
