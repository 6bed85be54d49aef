import math
import time

import numpy as np
import pytest

from bosonsim.block_encoding import (
    _sign_table,
    boson_block_encode,
    choose_xi,
    integral_sign_representation,
    lcu_encode,
)
from bosonsim.errors import DomainError, ParameterError
from bosonsim.models import SpinBosonParams, build_spin_boson
from bosonsim.pauli import PauliTerm

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def haar_unitary(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_two_term_lcu():
    enc = lcu_encode([1.0, 1.0], [X, Z])
    assert np.max(np.abs(enc.block - (X + Z) / 2)) < 1e-12
    assert enc.normalization == 2.0
    # PREP|0> amplitudes are sqrt(beta)/sqrt(sum beta)
    assert np.allclose(enc.prep[:, 0], [1 / math.sqrt(2)] * 2)


def test_single_term_block_is_the_unitary():
    enc = lcu_encode([3.0], [X])
    assert np.max(np.abs(enc.block - X)) < 1e-12


def test_random_lcu_block_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        L = int(rng.integers(2, 9))
        d = int(rng.choice([2, 4, 8, 16]))
        betas = rng.uniform(0.1, 2.0, L)
        Us = [haar_unitary(rng, d) for _ in range(L)]
        enc = lcu_encode(betas, Us)
        target = sum(b * U for b, U in zip(betas, Us))
        assert np.max(np.abs(enc.block - target / betas.sum())) < 1e-10
        # PREP and SEL are unitary
        assert np.allclose(enc.prep.conj().T @ enc.prep, np.eye(L), atol=1e-10)
        assert np.allclose(enc.sel.conj().T @ enc.sel, np.eye(L * d),
                           atol=1e-10)


def test_spin_boson_hamiltonian_lcu():
    p = SpinBosonParams(delta=1.0, epsilon=0.5, omegas=(1.0,),
                        couplings=(0.3,), cutoffs=(3,))
    m = build_spin_boson(p)
    betas, unis = [], []
    for t in m.pauli.terms:
        c = t.coefficient
        betas.append(abs(c))
        unis.append((c / abs(c)) * PauliTerm(t.letters, 1.0).to_matrix())
    enc = lcu_encode(betas, unis)
    assert np.max(np.abs(enc.block - m.pauli.to_matrix() / enc.normalization)) \
        < 1e-10


def test_lcu_validation():
    with pytest.raises(ParameterError):
        lcu_encode([1.0, -1.0], [X, Z])
    with pytest.raises(DomainError):
        lcu_encode([1.0], [np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_query_count_estimate():
    enc = lcu_encode([1.0, 1.0], [X, Z])
    assert enc.query_count(1.0, 1e-3) == math.ceil(2.0 + math.log(1e3))
    with pytest.raises(ParameterError):
        enc.query_count(-1.0, 0.5)


def test_integral_representation_is_exact():
    recs = integral_sign_representation([0.0, 1.0, 2.0], 2.0)
    for r in recs:
        assert r["integral"] == pytest.approx(r["f"], abs=1e-15)
    # f == fmax: indicator +1 everywhere (threshold at the top)
    (top,) = integral_sign_representation([2.0], 2.0)
    assert top["threshold"] == 2.0
    # f == 0: half plus, half minus
    (zero,) = integral_sign_representation([0.0], 2.0)
    assert zero["threshold"] == 1.0 and zero["integral"] == 0.0
    with pytest.raises(DomainError):
        integral_sign_representation([3.0], 2.0)


def test_boson_block_encoding_error_grid():
    for L in (2, 4, 8, 16):
        for p in range(4, 13):
            enc = boson_block_encode(L, 2 ** p)
            assert enc.measured_error <= enc.error_bound + 1e-15


def looped_sign_table(lam, capital_lambda, capital_xi):
    """The sample-by-sample count the closed form replaces."""
    target = (lam + 1) % capital_lambda
    minus = 0
    for xi in range(capital_xi):
        u = 2 * xi - capital_xi
        if u > 0 and u * u * (capital_lambda - 1) > capital_xi * capital_xi * target:
            minus += 1
    return minus


@pytest.mark.parametrize("capital_lambda,xis", [
    (L, range(2, 65)) for L in range(2, 13)] + [
    (L, [2 ** k for k in range(1, 12)]) for L in (16, 32, 64)])
def test_sign_count_equals_the_sample_loop(capital_lambda, xis):
    for xi in xis:
        for lam in range(capital_lambda):
            assert _sign_table(lam, capital_lambda, xi) == \
                looped_sign_table(lam, capital_lambda, xi), (lam, xi)


def test_largest_accepted_xi_encodes_in_under_a_second():
    start = time.perf_counter()
    enc = boson_block_encode(8, 2 ** 30)
    assert time.perf_counter() - start < 1.0
    assert enc.measured_error <= enc.error_bound


def test_boson_block_shape_and_target():
    enc = boson_block_encode(8, 4096)
    bdag = np.diag(np.sqrt(np.arange(1.0, 8)), -1)
    assert np.allclose(enc.target, bdag / math.sqrt(7))
    assert enc.measured_error <= 2 / 4096
    # adjoint of the block encodes the annihilation operator
    assert np.linalg.norm(enc.block.T - enc.target.T, 2) <= enc.error_bound


def test_error_non_increasing_with_xi():
    errs = [boson_block_encode(8, 2 ** k).measured_error for k in range(4, 13)]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


def test_smallest_cutoff_sits_exactly_on_the_bound():
    # the strict-inequality tie convention leaves a 2/Xi offset on the
    # zero-amplitude wrap entry, saturating (not beating) the bound
    enc = boson_block_encode(2, 16)
    assert enc.measured_error == pytest.approx(2 / 16)


def test_power_of_two_validation():
    with pytest.raises(ParameterError):
        boson_block_encode(3, 16)
    with pytest.raises(ParameterError):
        boson_block_encode(4, 100)


def test_gate_cost_envelope():
    # bit-operation model stays under C·log2(Λ)·log2²(Ξ) across the grid
    ratios = []
    for L in (2, 4, 8, 16):
        for p in range(4, 13):
            enc = boson_block_encode(L, 2 ** p)
            ratios.append(enc.gate_cost() / (math.log2(L) * p * p))
    assert max(ratios) <= 10.0


def test_choose_xi_boundaries():
    assert choose_xi(0.01) == 256
    assert choose_xi(1.0) == 2
    assert choose_xi(2 / 256) == 256
    with pytest.raises(ParameterError):
        choose_xi(0.0)
