import math

import numpy as np
import pytest

from bosonsim.errors import DomainError, ParameterError
from bosonsim.state_prep import (
    ancilla_state,
    plan_prep,
    simulate_prep,
    synthesize_permutation,
)


def test_rotation_chain_reproduces_coefficients():
    rng = np.random.default_rng(0)
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    c /= np.linalg.norm(c)
    plan = plan_prep(c, "A")
    assert np.allclose(ancilla_state(plan), c, atol=1e-12)


def test_uniform_pair_probabilities():
    c = [1 / math.sqrt(2)] * 2
    assert plan_prep(c, "A").p_success == pytest.approx(0.5)
    assert plan_prep(c, "B").p_success == pytest.approx(0.5)


def test_concentrated_coefficient_maximizes_scheme_b():
    c = [1.0, 0.0, 0.0, 0.0]
    plan = plan_prep(c, "B")
    assert plan.p_success == pytest.approx(1.0)
    assert plan.amplification_steps == 1


def test_uniform_coefficients_saturate_the_bound():
    c = [0.5] * 4
    assert plan_prep(c, "B").p_success == pytest.approx(0.25)
    assert plan_prep(c, "A").p_success == pytest.approx(0.25)


def test_scheme_b_never_worse_than_a():
    rng = np.random.default_rng(1)
    for _ in range(30):
        K = int(rng.integers(1, 9))
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        c /= np.linalg.norm(c)
        pa = plan_prep(c, "A").p_success
        pb = plan_prep(c, "B").p_success
        assert pb >= pa - 1e-12
        assert 1.0 <= 1.0 / pb <= K + 1e-9  # 1 <= (sum|c|)^2 <= K


def test_normalization_required():
    for c in ([1.0, 1.0], [0.0, 0.0], [math.nan, 1.0], [1.0, math.inf]):
        with pytest.raises(ParameterError):
            plan_prep(c, "A")
    with pytest.raises(ParameterError):
        plan_prep([0.6, 0.8], "C")


def test_simulation_two_fock_targets():
    e = np.eye(4)
    phis = [e[2], e[1]]  # single excitations of two modes
    c = [math.sqrt(1 / 3), math.sqrt(2 / 3)]
    out_a = simulate_prep(plan_prep(c, "A"), phis)
    assert out_a["fidelity"] >= 1 - 1e-10
    assert out_a["probability"] == pytest.approx(0.5, abs=1e-10)
    out_b = simulate_prep(plan_prep(c, "B"), phis)
    assert out_b["fidelity"] >= 1 - 1e-10
    expect = 1.0 / (math.sqrt(1 / 3) + math.sqrt(2 / 3)) ** 2
    assert out_b["probability"] == pytest.approx(expect, abs=1e-10)


def test_single_target_deterministic():
    out = simulate_prep(plan_prep([1.0], "A"), [np.eye(3)[0]])
    assert out["probability"] == pytest.approx(1.0)
    assert out["fidelity"] == pytest.approx(1.0)


def test_random_instances_match_plan():
    rng = np.random.default_rng(2)
    for _ in range(25):
        K = int(rng.integers(1, 9))
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        c /= np.linalg.norm(c)
        A = rng.normal(size=(12, K)) + 1j * rng.normal(size=(12, K))
        Q, _ = np.linalg.qr(A)
        phis = [Q[:, i] for i in range(K)]
        for scheme in ("A", "B"):
            plan = plan_prep(c, scheme)
            out = simulate_prep(plan, phis)
            assert out["fidelity"] >= 1 - 1e-10
            assert abs(out["probability"] - plan.p_success) < 1e-10


def test_simulation_rejects_overlapping_targets():
    v = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        simulate_prep(plan_prep([0.6, 0.8], "A"), [v, v])


def test_identity_permutation_needs_no_transpositions():
    s = synthesize_permutation({}, 8)
    assert s.transpositions == ()
    assert s.report["n_transpositions"] == 0


def test_single_swap():
    s = synthesize_permutation({3: 5, 5: 3}, 8)
    assert s.transpositions == ((3, 5),)
    assert s.report["hamming_path_lengths"] == [2]  # 011 vs 101


def test_random_permutation_composition_exact():
    rng = np.random.default_rng(3)
    perm = rng.permutation(16)
    s = synthesize_permutation({i: int(perm[i]) for i in range(16)}, 16)
    assert all(s.apply(i) == perm[i] for i in range(16))
    assert s.report["n_transpositions"] <= 15
    assert s.report["n_transpositions"] == sum(
        len(c) - 1 for c in s.cycles)


def test_partial_mapping_completed_deterministically():
    s1 = synthesize_permutation({0: 3, 1: 0}, 8)
    s2 = synthesize_permutation({0: 3, 1: 0}, 8)
    assert s1.permutation == s2.permutation
    assert s1.apply(0) == 3 and s1.apply(1) == 0
    # labels untouched by the mapping stay fixed when possible
    for k in (2, 4, 5, 6, 7):
        assert s1.apply(k) == k


def test_non_injective_mapping_rejected():
    with pytest.raises(ParameterError):
        synthesize_permutation({0: 1, 2: 1}, 4)
