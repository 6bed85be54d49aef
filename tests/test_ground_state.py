import numpy as np
import pytest

from bosonsim.errors import DomainError, ParameterError
from bosonsim.ground_state import (
    exact_diagonalize,
    holstein_trial_state,
    moments,
    pds,
)
from bosonsim.models import HolsteinParams, build_holstein


def test_moments_against_direct_powers():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 5))
    H = (A + A.T) / 2
    phi = rng.normal(size=5)
    phi /= np.linalg.norm(phi)
    mom = moments(H, phi, 6)
    Hp = np.eye(5)
    for k in range(7):
        assert mom[k] == pytest.approx(phi @ Hp @ phi, abs=1e-10)
        Hp = Hp @ H


def test_moments_require_normalized_state():
    with pytest.raises(ParameterError):
        moments(np.eye(2), np.array([2.0, 0.0]), 2)
    with pytest.raises(ParameterError, match="max_power"):
        moments(np.eye(2), np.array([1.0, 0.0]), -1)


def test_pds_exact_when_trial_spans_k_eigenvectors():
    # trial over 3 eigenvectors: PDS(3) roots are exactly those eigenvalues
    H = np.diag([-1.0, 0.5, 2.0, 7.0])
    phi = np.array([0.6, 0.7, np.sqrt(1 - 0.36 - 0.49), 0.0])
    mom = moments(H, phi, 5)
    res = pds(mom, 3)
    assert np.allclose(np.sort(res.roots.real), [-1.0, 0.5, 2.0], atol=1e-8)
    assert res.lowest_root == pytest.approx(-1.0, abs=1e-8)


def test_pds_lowest_root_upper_bounds_from_above():
    # PDS(K) lowest root approaches the ground energy from above
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 6))
    H = (A + A.T) / 2
    w = np.linalg.eigvalsh(H)
    phi = rng.normal(size=6)
    phi /= np.linalg.norm(phi)
    mom = moments(H, phi, 9)
    prev = np.inf
    for K in (1, 2, 3, 4):
        root = pds(mom, K).lowest_root
        assert root >= w[0] - 1e-9
        assert root <= prev + 1e-9
        prev = root


def test_pds_degenerate_moment_matrix():
    H = np.diag([0.0, 1.0])
    phi = np.array([1.0, 0.0])  # exact eigenvector: rank-1 moments
    mom = moments(H, phi, 7)
    with pytest.raises(DomainError):
        pds(mom, 4)
    res = pds(mom, 4, allow_degenerate=True)
    assert res.lowest_root == pytest.approx(0.0, abs=1e-8)


def test_exact_diagonalize_rejects_non_hermitian():
    with pytest.raises(DomainError):
        exact_diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_holstein_trial_state_shape():
    m = build_holstein(HolsteinParams(3, 1.0, 1.0, 0.5, 1, "periodic"))
    phi = holstein_trial_state(m.layout)
    assert np.linalg.norm(phi) == pytest.approx(1.0)
    assert phi[0b001000] == pytest.approx(1 / np.sqrt(2))
    assert phi[0b111000] == pytest.approx(1 / np.sqrt(2))


def test_holstein_pds_sweep_improves_with_k():
    for g in (0.5, 1.0, 2.0):
        m = build_holstein(HolsteinParams(3, 1.0, 1.0, g, 1, "periodic"))
        H = m.pauli.to_matrix()
        w, _ = exact_diagonalize(H)
        phi = holstein_trial_state(m.layout)
        mom = moments(H, phi, 9)
        e2 = pds(mom, 2).lowest_root
        e5 = pds(mom, 5).lowest_root
        assert e5 >= w[0] - 1e-9
        assert abs(e5 - w[0]) < abs(e2 - w[0])
