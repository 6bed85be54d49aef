import math

import numpy as np
import pytest

from bosonsim.errors import ConvergenceError, DomainError, ParameterError
from bosonsim.flows import (
    SAMPLE_EVERY,
    bogoliubov_2site,
    pairing_block,
    wegner_flow,
    wegner_generator,
    xy_bdg_spectrum,
    xy_spectrum,
)


def test_generator_elementwise_formula():
    H = np.array([[1.0, 0.3], [0.3, -1.0]])
    G = wegner_generator(H)
    assert np.allclose(G, [[0.0, 0.6], [-0.6, 0.0]])


def test_generator_diagonal_fixed_point():
    assert np.max(np.abs(wegner_generator(np.diag([3.0, 1.0, -2.0])))) == 0.0


def test_generator_anti_hermitian_random():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    H = (A + A.conj().T) / 2
    G = wegner_generator(H)
    assert np.max(np.abs(G + G.conj().T)) < 1e-12
    assert np.max(np.abs(np.diag(G))) == 0.0


def test_generator_rejects_non_hermitian():
    with pytest.raises(DomainError):
        wegner_generator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_flow_two_by_two_closed_form():
    h = 0.7
    traj = wegner_flow(np.array([[1.0, h], [h, -1.0]]))
    d = np.sort(np.real(np.diag(traj[-1].H)))
    ed = math.sqrt(1 + h * h)
    assert np.allclose(d, [-ed, ed], atol=1e-6)


def test_flow_diagnostics_and_conservation():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(8, 8))
    H0 = (A + A.T) / 2
    traj = wegner_flow(H0, s_max=300.0)
    offs = [st.off_diagonal_norm for st in traj]
    assert all(a >= b - 1e-10 for a, b in zip(offs, offs[1:]))
    assert abs(traj[-1].trace_h2 - traj[0].trace_h2) < 1e-8
    traces = [float(np.real(np.trace(st.H))) for st in traj]
    assert max(abs(t - traces[0]) for t in traces) < 1e-8
    d = np.sort(np.real(np.diag(traj[-1].H)))
    assert np.max(np.abs(d - np.linalg.eigvalsh(H0))) < 1e-6


def test_flow_monotone_sum_of_squares_rate():
    # d/ds sum d_i^2 = 2 sum |h_ik|^2 (d_i - d_k)^2 >= 0, checked by
    # finite differences of the sampled diagonals against the analytic rate
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5))
    H0 = (A + A.T) / 2
    # samples 5 default steps apart: SAMPLE_EVERY steps of half the default ds
    traj = wegner_flow(H0, ds=0.005 / np.linalg.norm(H0) ** 2, s_max=300.0)
    for prev, nxt in zip(traj[:-2:10], traj[1:-1:10]):
        ds = nxt.s - prev.s
        if ds <= 0:
            continue
        fd = (np.sum(np.real(np.diag(nxt.H)) ** 2)
              - np.sum(np.real(np.diag(prev.H)) ** 2)) / ds
        d = np.real(np.diag(prev.H))
        rate = 2 * np.sum(np.abs(prev.H) ** 2
                          * (d[:, None] - d[None, :]) ** 2)
        assert fd >= -1e-8
        assert fd == pytest.approx(rate, rel=0.2, abs=1e-6)


def test_flow_constant_on_diagonal_start():
    traj = wegner_flow(np.diag([2.0, -1.0, 0.5]))
    assert len(traj) >= 1
    assert traj[-1].off_diagonal_norm == 0.0


def test_flow_samples_on_fixed_grid_and_stops_at_tolerance():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(5, 5))
    H0 = (A + A.T) / 2
    ds, every = 2.1e-3, SAMPLE_EVERY
    traj = wegner_flow(H0, ds=ds, s_max=300.0)
    tol = 1e-6 * np.linalg.norm(H0)
    assert len(traj) > 3
    for k, st in enumerate(traj[:-1]):
        assert st.s == k * every * ds
        assert st.off_diagonal_norm > tol
    # the terminal event stops at the root of off-norm − tol, to rounding
    assert traj[-1].off_diagonal_norm == pytest.approx(tol, rel=1e-9)
    assert traj[-2].s < traj[-1].s <= traj[-2].s + every * ds


def test_flow_keeps_complex_hermitian_phases():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H0 = (A + A.conj().T) / 2
    w = np.linalg.eigvalsh(H0)
    traj = wegner_flow(H0, s_max=300.0)
    assert np.max(np.abs(np.sort(np.real(np.diag(traj[-1].H))) - w)) < 1e-8
    # the flow is isospectral: dropping the imaginary parts would move these
    for st in traj[1:5]:
        assert np.max(np.abs(st.H.imag)) > 0.1
        assert np.max(np.abs(np.linalg.eigvalsh(st.H) - w)) < 1e-8


@pytest.mark.parametrize("s_max", [0.0, -1.0, math.nan])
def test_flow_rejects_non_positive_s_max(s_max):
    with pytest.raises(ParameterError, match="s_max"):
        wegner_flow(np.array([[1.0, 0.5], [0.5, -1.0]]), s_max=s_max)


def test_flow_rejects_empty_matrix():
    with pytest.raises(ParameterError, match="H0 is empty"):
        wegner_flow(np.zeros((0, 0)))


def test_flow_unconverged_by_s_max_carries_trajectory():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 5))
    H0 = (A + A.T) / 2
    with pytest.raises(ConvergenceError) as info:
        wegner_flow(H0, s_max=0.05)
    trace = info.value.trace
    assert trace[0].s == 0.0 and trace[-1].s == 0.05
    assert info.value.residual == trace[-1].off_diagonal_norm > 1e-6 * np.linalg.norm(H0)


def test_fermionic_three_four_five():
    sol = bogoliubov_2site(3.0, 4.0, "fermionic")
    assert sol.energy == pytest.approx(5.0)
    assert sol.u ** 2 + sol.v ** 2 == pytest.approx(1.0)
    assert math.tan(2 * sol.theta) == pytest.approx(-4.0 / 3.0)


def test_bosonic_five_three_four():
    sol = bogoliubov_2site(5.0, 3.0, "bosonic")
    assert sol.energy == pytest.approx(4.0)
    assert sol.u ** 2 - sol.v ** 2 == pytest.approx(1.0)
    assert math.tanh(2 * sol.theta) == pytest.approx(-3.0 / 5.0)


def test_zero_pairing_is_identity():
    sol = bogoliubov_2site(2.0, 0.0, "fermionic")
    assert sol.theta == 0.0
    assert sol.energy == 2.0
    assert np.allclose(sol.unitary, np.eye(2))


def test_bosonic_instability_rejected():
    with pytest.raises(DomainError):
        bogoliubov_2site(1.0, 2.0, "bosonic")
    with pytest.raises(DomainError):
        bogoliubov_2site(1.0, 1.0, "bosonic")


def test_pairing_block_spectra():
    Mf = pairing_block(3.0, 4.0, "fermionic")
    assert np.allclose(np.linalg.eigvalsh(Mf), [-5, -5, 5, 5])
    Mb = pairing_block(5.0, 3.0, "bosonic")
    eta = np.diag([1.0, 1.0, -1.0, -1.0])
    w = np.sort(np.real(np.linalg.eigvals(eta @ Mb)))
    assert np.allclose(w, [-4, -4, 4, 4], atol=1e-12)


def test_xy_flat_band():
    spec = xy_spectrum(6, 1.0, 1.0, 0.0)
    assert np.allclose(spec["E_k"], 1.0)


def test_xy_zero_gamma():
    spec = xy_spectrum(5, 1.0, 0.0, 2.0)
    assert np.allclose(spec["E_k"], np.abs(2.0 - np.cos(spec["k"])))


def test_xy_momentum_grid_parity():
    even = xy_spectrum(6, 1.0, 0.5, 1.0)["k"]
    assert even[0] == pytest.approx(-math.pi)  # -N/2 included, +N/2 not
    assert even[-1] < math.pi
    odd = xy_spectrum(7, 1.0, 0.5, 1.0)["k"]
    assert odd[0] == pytest.approx(-odd[-1])


def test_xy_spectrum_k_symmetry():
    spec = xy_spectrum(6, 1.0, 0.3, 0.7)
    k, E = spec["k"], spec["E_k"]
    for i, ki in enumerate(k):
        if abs(ki + math.pi) < 1e-12:
            continue  # even-grid endpoint has no +pi partner
        j = int(np.argmin(np.abs(k + ki)))
        assert E[i] == pytest.approx(E[j], abs=1e-12)


@pytest.mark.parametrize("N", [4, 6, 7])
def test_xy_matches_quadratic_form_oracle(N):
    spec = xy_spectrum(N, 1.0, 0.5, 1.0)
    bdg = xy_bdg_spectrum(N, 1.0, 0.5, 1.0)
    assert np.max(np.abs(np.sort(spec["E_k"]) - bdg)) < 1e-10


def test_small_chain_rejected():
    with pytest.raises(ParameterError):
        xy_spectrum(1, 1.0, 0.5, 1.0)
