import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from bosonsim.cli import run
from bosonsim.errors import CapacityError, DomainError, ParameterError
from bosonsim.models import mode_matrices
from bosonsim.open_systems import (
    STATE_BLOCK,
    LindbladSpec,
    build_liouvillian,
    devectorize,
    lcu_split,
    lindblad_rhs,
    liouvillian_trotter_step,
    propagate_lindblad,
    vectorize,
)


def make_spec(cutoff=3, omega=1.0, G=0.05, g=0.02):
    b, bd, n = mode_matrices(cutoff)
    return LindbladSpec(omega * n, G, g, b, n)


def random_density(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def test_vectorization_identities():
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v = vectorize(rho)
    # column stacking: first d entries are the first column
    assert np.allclose(v[:3], rho[:, 0])
    assert np.allclose(devectorize(v, 3), rho)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    # vec(A rho B) = (B^T ⊗ A) vec(rho)
    assert np.allclose(np.kron(B.T, A) @ v, vectorize(A @ rho @ B), atol=1e-12)


def test_superoperator_matches_direct_rhs():
    rng = np.random.default_rng(1)
    spec = make_spec()
    L = build_liouvillian(spec)
    for _ in range(10):
        rho = random_density(rng, 4)
        direct = lindblad_rhs(spec, rho)
        via_super = devectorize(L @ vectorize(rho), 4)
        assert np.max(np.abs(direct - via_super)) < 1e-12


def test_generator_is_trace_preserving():
    # the asymmetric heating block's trace contributions cancel exactly
    for G, g in ((0.0, 0.0), (0.01, 0.0), (0.0, 0.01), (0.1, 0.07)):
        spec = make_spec(G=G, g=g)
        L = build_liouvillian(spec)
        tr = vectorize(np.eye(4))
        assert np.max(np.abs(tr @ L)) < 1e-12


def test_propagation_conserves_trace_and_positivity():
    spec = make_spec(G=0.05, g=0.02)
    L = build_liouvillian(spec)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    rho = propagate_lindblad(L, rho0, 2.0, dt=1e-3)
    assert abs(np.trace(rho) - 1.0) < 1e-8
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_closed_system_limit_matches_unitary_conjugation():
    spec = make_spec(G=0.0, g=0.0)
    L = build_liouvillian(spec)
    rng = np.random.default_rng(2)
    rho0 = random_density(rng, 4)
    t = 1.5
    rho = propagate_lindblad(L, rho0, t, dt=1e-3)
    U = expm(-1j * t * spec.H)
    assert np.max(np.abs(rho - U @ rho0 @ U.conj().T)) < 1e-8


def test_dephasing_shrinks_purity():
    spec = make_spec(G=0.1, g=0.0)
    L = build_liouvillian(spec)
    rho0 = np.full((4, 4), 0.25, dtype=complex)  # maximally coherent
    purities = []
    propagate_lindblad(L, rho0, 1.0, dt=1e-3,
                       record=lambda taus, rhos: purities.extend(
                           float(np.real(np.trace(r @ r))) for r in rhos))
    assert len(purities) == 1000
    assert all(a >= b - 1e-12 for a, b in zip(purities, purities[1:]))


@pytest.mark.parametrize("cutoff", [3, 7])
@pytest.mark.parametrize("t", [0.5, 0.5004])
def test_series_matches_exact_propagator_at_every_step(cutoff, t):
    # driven and both rates on: L has no phase-covariant shortcut
    b, bd, n = mode_matrices(cutoff)
    L = build_liouvillian(LindbladSpec(1.0 * n + 0.4 * (b + bd), 0.05, 0.03, b, n))
    d, dt = cutoff + 1, 1e-3
    rho0 = random_density(np.random.default_rng(cutoff), d)
    series, blocks = [], []

    def record(taus, rhos):  # the block is overwritten after the call: copy it
        assert not taus.flags.writeable and not rhos.flags.writeable
        blocks.append(len(taus))
        series.extend(zip(taus.tolist(), np.array(rhos)))

    propagate_lindblad(L, rho0, t, dt=dt, record=record)
    times = [k * dt for k in range(1, 501)] + ([t] if t != 0.5 else [])
    assert blocks == [STATE_BLOCK, len(times) - STATE_BLOCK]  # one call per block
    assert [tau for tau, _ in series] == times
    v0 = vectorize(rho0)
    # one expm_multiply sweep over the whole steps; expm at the last one and at t
    exact = list(expm_multiply(L, v0, start=dt, stop=0.5, num=500, endpoint=True))
    exact[-1] = expm(L * 0.5) @ v0
    if t != 0.5:
        exact.append(expm(L * t) @ v0)
    for (tau, rho), ref in zip(series, exact, strict=True):
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.max(np.abs(rho - devectorize(ref, d))) <= 1e-12


def test_propagation_validates_input_state():
    L = build_liouvillian(make_spec())
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(DomainError):
        propagate_lindblad(L, bad, 0.1)
    with pytest.raises(ParameterError):
        propagate_lindblad(L, np.diag([1.0, 0, 0, 0]).astype(complex), 0.1,
                           dt=-1.0)


def test_liouvillian_splitting_orders():
    b, bd, n = mode_matrices(3)
    I = np.eye(4)
    # a drive term keeps the Hamiltonian flow from commuting with the
    # (phase-covariant) dissipators
    H = 1.0 * n + 0.4 * (b + bd)
    L_h = build_liouvillian(LindbladSpec(H, 0.0, 0.0, b, n))
    L_d = build_liouvillian(LindbladSpec(0.0 * I, 0.05, 0.03, b, n))
    L = L_h + L_d
    for order, expect in ((1, 1.0), (2, 2.0)):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            step = liouvillian_trotter_step([L_h, L_d], dt, order)
            errs.append(np.linalg.norm(step - expm(L * dt), 2) / dt)
        # error per unit time scales like dt^order
        slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert np.mean(slopes) > expect - 0.15
    # the palindromic product's fitted local order is at least 2.9 in total
    errs = []
    for dt in (0.1, 0.05, 0.025):
        step = liouvillian_trotter_step([L_h, L_d], dt, 2)
        errs.append(np.linalg.norm(step - expm(L * dt), 2))
    slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(slopes) >= 2.9


def test_lcu_split_reconstruction_and_scaling():
    spec = make_spec(G=0.05, g=0.02)
    L = build_liouvillian(spec)
    out = lcu_split(L, 0.3, 1e-3)
    A, B = out["A"], out["B"]
    assert np.max(np.abs(A - A.conj().T)) < 1e-12
    assert np.max(np.abs(B + B.conj().T)) < 1e-12
    Et = expm(L * 0.3)
    assert np.max(np.abs(A + B - Et)) < 1e-12
    r1 = out["residual"]
    r2 = lcu_split(L, 0.3, 5e-4)["residual"]
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)


def test_lcu_split_at_zero_time():
    L = build_liouvillian(make_spec())
    out = lcu_split(L, 0.0, 1e-3)
    assert np.allclose(out["A"], np.eye(16), atol=1e-12)
    assert np.max(np.abs(out["B"])) < 1e-12


def test_liouvillian_above_the_dense_limit_is_refused_before_allocating(tmp_path):
    # cutoff 128: d² = 16,641 > 2**14; the d²×d² complex matrix would take 4.1 GiB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="16641"):
            build_liouvillian(make_spec(cutoff=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert run(["lindblad", "--cutoff", "128", "--out", str(tmp_path / "l.csv")]) == 2
    assert not (tmp_path / "l.csv").exists()
