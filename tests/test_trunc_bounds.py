import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from bosonsim.errors import ConditionViolation, DomainError, ParameterError
from bosonsim.trunc_bounds import (
    TruncationInput,
    hamiltonian_cutoff,
    lambert_w_threshold,
    leakage_oracle,
    short_time_leakage_bound,
    state_truncation_schedule,
    time_dependent_cutoff,
    truncation_defect,
    verify_conditions,
)


def single_mode(omega, g, dim):
    n = np.diag(np.arange(dim, dtype=float))
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return omega * n + g * omega * (b + b.T), np.arange(dim)


def test_per_step_bound_values():
    b = short_time_leakage_bound(60)
    assert b.log_value == pytest.approx(60 * math.log(math.sqrt(2) * math.e
                                                      / math.sqrt(60)))
    assert b.value == pytest.approx(5.5466565e-19, rel=1e-6)
    # far below double-precision range the linear value underflows to zero
    tiny = short_time_leakage_bound(2000)
    assert tiny.value == 0.0
    assert tiny.log_value < -4000


def test_minimum_increment_enforced():
    with pytest.raises(ParameterError):
        short_time_leakage_bound(59)


def test_state_schedule_accounts_time_exactly():
    inp = TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    plan = state_truncation_schedule(inp)
    assert sum(plan.durations) == 1.0
    assert plan.cutoffs[-1] == plan.final_cutoff
    assert plan.delta_lambda >= 60
    assert plan.budget["state"]["total_bound"] <= 1e-2
    # steps satisfy the closed-form count
    s = plan.steps
    d = plan.delta_lambda
    assert s == max(1, math.ceil(((math.sqrt(1) + 2.0 * 1.0 * d / 2) ** 2 - 1) / d))


def test_hamiltonian_cutoff_reference_point():
    inp = TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    lam, plan = hamiltonian_cutoff(inp)
    assert plan.delta_lambda == 60
    assert plan.steps == 62
    assert lam == 3721
    assert set(plan.budget) == {"state", "hamiltonian", "reverse"}
    assert plan.budget["hamiltonian"]["factor"] == 2.0
    for slot in plan.budget.values():
        assert slot["total_bound"] <= slot["eps"]


def test_budget_recomputation_is_self_consistent():
    inp = TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    _, plan = hamiltonian_cutoff(inp)
    recheck = plan.recompute_total_bound_log()
    for name, slot in plan.budget.items():
        assert recheck[name] == pytest.approx(slot["total_log_bound"],
                                              rel=1e-12)


def test_multi_mode_budget_split():
    one = hamiltonian_cutoff(TruncationInput(1, 2.0, 1.0, 1e-2, n_modes=1))[0]
    many = hamiltonian_cutoff(TruncationInput(1, 2.0, 1.0, 1e-2, n_modes=100))[0]
    assert many >= one  # each mode gets eps/N, never cheaper


def test_constant_profile_reduces_to_constant_chi():
    inp_c = TruncationInput(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    inp_p = TruncationInput(lambda0=1, chi=0.0, t=1.0, eps=1e-2,
                            profile=((1.0, 2.0),))
    lam_c, plan_c = hamiltonian_cutoff(inp_c)
    lam_p, plan_p = time_dependent_cutoff(inp_p)
    assert lam_p == lam_c
    assert plan_p.steps == plan_c.steps
    assert np.array_equal(plan_p.durations, plan_c.durations)


def test_profile_cutoff_depends_on_coupling_integral_only():
    # zero coupling for half the time, doubled for the rest: same integral
    base = hamiltonian_cutoff(TruncationInput(1, 2.0, 1.0, 1e-2))[0]
    split = time_dependent_cutoff(TruncationInput(
        1, 0.0, 1.0, 1e-2, profile=((0.5, 0.0), (0.5, 4.0))))[0]
    assert split == base


def test_profile_durations_must_sum_to_t():
    with pytest.raises(ParameterError):
        time_dependent_cutoff(TruncationInput(
            1, 0.0, 1.0, 1e-2, profile=((0.3, 1.0),)))


def test_lambert_threshold_root():
    y = lambert_w_threshold(1.0, 1.0, 0.25)
    # (1/sqrt(y))^y = 1/4 has its root above b^2 = 1 near 2.745
    assert (1.0 / math.sqrt(y)) ** y == pytest.approx(0.25, rel=1e-8)
    assert y == pytest.approx(2.7453680, rel=1e-6)
    with pytest.raises(DomainError):
        lambert_w_threshold(1.0, 1.0, 2.0)  # eps >= f(b^2) = a


def test_leakage_oracle_within_lemma_bound():
    # one step of the lemma: Lambda=1, Lambda'=61, dt = 1/(chi sqrt(Lambda))
    H, occ = single_mode(1.0, 1.0, 61 + 40 + 1)
    chi = 2.0  # |g omega (b+b†) P_L| <= 2 g omega sqrt(L+1)
    rep = leakage_oracle(H, occ, 1, 61, 1.0 / chi)
    bound = short_time_leakage_bound(60).value
    assert rep["value"] <= bound
    assert rep["sensitivity"] < 0.1 * bound


def test_verify_conditions_fit_and_violations():
    dim = 30
    n = np.diag(np.arange(dim, dtype=float))
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    Hw = 0.7 * (b + b.T)
    Hr = 1.0 * n
    occ = np.arange(dim)
    out = verify_conditions(Hw, Hr, occ, 20)
    assert out["ok"]
    assert out["r"] == 0.5
    # chi fit: ||(b+b†) P_L|| grows like 2 sqrt(L+1) up to edge effects
    assert 0.7 <= out["fitted_chi"] <= 2 * 0.7 + 1e-9
    with pytest.raises(ConditionViolation):
        verify_conditions(Hw + np.diag([1e-3] * dim), Hr, occ, 20)
    with pytest.raises(ConditionViolation):
        verify_conditions(Hw, Hr + Hw, occ, 20)


def test_truncation_defect_small_case():
    # tiny end-to-end check: truncating far above the support is harmless
    H, occ = single_mode(1.0, 0.5, 40)
    d = truncation_defect(H, occ, lambda0=1, lambda_tilde=35, t=1.0)
    assert d < 1e-6
    # truncating aggressively is visible
    d_bad = truncation_defect(H, occ, lambda0=1, lambda_tilde=3, t=1.0)
    assert d_bad > d


def test_lambda0_below_one_is_rejected():
    # the step rule Δt = 1/(χ√Λ) divides by √Λ0
    with pytest.raises(ParameterError, match=r"1/\(χ√Λ\)"):
        TruncationInput(lambda0=0, chi=2.0, t=1.0, eps=1e-2)


@pytest.mark.parametrize("field", ["chi", "t", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected_on_construction(field, value):
    # a NaN ε would otherwise make the increment scan compare against log(NaN) forever
    inputs = dict(lambda0=1, chi=2.0, t=1.0, eps=1e-2)
    inputs[field] = value
    with pytest.raises(ParameterError, match=f"{field} must be"):
        TruncationInput(**inputs)
    with pytest.raises(ParameterError, match="profile entries"):
        TruncationInput(1, 0.0, 1.0, 1e-2, profile=((1.0, value),))


def test_an_overflowing_schedule_is_a_parameter_error():
    with pytest.raises(ParameterError, match="overflows"):
        hamiltonian_cutoff(TruncationInput(lambda0=1, chi=2.0, t=1e300, eps=1e-3))


def loop_durations(profile, lambda0, d_lambda, s, total_time):
    """Step durations one Python step at a time: the reference schedule."""
    times, integ = [0.0], [0.0]
    for d, c in profile:
        times.append(times[-1] + d)
        integ.append(integ[-1] + d * c)

    def invert(target):
        if target >= integ[-1]:
            return times[-1]
        k = 0
        while integ[k + 1] < target:
            k += 1
        span = times[k + 1] - times[k]
        c = (integ[k + 1] - integ[k]) / span if span > 0 else 0.0
        if c == 0.0:
            return times[k + 1]
        return times[k] + (target - integ[k]) / c

    durations, tau, acc = [], 0.0, 0.0
    for j in range(1, s + 1):
        acc += 1.0 / math.sqrt(lambda0 + (j - 1) * d_lambda)
        nxt = min(invert(acc), total_time)
        durations.append(nxt - tau)
        tau = nxt
    durations[-1] += total_time - sum(durations)
    return durations


def assert_matches_loop(inp, plan):
    profile = inp.profile if inp.profile is not None else ((inp.t, inp.chi),)
    ref = loop_durations(profile, inp.lambda0, plan.delta_lambda, plan.steps, inp.t)
    assert plan.durations.dtype == np.float64
    assert plan.durations.tobytes() == np.array(ref).tobytes()  # bit for bit
    assert list(plan.cutoffs) == [inp.lambda0 + j * plan.delta_lambda
                                  for j in range(1, plan.steps + 1)]
    assert plan.cutoffs[-1] == plan.final_cutoff


# (λ0, χ, t, ε, N); χt ≤ 50 keeps the reference loop below 40k steps per input
SCHEDULE_GRID = [
    (lam0, chi, t, eps, n)
    for lam0, chi, t, eps, n in itertools.product(
        (1, 2, 3, 7), (0.5, 2.0, 3.0), (0.01, 0.1, 1.0, 3.7, 10.0, 100.0),
        (1e-2, 1e-4, 1e-8), (1, 10))
    if chi * t <= 50
]


def test_durations_match_the_loop_bit_for_bit():
    assert len(SCHEDULE_GRID) == 384
    for lam0, chi, t, eps, n in SCHEDULE_GRID:
        inp = TruncationInput(lam0, chi, t, eps, n_modes=n)
        assert_matches_loop(inp, hamiltonian_cutoff(inp)[1])
    # the benchmark's longest sweep point: 600,200 steps
    inp = TruncationInput(1, 2.0, 100.0, 1e-2)
    plan = hamiltonian_cutoff(inp)[1]
    assert plan.steps == 600200
    assert_matches_loop(inp, plan)


@pytest.mark.parametrize("profile", [
    ((0.5, 0.0), (0.5, 4.0)),
    ((0.5, 4.0), (0.5, 0.0)),
    ((0.3, 1.0), (0.0, 5.0), (0.2, 0.0), (0.5, 3.0)),
    ((2.0, 1.0), (1.0, 0.0), (1.0, 3.0), (0.5, 0.0)),
    ((0.1, 0.0), (0.2, 0.0), (0.7, 2.0)),
    ((1e20, 0.0), (10.0, 1.0)),  # 1e20 + 10 == 1e20: a segment of zero float length
])
def test_profile_durations_match_the_loop(profile):
    t = sum(d for d, _ in profile)
    for lam0, eps in itertools.product((1, 2, 5), (1e-2, 1e-6)):
        inp = TruncationInput(lam0, 0.0, t, eps, profile=profile)
        assert_matches_loop(inp, time_dependent_cutoff(inp)[1])


def test_plan_is_lazy_and_read_only():
    _, plan = hamiltonian_cutoff(TruncationInput(1, 2.0, 1000.0, 1e-3))
    assert plan.steps == 60002000
    assert isinstance(plan.cutoffs, range) and len(plan.cutoffs) == plan.steps
    assert plan.cutoffs[-1] == plan.final_cutoff == 3600120001
    assert "durations" not in vars(plan)  # nothing computed until read
    _, plan = hamiltonian_cutoff(TruncationInput(1, 2.0, 1.0, 1e-2))
    with pytest.raises(ValueError):
        plan.durations[0] = 0.0
    assert plan.durations is plan.durations


def padded_oscillator(dim, g):
    hop = g * np.sqrt(np.arange(1.0, dim))
    return scipy.sparse.diags([hop, np.arange(dim, dtype=float), hop], [-1, 0, 1])


@pytest.mark.parametrize("lambda_tilde", [1, 3, 8, 20, 100, 198])
def test_sparse_and_dense_defects_agree(lambda_tilde):
    H = padded_oscillator(200, 0.8)
    occ = np.arange(200)
    dense = truncation_defect(H.toarray(), occ, 1, lambda_tilde, 0.9)
    for fmt in ("csr", "csc", "dia"):
        sparse = truncation_defect(H.asformat(fmt), occ, 1, lambda_tilde, 0.9)
        assert abs(sparse - dense) <= 1e-14


def test_truncation_defect_never_copies_a_dense_input():
    H = padded_oscillator(2000, 1.0).toarray()
    tracemalloc.start()
    try:
        d = truncation_defect(H, np.arange(2000), lambda0=1, lambda_tilde=40, t=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d < 1e-10
    assert peak < H.nbytes  # 30.5 MiB
