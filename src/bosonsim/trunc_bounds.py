"""Constant-tracked bosonic truncation error bounds.

Implements the short-time leakage lemma, long-time truncation schedules,
Hamiltonian cutoff selection for one or many modes (including
time-dependent coupling profiles), the Lambert-W threshold lemma, and
numerical leakage and truncation-defect oracles.  All bound arithmetic
is carried out in log space; linear values are exposed alongside (they
underflow to zero below about 1e-300).

A plan costs O(1) to build whatever its step count: the cutoffs are a
``range`` and the step durations are computed, vectorized, on first
read.

Conventions: the mode-coupling part H_w satisfies ‖H_w Π_[0,Λ]‖ ≤
χ√(Λ+1) (growth exponent r fixed at ½), and cutoff increments obey
ΔΛ ≥ 60 = ⌈8e²⌉, the lemma's applicability threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, count

import numpy as np

from .errors import ConditionViolation, DomainError, ParameterError

MIN_DELTA_LAMBDA = 60  # ⌈8e²⌉ — smallest increment the lemma admits


@dataclass(frozen=True)
class LeakageBound:
    log_value: float
    value: float


def short_time_leakage_bound(d_lambda: int) -> LeakageBound:
    """(√2·e/√ΔΛ)^ΔΛ — per-step leakage for Δt ≤ 1/(χ√Λ)."""
    if d_lambda < MIN_DELTA_LAMBDA:
        raise ParameterError(
            f"lemma requires ΔΛ >= {MIN_DELTA_LAMBDA} (8e² ≈ 59.11); got {d_lambda}"
        )
    log_value = d_lambda * (0.5 * math.log(2.0) + 1.0 - 0.5 * math.log(d_lambda))
    return LeakageBound(log_value, math.exp(log_value) if log_value > -690 else 0.0)


@dataclass(frozen=True)
class TruncationInput:
    lambda0: int
    chi: float
    t: float
    eps: float
    n_modes: int = 1
    profile: tuple | None = None  # ((duration, chi), ...) piecewise constant

    def __post_init__(self):
        if self.lambda0 < 1:
            raise ParameterError(
                "lambda0 must be >= 1: the step rule Δt = 1/(χ√Λ) needs Λ >= 1")
        # `not a <= x < b` form: NaN fails every comparison, so it is rejected
        if not (math.isfinite(self.chi) and (self.chi > 0 or self.profile is not None)):
            raise ParameterError("chi must be positive and finite")
        if not 0 <= self.t < math.inf:
            raise ParameterError("t must be finite and >= 0")
        if not 0 < self.eps < math.inf:
            raise ParameterError("eps must be positive and finite")
        if self.n_modes < 1:
            raise ParameterError("n_modes must be >= 1")
        if self.profile is not None:
            for dur, c in self.profile:
                if not (0 <= dur < math.inf and 0 <= c < math.inf):
                    raise ParameterError("profile entries must be finite and non-negative")


@dataclass(frozen=True)
class TruncationPlan:
    """Schedule of s steps raising the cutoff by ΔΛ each, Λ_j = Λ0 + jΔΛ.

    ``cutoffs`` is the range Λ_1..Λ_s.  ``durations`` is a read-only
    float64 array of the s step lengths, computed from ``profile`` on
    first read.
    """

    delta_lambda: int
    steps: int
    cutoffs: range  # Λ_1..Λ_s
    final_cutoff: int
    lambda0: int
    total_time: float
    profile: tuple  # ((duration, chi), ...)
    budget: dict = field(default_factory=dict)

    @cached_property
    def durations(self) -> np.ndarray:
        return _durations_from_profile(self.profile, self.lambda0, self.delta_lambda,
                                       self.steps, self.total_time)

    def recompute_total_bound_log(self) -> dict:
        """Every slot's total log bound, recomputed from its own ΔΛ and s.

        log(factor·s) + ΔΛ·log(√2·e/√ΔΛ): the lemma is written out here,
        not read from :func:`short_time_leakage_bound`.
        """
        return {name: math.log(slot["factor"]) + math.log(slot["steps"]) + slot["delta_lambda"]
                * math.log(math.sqrt(2.0) * math.e / math.sqrt(slot["delta_lambda"]))
                for name, slot in self.budget.items()}


def _scan_increment(lambda0: int, chi_integral: float, eps_slot: float,
                    factor: float) -> tuple[int, int, LeakageBound]:
    """Smallest ΔΛ ≥ 60 with s(ΔΛ)·factor·bound(ΔΛ) ≤ eps_slot."""
    log_eps = math.log(eps_slot)
    for d_lambda in count(MIN_DELTA_LAMBDA):
        b = short_time_leakage_bound(d_lambda)
        try:
            s = max(1, math.ceil(
                ((math.sqrt(lambda0) + chi_integral * d_lambda / 2.0) ** 2 - lambda0)
                / d_lambda))
        except OverflowError as exc:
            raise ParameterError("the schedule's step count overflows a float") from exc
        if math.log(factor) + math.log(s) + b.log_value <= log_eps:
            return d_lambda, s, b


def _profile_or_constant(inp: TruncationInput):
    if inp.profile is not None:
        return tuple((float(d), float(c)) for d, c in inp.profile)
    return ((inp.t, inp.chi),)


def _chi_integral(profile) -> float:
    return sum(d * c for d, c in profile)


def _durations_from_profile(profile, lambda0: int, d_lambda: int, s: int,
                            total_time: float) -> np.ndarray:
    """Split [0, total_time] so that ∫χ over step j equals 1/√Λ_{j−1}.

    Returns a read-only float64 array of the s step lengths.  Step j ends
    at the earliest time τ_j whose cumulative integral reaches
    Σ_{i<j} 1/√Λ_i, capped at total_time; a step inside a χ = 0 stretch
    ends with that stretch.  The last step absorbs the remainder, so the
    sequential sum of the durations is exactly total_time.
    """
    # cumulative integral breakpoints
    times = list(accumulate((d for d, _ in profile), initial=0.0))
    integ = list(accumulate((d * c for d, c in profile), initial=0.0))

    # targets Σ_{i<j} 1/√Λ_i, increasing in j; turned into end times in place
    ends = np.arange(s, dtype=float)
    ends *= d_lambda
    ends += lambda0
    np.sqrt(ends, out=ends)
    np.divide(1.0, ends, out=ends)
    np.cumsum(ends, out=ends)

    # segment k holds the targets in (integ[k], integ[k+1]]; those at or past
    # the whole integral end at the profile's end
    past = np.searchsorted(ends, integ[-1])
    edges = np.minimum(np.searchsorted(ends, integ, side="right"), past)
    for k in range(len(profile)):
        seg = ends[edges[k]:edges[k + 1]]
        span = times[k + 1] - times[k]
        if seg.size and span > 0:  # then ∫χ grows over segment k
            seg -= integ[k]
            seg /= (integ[k + 1] - integ[k]) / span
            seg += times[k]
        else:  # no target, or a duration below the float spacing of the time so far
            seg[:] = times[k]
    ends[past:] = times[-1]
    np.minimum(ends, total_time, out=ends)

    durations = np.diff(ends, prepend=0.0)
    # force exact total-time accounting on the final step
    durations[-1] += total_time - np.cumsum(durations, out=ends)[-1]
    durations.flags.writeable = False
    return durations


def _build_plan(inp: TruncationInput, eps_slots: dict[str, tuple[float, float]]) -> TruncationPlan:
    """Common schedule builder; eps_slots maps name -> (eps, factor)."""
    profile = _profile_or_constant(inp)
    X = _chi_integral(profile)
    chosen = {}
    for name, (eps_slot, factor) in eps_slots.items():
        d_lambda, s, b = _scan_increment(inp.lambda0, X, eps_slot, factor)
        total_log = math.log(factor) + math.log(s) + b.log_value
        chosen[name] = {
            "eps": eps_slot,
            "factor": factor,
            "delta_lambda": d_lambda,
            "steps": s,
            "per_step_log_bound": b.log_value,
            "total_log_bound": total_log,
            "total_bound": math.exp(total_log) if total_log > -690 else 0.0,
        }
    # slot with the largest final cutoff governs the returned schedule
    worst = max(chosen, key=lambda n: chosen[n]["steps"] * chosen[n]["delta_lambda"])
    d_lambda = chosen[worst]["delta_lambda"]
    s = chosen[worst]["steps"]
    final = inp.lambda0 + s * d_lambda
    return TruncationPlan(
        delta_lambda=d_lambda,
        steps=s,
        cutoffs=range(inp.lambda0 + d_lambda, final + 1, d_lambda),
        final_cutoff=final,
        lambda0=inp.lambda0,
        total_time=inp.t,
        profile=profile,
        budget=chosen,
    )


def state_truncation_schedule(inp: TruncationInput) -> TruncationPlan:
    """Long-time state-truncation schedule meeting the full ε budget."""
    return _build_plan(inp, {"state": (inp.eps, 1.0)})


def hamiltonian_cutoff(inp: TruncationInput) -> tuple[int, TruncationPlan]:
    """Cutoff Λ̃ for replacing e^{−itH} by the Λ̃-truncated evolution.

    The error budget is split three ways (forward state leakage,
    Hamiltonian-difference accumulation with its factor-2 per-step
    bound, and reverse state leakage); with N modes each mode first
    receives ε/N.
    """
    per_mode = inp.eps / inp.n_modes
    slots = {
        "state": (per_mode / 3.0, 1.0),
        "hamiltonian": (per_mode / 3.0, 2.0),
        "reverse": (per_mode / 3.0, 1.0),
    }
    plan = _build_plan(inp, slots)
    return plan.final_cutoff, plan


def time_dependent_cutoff(inp: TruncationInput) -> tuple[int, TruncationPlan]:
    """Hamiltonian cutoff for piecewise-constant χ(τ): χt → ∫₀ᵗ χ dτ."""
    if inp.profile is None:
        raise ParameterError("time_dependent_cutoff requires a χ(τ) profile")
    if abs(sum(d for d, _ in inp.profile) - inp.t) > 1e-12 * max(1.0, inp.t):
        raise ParameterError("profile durations must sum to t")
    return hamiltonian_cutoff(inp)


def lambert_w_threshold(a: float, b: float, eps: float) -> float:
    """Root of f(y) = a(b/√y)^y = ε on (b², ∞), bisection in log space.

    f(b²) = a, f decreasing on the domain; requires 0 < ε < a.
    """
    if a <= 0 or b <= 0:
        raise ParameterError("need a > 0 and b > 0")
    if not 0 < eps < a:
        raise DomainError("no root in (b², ∞): need 0 < ε < f(b²) = a")

    log_a, log_b, log_eps = math.log(a), math.log(b), math.log(eps)

    def log_f(y):
        return log_a + y * (log_b - 0.5 * math.log(y))

    lo = b * b
    hi = max(2.0 * lo, lo + 1.0)
    while log_f(hi) > log_eps:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_f(mid) > log_eps:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Dense numerical verification
# ---------------------------------------------------------------------------


def leakage_oracle(H_full: np.ndarray, occupations, lam: int, lam_prime: int,
                   dt: float) -> dict:
    """‖Π̄_[0,Λ′] e^{−iΔtH} Π_[0,Λ]‖ on a padded dense space.

    ``occupations`` gives the mode occupation of every basis index of
    H_full, which must be built with padding above Λ′; the report's
    ``sensitivity`` is the change when the padding is halved.
    """
    occ = np.asarray(occupations)
    H = np.asarray(H_full, dtype=complex)
    pad = int(occ.max()) - lam_prime
    if pad < 0:
        raise ParameterError("H_full must extend beyond Λ′")

    def value(max_occ):
        keep = occ <= max_occ
        Hs = H[np.ix_(keep, keep)]
        occ_s = occ[keep]
        w, V = np.linalg.eigh(Hs)
        U = (V * np.exp(-1j * w * dt)) @ V.conj().T
        block = U[np.ix_(occ_s > lam_prime, occ_s <= lam)]
        return float(np.linalg.norm(block, 2)) if block.size else 0.0

    full = value(lam_prime + pad)
    half = value(lam_prime + pad // 2) if pad >= 2 else full
    return {"value": full, "pad": pad, "sensitivity": abs(full - half)}


def verify_conditions(H_w: np.ndarray, H_r: np.ndarray, occupations,
                      lambda_max: int) -> dict:
    """Check the block structure of the H_w/H_r split and fit χ.

    H_w must couple only adjacent occupation sectors, H_r must commute
    with every occupation projector; χ is fitted as
    max_{Λ ≤ Λ_max} ‖H_w Π_[0,Λ]‖ / √(Λ+1).
    """
    occ = np.asarray(occupations)
    diff = occ[:, None] - occ[None, :]
    bad_w = (np.abs(diff) > 1) & (np.abs(np.asarray(H_w)) > 1e-12)
    if np.any(bad_w):
        i, j = np.argwhere(bad_w)[0]
        raise ConditionViolation(
            "H_w couples occupations differing by more than 1",
            offending=(int(occ[i]), int(occ[j])),
        )
    bad_w1 = (np.abs(diff) == 0) & (np.abs(np.asarray(H_w)) > 1e-12)
    if np.any(bad_w1):
        i, j = np.argwhere(bad_w1)[0]
        raise ConditionViolation(
            "H_w has occupation-conserving entries",
            offending=(int(occ[i]), int(occ[j])),
        )
    bad_r = (diff != 0) & (np.abs(np.asarray(H_r)) > 1e-12)
    if np.any(bad_r):
        i, j = np.argwhere(bad_r)[0]
        raise ConditionViolation(
            "H_r does not commute with the occupation projectors",
            offending=(int(occ[i]), int(occ[j])),
        )
    chi = 0.0
    Hw = np.asarray(H_w)
    for lam in range(min(lambda_max, int(occ.max()) - 1) + 1):
        cols = occ <= lam
        norm = np.linalg.norm(Hw[:, cols], 2)
        chi = max(chi, norm / math.sqrt(lam + 1))
    return {"ok": True, "fitted_chi": float(chi), "r": 0.5}


def truncation_defect(H_full, occupations, lambda0: int, lambda_tilde: int,
                      t: float) -> float:
    """‖(e^{−itH} − e^{−itH̃}) Π_[0,Λ0]‖ with H̃ = Π_[0,Λ̃] H Π_[0,Λ̃].

    ``H_full`` may be a dense array or any ``scipy.sparse`` matrix; it is
    converted once to CSC and never densified.  Both propagators act on
    the Π_[0,Λ0] columns only, through a Krylov matrix exponential; e^{−itH̃}
    is the identity outside Π_[0,Λ̃], so it is propagated on the inside
    block alone.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import expm_multiply

    occ = np.asarray(occupations)
    H = csc_matrix(H_full)
    inside = np.flatnonzero(occ <= lambda_tilde)
    cols = np.flatnonzero(occ <= lambda0)
    B = np.zeros((H.shape[0], len(cols)), dtype=complex)
    B[cols, np.arange(len(cols))] = 1.0
    full = expm_multiply(-1j * t * H, B)
    trunc = B.copy()
    trunc[inside] = expm_multiply(-1j * t * H[inside][:, inside], B[inside])
    full -= trunc
    return float(np.linalg.norm(full, 2))
