"""Amplitude/decay estimation from last-transition-time statistics.

A decaying drive eventually falls so far below the switching threshold that
noise alone must carry the comparator across; the time of the *last* output
transition in an acquisition window is therefore a statistic of how long
the drive stayed near the threshold — i.e. of its amplitude and decay.

Two routes to the mean last-transition time <t0> live here:

* Monte Carlo — simulate many noisy runs, read the last level change of
  each (mean_t0_monte_carlo, t0_sigma_curve).
* Probability model — treat each sampling step as an independent chance
  Phi(-v/sigma) of crossing, where v(t) is the gap between threshold and
  drive envelope; the last-event time then has per-step mass
  P(t0 = t_k) = Phi(-v(t_k)/sigma) * prod_{j>k} Phi(v(t_j)/sigma),
  evaluated in log space with the product's sum taken as a trapezoid
  integral over the grid (t0_density_grid, expected_t0_theory).

The <t0>-vs-sigma curve is sigmoidal; fitting plateau/(1+exp(-a(sigma-c)))
gives parameters (slope_a, center_b) that move with the decay constant, and
calibrate_and_estimate_decay inverts that relationship by interpolating fit
parameters across a calibration table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the three functions that need it (t0_density_grid,
# fit_sigmoid, calibrate_and_estimate_decay).  At module level its special,
# optimize and interpolate packages would make every `import srlab` take
# about four times as long and twice the memory, though the sweep,
# hysteresis, frequency-detection and bank paths never call scipy.
from srlab.experiments import check_cells, increasing_grid, simulate
from srlab.noise import NoiseSpec
from srlab.signals import DampedSine, Trace, envelope, generate, n_samples_for
from srlab.trigger import SwitchList, TriggerConfig


class FitError(RuntimeError):
    """Raised when a curve fit fails to converge or produces garbage."""


def envelope_gap(
    trigger_config: TriggerConfig,
    damped: DampedSine,
    sample_rate: float,
    duration: float,
) -> Trace:
    """Gap v(t_k) between the upper threshold and the attenuated drive
    envelope, comparator-referred, on the same grid a simulation of
    (sample_rate, duration) would use; the probability model reads it.

    The comparator sees attenuation * signal, so the envelope is scaled by
    input_attenuation before subtracting from v_ut.
    """
    n = n_samples_for(sample_rate, duration)
    dt = 1.0 / sample_rate
    t = dt * np.arange(n)
    scaled = trigger_config.input_attenuation * envelope(damped, t)
    return Trace(dt, trigger_config.v_ut - scaled)


def t0_density_grid(gap: Trace, sigma: float) -> np.ndarray:
    """Last-transition-time density over the gap's whole grid, 1/s.

    Entry k is the per-step crossing probability Phi(-v_k/sigma) times the
    probability of no crossing at any later step, divided by dt.  The
    no-later-crossing exponent sum_{j>k} ln Phi(v_j/sigma) is evaluated as
    (1/dt) times the trapezoid integral of ln Phi(v/sigma) from t_k to the
    end of the grid.  Everything stays in log space until the final exp, so
    tiny probabilities underflow to 0 rather than NaN.
    """
    from scipy.special import log_ndtr, ndtr

    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if gap.n_samples < 2:
        raise ValueError("the gap needs >= 2 grid points")
    # In place where a step would allocate a fresh grid-sized array, in the
    # order of 0.5 * (l[1:] + l[:-1]) * dt, cum[-1] - cum and
    # ndtr(-x) * exp(suffix / dt) / dt, so the bytes are those formulas'.
    x = gap.samples / sigma
    ln_hold = log_ndtr(x)
    steps = ln_hold[1:] + ln_hold[:-1]
    steps *= 0.5
    steps *= gap.dt
    suffix = np.empty_like(x)
    suffix[0] = 0.0
    np.cumsum(steps, out=suffix[1:])
    np.subtract(suffix[-1], suffix, out=suffix)
    suffix /= gap.dt
    np.exp(suffix, out=suffix)
    np.negative(x, out=x)
    dens = ndtr(x, out=x)
    dens *= suffix
    dens /= gap.dt
    return dens


def expected_t0_theory(gap: Trace, sigma: float) -> float:
    """Mean last-transition time predicted by the probability model.

    The density is a per-step probability mass spread over dt, so the
    expectation is the plain sum of t_k * mass_k.  The final grid instant
    carries a full atom (at high sigma most of the distribution sits
    there); an endpoint-halving quadrature would drop half of it and bias
    the mean low by ~(window length) * P(last step)/2.
    """
    mass = gap.times()
    mass *= t0_density_grid(gap, sigma)
    return float(np.sum(mass) * gap.dt)


def expected_t0_for_config(
    trigger_config: TriggerConfig,
    damped: DampedSine,
    sigma: float,
    sample_rate: float,
    duration: float,
) -> float:
    """expected_t0_theory for a concrete simulation setup.

    sigma is the generated noise SD; the comparator sees it through the
    input attenuator, so the model runs at attenuation * sigma against the
    attenuated envelope gap.
    """
    gap = envelope_gap(trigger_config, damped, sample_rate, duration)
    return expected_t0_theory(gap, trigger_config.input_attenuation * sigma)


def last_transition_time(output: SwitchList) -> float:
    """Time of the final level change in a comparator output, the grid time
    of the first sample at the final level; 0.0 if the output never switches
    (the no-event sentinel)."""
    switches = output.switches
    if switches.size == 0:
        return 0.0
    return float(int(switches[-1]) * output.dt)


@dataclass(frozen=True)
class T0Stats:
    """Last-transition-time statistics at one noise level."""

    sigma: float
    mean_t0: float
    std_t0: float
    n_runs: int
    n_no_transition: int

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if not 0 <= self.n_no_transition <= self.n_runs:
            raise ValueError(
                f"n_no_transition {self.n_no_transition} outside [0, {self.n_runs}]"
            )
        for name in ("sigma", "mean_t0", "std_t0"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def mean_t0_monte_carlo(
    trigger_config: TriggerConfig,
    damped: DampedSine,
    sigma: float,
    n_runs: int,
    seed_base: int,
    sample_rate: float,
    duration: float,
    noise_rate: float | None = None,
    stream_base: int = 0,
) -> T0Stats:
    """Mean/std of the last transition time over n_runs independent noisy
    simulations (run r uses noise stream stream_base + r).

    Runs with no transition contribute the 0.0 sentinel to the statistics,
    so the curve starts at 0 for sub-threshold noise.
    """
    signal = generate(damped, sample_rate, duration)
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    check_cells(n_runs, "n_runs")
    spec = NoiseSpec(sigma, noise_rate, seed_base)
    cells = [(signal, trigger_config, spec, stream_base + r) for r in range(n_runs)]
    return _t0_stats(float(sigma), _last_times(cells, sample_rate, duration), n_runs)


def _last_times(cells, sample_rate, duration) -> np.ndarray:
    # last_transition_time of every cell, in one simulate call
    return np.asarray(simulate(cells, sample_rate, duration,
                               lambda outs: [last_transition_time(out) for out in outs]))


def _t0_stats(sigma: float, t0s: np.ndarray, n_runs: int) -> T0Stats:
    # The statistics of one level's last-transition times; a level that ran
    # once (zero noise) has its one time stand for all n_runs runs.
    return T0Stats(
        sigma=sigma,
        mean_t0=float(t0s.mean()),
        std_t0=float(t0s.std()),
        n_runs=n_runs,
        n_no_transition=n_runs // t0s.size * int(np.count_nonzero(t0s == 0.0)),
    )


def t0_sigma_curve(
    trigger_config: TriggerConfig,
    damped: DampedSine,
    sigmas,
    n_runs: int = 50,
    seed_base: int = 0,
    sample_rate: float = 20000.0,
    duration: float = 1.5,
    noise_rate: float | None = None,
) -> list[T0Stats]:
    """mean_t0_monte_carlo at every noise level of a strictly increasing
    grid; level i uses streams [i*n_runs, (i+1)*n_runs), so all cells are
    independent and the curve reproducible from (seed_base, config).  The
    whole curve is one simulate call on one drive.  Zero noise is the same
    on every stream, so a zero level runs once and stands for n_runs runs
    (and reports sigma 0.0 for a -0.0 grid entry)."""
    sigmas = increasing_grid(sigmas, "sigma grid").tolist()
    signal = generate(damped, sample_rate, duration)
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    check_cells(len(sigmas) * n_runs, "n_runs")
    runs = [1 if sigma == 0.0 else n_runs for sigma in sigmas]
    cells = [(signal, trigger_config, NoiseSpec(sigma, noise_rate, seed_base), i * n_runs + r)
             for i, (sigma, k) in enumerate(zip(sigmas, runs)) for r in range(k)]
    levels = np.split(_last_times(cells, sample_rate, duration), np.cumsum(runs)[:-1])
    return [_t0_stats(sigma + 0.0, t0s, n_runs) for sigma, t0s in zip(sigmas, levels)]


@dataclass(frozen=True)
class SigmoidFit:
    """Parameters of mean_t0 = plateau_T / (1 + exp(-slope_a*(sigma - center_b))).

    se_slope_a / se_center_b are one-standard-error estimates from the
    residual covariance at the solution.
    """

    slope_a: float
    center_b: float
    plateau_T: float
    r_squared: float
    se_slope_a: float
    se_center_b: float

    def __post_init__(self):
        if self.plateau_T <= 0.0:
            raise ValueError(f"plateau_T must be > 0, got {self.plateau_T}")
        if self.r_squared > 1.0 + 1e-12:
            raise ValueError(f"r_squared cannot exceed 1, got {self.r_squared}")


def fit_sigmoid(
    curve, plateau_T: float = 1.5, float_plateau: bool = False
) -> SigmoidFit:
    """Least-squares sigmoid fit to a sequence of T0Stats.

    The plateau is fixed at plateau_T (normally the acquisition time) and
    only (slope_a, center_b) float, unless float_plateau=True adds it as a
    third parameter.  Initialization is deterministic — slope 4/grid-span,
    center at the first grid point reaching half plateau — so identical
    input gives an identical fit.
    """
    from scipy.optimize import least_squares

    x = np.asarray([s.sigma for s in curve], dtype=np.float64)
    y = np.asarray([s.mean_t0 for s in curve], dtype=np.float64)
    if x.size < 4:
        raise ValueError(f"need >= 4 curve points to fit, got {x.size}")
    if not 0.0 < plateau_T < math.inf:
        raise ValueError(f"plateau_T must be finite and > 0, got {plateau_T}")
    x = increasing_grid(x, "curve sigmas")

    a0 = 4.0 / (x[-1] - x[0])
    above = np.nonzero(y >= 0.5 * plateau_T)[0]
    c0 = float(x[above[0]]) if above.size else float(x[x.size // 2])

    def residuals(p):
        plateau = p[2] if float_plateau else plateau_T
        return plateau / (1.0 + np.exp(-p[0] * (x - p[1]))) - y

    p0 = [a0, c0, plateau_T] if float_plateau else [a0, c0]

    res = least_squares(
        residuals, p0, xtol=1e-10, ftol=1e-10, gtol=1e-10, max_nfev=200
    )
    if not res.success or not np.all(np.isfinite(res.x)):
        raise FitError(
            f"sigmoid fit did not converge: status={res.status} {res.message!r} "
            f"after {res.nfev} evaluations"
        )
    n_params = len(p0)
    dof = max(x.size - n_params, 1)
    ss_res = float(np.sum(res.fun**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    cov = np.linalg.pinv(res.jac.T @ res.jac) * (ss_res / dof)
    ses = np.sqrt(np.maximum(np.diag(cov), 0.0))
    try:
        return SigmoidFit(
            slope_a=float(res.x[0]),
            center_b=float(res.x[1]),
            plateau_T=float(res.x[2]) if float_plateau else float(plateau_T),
            r_squared=r2,
            se_slope_a=float(ses[0]),
            se_center_b=float(ses[1]),
        )
    except ValueError as exc:
        raise FitError(f"fit converged to invalid parameters: {exc}") from exc


@dataclass(frozen=True)
class DecayEstimate:
    """Result of inverting the fit-parameter/decay relationship.

    extrapolated is True when the observed fit parameters fall outside the
    range spanned by the calibration fits — the estimate is then a nearest
    match, not an interpolation, and should be treated as a bound.
    """

    decay: float
    extrapolated: bool
    observed_fit: SigmoidFit
    calibration_fits: dict


def calibrate_and_estimate_decay(
    curves_by_b, observed_curve, plateau_T: float = 1.5
) -> DecayEstimate:
    """Estimate a decay constant by matching sigmoid-fit parameters against
    a calibration table.

    Every calibration curve and the observed curve get the same fixed-
    plateau sigmoid fit; monotone (shape-preserving) interpolants of
    slope_a and center_b versus decay then define a residual in parameter
    space, weighted by the observed fit's parameter variances, and the
    estimate is the decay minimizing it over a fine grid that includes the
    calibration knots themselves.
    """
    from scipy.interpolate import PchipInterpolator

    if len(curves_by_b) < 3:
        raise ValueError(
            f"need >= 3 calibration decay values, got {len(curves_by_b)}"
        )
    if not all(math.isfinite(b) for b in curves_by_b):
        raise ValueError(f"calibration decays must be finite, got {list(curves_by_b)}")
    bs = np.asarray(sorted(float(b) for b in curves_by_b), dtype=np.float64)
    fits = {float(b): fit_sigmoid(c, plateau_T=plateau_T) for b, c in curves_by_b.items()}
    observed = fit_sigmoid(observed_curve, plateau_T=plateau_T)

    a_cal = np.asarray([fits[b].slope_a for b in bs])
    c_cal = np.asarray([fits[b].center_b for b in bs])
    interp_a = PchipInterpolator(bs, a_cal)
    interp_c = PchipInterpolator(bs, c_cal)

    def weight(se: float, scale: float) -> float:
        floor = max(1e-6 * scale, 1e-300)
        return 1.0 / max(se, floor) ** 2

    w_a = weight(observed.se_slope_a, float(np.ptp(a_cal)) or abs(observed.slope_a) or 1.0)
    w_c = weight(observed.se_center_b, float(np.ptp(c_cal)) or abs(observed.center_b) or 1.0)

    grid = np.union1d(np.linspace(bs[0], bs[-1], 4001), bs)
    cost = w_a * (interp_a(grid) - observed.slope_a) ** 2 + w_c * (
        interp_c(grid) - observed.center_b
    ) ** 2
    best = float(grid[int(np.argmin(cost))])

    outside = not (
        a_cal.min() <= observed.slope_a <= a_cal.max()
        and c_cal.min() <= observed.center_b <= c_cal.max()
    )
    return DecayEstimate(
        decay=best,
        extrapolated=outside,
        observed_fit=observed,
        calibration_fits=fits,
    )
