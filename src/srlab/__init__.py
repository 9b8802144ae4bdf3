"""Simulation lab for a noisy bistable comparator (inverting Schmitt trigger).

The package models the full measurement chain used in the experiments:
waveform generation, seeded Gaussian noise, a resistor-divider input stage,
the two-threshold comparator itself, and the spectral / timing statistics
used to detect weak signals riding on the noise.

Submodules
----------
signals     deterministic test waveforms on a uniform sample grid
noise       clipped, seeded Gaussian noise with zero-order-hold upsampling
trigger     the bistable comparator: configs, state machine, hysteresis sweeps
spectral    one-sided magnitude spectra, SNR, second-peak picking
experiments noise sweeps and transition captures (resonance curves)
freq_detect frequency detection of damped bursts via the output spectrum
amp_detect  last-transition-time statistics, crossing theory, sigmoid fits
bank        detector banks: resonance voting and amplitude bracketing
csvio       CSV writers/readers for every artifact the CLI emits
cli         batch command-line interface
"""

from srlab.signals import DampedSine, Sine, Trace, envelope, generate
from srlab.noise import NoiseSpec, generate_noise, noise_stream
from srlab.trigger import (
    HysteresisLoop,
    SwitchList,
    TriggerConfig,
    TriggerState,
    calibrated_config,
    hysteresis_sweep,
    ideal_config,
    run,
    step,
    thresholds_from_divider,
    transition_count,
    v_th_from_vdc,
)
from srlab.spectral import Spectrum, periodogram, second_peak_frequency, snr_db
from srlab.experiments import (
    SweepResult,
    capture_transitions,
    find_sr_peak,
    snr_sigma_sweep,
)
from srlab.freq_detect import (
    DetectionSetup,
    FreqDetectReport,
    FreqErrorSummary,
    detect_frequency,
    error_rate_table,
    optimal_sigma_search,
    summarize_error_table,
    transition_spectrum,
)
from srlab.amp_detect import (
    DecayEstimate,
    FitError,
    SigmoidFit,
    T0Stats,
    ThresholdGap,
    calibrate_and_estimate_decay,
    envelope_gap,
    expected_t0_for_config,
    expected_t0_theory,
    fit_sigmoid,
    last_transition_time,
    mean_t0_monte_carlo,
    t0_density_grid,
    t0_sigma_curve,
)
from srlab.bank import (
    AmbiguousResonancePattern,
    BankConfig,
    BankReport,
    Detector,
    DetectorResult,
    amplitude_bracket,
    resonance_rate_for,
    run_bank,
    sigma_sweep_bank,
    threshold_sweep_bank,
    vote_bank,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousResonancePattern",
    "BankConfig",
    "BankReport",
    "DampedSine",
    "DecayEstimate",
    "DetectionSetup",
    "Detector",
    "DetectorResult",
    "FitError",
    "FreqDetectReport",
    "FreqErrorSummary",
    "HysteresisLoop",
    "NoiseSpec",
    "SigmoidFit",
    "Sine",
    "Spectrum",
    "SweepResult",
    "SwitchList",
    "T0Stats",
    "ThresholdGap",
    "Trace",
    "TriggerConfig",
    "TriggerState",
    "__version__",
    "amplitude_bracket",
    "calibrate_and_estimate_decay",
    "calibrated_config",
    "capture_transitions",
    "detect_frequency",
    "envelope",
    "envelope_gap",
    "error_rate_table",
    "expected_t0_for_config",
    "expected_t0_theory",
    "find_sr_peak",
    "fit_sigmoid",
    "generate",
    "generate_noise",
    "hysteresis_sweep",
    "ideal_config",
    "last_transition_time",
    "mean_t0_monte_carlo",
    "noise_stream",
    "optimal_sigma_search",
    "periodogram",
    "resonance_rate_for",
    "run",
    "run_bank",
    "second_peak_frequency",
    "sigma_sweep_bank",
    "snr_db",
    "snr_sigma_sweep",
    "step",
    "summarize_error_table",
    "t0_density_grid",
    "t0_sigma_curve",
    "threshold_sweep_bank",
    "thresholds_from_divider",
    "transition_count",
    "transition_spectrum",
    "v_th_from_vdc",
    "vote_bank",
]
