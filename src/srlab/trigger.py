"""The bistable element: an inverting comparator with hysteresis.

The device holds one of two output levels.  Sitting HIGH, it falls to LOW
only when the combined input rises above the upper threshold; sitting LOW,
it returns HIGH only when the input drops below the lower threshold.
Between the thresholds it keeps its state — that memory band is what makes
noise-driven switching (and stochastic resonance) possible.

The combined input is v_n[i] = input_attenuation * (signal[i] + noise[i]),
modelling the resistive divider that feeds the comparator pin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from srlab.signals import MAX_SAMPLES, Trace, _require, _require_count


class TriggerState(enum.Enum):
    HIGH = 1
    LOW = -1


@dataclass(frozen=True)
class TriggerConfig:
    """Comparator operating point.

    v_sat_pos / v_sat_neg   the two output rails, volts
    v_ut / v_lt             upper / lower switching thresholds, volts
    input_attenuation       divider gain applied to signal+noise (0 < a <= 1)
    """

    v_sat_pos: float
    v_sat_neg: float
    v_ut: float
    v_lt: float
    input_attenuation: float = 0.5

    def __post_init__(self):
        for name in ("v_sat_pos", "v_sat_neg", "v_ut", "v_lt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.v_lt < self.v_ut:
            raise ValueError(f"require v_lt < v_ut, got {self.v_lt} >= {self.v_ut}")
        if not (self.v_sat_neg < 0.0 < self.v_sat_pos):
            raise ValueError(
                f"require v_sat_neg < 0 < v_sat_pos, got {self.v_sat_neg}, {self.v_sat_pos}"
            )
        if not 0.0 < self.input_attenuation <= 1.0:
            raise ValueError(
                f"input_attenuation must be in (0, 1], got {self.input_attenuation}"
            )


def thresholds_from_divider(v_sat: float, ratio: float) -> tuple[float, float]:
    """Symmetric thresholds (+v_sat*ratio, -v_sat*ratio) from the feedback
    divider ratio."""
    _require("v_sat", v_sat, positive=True)
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    return (v_sat * ratio, -v_sat * ratio)


def v_th_from_vdc(v_dc: float) -> float:
    """Threshold magnitude from the supply voltage, per the measured affine
    calibration v_th = 0.051 * v_dc - 0.005.

    The coefficients are decimal calibration constants, so the result is
    rounded to 12 decimals; binary float residue would otherwise keep e.g.
    v_dc=4 from reproducing its printed value 0.199 exactly.
    """
    _require("v_dc", v_dc, positive=True)
    return round(0.051 * v_dc - 0.005, 12)


def _symmetric(v_sat: float, v_th: float, input_attenuation: float) -> TriggerConfig:
    # The one comparator every law and bank uses: rails at +/-v_sat and
    # thresholds at +/-v_th.
    return TriggerConfig(v_sat, -v_sat, v_th, -v_th, input_attenuation)


def ideal_config(
    v_dc: float = 1.0, ratio: float = 0.045, input_attenuation: float = 0.5
) -> TriggerConfig:
    """Config with divider-law thresholds and rails at +/-v_dc."""
    v_th, _ = thresholds_from_divider(v_dc, ratio)
    return _symmetric(v_dc, v_th, input_attenuation)


def calibrated_config(v_dc: float, input_attenuation: float = 0.5) -> TriggerConfig:
    """Config with thresholds from the measured supply calibration and rails
    at +/-v_dc."""
    v_th = v_th_from_vdc(v_dc)
    if v_th <= 0.0:
        raise ValueError(f"calibration gives non-positive threshold at v_dc={v_dc}")
    return _symmetric(v_dc, v_th, input_attenuation)


def step(config: TriggerConfig, state: TriggerState, v_n: float) -> TriggerState:
    """One comparator update for a combined input sample.  Pure: returns the
    next state, strict inequalities at both thresholds."""
    if state is TriggerState.HIGH:
        return TriggerState.LOW if v_n > config.v_ut else TriggerState.HIGH
    return TriggerState.HIGH if v_n < config.v_lt else TriggerState.LOW


def _switches(
    v_n: np.ndarray, v_ut: float, v_lt: float, start_high: bool
) -> tuple[bool, np.ndarray]:
    """Level after sample 0 (True = HIGH) and the indices where the level
    changes, for a combined-input array.

    Equivalent to folding step() over v_n: any sample beyond a threshold
    forces the state regardless of history, and in-band samples hold the
    most recent forced state.  So the level changes exactly at the forcing
    samples whose level differs from the previous forced level (sample 0's
    from start_high); a change at sample 0 only sets the starting level.
    """
    below = v_n < v_lt
    forcing = np.flatnonzero(below | (v_n > v_ut))
    forced_high = below[forcing]
    changed = np.empty(forced_high.size, dtype=bool)
    if forced_high.size:
        changed[0] = forced_high[0] != start_high
        np.not_equal(forced_high[1:], forced_high[:-1], out=changed[1:])
    switches = forcing[np.flatnonzero(changed)]
    if switches.size and switches[0] == 0:
        return not start_high, switches[1:]
    return start_high, switches


@dataclass(frozen=True)
class SwitchList:
    """Comparator output on an n_samples grid of step dt, as the level after
    sample 0 (first_high: True = v_sat_pos) and the sorted indices >= 1 at
    which the level changes.

    The reducers (transition counts, last-transition times) read the
    switches directly.  `samples`, the dense two-rail trace (the rail
    values, alternating at each switch), is built on each access;
    write_transitions writes the transition train into a reused buffer.
    """

    dt: float
    n_samples: int
    first_high: bool
    switches: np.ndarray
    v_sat_pos: float
    v_sat_neg: float

    @property
    def samples(self) -> np.ndarray:
        # An xor-accumulated toggle mask costs the same at any switch count;
        # np.repeat over segment lengths pays per segment and is 5x slower on
        # a 30 000-sample run with 6 000 switches.
        toggled = np.zeros(self.n_samples, dtype=bool)
        toggled[self.switches] = True
        np.logical_xor.accumulate(toggled, out=toggled)
        if self.first_high:
            return np.where(toggled, self.v_sat_neg, self.v_sat_pos)
        return np.where(toggled, self.v_sat_pos, self.v_sat_neg)

    def write_transitions(self, out: np.ndarray) -> np.ndarray:
        """Write the transition train into out (n_samples float64): the
        first difference of the two-rail trace with sample 0 zero, so one
        rail step at each switch, alternating in sign."""
        fall = self.v_sat_neg - self.v_sat_pos
        rise = self.v_sat_pos - self.v_sat_neg
        first, second = (fall, rise) if self.first_high else (rise, fall)
        out.fill(0.0)
        out[self.switches[0::2]] = first
        out[self.switches[1::2]] = second
        return out


def _respond(config: TriggerConfig, v_n: np.ndarray, dt: float, start_high: bool) -> SwitchList:
    """The comparator's output for a combined-input array on a grid of step dt."""
    first_high, switches = _switches(v_n, config.v_ut, config.v_lt, start_high)
    return SwitchList(dt, v_n.size, first_high, switches,
                      config.v_sat_pos, config.v_sat_neg)


def run(
    config: TriggerConfig,
    signal: Trace,
    noise: Trace,
    initial: TriggerState = TriggerState.HIGH,
) -> SwitchList:
    """Drive the comparator with attenuated signal+noise; returns its output
    on the same grid as a switch list."""
    if signal.dt != noise.dt:
        raise ValueError(f"signal and noise dt differ: {signal.dt} vs {noise.dt}")
    if signal.n_samples != noise.n_samples:
        raise ValueError(
            f"signal and noise length differ: {signal.n_samples} vs {noise.n_samples}"
        )
    v_n = signal.samples + noise.samples
    v_n *= config.input_attenuation  # in place: a fresh n-sample array costs page faults
    return _respond(config, v_n, signal.dt, initial is TriggerState.HIGH)


def transition_count(output: SwitchList) -> int:
    """Number of level changes in a comparator output."""
    return int(output.switches.size)


@dataclass(frozen=True)
class HysteresisLoop:
    """Input/output pairs for a noiseless up-then-down input sweep.

    measured_up_threshold    raw input at which the output rose (LOW->HIGH,
                             seen on the descending branch), None if it never did
    measured_down_threshold  raw input at which the output fell (HIGH->LOW,
                             ascending branch), None if it never did
    """

    ascending_input: np.ndarray
    ascending_output: np.ndarray
    descending_input: np.ndarray
    descending_output: np.ndarray
    measured_up_threshold: float | None
    measured_down_threshold: float | None


def hysteresis_sweep(
    config: TriggerConfig, v_min: float, v_max: float, points: int
) -> HysteresisLoop:
    """Noiseless quasi-static sweep v_min -> v_max -> v_min.

    The ascending branch starts HIGH (input far below the band), the
    descending branch starts LOW, so each branch shows exactly one switch
    when the sweep spans both thresholds.  Recorded inputs are the raw sweep
    values; the attenuator is applied internally just like in run().
    """
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        raise ValueError(f"sweep ends must be finite, got {v_min}, {v_max}")
    if not v_min < v_max:
        raise ValueError(f"require v_min < v_max, got {v_min} >= {v_max}")
    _require_count("points", points, 2, MAX_SAMPLES + 1)
    v_up = np.linspace(v_min, v_max, points)
    v_down = v_up[::-1].copy()
    # each branch's output on a unit-step grid of its points
    up = _respond(config, config.input_attenuation * v_up, 1.0, start_high=True)
    down = _respond(config, config.input_attenuation * v_down, 1.0, start_high=False)

    # On a monotone branch the only switch there can be is the one away from
    # the starting level: a rise when descending, a fall when ascending.
    def first_switch(v, output):
        return float(v[output.switches[0]]) if output.switches.size else None

    return HysteresisLoop(
        ascending_input=v_up,
        ascending_output=up.samples,
        descending_input=v_down,
        descending_output=down.samples,
        measured_up_threshold=first_switch(v_down, down),
        measured_down_threshold=first_switch(v_up, up),
    )
