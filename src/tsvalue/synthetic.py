"""Deterministic synthetic series generators used by tests and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, require
from .series import TimeSeries

GENERATORS = ("sine_mix", "ar_process", "trend_season")


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str = "sine_mix"
    length: int = 800
    channels: int = 1
    noise_std: float = 0.1
    ar_coeffs: tuple[float, ...] = (0.6, -0.2)  # ar_process only
    seed: int = 0

    def __post_init__(self):
        require(self.generator in GENERATORS,
                f"unknown generator {self.generator!r}; pick one of {GENERATORS}", InvalidSpec)
        require(min(self.length, self.channels) >= 1,
                "length and channels must be >= 1", InvalidSpec)
        require(self.noise_std >= 0, "noise_std must be >= 0", InvalidSpec)
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed!r}", InvalidSpec)
        object.__setattr__(self, "ar_coeffs", tuple(float(c) for c in self.ar_coeffs))


def generate(spec: SyntheticSpec) -> TimeSeries:
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    values = np.zeros((spec.length, spec.channels))

    if spec.generator == "sine_mix":
        for m in range(spec.channels):
            periods = rng.uniform(20.0, 80.0, size=3)
            phases = rng.uniform(0.0, 2 * np.pi, size=3)
            amps = rng.uniform(0.5, 1.5, size=3)
            values[:, m] = sum(
                a * np.sin(2 * np.pi * t / p + ph)
                for a, p, ph in zip(amps, periods, phases)
            )
        if spec.noise_std:
            values += rng.normal(0.0, spec.noise_std, size=values.shape)
    elif spec.generator == "ar_process":
        order = len(spec.ar_coeffs)
        for m in range(spec.channels):
            noise = spec.noise_std * rng.normal(0.0, 1.0, size=spec.length)
            x = values[:, m]
            for i in range(spec.length):
                x[i] = noise[i] + sum(
                    c * x[i - 1 - j] for j, c in enumerate(spec.ar_coeffs) if i - 1 - j >= 0
                )
    else:  # trend_season
        for m in range(spec.channels):
            slope = rng.uniform(-0.002, 0.002)
            period = rng.uniform(30.0, 70.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            values[:, m] = slope * t + np.sin(2 * np.pi * t / period + phase)
        if spec.noise_std:
            values += rng.normal(0.0, spec.noise_std, size=values.shape)

    return TimeSeries(values, _names(spec.channels), origin=_origin(spec))


def _names(m: int) -> tuple[str, ...]:
    return tuple(f"ch{i}" for i in range(m))


def _origin(spec: SyntheticSpec) -> str:
    return (f"synthetic:{spec.generator}(T={spec.length},M={spec.channels},"
            f"noise={spec.noise_std:g},seed={spec.seed})")

