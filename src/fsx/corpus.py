"""Deterministic test-field corpora.

Every field is reproducible from (seed, kind, size, lattice): per-field RNG
streams are derived from the seed and the case index, never from scheduling.
Random fields carry independent complex-normal amplitudes with algebraic
spectral decay; strip corpora are exact sine/cosine series in the vertical
variable; bump corpora are periodized Gaussians with audited truncation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .lattice import Field, Lattice, k_axis, zero_field, xi_norm


@dataclass
class Corpus:
    seed: int
    kind: str
    size: int
    lattice: Lattice
    fields: list[Field] = dc_field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        lat = self.lattice
        h.update(f"{lat.n}:{lat.K}:{lat.L!r}:{self.kind}:{self.seed}".encode())
        for u in self.fields:
            h.update(np.ascontiguousarray(u.coef).tobytes())
        return h.hexdigest()


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


# Algebraic decay exponent of every random amplitude: |c_k| ~ (1 + |k|)^-DECAY.
DECAY = 2.0


@lru_cache(maxsize=16)
def _decay_weights(lat: Lattice) -> np.ndarray:
    weights = (1.0 + xi_norm(lat) / lat.freq_scale) ** (-DECAY)
    weights.flags.writeable = False
    return weights


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def random_field(lat: Lattice, rng: np.random.Generator) -> Field:
    """Zero-mean field with independent complex-normal, decaying amplitudes."""
    coef = _complex_normal(rng, lat.mode_shape)
    coef *= _decay_weights(lat)
    coef[(lat.K,) * lat.n] = 0.0
    return Field(lat, coef)


def _strip_series(lat: Lattice, rng: np.random.Generator, odd: bool) -> Field:
    """Sum over m of sin(m x_n) (odd) or cos(m x_n) times a random x'-profile.

    Each m draws its profile in turn, m = 1..K for sines and m = 0..K for
    cosines; the cosine series has its mean removed.
    """
    u = zero_field(lat)
    K = lat.K
    horiz = lat.mode_shape[:-1]
    kprime_sq = np.zeros(horiz)
    for a in range(lat.n - 1):
        shape = [1] * (lat.n - 1)
        shape[a] = 2 * K + 1
        kprime_sq = kprime_sq + (k_axis(K).astype(float) ** 2).reshape(shape)
    for m in range(1 if odd else 0, K + 1):
        amp = _complex_normal(rng, horiz)
        c = amp * (1.0 + np.sqrt(kprime_sq + m * m)) ** (-DECAY)
        if odd:
            u.coef[..., K + m] += c / 2j
            u.coef[..., K - m] -= c / 2j
        elif m == 0:
            u.coef[..., K] += c
        else:
            u.coef[..., K + m] += c / 2
            u.coef[..., K - m] += c / 2
    if not odd:
        u.coef[(K,) * lat.n] = 0.0  # zero mean, so inverse-Laplacian problems are solvable
    return u


def sine_strip_field(lat: Lattice, rng: np.random.Generator) -> Field:
    """Sum of sin(m x_n) * exp(i xi' . x') modes; vanishes at x_n in {0, L/2}."""
    return _strip_series(lat, rng, odd=True)


def cosine_strip_field(lat: Lattice, rng: np.random.Generator) -> Field:
    """Sum of cos(m x_n) * exp(i xi' . x') modes; zero normal derivative at x_n = 0."""
    return _strip_series(lat, rng, odd=False)


def gaussian_bump_profile(lat: Lattice, center: float, sigma: float) -> np.ndarray:
    """Vertical-mode amplitudes of a periodized Gaussian bump exp(-(x-c)^2/2s^2).

    The amplitudes beyond the bandlimit are dropped; bump_truncation_error
    gives the relative size of that tail.
    """
    ks = k_axis(lat.K).astype(float) * lat.freq_scale
    norm = sigma * math.sqrt(2.0 * math.pi) / lat.L
    return norm * np.exp(-0.5 * (sigma * ks) ** 2) * np.exp(-1j * ks * center)


def bump_field(
    lat: Lattice,
    center: float,
    sigma: float,
    horizontal: np.ndarray | None = None,
    even: bool = False,
) -> Field:
    """Bump in x_n times a horizontal mode profile.

    even=True symmetrizes in x_n (bumps at +-center), making the field an
    exact cosine series in the vertical variable.
    """
    profile = gaussian_bump_profile(lat, center, sigma)
    if even:
        profile = profile + gaussian_bump_profile(lat, -center, sigma)
    u = zero_field(lat)
    if lat.n == 1:
        u.coef[:] = profile
        return u
    if horizontal is None:
        horizontal = np.zeros(lat.mode_shape[:-1], dtype=complex)
        idx = [lat.K] * (lat.n - 1)
        idx[0] += 1
        horizontal[tuple(idx)] = 1.0  # exp(i x_1)
    u.coef[:] = horizontal[..., None] * profile[None if lat.n == 1 else ...]
    return u


def bump_truncation_error(lat: Lattice, sigma: float) -> float:
    """Relative amplitude of the discarded Gaussian tail at the bandlimit."""
    return math.exp(-0.5 * (sigma * lat.freq_scale * (lat.K + 1)) ** 2)


DEFAULT_BUMP_SIGMA = 0.19


def corpus_bump_sigma(lat: Lattice) -> float:
    """Widest of the default width and the resolvability floor of the lattice.

    The spectral tail of a periodized Gaussian at the bandlimit is
    exp(-(sigma xi_{K+1})^2 / 2); keeping it below ~1e-9 needs
    sigma xi_{K+1} >= 6.5.  Note the far-face leakage budget of 1e-8 is then
    attainable only for K >= ~20 (uncertainty tradeoff against the distance
    from the bump center to the measured band).
    """
    return max(DEFAULT_BUMP_SIGMA, 6.5 / (lat.freq_scale * (lat.K + 1)))


def boundary_bump_field(lat: Lattice, rng: np.random.Generator) -> Field:
    """Even vertical bump at x_n = +-L/8 times a zero-mean horizontal profile."""
    horiz = None
    if lat.n > 1:
        horiz = _complex_normal(rng, lat.mode_shape[:-1])
        horiz *= _decay_weights(lat.boundary())
        horiz[(lat.K,) * (lat.n - 1)] = 0.0
    return bump_field(lat, lat.L / 8.0, corpus_bump_sigma(lat), horizontal=horiz, even=True)


# Each kind's builder, called with the lattice and the field's own RNG stream.
KINDS = {
    "random_bandlimited": random_field,
    "sine_strip": sine_strip_field,
    "cosine_strip": cosine_strip_field,
    "boundary_bump": boundary_bump_field,
}


def generate_corpus(seed: int, kind: str, size: int, lat: Lattice) -> Corpus:
    """Deterministic corpus; identical (seed, kind, size, lattice) give identical fields."""
    if size < 1:
        raise InvalidParameter(f"corpus size must be >= 1, got {size}")
    if kind not in KINDS:
        raise InvalidParameter(f"unknown corpus kind {kind!r}")
    return Corpus(seed, kind, size, lat, [KINDS[kind](lat, _rng(seed, i)) for i in range(size)])
