"""Dyadic (Littlewood-Paley) frequency decomposition on the lattice.

The radial profile equals 1 up to radius 3/4, vanishes from radius 4/3 on,
and interpolates with a C-infinity monotone smoothstep in between.  The
annular pieces psi_j(xi) = phi(xi / 2^(j+1)) - phi(xi / 2^j) then telescope:
on a finite lattice the sum over a suitable finite j-range is exactly 1 at
every nonzero frequency, which build_dyadic_family enforces at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, LatticeTooSmall
from .lattice import Field, Lattice, require_zero_mean, xi_norm

PLATEAU = 0.75
SUPPORT = 4.0 / 3.0

PARTITION_TOL = 1e-12


def smooth_cut(r) -> np.ndarray:
    """Radial profile: 1 on [0, 3/4], 0 on [4/3, inf), C-infinity monotone between."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= PLATEAU, 1.0, 0.0)
    mid = (r > PLATEAU) & (r < SUPPORT)
    if np.any(mid):
        t = (SUPPORT - r[mid]) / (SUPPORT - PLATEAU)
        h = np.exp(-1.0 / t)
        h_c = np.exp(-1.0 / (1.0 - t))
        out[mid] = h / (h + h_c)
    return out


@dataclass(frozen=True)
class DyadicFamily:
    """Valid dyadic index range for one lattice."""

    lattice: Lattice
    j_min: int
    j_max: int

    @property
    def j_range(self) -> range:
        return range(self.j_min, self.j_max + 1)


@lru_cache(maxsize=1024)
def lowpass_values(lat: Lattice, j: int) -> np.ndarray:
    """phi(xi / 2^j) on the mode grid."""
    vals = smooth_cut(xi_norm(lat) / 2.0**j)
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=1024)
def annulus_values(lat: Lattice, j: int) -> np.ndarray:
    """psi_j(xi) on the mode grid; supported in 3*2^(j-2) <= |xi| <= 2^(j+3)/3."""
    vals = lowpass_values(lat, j + 1) - lowpass_values(lat, j)
    vals.flags.writeable = False
    return vals


def build_dyadic_family(lat: Lattice) -> DyadicFamily:
    """Smallest j-range with exact telescoping on all nonzero lattice frequencies."""
    r = xi_norm(lat)
    nonzero = r > 0.0
    if not np.any(nonzero):
        raise LatticeTooSmall("lattice has no nonzero frequencies")
    r_max = float(r.max())
    r_min = float(r[nonzero].min())
    # phi(xi / 2^(j_max+1)) = 1 needs r_max / 2^(j_max+1) <= 3/4;
    # phi(xi / 2^j_min) = 0 needs r_min / 2^j_min >= 4/3.
    j_max = math.ceil(math.log2(r_max / PLATEAU)) - 1
    j_min = math.floor(math.log2(r_min / SUPPORT))
    if j_min > j_max:
        raise LatticeTooSmall(f"no valid dyadic range: j_min={j_min} > j_max={j_max}")
    fam = DyadicFamily(lat, j_min, j_max)
    total = partition_values(fam)
    dev = float(np.max(np.abs(total[nonzero] - 1.0)))
    if dev > PARTITION_TOL:
        raise LatticeTooSmall(f"telescoping defect {dev} exceeds {PARTITION_TOL}")
    return fam


def partition_values(fam: DyadicFamily) -> np.ndarray:
    """sum_j psi_j(xi) over the family's range, on the mode grid."""
    total = np.zeros(fam.lattice.mode_shape)
    for j in fam.j_range:
        total = total + annulus_values(fam.lattice, j)
    return total


def _mult(u: Field, values: np.ndarray) -> Field:
    return Field(u.lattice, u.coef * values)


def delta_dot(u: Field, j: int, fam: DyadicFamily) -> Field:
    """Annular block at scale j; output supported in the j-annulus."""
    if j < fam.j_min or j > fam.j_max:
        raise IndexOutOfRange(f"j={j} outside [{fam.j_min}, {fam.j_max}]")
    return _mult(u, annulus_values(fam.lattice, j))


def delta_inhom(u: Field, k: int, fam: DyadicFamily) -> Field:
    """Inhomogeneous block: low-pass catch-all at k = -1, annular for k >= 0; zero
    for k <= -2 and for the k >= 0 below the family's range, where psi_k
    vanishes on the lattice."""
    if k == -1:
        return _mult(u, lowpass_values(fam.lattice, 0))
    if k < max(fam.j_min, 0):
        return Field(u.lattice, np.zeros_like(u.coef))
    return delta_dot(u, k, fam)


def low_pass(u: Field, j: int, fam: DyadicFamily) -> Field:
    """Frequency cut-off below scale j: multiplier phi(xi / 2^j)."""
    return _mult(u, lowpass_values(fam.lattice, j))


@dataclass
class BlockSeq:
    """Dyadic pieces of a field, indexed by scale."""

    family: DyadicFamily
    blocks: dict[int, Field]


def decompose(u: Field, fam: DyadicFamily) -> BlockSeq:
    """All annular blocks of a zero-mean field; they sum back to the field."""
    require_zero_mean(u, "decompose")
    blocks = {j: delta_dot(u, j, fam) for j in fam.j_range}
    return BlockSeq(fam, blocks)


def reconstruct(b: BlockSeq) -> Field:
    """Block-overlap reconstruction sum_j Delta_j (w_{j-1} + w_j + w_{j+1}).

    A left inverse of decompose: on block sequences coming from a zero-mean
    field it returns the field exactly, because neighboring annuli are the
    only overlaps and the partition telescopes to 1 on the lattice.  Blocks
    at j_min - 1 and j_max + 1 are consumed if present (their own annuli
    vanish identically on the lattice, so no outer terms are needed).
    """
    fam = b.family
    lat = fam.lattice
    out = np.zeros(lat.mode_shape, dtype=complex)
    for j in fam.j_range:
        acc = np.zeros(lat.mode_shape, dtype=complex)
        for jj in (j - 1, j, j + 1):
            w = b.blocks.get(jj)
            if w is not None:
                acc = acc + w.coef
        out = out + annulus_values(lat, j) * acc
    return Field(lat, out)
