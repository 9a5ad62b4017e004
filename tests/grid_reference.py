"""Grid references for the tests: one-shot n-D transforms of whole grids.

fsx applies its half-space operators to columns (lattice.project_columns)
and samples no whole grid.  The tests check those kernels against the
sample, overwrite and project round trip on the M^n grid, whose projection
step lives here.  fsx samples a grid by a pruned transform, one axis at a
time (lattice.sample_grid); the tests check it against the one-shot
transform of the fully padded array, which also lives here.
"""

import math

import numpy as np

from fsx.lattice import Field, k_axis


def sample_grid_reference(u, M):
    """Values of u on the M^n grid: one n-D inverse DFT of the padded modes."""
    lat = u.lattice
    padded = np.zeros((M,) * lat.n, dtype=complex)
    padded[np.ix_(*([k_axis(lat.K) % M] * lat.n))] = u.coef
    return np.fft.ifftn(padded) * float(M) ** lat.n


def project_bandlimited(s, target):
    """Truncate the DFT of the sample grid s to the target bandlimit.

    Returns the projected field and the relative l2 magnitude of the
    discarded tail (0 for exactly band-limited input).
    """
    chat = np.fft.fftn(s.values) / float(s.M) ** target.n
    idx = np.ix_(*([k_axis(target.K) % s.M] * target.n))
    kept = chat[idx].copy()
    chat[idx] = 0.0
    tail = float(np.sum(np.abs(chat) ** 2))
    total = float(np.sum(np.abs(kept) ** 2)) + tail
    return Field(target, kept), (math.sqrt(tail / total) if total > 0.0 else 0.0)
