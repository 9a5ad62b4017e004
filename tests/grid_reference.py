"""Grid reference for the tests: the n-D projection of sampled values.

fsx applies its half-space operators to columns (lattice.project_columns)
and samples no whole grid.  The tests check those kernels against the
sample, overwrite and project round trip on the M^n grid, whose projection
step lives here.
"""

import math

import numpy as np

from fsx.lattice import Field, k_axis


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
