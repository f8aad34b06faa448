"""Assignment matrices built from dense ``(H, H, C, OD)`` pieces, for tests."""

import numpy as np

from odchain.assignment import AssignmentMatrix


def band_of(pieces) -> np.ndarray:
    """``band[k, h - k] = pieces[k, h]``, as wide as the longest nonzero lag.

    Pieces below the diagonal (a count before the departure) have no place
    in a band and must be zero.
    """
    pieces = np.asarray(pieces, dtype=float)
    n_h = pieces.shape[0]
    reach = pieces.any(axis=(2, 3))
    assert not np.tril(reach, -1).any(), "pieces count departures before they leave"
    k, h = np.nonzero(reach)
    band = np.zeros((n_h, int((h - k).max(initial=0)) + 1, *pieces.shape[2:]))
    for lag in range(band.shape[1]):
        k = np.arange(n_h - lag)
        band[k, lag] = pieces[k, k + lag]
    return band


def from_dense(od_index, channels, grid, pieces) -> AssignmentMatrix:
    """The assignment matrix whose dense view is ``pieces``."""
    return AssignmentMatrix(od_index=od_index, channels=channels, grid=grid, band=band_of(pieces))
