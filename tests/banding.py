"""Assignment matrices built from dense ``(H, H, C, OD)`` pieces, for tests."""

import numpy as np

from odchain.assignment import AssignmentMatrix, assignment_matrix, load_network


def compact(pieces) -> tuple[np.ndarray, np.ndarray]:
    """``(band, pairs)`` of dense pieces: ``pairs`` are the (channel, OD)
    cells with a nonzero piece, ordered by channel and then OD, and
    ``band[k, h - k, p] = pieces[k, h, pairs[0, p], pairs[1, p]]``, as wide
    as the longest nonzero lag.

    Pieces below the diagonal (a count before the departure) have no place
    in a band and must be zero.
    """
    pieces = np.asarray(pieces, dtype=float)
    n_h = pieces.shape[0]
    reach = pieces.any(axis=(2, 3))
    assert not np.tril(reach, -1).any(), "pieces count departures before they leave"
    k, h = np.nonzero(reach)
    pairs = np.array(np.nonzero(pieces.any(axis=(0, 1)))).reshape(2, -1)
    band = np.zeros((n_h, int((h - k).max(initial=0)) + 1, pairs.shape[1]))
    for lag in range(band.shape[1]):
        k = np.arange(n_h - lag)
        band[k, lag] = pieces[k, k + lag][:, pairs[0], pairs[1]]
    return band, pairs


def from_dense(od_index, channels, grid, pieces) -> AssignmentMatrix:
    """The assignment matrix whose dense view is ``pieces``."""
    band, pairs = compact(pieces)
    return AssignmentMatrix(od_index=od_index, channels=channels, grid=grid, band=band,
                            pairs=pairs)


def dense_band(asg: AssignmentMatrix) -> np.ndarray:
    """The band spread over every (channel, OD) cell, ``(H, L + 1, C, OD)``."""
    band = np.zeros((*asg.band.shape[:2], len(asg.channels), len(asg.od_index)))
    band[:, :, asg.pairs[0], asg.pairs[1]] = asg.band
    return band


def route_crossings(net, od_index) -> int:
    """How many (channel, OD) pairs have the OD's path cross the channel."""
    return sum(ch in net.path_of(od).links for od in od_index for ch in net.detectors)


def linearize(net, demand) -> AssignmentMatrix:
    """``assignment_matrix`` at the BPR times of loading ``demand``."""
    return assignment_matrix(net, demand.od_index, load_network(net, demand))
