"""Every link's inflow in a load, as the kernel computes it.

``load_network`` keeps the inflows of the detector channels alone, as its
``counts``.  The tests that check other links' inflows read them here: the
inflow per interval that the kernel passes to each link's ``link_time``.
"""

from odchain import assignment


def load_with_inflows(net, demand, frozen_link_tt=None):
    """``load_network(net, demand, frozen_link_tt=frozen_link_tt)`` and the
    inflows its kernel pass gave ``link_time``, per link in the order it
    visited them."""
    inflow = {}
    kernel = assignment._propagate

    def recording(grid, plan, matrix, cells, link_time):
        def recorded(lid, flow, *rest):
            inflow[lid] = flow
            return link_time(lid, flow, *rest)

        return kernel(grid, plan, matrix, cells, recorded)

    assignment._propagate = recording
    try:
        load = assignment.load_network(net, demand, frozen_link_tt=frozen_link_tt)
    finally:
        assignment._propagate = kernel
    return load, inflow
