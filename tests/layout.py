"""Moves between the NCHW layout of the loop oracles and the NHWC layout of
the ops. Cases are still drawn as NCHW arrays, so the values tested do not
depend on the layout; call sites move them in for the ops and out for the
oracles."""

import numpy as np


def nhwc(a):
    """[N, C, H, W] -> contiguous [N, H, W, C]."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def nchw(a):
    """[N, H, W, C] -> [N, C, H, W] view."""
    return np.moveaxis(a, -1, 1)
