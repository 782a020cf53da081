"""Convex hulls of planar point clouds, for the 3-D cone and the support hull."""

from __future__ import annotations

import numpy as np

__all__ = ["hull_indices"]


def hull_indices(pts: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the convex hull of a 2-D point cloud,
    counter-clockwise.

    Andrew's monotone chain (Andrew, Inf. Proc. Letters 9, 1979): the points
    sorted by x, then y, and a lower and an upper chain that keep only strict
    left turns, so duplicate points and points on an edge are dropped.  The
    directed edges are those of qhull's hull; the first vertex is the lowest
    of the leftmost points.  A (near-)degenerate cloud gives the two extreme
    points along its long axis, and so does a collinear one, on which qhull
    gives up.
    """
    spread = np.max(pts, axis=0) - np.min(pts, axis=0)
    if np.min(spread) <= 1e-12 * max(1.0, np.max(spread)):
        # (near-)degenerate cloud: keep the extreme points along the long axis
        order = np.argsort(pts[:, int(np.argmax(spread))])
        return order[[0, -1]]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    xy = pts[order].tolist()

    def chain(idx):
        kept = []
        for i in idx:
            px, py = xy[i]
            while len(kept) >= 2:
                (ox, oy), (qx, qy) = xy[kept[-2]], xy[kept[-1]]
                # (q - o) x (p - q), not (q - o) x (p - o): the difference of
                # two points a few roundings apart is exact, so the turn stays
                # right when either pair is that close, and no vertex is kept
                # twice
                if (qx - ox) * (py - qy) - (qy - oy) * (px - qx) > 0.0:
                    break
                kept.pop()
            kept.append(i)
        return kept[:-1]  # the last point starts the other chain

    n = len(xy)
    return order[chain(range(n)) + chain(range(n - 1, -1, -1))]
