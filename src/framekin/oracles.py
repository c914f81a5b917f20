"""The scalar-density divergence: an independent route to a frame's expansion.

``fd_divergence`` takes no connection coefficients and no exact derivative,
only metric determinants and central differences of the frame components.
The moving-lab report records its value beside the decomposition's.  The
other independent references (finite-difference connection and curvature,
quadrature, the transformation laws of a chart map, closed forms) live with
the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .geometry import DIM, MetricField, as_points, eval_metric
from .hyperdual import block_values


def fd_divergence(metric: MetricField, frame, p, step=1e-4) -> float:
    """Scalar-density divergence (1/sqrt|g|) d_mu (sqrt|g| Q^mu).

    Independent route to the expansion rate: no connection coefficients and
    no exact-derivative engine, only metric determinants and central
    differences of the frame components, Richardson refined.  The 16
    stencil points and p go to the metric as one block, and the stencil
    points to the frame as one block with their metric components.
    """
    hs = (step, -step, step / 2.0, -step / 2.0)
    pts = as_points(p) + np.concatenate([np.diag(np.full(DIM, h)) for h in hs] + [np.zeros((1, DIM))])
    g = eval_metric(metric, pts)
    root_det = np.sqrt(np.abs(np.linalg.det(g)))
    shared = [np.moveaxis(g[:-1], 0, -1)] if frame.metric is metric else []  # g[mu][nu] (16,)
    q, _ = block_values(frame.component_fn(list(pts[:-1].T), *shared))
    # dens[h, mu] = sqrt|g| Q^mu at the point moved by h along axis mu
    dens = root_det[:-1].reshape(4, DIM) * np.diagonal(q.reshape(4, DIM, DIM), axis1=1, axis2=2)

    d1, d2 = (sum(((dens[i] - dens[i + 1]) / (2 * hs[i])).tolist()) for i in (0, 2))  # summed over mu in order
    refined = (4.0 * d2 - d1) / 3.0
    return float(refined / root_det[-1])
