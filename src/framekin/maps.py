"""Differentiable coordinate maps and the metric they carry.

A ``ChartMap`` is a diffeomorphism between chart domains given by forward
and inverse point maps and the inverse map's Jacobian.  All three are
dual-capable, so derivatives come from the exact derivative engine.
``pushed_metric_field`` expresses a metric in the image chart as a field of
its own, with one inverse-Jacobian factor per covariant index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import DIM, MetricField, as_points
from .hyperdual import jet


@dataclass
class ChartMap:
    """Coordinate diffeomorphism with exact Jacobians.

    ``forward_fn`` and ``inverse_fn`` map four scalars to four scalars and
    must accept HyperDual input.  ``inverse_jacobian_fn`` gives
    d x^alpha / d x'^mu as a dual-capable 4x4 function of the image
    coordinates (rows alpha, columns mu); pushing a metric or a frame
    through the map reads it directly.
    """

    forward_fn: Callable
    inverse_fn: Callable
    name: str
    inverse_jacobian_fn: Callable

    def forward(self, p):
        return jet(self.forward_fn, as_points(p), order=0)[0]

    def inverse(self, p):
        return jet(self.inverse_fn, as_points(p), order=0)[0]

    def jacobian(self, p):
        """Lambda[mu, alpha] = d x'^mu / d x^alpha at the source point p."""
        _, dJ = jet(self.forward_fn, as_points(p))
        return dJ.T

    def inverse_jacobian(self, p_image):
        """d x^alpha / d x'^mu at the image point."""
        return jet(self.inverse_jacobian_fn, as_points(p_image), order=0)[0]


def pushed_metric_field(cmap: ChartMap, metric: MetricField, name=None) -> MetricField:
    """The metric expressed in the image chart as a field of its own.

    Components at image coordinates x' are
    g'_{mu nu}(x') = (d x^a / d x'^mu)(d x^b / d x'^nu) g_{ab}(x(x')).
    """

    def comps(coords):
        back = cmap.inverse_fn(coords)
        a = cmap.inverse_jacobian_fn(coords)
        g = metric.component_fn(back)
        out = [[None] * DIM for _ in range(DIM)]
        for mu in range(DIM):
            for nu in range(mu, DIM):
                acc = 0.0
                for al in range(DIM):
                    for be in range(DIM):
                        gv = g[al][be]
                        if isinstance(gv, float) and gv == 0.0:
                            continue
                        acc = acc + a[al][mu] * a[be][nu] * gv
                out[mu][nu] = acc
                out[nu][mu] = acc
        return out

    def domain(coords):
        return metric.domain_fn(cmap.inverse_fn(coords))

    return MetricField(
        comps,
        name=name or f"{metric.name}@{cmap.name}",
        domain_fn=domain if metric.domain_fn is not None else None,
    )
