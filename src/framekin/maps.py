"""Differentiable coordinate maps and the metric they carry.

A ``ChartMap`` is a diffeomorphism between chart domains given by a forward
point map and a pull-back, which gives the inverse point and the inverse
map's Jacobian from one evaluation.  Both are dual-capable, so any derivative
of them is one ``hyperdual.jet`` call; ``forward`` gives the image of a point.
``pushed_metric_field`` expresses a metric in the image chart as a field of
its own, with one inverse-Jacobian factor per covariant index; it pulls each
evaluation's points back once, and the base metric refuses those outside its
domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import DIM, MetricField, as_points
from .hyperdual import jet


@dataclass
class ChartMap:
    """Coordinate diffeomorphism with exact Jacobians.

    ``forward_fn`` maps four scalars to four scalars and must accept
    HyperDual input.  ``pullback_fn`` maps the image coordinates x' to
    ``(x, jac)``: the four scalars of the inverse point x(x') and the 4x4
    rows [alpha][mu] of d x^alpha / d x'^mu, both dual-capable and from one
    evaluation; pushing a metric through the map reads both.
    """

    forward_fn: Callable
    pullback_fn: Callable
    name: str

    def forward(self, p):
        """The image coordinates x' of a point p."""
        return jet(self.forward_fn, as_points(p), order=0)[0]


def pushed_metric_field(cmap: ChartMap, metric: MetricField, name=None) -> MetricField:
    """The metric expressed in the image chart as a field of its own.

    Components at image coordinates x' are
    g'_{mu nu}(x') = (d x^a / d x'^mu)(d x^b / d x'^nu) g_{ab}(x(x')), from
    one pull-back; the base metric refuses a pulled-back point outside its domain.
    """

    def comps(coords):
        back, a = cmap.pullback_fn(coords)
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

    return MetricField(comps, name=name or f"{metric.name}@{cmap.name}")
