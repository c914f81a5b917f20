"""Differentiable coordinate maps and tensor pushforward.

A ``ChartMap`` is a diffeomorphism between chart domains given by forward
and inverse point maps.  Both maps are dual-capable, so Jacobians come from
the exact derivative engine.  Tensor components push forward with one
forward-Jacobian factor per contravariant index and one inverse-Jacobian
factor per covariant index, evaluated so that the pushed components at the
image point reproduce the original components at the source point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import DIM, MetricField, as_points, christoffel
from .hyperdual import dual_matrix_inverse, jet


@dataclass
class ChartMap:
    """Coordinate diffeomorphism with exact Jacobians.

    ``forward_fn`` and ``inverse_fn`` map four scalars to four scalars and
    must accept HyperDual input.  ``inverse_jacobian_fn`` optionally gives
    d x^alpha / d x'^mu directly as a dual-capable 4x4 function of the
    image coordinates; when absent it is derived from ``inverse_fn``.
    """

    forward_fn: Callable
    inverse_fn: Callable
    name: str = "chart-map"
    inverse_jacobian_fn: Optional[Callable] = None

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
        coords = as_points(p_image)
        if self.inverse_jacobian_fn is not None:
            return jet(self.inverse_jacobian_fn, coords, order=0)[0]
        _, dJ = jet(self.inverse_fn, coords)
        return dJ.T

    def _inverse_jacobian_dual(self, coords_dual):
        """Inverse Jacobian as scalars compatible with dual coordinates."""
        if self.inverse_jacobian_fn is not None:
            return self.inverse_jacobian_fn(coords_dual)
        raise ValueError(
            f"{self.name}: pushing fields through this map needs an explicit "
            "inverse_jacobian_fn"
        )

    def compose(self, inner: "ChartMap") -> "ChartMap":
        """The map sending p to self.forward(inner.forward(p))."""

        def fwd(coords):
            return self.forward_fn(inner.forward_fn(coords))

        def inv(coords):
            return inner.inverse_fn(self.inverse_fn(coords))

        return ChartMap(fwd, inv, f"{self.name}*{inner.name}")


def identity_map() -> ChartMap:
    def ident(coords):
        return list(coords)

    def ijac(coords):
        return [[1.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)]

    return ChartMap(ident, ident, "identity", ijac)


def linear_map(matrix, name="linear") -> ChartMap:
    """Map x' = M x with constant matrix M (boosts, rotations, dilations)."""
    m = np.asarray(matrix, dtype=float)
    minv = np.linalg.inv(m)

    def fwd(coords):
        return [sum(m[i, j] * coords[j] for j in range(DIM)) for i in range(DIM)]

    def inv(coords):
        return [sum(minv[i, j] * coords[j] for j in range(DIM)) for i in range(DIM)]

    def ijac(coords):
        return [[float(minv[i, j]) for j in range(DIM)] for i in range(DIM)]

    return ChartMap(fwd, inv, name, ijac)


def translation_map(offset, name="translation") -> ChartMap:
    off = np.asarray(offset, dtype=float)

    def fwd(coords):
        return [coords[i] + off[i] for i in range(DIM)]

    def inv(coords):
        return [coords[i] - off[i] for i in range(DIM)]

    def ijac(coords):
        return [[1.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)]

    return ChartMap(fwd, inv, name, ijac)


def boost_map(speed, name="boost") -> ChartMap:
    """Hyperbolic mixing of x^0 and x^1 with velocity ``speed``."""
    if not -1.0 < speed < 1.0:
        raise ValueError("boost speed must satisfy |v| < 1")
    gam = 1.0 / np.sqrt(1.0 - speed * speed)
    m = np.eye(DIM)
    m[0, 0] = m[1, 1] = gam
    m[0, 1] = m[1, 0] = -gam * speed
    return linear_map(m, name)


def pushforward_tensor(cmap: ChartMap, components, tensor_type, p):
    """Push tensor components at p to the image point of the map.

    Args:
        components: dense array with ``r`` contravariant indices first and
            ``s`` covariant indices after, shape (4,)*(r+s).
        tensor_type: pair (r, s).
        p: source point.

    Returns:
        Transformed components at cmap.forward(p).
    """
    r, s = tensor_type
    comp = np.asarray(components, dtype=float)
    if comp.shape != (DIM,) * (r + s):
        raise ValueError(f"component array shape {comp.shape} does not match type {(r, s)}")
    lam = cmap.jacobian(p)
    lam_inv = np.linalg.inv(lam)
    out = comp
    for k in range(r):
        out = np.tensordot(lam, out, axes=(1, k))
        out = np.moveaxis(out, 0, k)
    for k in range(r, r + s):
        # covariant index contracts with the inverse Jacobian
        out = np.tensordot(lam_inv, out, axes=(0, k))
        out = np.moveaxis(out, 0, k)
    return out


def pushed_metric_field(cmap: ChartMap, metric: MetricField, name=None) -> MetricField:
    """The metric expressed in the image chart as a field of its own.

    Components at image coordinates x' are
    g'_{mu nu}(x') = (d x^a / d x'^mu)(d x^b / d x'^nu) g_{ab}(x(x')).
    Requires the map to carry an explicit dual-capable inverse Jacobian.
    """

    def comps(coords):
        back = cmap.inverse_fn(coords)
        a = cmap._inverse_jacobian_dual(coords)
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


def pushed_frame_field(cmap: ChartMap, frame, metric_image: MetricField, label=None):
    """Frame components carried to the image chart by the map differential.

    Q'^mu(x') = (d x'^mu / d x^a)(x(x')) Q^a(x(x')); the result is wrapped
    as a unit frame against the image-chart metric.
    """
    from .frames import make_frame

    def comps(coords):
        back = cmap.inverse_fn(coords)
        a = cmap._inverse_jacobian_dual(coords)  # dx/dx'
        lam = dual_matrix_inverse(a)  # dx'/dx at the source point
        q = frame.component_fn(back)
        return [sum(lam[mu][al] * q[al] for al in range(DIM)) for mu in range(DIM)]

    return make_frame(comps, metric_image, label=label or f"{frame.label}'")


def transform_connection(cmap: ChartMap, metric: MetricField, p):
    """Connection in the image chart via the inhomogeneous transformation law.

    Gamma'^m_{ij}(x') = La^m_a (La^-1)^b_i (La^-1)^c_j Gamma^a_{bc}
                        + La^m_a  d^2 x^a / d x'^i d x'^j,
    computed from exact second derivatives of the inverse point map.
    """
    gamma = christoffel(metric, p)
    image = cmap.forward(p)
    lam = cmap.jacobian(p)
    lam_inv = np.linalg.inv(lam)
    _, _, d2 = jet(cmap.inverse_fn, image, order=2)
    second = np.moveaxis(d2, -1, 0)  # [a, i, j] = d2 x^a / dx'^i dx'^j
    out = np.einsum("ma,bi,cj,abc->mij", lam, lam_inv, lam_inv, gamma)
    out += np.einsum("ma,aij->mij", lam, second)
    return out
