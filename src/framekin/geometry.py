"""Pointwise metric geometry: connection, curvature, covariant derivatives.

A point is its four chart coordinates as a (4,) float array, and a block
of points an (N, 4) array; ``as_points`` reads either from any sequence.
Functions that take a block return their results with the batch axis first.
The connection refuses a metric (``SingularMetricError``) that is not finite, or whose
condition number max|lambda| / min|lambda| over its eigenvalues reaches 1e13.  A Frobenius norm
bound is tried first: it accepts, without eigenvalues, a metric whose cond it proves below 1e12.
All arrays are dense with fixed 4^k layouts.  Index conventions:

* metric derivative arrays put derivative indices first:
  ``dg[sigma, mu, nu] = d_sigma g_{mu nu}``,
  ``d2g[rho, sigma, mu, nu] = d_rho d_sigma g_{mu nu}``;
* connection coefficients are ``gamma[mu, nu, rho] = Gamma^mu_{nu rho}``;
* the curvature tensor is stored as ``riemann[a, b, c, d] = R^a_{b c d}``
  with the convention

      R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
                  + Gamma^a_{c l} Gamma^l_{d b} - Gamma^a_{d l} Gamma^l_{c b},

  fixed once here and used everywhere.  With this orientation the
  first derivative of the transformed connection at the base point of a
  normal chart equals -(R^a_{bcd} + R^a_{cbd}) / 3, which is the check the
  test suite uses to pin the convention.

Signature is (+,-,-,-): one positive and three negative eigenvalues, with
the x^0 direction timelike (g_00 > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hyperdual import DIM, first, jet

SIGNATURE = np.diag([1.0, -1.0, -1.0, -1.0])


class _PointError(ValueError):
    """A failure at one point; ``sample`` is the point's index when it was raised from a block, else None."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class ChartDomainError(_PointError):
    """Point lies outside the chart domain of a field."""


class MetricSignatureError(_PointError):
    """Evaluated metric is not Lorentzian with a timelike x^0."""


class SingularMetricError(_PointError):
    """Metric matrix is singular or numerically unusable."""


def as_points(p):
    """A point as a (4,) float array, or a block of points as an (N, 4) one.

    A point must be finite (``ValueError`` otherwise); a block's
    finiteness is checked by ``check_domain``, which names the sample.
    """
    coords = np.array(p, dtype=float)
    if coords.ndim == 1:
        if len(coords) != DIM:
            raise ValueError("a chart point has exactly four coordinates")
        if not all(map(math.isfinite, coords.tolist())):
            raise ValueError("chart point coordinates must be finite")
    elif coords.ndim != 2 or coords.shape[1] != DIM:
        raise ValueError(f"a block of chart points has shape (N, 4), got {coords.shape}")
    return coords


def _sample(coords, k):
    """(text, index): the k-th point of a point or block as error messages name it, and its ``sample``."""
    coords = np.asarray(coords, dtype=float)
    return (f"{coords.tolist()}", None) if coords.ndim == 1 else (f"sample {k} {coords[k].tolist()}", k)


@dataclass
class MetricField:
    """A chart-expressed Lorentzian metric with exact derivative evaluation.

    ``component_fn`` maps a list of four scalars (floats or HyperDuals) to a
    4x4 nested sequence of scalars g_{mu nu}.  Writing the components in
    plain arithmetic is what makes first and second derivatives exact.

    Args:
        component_fn: coordinates -> 4x4 components, dual-capable.
        name: display name.
        domain_fn: optional test of the chart domain, called like
            ``component_fn`` but with plain values: four floats for a point,
            four coordinate columns (N,) for a block.  It returns a bool, or
            one bool per point of a block; False means outside the domain,
            and evaluation there raises ChartDomainError.
    """

    component_fn: Callable
    name: str = "metric"
    domain_fn: Optional[Callable] = None

    def check_domain(self, p):
        """``as_points(p)``, after raising ChartDomainError at a block's first non-finite or any out-of-domain point."""
        coords = as_points(p)
        if coords.ndim == 2 and not np.isfinite(coords).all():
            where, k = _sample(coords, first(~np.isfinite(coords).all(axis=1)))
            raise ChartDomainError(f"{self.name}: non-finite coordinates {where}", k)
        if self.domain_fn is not None:
            ok = self.domain_fn(coords.tolist() if coords.ndim == 1 else list(coords.T))
            bad = (None if ok else 0) if coords.ndim == 1 else first(~np.asarray(ok, dtype=bool))
            if bad is not None:
                where, k = _sample(coords, bad)
                raise ChartDomainError(f"{self.name}: point {where} outside chart domain", k)
        return coords


def eval_metric(metric: MetricField, p, symmetry_tol=1e-12) -> np.ndarray:
    """Metric components at a point (4, 4) or a block (N, 4, 4), with symmetry and signature checks."""
    coords = metric.check_domain(p)
    (g,) = jet(metric.component_fn, coords, order=0)
    _check_lorentzian(metric, g, coords, symmetry_tol)
    return g


def _check_lorentzian(metric: MetricField, g, coords, symmetry_tol=1e-12):
    """Raise MetricSignatureError at the first point where g is not finite, symmetric and (+,-,-,-) with g_00 > 0."""
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))  # not finite where a component is not
    bad = first(~np.isfinite(scale))
    if bad is not None:
        where, k = _sample(coords, bad)
        raise MetricSignatureError(f"{metric.name}: components not finite at {where}", k)
    gt = np.swapaxes(g, -1, -2)
    bad = first(np.abs(g - gt).max(axis=(-2, -1)) > symmetry_tol * scale)
    if bad is not None:
        where, k = _sample(coords, bad)
        raise MetricSignatureError(f"{metric.name}: components not symmetric at {where}", k)
    eig = np.linalg.eigvalsh(0.5 * (g + gt))  # ascending: three negative, then one positive
    bad = first(~((eig[..., 2] < 0) & (eig[..., 3] > 0) & (g[..., 0, 0] > 0)))
    if bad is not None:
        where, k = _sample(coords, bad)
        where = f"{where}: eigenvalues {eig.reshape(-1, DIM)[bad]}"
        raise MetricSignatureError(f"{metric.name}: not Lorentzian (+,-,-,-) at {where}", k)


def inverse_metric(metric: MetricField, p) -> np.ndarray:
    """Inverse metric g^{mu nu} at a point."""
    return _invert(eval_metric(metric, p), metric.name)


def _invert(g: np.ndarray, name) -> np.ndarray:
    """Inverse of a metric (4, 4) or of each metric of a stack (N, 4, 4), refusing unusable ones.

    A metric with a non-finite component is refused as singular, naming its determinant; a finite one as
    numerically singular when cond = max|lambda| / min|lambda| over its eigenvalues (its singular values;
    inf when min|lambda| = 0) reaches 1e13.  A stack names its first refused sample.  But ``np.linalg.inv`` runs
    first, and returns at once when the whole stack's |g|_F |g^-1|_F, a bound on each cond, is below 1e12.
    """
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        ginv = None
    # the bound in Python floats: an overflow gives inf and inf * 0 nan, with no numpy warning
    if ginv is not None and float(np.vdot(g, g)) * float(np.vdot(ginv, ginv)) < 1e24:
        return ginv
    point = g.ndim == 2
    where = "" if point else " at sample {}"
    bad = first(~np.logical_and.reduce(np.isfinite(g), axis=(-2, -1)))
    if bad is not None:
        message = f"{name}: singular metric, det={np.ravel(np.linalg.det(g))[bad]}" + where.format(bad)
        raise SingularMetricError(message, None if point else bad)
    lam = np.abs(np.linalg.eigvalsh(g))
    lam.sort(axis=-1)
    bad = first(lam[..., 0] <= 1e-13 * lam[..., -1])
    if bad is not None:
        lo, hi = lam.reshape(-1, DIM)[bad, [0, -1]].tolist()
        message = f"{name}: metric numerically singular, cond={hi / lo if lo else math.inf:.2e}" + where.format(bad)
        raise SingularMetricError(message, None if point else bad)
    return np.linalg.inv(g) if ginv is None else ginv  # inv raised LinAlgError: raise it again


def metric_jet(metric: MetricField, p, order=2):
    """Metric with exact derivatives at a point or a block of points.

    Returns (g, dg) for order 1 and (g, dg, d2g) for order 2; derivative
    indices first, after the batch axis of a block.
    """
    return jet(metric.component_fn, metric.check_domain(p), order)


@dataclass
class CurvatureTensor:
    """Riemann tensor with its contractions at a point.

    ``einstein`` is assembled exactly as ricci - scalar/2 * g.
    """

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    einstein: np.ndarray
    point: np.ndarray


def _braces(dg):
    """[..., k, i, j] = d_i g_{kj} + d_j g_{ki} - d_k g_{ij}; leading axes of dg pass through."""
    swapped = dg.swapaxes(-3, -2)  # [..., k, i, j] = d_i g_{kj}
    return swapped + swapped.swapaxes(-2, -1) - dg


def _gamma_from_jets(g, dg, name):
    # Gamma^m_{ij} = 1/2 g^{mk} (d_i g_{kj} + d_j g_{ki} - d_k g_{ij}); name is the metric's, for errors
    return 0.5 * np.einsum("...mk,...kij->...mij", _invert(g, name), _braces(dg))


def christoffel(metric: MetricField, p) -> np.ndarray:
    """Connection coefficients gamma (4, 4, 4) at a point, or (N, 4, 4, 4) at a block, from the
    exact first metric derivatives."""
    g, dg = metric_jet(metric, p, order=1)
    return _gamma_from_jets(g, dg, metric.name)


def _connection_jet(metric: MetricField, p):
    """(g, g^-1, gamma, dgamma) from one order-2 metric jet and one inversion, at a point or a block."""
    g, dg, d2g = metric_jet(metric, p, order=2)
    ginv = _invert(g, metric.name)
    braces = _braces(dg)
    gamma = 0.5 * np.einsum("...mk,...kij->...mij", ginv, braces)
    dginv = -np.einsum("...ma,...sab,...bk->...smk", ginv, dg, ginv)
    dbraces = _braces(d2g)
    dgamma = 0.5 * (
        np.einsum("...smk,...kij->...smij", dginv, braces) + np.einsum("...mk,...skij->...smij", ginv, dbraces)
    )
    return g, ginv, gamma, dgamma


def christoffel_jet(metric: MetricField, p):
    """Connection and its exact first derivatives at a point or a block of points.

    Returns (gamma, dgamma) with dgamma[sigma, mu, nu, rho] =
    d_sigma Gamma^mu_{nu rho}; a block prepends its batch axis to both.
    """
    return _connection_jet(metric, p)[2:]


def riemann(metric: MetricField, p) -> CurvatureTensor:
    """Curvature tensor under the module's documented sign convention."""
    p = as_points(p)
    g, ginv, gamma, dgamma = _connection_jet(metric, p)
    _check_lorentzian(metric, g, p)
    rm = (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("acl,ldb->abcd", gamma, gamma)
        - np.einsum("adl,lcb->abcd", gamma, gamma)
    )
    ric = np.einsum("abad->bd", rm)
    scalar = float(np.einsum("bd,bd->", ginv, ric))
    einstein = ric - 0.5 * scalar * g
    return CurvatureTensor(rm, ric, scalar, einstein, p)


def covariant_derivative_field(metric: MetricField, frame, p) -> np.ndarray:
    """Mixed covariant derivative of a vector field.

    Returns nabla[mu, nu] = Q^mu_{;nu} = d_nu Q^mu + Gamma^mu_{nu rho} Q^rho.
    ``frame`` is anything with a dual-capable ``component_fn``.
    """
    p = as_points(p)
    q, dq = jet(frame.component_fn, p)
    gamma = christoffel(metric, p)
    return dq.T + np.einsum("mnr,r->mn", gamma, q)


def minkowski_metric(name="minkowski") -> MetricField:
    """The constant flat metric diag(1, -1, -1, -1)."""

    def comps(coords):
        return [[SIGNATURE[i, j] for j in range(DIM)] for i in range(DIM)]

    return MetricField(comps, name=name)
