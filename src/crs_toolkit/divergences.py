"""Divergences computed from width functions, and the bound arithmetic.

Everything reduces to one-dimensional integrals of the width:

  D_CS  = -int w(h) log2 w(h) dh          (channel simulation divergence)
  D_ACS =  int Hb[w(h)] dh                (binary-entropy variant)
  D^phi =  int phi(w(h)) dh               (concave phi, phi(0) = phi(1) = 0)
  D_KL  =  log2 e + int w(h) log2 h dh    (integration-by-parts identity)

Step widths are integrated exactly; smooth widths go through the adaptive
engine. Internal arithmetic is in nats; bits appear only in reports. Every
divergence takes its tolerance in bits, DEFAULT_TOL_BITS = 1e-9 for every
width unless the caller sets it, and refuses a tol that is not positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import InvalidParameterError, QuadratureError
from .quadrature import (
    PHI_BINARY_ENTROPY,
    PHI_XLOGX,
    PhiSpec,
    _check_tol,
    integrate_interval,
    phi_of_width_integral,
    width_log_h_integral,
)
from .width import StepWidth, WidthFunction, width_eval

LN2 = math.log(2.0)
LOG2_E_PLUS_1 = math.log2(math.e + 1.0)

DEFAULT_TOL_BITS = 1e-9


@dataclass(frozen=True)
class DivergenceReport:
    kind: str  # KL | CS | ACS | PHI
    value_bits: float
    abs_error_estimate: float
    method: str  # closed_form | quadrature | discrete_sum
    converged: bool = True

    def __post_init__(self):
        if self.value_bits < 0.0:
            raise InvalidParameterError("divergence values are non-negative")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "value_bits": self.value_bits,
            "abs_error_estimate": self.abs_error_estimate,
            "method": self.method,
        }


def _report(kind: str, value_bits: float, err_bits: float, method: str,
            converged: bool = True) -> DivergenceReport:
    if value_bits < 0.0:
        if value_bits < -max(err_bits, 1e-12):
            raise QuadratureError(f"{kind} evaluated to {value_bits}, beyond its error bar")
        value_bits = 0.0
    return DivergenceReport(kind, value_bits, err_bits, method, converged)


def _phi_step_sum(w: StepWidth, phi: PhiSpec) -> float:
    """Exact integral of phi(w) for a piecewise-constant width, in nats."""
    seg = np.diff(w.edges)
    return float(np.dot(seg, phi(w.values)))


def quad_phi_integral(
    w: WidthFunction,
    phi: PhiSpec,
    tol: float = DEFAULT_TOL_BITS,
    kind: str = "PHI",
) -> DivergenceReport:
    """D^phi = integral of phi(w(h)) dh, reported in bits.

    phi is a PhiSpec, whose sup_value bounds the stub below the first panel;
    a bare callable carries no such bound and is refused. Step widths are
    summed exactly; otherwise panels split at the width's breakpoints and an
    infinite h_max needs the width's power-tail certificate and phi's
    majorant. A run that exhausts its panel budget reports its best value
    with converged = False.
    """
    _check_tol(tol)
    if not isinstance(phi, PhiSpec):
        raise InvalidParameterError("phi must be a PhiSpec with a proven sup_value")
    if isinstance(w, StepWidth):
        return _report(kind, _phi_step_sum(w, phi) / LN2, 0.0, "discrete_sum")
    res = phi_of_width_integral(w, phi, tol * LN2)
    return _report(kind, res.value / LN2, res.error / LN2, "quadrature", res.converged)


def channel_simulation_divergence(w: WidthFunction, tol: float = DEFAULT_TOL_BITS) -> DivergenceReport:
    """D_CS in bits."""
    return quad_phi_integral(w, PHI_XLOGX, tol, "CS")


def alternative_divergence(w: WidthFunction, tol: float = DEFAULT_TOL_BITS) -> DivergenceReport:
    """D_ACS in bits."""
    return quad_phi_integral(w, PHI_BINARY_ENTROPY, tol, "ACS")


def _kl_width_identity_bits(w: WidthFunction, tol_bits: float) -> tuple[float, float, bool, str]:
    if isinstance(w, StepWidth):
        # exact: int_a^b ln h dh = [h ln h - h]
        def seg(a: float, b: float) -> float:
            fa = 0.0 if a == 0.0 else a * math.log(a) - a
            return b * math.log(b) - b - fa

        total = math.fsum(v * seg(a, b) for a, b, v
                          in zip(w.edges[:-1], w.edges[1:], w.values))
        return (1.0 + total) / LN2, 0.0, True, "discrete_sum"
    res = width_log_h_integral(w, tol_bits * LN2)
    return (1.0 + res.value) / LN2, res.error / LN2, res.converged, "quadrature"


def kl_divergence(
    spec: measures.DistributionPair,
    route: str = "closed_form",
    tol: float = DEFAULT_TOL_BITS,
) -> DivergenceReport:
    """D_KL in bits via the family closed form or the width identity.

    The two routes agree within combined tolerance; spec.kl_route names the
    route a family supports (synthetic specs only the width identity). tol
    is checked on both routes, although the closed form and a step width's
    exact sum do not read it.
    """
    _check_tol(tol)
    if route == "closed_form":
        return _report("KL", spec.kl_bits(), 0.0, "closed_form")
    if route == "width_identity":
        value, err, converged, method = _kl_width_identity_bits(width_eval(spec), tol)
        return _report("KL", value, err, method, converged)
    raise InvalidParameterError(f"unknown KL route {route!r}")


def dcs_laplace_closed(b: float) -> float:
    """Closed-form D_CS of Laplace(0, b) vs Laplace(0, 1), in bits:
    (b + psi(1/b) + gamma - 1) / ln 2."""
    from scipy.special import digamma  # on first use: a 0.3 s import, off every hot path

    if not (0.0 < b <= 1.0):
        raise InvalidParameterError(f"laplace scale must be in (0, 1], got {b}")
    return (b + float(digamma(1.0 / b)) + np.euler_gamma - 1.0) / LN2


@dataclass(frozen=True)
class SandwichBounds:
    """The KL-based sandwich around D_CS and the index entropy, all in bits."""

    kl_bits: float
    cs_lower_bits: float
    cs_upper_bits: float
    entropy_upper_bits: float
    refined_entropy_upper_bits: float


def kl_sandwich(kl_bits: float) -> SandwichBounds:
    """Bounds implied by kl = D_KL: D_CS lies in [kl, kl + log2(kl+1) + 1],
    the sampler entropy below that plus log2(e+1), refined constant
    log2(ln 4) + log2(e + 1) < 2.366."""
    if not kl_bits >= 0.0:
        raise InvalidParameterError("kl_bits must be >= 0")
    cs_upper = kl_bits + math.log2(kl_bits + 1.0) + 1.0
    refined = kl_bits + math.log2(kl_bits + 1.0) + math.log2(math.log(4.0)) + LOG2_E_PLUS_1
    return SandwichBounds(
        kl_bits=kl_bits,
        cs_lower_bits=kl_bits,
        cs_upper_bits=cs_upper,
        entropy_upper_bits=cs_upper + LOG2_E_PLUS_1,
        refined_entropy_upper_bits=refined,
    )


def dcs_integral_representation_check(
    w: WidthFunction, tol: float = 1e-6
) -> tuple[float, float]:
    """(lhs_bits, rhs_bits): D_CS from its definition versus the nested
    integral representation

        D_CS ln 2 = -1 + int_0^1 dy/y int_0^inf min{w(h), y} dh.

    Finite h_max only. The inner integral is a layer cake: w is
    non-increasing and exceeds y exactly on [0, r(y)), r = w.ratio_inverse,
    so it equals y r(y) + T(r(y)) with T = w.tail_integral. Each outer
    panel batch takes one ratio_inverse call and one tail integral per node.
    The value is stationary in r, since d/dr [y r + T(r)] = y - w(r) = 0 at
    r(y), so an error in r enters only at second order. T is read to a
    tolerance proportional to y, so the 1/y factor cannot amplify its error.
    """
    if not math.isfinite(w.h_max):
        raise InvalidParameterError("integral representation check needs finite h_max")
    lhs = channel_simulation_divergence(w, tol / 4.0)
    cuts = [b for b in w.breakpoints if 0.0 < b < w.h_max]
    tol_nats = tol * LN2

    def outer_integrand(ys: np.ndarray) -> np.ndarray:
        out = np.empty_like(ys)
        for i, (y, r) in enumerate(zip(ys.tolist(), w.ratio_inverse(ys).tolist())):
            tail = w.tail_integral(r, max(y * tol_nats / 4.0, 1e-15))
            if not tail.converged:
                raise QuadratureError(
                    f"inner tail integral of the representation check did not converge at y = {y!r}")
            out[i] = r + tail.value / y
        return out

    levels = sorted({float(v) for v in np.atleast_1d(w(np.asarray(cuts))) if 0.0 < v < 1.0}) \
        if cuts else []
    res = integrate_interval(outer_integrand, 0.0, 1.0, tol_nats / 2.0, levels)
    if not res.converged:
        raise QuadratureError("outer integral of the representation check did not converge")
    rhs = (res.value - 1.0) / LN2
    return lhs.value_bits, rhs
