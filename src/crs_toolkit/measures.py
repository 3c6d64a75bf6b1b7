"""Target/proposal pairs: one class per family.

A family lives in one frozen dataclass that is both the validated spec and
the pair: its width, closed-form KL and KL route, JSON descriptor and parser
(the `verify` suite format), proposal draws and density ratio. FAMILIES maps
each family tag to its class and drives suite files and the CLI alike.

Sample spaces are concrete carriers: real scalars (laplace, synthetic on the
unit interval), real vectors (gaussian product pairs with equal
per-dimension mean and scale), and integer indices (discrete). Pairs are
immutable after construction and safe to share across threads; all
randomness flows through keyed RngStream substreams.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

from .errors import InvalidParameterError
from .width import (
    GaussianWidth,
    LaplaceWidth,
    WidthFunction,
    equality_case_width,
    gaussian_log_ratio_constants,
    indicator_width,
    read_width_table,
    two_level_width,
    width_from_discrete,
    width_from_table,
)

LN2 = math.log(2.0)

_SUM_TOL = 1e-12


def json_number(obj: dict, key: str) -> float:
    """obj[key] as a float; a value that is not a number raises naming the key."""
    try:
        return float(obj[key])
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{key!r} must be a number, got {obj[key]!r}") from None


class DistributionPair:
    """A concrete (Q, P) pair: proposal sampling plus the density ratio.

    Each family subclass is a frozen dataclass whose __post_init__ validates
    the fields and caches derived values through vars(self). By default the
    fields are the numeric keys of the family's descriptor.
    """

    family: ClassVar[str]
    kl_route: ClassVar[str] = "closed_form"

    def width(self) -> WidthFunction:
        """Analytic width function w(h) = P(dQ/dP >= h)."""
        raise NotImplementedError

    def kl_bits(self) -> float:
        """Closed-form D_KL in bits."""
        raise InvalidParameterError(
            f"no closed-form KL for family {self.family!r}; use the width_identity route")

    @classmethod
    def from_json(cls, obj: dict) -> DistributionPair:
        """Spec from its descriptor; a missing key raises KeyError."""
        return cls(*(json_number(obj, f.name) for f in fields(cls)))

    def descriptor(self) -> dict:
        """JSON descriptor in the verify suite format."""
        return {"family": self.family, **asdict(self)}

    def log_ratio(self, x) -> np.ndarray:
        """ln(dQ/dP) at points of P's support, vectorized."""
        raise NotImplementedError

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n proposal draws from an already-positioned generator."""
        raise NotImplementedError


@dataclass(frozen=True)
class LaplaceSpec(DistributionPair):
    """Q = Laplace(0, b) against P = Laplace(0, 1), 0 < b <= 1."""

    b: float
    family = "laplace"

    def __post_init__(self):
        if not (0.0 < self.b <= 1.0):
            raise InvalidParameterError(f"laplace scale must be in (0, 1], got {self.b}")

    def width(self) -> WidthFunction:
        return indicator_width() if self.b == 1.0 else LaplaceWidth(self.b)

    def kl_bits(self) -> float:
        return (self.b - 1.0 - math.log(self.b)) / LN2

    def log_ratio(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -math.log(self.b) - np.abs(x) * (1.0 - self.b) / self.b

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.laplace(0.0, 1.0, n)


@dataclass(frozen=True)
class GaussianSpec(DistributionPair):
    """Q = N(mu, sigma^2)^d against P = N(0, 1)^d, 0 < sigma < 1."""

    mu: float
    sigma: float
    d: int
    family = "gaussian"

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise InvalidParameterError(f"gaussian mu must be finite, got {self.mu}")
        if not (0.0 < self.sigma < 1.0):
            raise InvalidParameterError(f"gaussian sigma must be in (0, 1), got {self.sigma}")
        if not (self.d >= 1 and self.d % 1 == 0):  # NaN and inf fail too
            raise InvalidParameterError(
                f"gaussian dimension d must be a positive integer, got {self.d}")
        a, c, t0 = gaussian_log_ratio_constants(self.mu, self.sigma)
        vars(self).update(d=int(self.d), a=a, c=c, t0=t0)

    def width(self) -> WidthFunction:
        return GaussianWidth(self.mu, self.sigma, self.d)

    def kl_bits(self) -> float:
        per_dim = -math.log(self.sigma) + (self.sigma**2 + self.mu**2 - 1.0) / 2.0
        return self.d * per_dim / LN2

    def log_ratio(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.d == 1 and x.ndim <= 1:
            per_dim = self.t0 - self.a * (x - self.c) ** 2
            return np.atleast_1d(per_dim)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.d:
            raise InvalidParameterError(f"points must have dimension {self.d}")
        return self.d * self.t0 - self.a * np.sum((x - self.c) ** 2, axis=-1)

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        draws = gen.standard_normal((n, self.d))
        return draws[:, 0] if self.d == 1 else draws


@dataclass(frozen=True)
class DiscreteSpec(DistributionPair):
    """Probability vectors (q, p) of equal length with Q << P."""

    q: tuple[float, ...]
    p: tuple[float, ...]
    family = "discrete"

    def __post_init__(self):
        q = np.array(self.q, dtype=float)  # copies: the arrays are cached below
        p = np.array(self.p, dtype=float)
        if q.ndim != 1 or q.shape != p.shape or q.size == 0:
            raise InvalidParameterError("q and p must be equal-length non-empty vectors")
        if not (np.all(q >= 0.0) and np.all(p >= 0.0)):  # NaN fails too
            raise InvalidParameterError("probability vectors must be non-negative")
        if abs(q.sum() - 1.0) > _SUM_TOL or abs(p.sum() - 1.0) > _SUM_TOL:
            raise InvalidParameterError("q and p must each sum to 1 within 1e-12")
        if np.any((q > 0.0) & (p == 0.0)):
            raise InvalidParameterError("Q is not absolutely continuous w.r.t. P")
        log_ratios = np.full_like(q, np.nan)  # NaN marks the points outside P's support
        np.divide(q, p, out=log_ratios, where=p > 0.0)
        with np.errstate(divide="ignore"):  # an atom with q = 0 has log ratio -inf
            np.log(log_ratios, out=log_ratios, where=p > 0.0)
        # pinned at 1 from the last atom with p > 0, so that no u < 1 maps past it
        cum_p = np.cumsum(p)
        cum_p[np.flatnonzero(p)[-1]:] = 1.0
        vars(self).update(
            q=tuple(float(v) for v in q), p=tuple(float(v) for v in p),
            _q=q, _p=p, _cum_p=cum_p, _log_ratios=log_ratios)

    @classmethod
    def from_json(cls, obj: dict) -> DiscreteSpec:
        return discrete_spec(obj["q"], obj["p"])

    def descriptor(self) -> dict:
        return {"family": "discrete", "q": list(self.q), "p": list(self.p)}

    def width(self) -> WidthFunction:
        return width_from_discrete(self.q, self.p)

    def kl_bits(self) -> float:
        q, p, m = self._q, self._p, self._q > 0.0
        return float(np.sum(q[m] * np.log(q[m] / p[m]))) / LN2

    def log_ratio(self, x) -> np.ndarray:
        idx = np.atleast_1d(np.asarray(x))
        if not np.issubdtype(idx.dtype, np.integer):
            if np.any(idx != np.floor(idx)):
                raise InvalidParameterError("discrete points are integer indices")
            idx = idx.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.q)):
            raise InvalidParameterError("index outside the alphabet")
        out = self._log_ratios[idx]
        if math.isnan(out.sum()):  # NaN iff some term is: the table holds no +inf
            raise InvalidParameterError("point outside the support of P")
        return out

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """The atom i with cum_p[i - 1] <= u < cum_p[i], for u = gen.random(n)."""
        return np.searchsorted(self._cum_p, gen.random(n), side="right")


@dataclass(frozen=True)
class SyntheticSpec(DistributionPair):
    """P = Uniform(0, 1); dQ/dP is the decreasing generalized inverse of w.

    Its KL has no closed form and goes by the width identity.
    """

    w: WidthFunction
    family = "synthetic"
    kl_route = "width_identity"

    def __post_init__(self):
        if not isinstance(self.w, WidthFunction):
            raise InvalidParameterError("synthetic spec needs a WidthFunction")
        mass = self.w.tail_integral(0.0).value
        if abs(mass - 1.0) > 1e-9:
            raise InvalidParameterError(
                f"synthetic width mass {mass!r} differs from 1 by more than 1e-9")

    @classmethod
    def from_json(cls, obj: dict) -> SyntheticSpec:
        kind = obj["width"]
        if kind == "equality":
            return cls(equality_case_width(json_number(obj, "c")))
        if kind == "two_level":
            return cls(two_level_width(json_number(obj, "eps")))
        if kind == "table":
            return cls(width_from_table(read_width_table(str(obj["path"]))))
        raise InvalidParameterError(f"unknown synthetic width descriptor {kind!r}")

    def descriptor(self) -> dict:
        return {"family": "synthetic", "width": getattr(self.w, "label", type(self.w).__name__)}

    def width(self) -> WidthFunction:
        return self.w

    def log_ratio(self, x) -> np.ndarray:
        with np.errstate(divide="ignore"):  # a ratio of 0 has log -inf
            return np.log(self.w.ratio_inverse(x))

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        # gen.random gives k 2^-53, k < 2^53; ratio_inverse needs u > 0, so
        # the cell [0, 2^-53) is read at its midpoint
        return np.maximum(gen.random(n), 2.0**-54)


FAMILIES: dict[str, type[DistributionPair]] = {
    cls.family: cls for cls in (LaplaceSpec, GaussianSpec, DiscreteSpec, SyntheticSpec)}


def make_pair(spec: DistributionPair) -> DistributionPair:
    """The pair of a validated spec: the spec itself, as each family class is both."""
    return spec


def discrete_spec(q: Sequence[float], p: Sequence[float]) -> DiscreteSpec:
    return DiscreteSpec(tuple(float(v) for v in q), tuple(float(v) for v in p))
