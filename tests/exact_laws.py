"""Exact GRS index laws of step widths, in `decimal` arithmetic.

A step width's orbit is a finite list of exact band steps and geometric
blocks, each summable in closed form, so H[K] and E[K] can be summed with
no truncation: the block on the last segment never ends and is summed to
infinity. The result is exact up to the context precision, about 50 digits
here, far below the float code's rounding.

The exact width. A float StepWidth has mass T(0) = 1 only up to rounding,
while the orbit starts from S_1 = 1. The oracle takes the width's float
edges and values as exact decimals, computes the exact mass M = T(0), and
rescales h by it: the width it sums is w(M h), with edges e_j / M and the
same values, whose mass is exactly 1. Its orbit is L_1 = 0, S_k = T(L_k),
L_{k+1} = L_k + S_k, as in the package (see grs.py).
"""
from __future__ import annotations

import bisect
from decimal import ROUND_FLOOR, Decimal, localcontext

PRECISION = 50


def _ln_one_minus(v: Decimal) -> Decimal:
    """ln(1 - v) for 0 < v < 1, by its series where 1 - v would lose digits."""
    if v >= Decimal("1e-3"):
        return (1 - v).ln()
    total, term, k = Decimal(0), v, 1
    while term / k > Decimal(10) ** (-PRECISION - 5) * v:
        total -= term / k
        term, k = term * v, k + 1
    return total


def exact_law(w) -> tuple[Decimal, Decimal]:
    """(H[K] in bits, E[K]) of the index law of StepWidth w, rescaled to mass 1."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        values = [Decimal(v) for v in w.values.tolist()]
        raw = [Decimal(e) for e in w.edges.tolist()]
        mass = sum(v * (b - a) for v, a, b in zip(values, raw, raw[1:]))
        edges = [e / mass for e in raw]
        last = len(values) - 1
        above = [Decimal(0)] * len(edges)  # above[j] = T(edges[j])
        for j in range(last, -1, -1):
            above[j] = above[j + 1] + values[j] * (edges[j + 1] - edges[j])

        def segment(h: Decimal) -> int:
            return min(bisect.bisect_right(edges, h) - 1, last)

        def tail(h: Decimal) -> Decimal:
            if h >= edges[-1]:
                return Decimal(0)
            j = segment(h)
            return values[j] * (edges[j + 1] - h) + above[j + 1]

        L, S, H, E = Decimal(0), Decimal(1), Decimal(0), Decimal(0)  # H in nats
        while S > 0:
            j = segment(L)
            v, right = values[j], edges[j + 1]
            if v == 1 or (j < last and L + S > right):  # one band step
                S_next = tail(L + S)
                p = S - S_next
                if p > 0:
                    H -= p * p.ln()
                E += S
                L, S = L + S, S_next
                continue
            # a block p_i = S v r^i, i < m, r = 1 - v: to the segment's end,
            # where L_i + S_i first passes it, or without end on the last one
            ln_r = _ln_one_minus(v)
            if j == last:
                m, r_m = 0, Decimal(0)  # m r^m -> 0
            else:
                rhs = (L + S / v - right) / (S * (1 / v - 1))
                m = int((rhs.ln() / ln_r).to_integral_value(rounding=ROUND_FLOOR)) + 1
                r_m = (m * ln_r).exp()
            one_minus_r_m = 1 - r_m
            block_mass = S * one_minus_r_m
            sum_i_r_i = (one_minus_r_m * (1 - v) / v - m * r_m) / v
            H += -(S * v).ln() * block_mass - ln_r * S * v * sum_i_r_i
            E += block_mass / v
            L, S = L + block_mass / v, S * r_m
        return H / Decimal(2).ln(), E
