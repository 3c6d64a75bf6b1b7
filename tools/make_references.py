"""Write tests/reference_values.py: 40-digit mpmath values behind pinned tests.

Run from the repository root, with mpmath installed:

    PYTHONPATH=src python tools/make_references.py

The tests import only the literals this writes, so the test suite itself
needs no mpmath, and CI never runs this script. Each value is computed at
60 working digits from the exact float inputs written next to it.

Gaussian widths. With a = 1/(2 sigma^2) - 1/2, c = mu/(1 - sigma^2) and the
peak log-ratio t0, the width is w(h) = F_P(x) at x = (d t0 - ln h)/a, and
the tail is the layer cake T(h) = F_Q(x / sigma^2) - h F_P(x). F_P and F_Q
are noncentral chi-square CDFs with d degrees of freedom and noncentralities
d c^2 and d (mu - c)^2 / sigma^2, summed here as Poisson mixtures of
regularized lower incomplete gammas. The ratio r(u) is h_max exp(-a x) at
the root x of F_P(x) = u, found by Illinois regula falsi.

The LaplaceWidth(0.5) index law. Its width is w(h) = 1 - h/2 on [0, 2], so
with delta = 1 - h/2 the tail is T = delta^2 and the orbit is the exact map
delta -> delta - delta^2/2 from delta_1 = 1, with p_k = delta_k^2 -
delta_{k+1}^2 = delta_k^3 (1 - delta_k/4). H[K] is enclosed by the dense sum
over the first 10^6 steps and that sum plus the max-entropy bound on the
rest, s (log2 m - 2 log2 s + log2 e) with s = delta^2 the survival and
m = 2 delta = h_max - L the mean tail after them: about 2.4e-10 bits apart.

The extremal widths. OptimalCsWidth(alpha) has w = min(1, (h/alpha)^-p),
p = 1/(1 - alpha), so T(h) = 1 - h up to alpha and (1 - alpha)(h/alpha)^(1-p)
beyond. OptimalAcsWidth(alpha) has w = 1/(1 + (beta h)^alpha), and T is the
regularized incomplete beta I_y(1 - 1/alpha, 1/alpha) at y = 1/(1 + (beta h)^alpha),
written through its complement where y > 1/2. Each value is also integrated
by tanh-sinh quadrature, in ln h beyond the width's scale, and the script
stops if the two disagree beyond 1e-45 relative.

The whole script takes about 40 s on a 2-vCPU x86 host, most of it in the
Laplace sum.
"""
from __future__ import annotations

import os
import sys

import mpmath as mp

mp.mp.dps = 60
DIGITS = 40
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tests", "reference_values.py")


def ncx2_cdf(x, df, nc):
    """Noncentral chi-square CDF: the Poisson(nc/2) mixture of central CDFs.

    Past j = 2 lam both the Poisson weights and the central CDFs fall with j,
    each term by a factor of at least 2, so the tail after a term is below
    that term: stop once it is negligible at the working precision.
    """
    if x <= 0:
        return mp.mpf(0)
    lam, z, half = mp.mpf(nc) / 2, mp.mpf(x) / 2, mp.mpf(df) / 2
    if lam == 0:
        return mp.gammainc(half, 0, z, regularized=True)
    total, j = mp.mpf(0), 0
    small = mp.mpf(10) ** (-mp.mp.dps - 5)
    while True:
        log_weight = j * mp.log(lam) - lam - mp.loggamma(j + 1)
        term = mp.exp(log_weight) * mp.gammainc(half + j, 0, z, regularized=True)
        total += term
        if j + 1 >= 2 * lam and term <= small * total:
            return total
        j += 1


class Gaussian:
    """The exact constants of GaussianWidth(mu, sigma, d) at float inputs."""

    def __init__(self, mu: float, sigma: float, d: int):
        self.mu, self.sigma, self.d = mu, sigma, d
        m, s = mp.mpf(mu), mp.mpf(sigma)
        self.a = 1 / (2 * s**2) - mp.mpf(1) / 2
        self.c = m / (1 - s**2)
        t0 = -mp.log(s) - (self.c - m) ** 2 / (2 * s**2) + self.c**2 / 2
        self.ln_h_max = d * t0
        self.s2 = s**2
        self.nc_p = d * self.c**2
        self.nc_q = d * (m - self.c) ** 2 / s**2

    def x_of(self, h: float):
        return (self.ln_h_max - mp.log(mp.mpf(h))) / self.a

    def h_of(self, x) -> float:
        """The float nearest h_max exp(-a x): an input, exact once rounded."""
        return float(mp.exp(self.ln_h_max - self.a * x))

    def w(self, h: float):
        return ncx2_cdf(self.x_of(h), self.d, self.nc_p)

    def tail(self, h: float):
        x = self.x_of(h)
        return ncx2_cdf(x / self.s2, self.d, self.nc_q) - mp.mpf(h) * ncx2_cdf(x, self.d, self.nc_p)

    def ratio_inverse(self, u: float):
        """r(u): the h whose w(h) is u, so h_max exp(-a x) at F_P(x) = u."""
        # Illinois regula falsi keeps the sign change of F_P - u bracketed;
        # its Anderson-Bjorck variant, "anderson", raised "Could not find
        # root" at (0, 0.6, 1), u = 0.9
        x = mp.findroot(lambda t: ncx2_cdf(t, self.d, self.nc_p) - u,
                        (mp.mpf(0), mp.mpf(4) * (self.d + self.nc_p) + 40),
                        solver="illinois", tol=mp.mpf(10) ** -50)
        return mp.exp(self.ln_h_max - self.a * x)


# (mu, sigma, d, x of the deep lower-tail point): the three default-suite
# Gaussians and two wide ones; for d <= 2 the deep lower tail of F_P lies
# within a few ulp of h_max, so the near-h_max points stand for it
GAUSSIANS = [
    (1.0, 0.5, 1, None),
    (0.0, 0.6, 1, None),
    (1.0, 0.5, 2, None),
    (1.0, 0.5, 64, 11.35),
    (1.0, 0.5, 206, 70.0),
]
# relative distances below h_max of the near-h_max points; 1e-8 puts the
# first width's T in its quadrature branch
NEAR_H_MAX = {(1.0, 0.5, 1): (1e-6, 1e-8)}
NEAR_H_MAX_DEFAULT = (1e-6,)
# a w below this is left out: the package's w is at or near underflow there
SMALLEST = 1e-300

RATIO_INVERSE_U = (0.1, 0.25, 0.5, 0.9)
# Gaussians in more dimensions whose r(u) is also written, at the same u; at
# d = 64, r lies far below h_max * 2^-147 (r(0.5) is about 3.9e-78)
RATIO_INVERSE_MORE = ((1.0, 0.5, 2), (1.0, 0.5, 64))
LAPLACE_HALF_STEPS = 10**6

OPTIMAL_CS_ALPHAS = (0.1, 0.5, 0.9)
OPTIMAL_ACS_ALPHAS = (1.5, 2.0, 3.0, 6.0)
# h = 0 is the mass, 1; the points straddle alpha and 1/beta, and at the
# last, h/alpha and beta h overflow (a T below the float range reads as 0.0)
EXTREMAL_H = (0.0, 1e-300, 1e-8, 0.05, 0.3, 0.5, 0.7, 0.9, 1.0, 3.0, 100.0, 1e6, 1e12,
              1e300, 1.7e308)


class OptimalCs:
    """OptimalCsWidth(alpha) at the float alpha: w and its closed-form T."""

    def __init__(self, alpha: float):
        self.alpha = mp.mpf(alpha)
        self.p = 1 / (1 - self.alpha)
        self.scale = self.alpha  # w is 1 below, a power beyond

    def w(self, t):
        return min(mp.mpf(1), (t / self.alpha) ** -self.p)

    def tail(self, h):
        a = self.alpha
        return 1 - h if h <= a else (1 - a) * (h / a) ** (1 - self.p)


class OptimalAcs:
    """OptimalAcsWidth(alpha) at the float alpha, with beta exact."""

    def __init__(self, alpha: float):
        self.alpha = mp.mpf(alpha)
        self.beta = (mp.pi / self.alpha) / mp.sin(mp.pi / self.alpha)
        self.scale = 1 / self.beta  # the power tail sets in beyond

    def w(self, t):
        return 1 / (1 + (self.beta * t) ** self.alpha)

    def tail(self, h):
        if h == 0:
            return mp.mpf(1)
        a = 1 / self.alpha
        z = (self.beta * h) ** self.alpha
        if z >= 1:
            return mp.betainc(1 - a, a, 0, 1 / (1 + z), regularized=True)
        return 1 - mp.betainc(a, 1 - a, 0, z / (1 + z), regularized=True)


def tail_by_quadrature(width, h):
    """T(h) by tanh-sinh: in h up to the width's scale, then in v = ln(t/k)
    from k = max(h, scale), with the integrand divided by w(k) k so that it
    starts at 1 and the quadrature's absolute stop is a relative one."""
    k = max(h, width.scale)
    head = mp.quad(width.w, [h, k]) if k > h else mp.mpf(0)
    wk = width.w(k)
    rest = mp.quad(lambda v: width.w(k * mp.exp(v)) * mp.exp(v) / wk, [0, 1, 4, 16, 64, mp.inf])
    return head + wk * k * rest


def extremal_rows(cls, alphas) -> list[str]:
    rows = []
    for alpha in alphas:
        width = cls(alpha)
        for h in EXTREMAL_H:
            t = width.tail(mp.mpf(h))
            quad = tail_by_quadrature(width, mp.mpf(h))
            if abs(t - quad) > mp.mpf(10) ** -45 * t:
                raise SystemExit(f"{cls.__name__}({alpha}) at h = {h!r}: closed form {t} "
                                 f"and quadrature {quad} disagree")
            print(f"{cls.__name__}({alpha}) h={h!r}: T={mp.nstr(t, 8)}", file=sys.stderr)
            rows.append(f"    ({alpha!r}, {h!r}, {fmt(t)}),")
    return rows


def fmt(v) -> str:
    return mp.nstr(v, DIGITS, min_fixed=-4, max_fixed=4)


def gaussian_row(g: Gaussian, h: float) -> str | None:
    w, t = g.w(h), g.tail(h)
    print(f"gaussian mu={g.mu} sigma={g.sigma} d={g.d} h={h!r}: w={mp.nstr(w, 8)} "
          f"T={mp.nstr(t, 8)}", file=sys.stderr)
    if w < SMALLEST:
        print("  skipped: w underflows", file=sys.stderr)
        return None
    return f"    ({g.mu!r}, {g.sigma!r}, {g.d!r}, {h!r},\n     {fmt(w)},\n     {fmt(t)}),"


def gaussian_rows() -> tuple[list[str], list[str]]:
    away, near = [], []
    for mu, sigma, d, x_deep in GAUSSIANS:
        g = Gaussian(mu, sigma, d)
        xs = [mp.mpf(d) + g.nc_p] + ([mp.mpf(x_deep)] if x_deep is not None else [])
        away += [gaussian_row(g, g.h_of(x)) for x in xs]
        h_max = float(mp.exp(g.ln_h_max))
        near += [gaussian_row(g, h_max * (1.0 - delta))
                 for delta in NEAR_H_MAX.get((mu, sigma, d), NEAR_H_MAX_DEFAULT)]
    return [r for r in away if r], [r for r in near if r]


def ratio_inverse_rows() -> list[str]:
    g = Gaussian(1.0, 0.5, 1)
    return [f"    ({u!r}, {fmt(g.ratio_inverse(u))})," for u in RATIO_INVERSE_U]


def more_ratio_inverse_rows() -> list[str]:
    rows = []
    for mu, sigma, d in RATIO_INVERSE_MORE:
        g = Gaussian(mu, sigma, d)
        for u in RATIO_INVERSE_U:
            r = g.ratio_inverse(u)
            print(f"gaussian mu={mu} sigma={sigma} d={d} u={u!r}: r={mp.nstr(r, 8)}",
                  file=sys.stderr)
            rows.append(f"    ({mu!r}, {sigma!r}, {d!r}, {u!r}, {fmt(r)}),")
    return rows


def laplace_half_entropy_row() -> str:
    """(steps, dense sum, dense sum plus the max-entropy bound), in bits."""
    d, nats = mp.mpf(1), mp.mpf(0)
    for _ in range(LAPLACE_HALF_STEPS):
        p = d**3 * (1 - d / 4)
        nats -= p * mp.log(p)
        d -= d * d / 2
    s, m = d * d, 2 * d
    lo, hi = nats / mp.ln(2), (nats + s * (mp.log(m) - 2 * mp.log(s) + 1)) / mp.ln(2)
    print(f"laplace b=0.5: H[K] in [{mp.nstr(lo, 20)}, {mp.nstr(hi, 20)}], "
          f"width {mp.nstr(hi - lo, 3)}", file=sys.stderr)
    return f"    {LAPLACE_HALF_STEPS!r},\n    {fmt(lo)},\n    {fmt(hi)},"


def main() -> None:
    away, near = gaussian_rows()
    lines = [
        '"""40-digit reference values, written by tools/make_references.py.',
        "",
        "Do not edit by hand: change the script and run it again. Each value is",
        "exact to the digits shown for the float inputs beside it.",
        '"""',
        "",
        "# GaussianWidth(mu, sigma, d) at h: (mu, sigma, d, h, w(h), T(h)), in the",
        "# bulk (x = d + noncentrality) and, for d >= 64, in the deep lower tail of",
        "# the noncentral chi-square",
        "GAUSSIAN_WIDTH = [",
        *away,
        "]",
        "",
        "# the same, at h = h_max (1 - delta) for delta = 1e-6 (and 1e-8 on the",
        "# first width); d = 206 is left out, as its w underflows there",
        "GAUSSIAN_WIDTH_NEAR_H_MAX = [",
        *near,
        "]",
        "",
        "# T(h) of OptimalCsWidth(alpha) and of OptimalAcsWidth(alpha): (alpha, h, T(h))",
        "OPTIMAL_CS_TAIL = [",
        *extremal_rows(OptimalCs, OPTIMAL_CS_ALPHAS),
        "]",
        "",
        "OPTIMAL_ACS_TAIL = [",
        *extremal_rows(OptimalAcs, OPTIMAL_ACS_ALPHAS),
        "]",
        "",
        "# GaussianWidth(1.0, 0.5, 1).ratio_inverse(u): (u, r(u))",
        "GAUSSIAN_RATIO_INVERSE = [",
        *ratio_inverse_rows(),
        "]",
        "",
        "# the same for GaussianWidth(mu, sigma, d) at d = 2 and d = 64: (mu, sigma, d, u, r(u))",
        "GAUSSIAN_RATIO_INVERSE_MORE = [",
        *more_ratio_inverse_rows(),
        "]",
        "",
        "# H[K] in bits of the LaplaceWidth(0.5) index law, whose orbit is the exact",
        "# map delta -> delta - delta^2/2: (steps, the dense sum over them, that sum",
        "# plus the max-entropy bound on the rest), an interval holding H[K]",
        "LAPLACE_HALF_ENTROPY = (",
        laplace_half_entropy_row(),
        ")",
        "",
    ]
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
