"""Places, absolute values, Weil heights, radicals, and quality statistics.

Every real-valued computation runs under a fixed 128-bit mantissa and is
rounded to float only at the boundary.  Finite absolute values are kept
exact as Fractions for as long as possible.  mpmath is imported inside
the functions that call it, so a command that computes no height never
loads it.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .certificates import cyclotomic_factors, cyclotomic_value
from .errors import UsageError
from .factor import euler_phi
from .record import Record
from .ring import (
    PrimeIdealData,
    QuadraticElement,
    QuadraticField,
    as_element,
    as_elements,
    field_norm,
    ideal_factors,
    is_torsion,
)

PRECISION = 128  # mantissa bits


class PlaceValue(Record):
    """The normalized absolute value of one element at one place.

    For a finite place the value is N(P)^(-v), exact.  For an infinite place
    it is |sigma(x)|^weight: weight 1 per real embedding, weight 2 for the
    single complex place (where |sigma(x)|^2 = N(x) is again exact).
    """

    kind: str  # "finite" | "infinite"
    value: object  # Fraction or mpf
    ideal: Optional[PrimeIdealData] = None
    weight: int = 1

    def log_value(self):
        import mpmath
        with mpmath.workprec(PRECISION):
            if isinstance(self.value, Fraction):
                return mpmath.log(self.value.numerator) - mpmath.log(
                    self.value.denominator)
            return mpmath.log(self.value)


def _degree(field: Optional[QuadraticField]) -> int:
    return 1 if field is None else 2


def _infinite_places(g: QuadraticElement) -> list[PlaceValue]:
    import mpmath
    with mpmath.workprec(PRECISION):
        if g.field is None:
            return [PlaceValue("infinite", abs(Fraction(g.num_a, g.den)))]
        f = g.field
        if f.d < 0:
            # one complex place; the square of the modulus is the norm
            return [PlaceValue("infinite", field_norm(g), weight=2)]
        # sigma_+-(g) = (A +- b*sqrt(disc))/(2*den) with A = 2a + t*b: the
        # conjugate whose terms share a sign is summed, with no cancellation,
        # and the other is |N(g)| divided by it
        A, b = 2 * g.num_a + f.omega_trace * g.num_b, g.num_b
        big = (abs(A) + abs(b) * mpmath.sqrt(f.disc)) / (2 * g.den)
        nrm = abs(field_norm(g))
        small = mpmath.mpf(nrm.numerator) / nrm.denominator / big
        vals = (big, small) if A * b >= 0 else (small, big)
        return [PlaceValue("infinite", v) for v in vals]


def local_values(x) -> list[PlaceValue]:
    """Finite places where the absolute value differs from 1, then all
    infinite places."""
    g = as_element(x)
    if g.is_zero():
        raise UsageError("zero has no place decomposition")
    out = []
    for P, v in ideal_factors(g):
        out.append(PlaceValue("finite", Fraction(P.norm) ** (-v), ideal=P))
    out.extend(_infinite_places(g))
    return out


def element_height(x) -> float:
    """Absolute logarithmic Weil height: the height of (x : 1 : 1)."""
    g = as_element(x)
    if g.is_zero():
        raise UsageError("height of zero is undefined")
    return triple_height(g, 1, 1)


def log_norm(obj) -> float:
    """log|N(.)| / [K:Q] of a prime ideal or a nonzero element."""
    import mpmath
    with mpmath.workprec(PRECISION):
        if isinstance(obj, PrimeIdealData):
            return float(mpmath.log(obj.norm) / _degree(obj.field))
        g = obj if isinstance(obj, QuadraticElement) else as_element(obj)
        if g.is_zero():
            raise UsageError("log-norm of zero is undefined")
        nrm = field_norm(g)
        lv = mpmath.log(abs(nrm.numerator)) - mpmath.log(nrm.denominator)
        return float(lv / _degree(g.field))


def _valuation_rows(factor_lists) -> list[tuple[PrimeIdealData, list[int]]]:
    """(P, [v_P(x) for each x]) for every prime ideal P in the
    ideal_factors lists, one per x, in order of first appearance."""
    rows: dict[str, tuple[PrimeIdealData, list[int]]] = {}
    for i, factors in enumerate(factor_lists):
        for P, v in factors:
            rows.setdefault(P.label(), (P, [0] * len(factor_lists)))[1][i] = v
    return list(rows.values())


def _height_radical(xs, factor_lists) -> tuple[float, float]:
    """Height of the point xs and its radical, from one ideal_factors list
    per coordinate."""
    import mpmath
    with mpmath.workprec(PRECISION):
        h = r = mpmath.mpf(0)
        for P, vrow in _valuation_rows(factor_lists):
            m = min(vrow)
            if m:
                h -= m * mpmath.log(P.norm)
            if len(set(vrow)) > 1:
                r += mpmath.log(P.norm)
        for column in zip(*(_infinite_places(g) for g in xs)):
            h += max(pv.log_value() for pv in column)
        deg = _degree(xs[0].field)
        return float(h / deg), float(r / deg)


def triple_height(x1, x2, x3) -> float:
    """Projective height of (x1 : x2 : x3)."""
    nz = [g for g in as_elements((x1, x2, x3)) if not g.is_zero()]
    if not nz:
        raise UsageError("the zero triple has no height")
    return _height_radical(nz, [ideal_factors(g) for g in nz])[0]


def radical(x1, x2, x3) -> float:
    """Sum of log-norms over the primes where the coordinate valuations
    do not all agree."""
    xs = as_elements((x1, x2, x3))
    if any(g.is_zero() for g in xs):
        raise UsageError("radical requires nonzero coordinates")
    return _height_radical(xs, [ideal_factors(g) for g in xs])[1]


def abc_quality(x1, x2, x3) -> float:
    """Height-to-radical ratio of a zero-sum triple.

    A radical of zero with positive height reports math.inf instead of
    raising; callers treat that as the degenerate-quality flag.
    """
    xs = as_elements((x1, x2, x3))
    if any(g.is_zero() for g in xs):
        raise UsageError("quality requires nonzero coordinates")
    if not (xs[0] + xs[1] + xs[2]).is_zero():
        raise UsageError("quality is defined for zero-sum triples only")
    return _quality(*_height_radical(xs, [ideal_factors(g) for g in xs]))


def power_triples(gamma, n_from: int, n_to: int) -> list[tuple]:
    """(n, h, rad, q) of the triple (gamma^n, -1, 1 - gamma^n) for n_from <=
    n <= n_to.  Nothing is factored but gamma and each Phi_d(gamma), once:
    v_P(1 - gamma^n) is the sum of v_P(Phi_d(gamma)) over d | n, and the
    rows keep the order that _valuation_rows gives on the whole triple, so
    every float equals that of the general route."""
    g = as_element(gamma)
    if g.is_zero():
        raise UsageError("zero base has no power triples")
    if is_torsion(g):
        raise UsageError("cyclotomic values need a non-torsion base")
    base = ideal_factors(g)
    cyclo = functools.cache(lambda d: cyclotomic_factors(g, d))
    out = []
    for n in range(n_from, n_to + 1):
        per_d = [cyclo(d) for d in range(1, n + 1) if n % d == 0]
        tail = sorted(((P, sum(vs)) for P, vs in _valuation_rows(per_d)),
                      key=lambda pv: (pv[0].p, pv[0].label()))
        power = g ** n
        h, r = _height_radical((power, as_element(-1, g.field), 1 - power),
                               [[(P, n * v) for P, v in base], [], tail])
        out.append((n, h, r, _quality(h, r)))
    return out


def _quality(h: float, r: float) -> float:
    """h / r; a zero radical gives math.inf at positive height, else 0.0."""
    if r == 0.0:
        return math.inf if h > 0 else 0.0
    return h / r


class PhiRatio(Record):
    ratio: float   # log-norm of the cyclotomic value over phi(n)
    target: float  # h(gamma : 1) at the infinite places, the n -> inf limit


def phi_norm_ratio(gamma, n: int) -> PhiRatio:
    g = as_element(gamma)
    if g.is_zero():
        raise UsageError("zero has no archimedean contribution")
    ratio = log_norm(cyclotomic_value(g, n)) / euler_phi(n)
    return PhiRatio(ratio, _height_radical(as_elements((g, 1)), [[], []])[0])


def totient_density(Y: int, delta: float) -> tuple[int, float]:
    """Count of n <= Y with phi(n) >= delta * n, and the guaranteed lower
    bound (6/pi^2 - delta) * Y it must beat."""
    if Y < 1:
        raise UsageError("Y must be >= 1")
    if not 0 < delta < 6 / math.pi ** 2:
        raise UsageError("delta must sit in (0, 6/pi^2)")
    phi = list(range(Y + 1))
    for p in range(2, Y + 1):
        if phi[p] == p:  # p survived untouched, hence prime
            for m in range(p, Y + 1, p):
                phi[m] -= phi[m] // p
    count = sum(1 for m in range(1, Y + 1) if phi[m] >= delta * m)
    return count, (6 / math.pi ** 2 - delta) * Y
