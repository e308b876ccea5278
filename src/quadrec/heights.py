"""Places, absolute values, Weil heights, radicals, and quality statistics.

Every real-valued computation runs under a fixed 128-bit mantissa and is
rounded to float only at the boundary.  Finite absolute values are kept
exact as Fractions for as long as possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .certificates import cyclotomic_value
from .errors import UsageError
from .ring import (
    PrimeIdealData,
    QuadraticElement,
    QuadraticField,
    as_element,
    as_elements,
    euler_phi,
    field_norm,
    ideal_factors,
)

PRECISION = 128  # mantissa bits


@dataclass(frozen=True)
class PlaceValue:
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
        with mpmath.workprec(PRECISION):
            if isinstance(self.value, Fraction):
                return mpmath.log(self.value.numerator) - mpmath.log(
                    self.value.denominator)
            return mpmath.log(self.value)


def _degree(field: Optional[QuadraticField]) -> int:
    return 1 if field is None else 2


def _infinite_places(g: QuadraticElement) -> list[PlaceValue]:
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


def archimedean_height_sum(x) -> float:
    """Sum of the local contributions over the infinite places only."""
    g = as_element(x)
    if g.is_zero():
        raise UsageError("zero has no archimedean contribution")
    with mpmath.workprec(PRECISION):
        total = mpmath.mpf(0)
        for pv in _infinite_places(g):
            total += max(pv.log_value(), mpmath.mpf(0))
        return float(total / _degree(g.field))


def log_norm(obj) -> float:
    """log|N(.)| / [K:Q] of a prime ideal or a nonzero element."""
    with mpmath.workprec(PRECISION):
        if isinstance(obj, PrimeIdealData):
            return float(mpmath.log(obj.norm) / _degree(obj.field))
        g = obj if isinstance(obj, QuadraticElement) else as_element(obj)
        if g.is_zero():
            raise UsageError("log-norm of zero is undefined")
        nrm = field_norm(g)
        lv = mpmath.log(abs(nrm.numerator)) - mpmath.log(nrm.denominator)
        return float(lv / _degree(g.field))


def _valuation_rows(xs) -> list[tuple[PrimeIdealData, list[int]]]:
    """(P, [v_P(x) for x in xs]) for every prime ideal P dividing some x,
    in order of first appearance."""
    rows: dict[str, tuple[PrimeIdealData, list[int]]] = {}
    for i, g in enumerate(xs):
        for P, v in ideal_factors(g):
            rows.setdefault(P.label(), (P, [0] * len(xs)))[1][i] = v
    return list(rows.values())


def triple_height(x1, x2, x3) -> float:
    """Projective height of (x1 : x2 : x3)."""
    xs = as_elements((x1, x2, x3))
    nz = [g for g in xs if not g.is_zero()]
    if not nz:
        raise UsageError("the zero triple has no height")
    deg = _degree(nz[0].field)
    with mpmath.workprec(PRECISION):
        total = mpmath.mpf(0)
        for P, vrow in _valuation_rows(nz):
            m = min(vrow)
            if m:
                total -= m * mpmath.log(P.norm)
        per_place = zip(*(_infinite_places(g) for g in nz))
        for column in per_place:
            total += max(pv.log_value() for pv in column)
        return float(total / deg)


def radical(x1, x2, x3) -> float:
    """Sum of log-norms over the primes where the coordinate valuations
    do not all agree."""
    xs = as_elements((x1, x2, x3))
    if any(g.is_zero() for g in xs):
        raise UsageError("radical requires nonzero coordinates")
    deg = _degree(xs[0].field)
    with mpmath.workprec(PRECISION):
        total = mpmath.mpf(0)
        for P, vrow in _valuation_rows(xs):
            if len(set(vrow)) > 1:
                total += mpmath.log(P.norm)
        return float(total / deg)


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
    return _quality(triple_height(*xs), radical(*xs))


def _quality(h: float, r: float) -> float:
    """h / r; a zero radical gives math.inf at positive height, else 0.0."""
    if r == 0.0:
        return math.inf if h > 0 else 0.0
    return h / r


@dataclass(frozen=True)
class PhiRatio:
    ratio: float   # log-norm of the cyclotomic value over phi(n)
    target: float  # archimedean height sum of the base, the n -> inf limit


def phi_norm_ratio(gamma, n: int) -> PhiRatio:
    g = as_element(gamma)
    ratio = log_norm(cyclotomic_value(g, n)) / euler_phi(n)
    return PhiRatio(ratio, archimedean_height_sum(g))


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
