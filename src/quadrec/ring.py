"""Exact arithmetic in quadratic number fields Q(sqrt(d)).

Elements live on the integral basis (1, w), where w = (1+sqrt(d))/2 when
d = 1 mod 4 and w = sqrt(d) otherwise; the ring of integers is exactly the
den = 1 slice.  Plain rationals are the field = None case, which keeps one
code path for sequences over Q and over a quadratic field.

Everything here is immutable and pure; values can be shared freely.  The
integers' primality, factorization and sieve live in factor.py.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .errors import (DegenerateInputError, InvariantBreachError,
                     MixedFieldError, UsageError)
from .factor import _sqrt_mod_prime, _vp, factorize, is_prime, kronecker
from .record import Record

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# fields and elements


class QuadraticField(Record):
    """Q(sqrt(d)) for squarefree d; w satisfies w^2 - omega_trace*w + omega_norm = 0."""

    d: int
    disc: int
    omega_trace: int
    omega_norm: int


_FIELD_CACHE: dict[int, QuadraticField] = {}


def quadratic_field(d: int) -> QuadraticField:
    if d in _FIELD_CACHE:
        return _FIELD_CACHE[d]
    if d in (0, 1):
        raise UsageError(f"d={d} does not define a quadratic field")
    if any(e > 1 for e in factorize(abs(d)).values()):
        raise UsageError(f"d={d} is not squarefree")
    if d % 4 == 1:
        fld = QuadraticField(d, d, 1, (1 - d) // 4)
    else:
        fld = QuadraticField(d, 4 * d, 0, -d)
    _FIELD_CACHE[d] = fld
    return fld


class QuadraticElement(Record):
    """(num_a + num_b*w) / den, normalized: den > 0, gcd(num_a, num_b, den) = 1."""

    field: Optional[QuadraticField]
    num_a: int
    num_b: int
    den: int

    def __init__(self, field: Optional[QuadraticField], num_a: int, num_b: int,
                 den: int):
        if (den <= 0 or math.gcd(den, num_a, num_b) != 1
                or (field is None and num_b != 0)):
            raise ValueError(f"unnormalized element ({num_a} + {num_b}*w)/{den}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num_a", num_a)
        object.__setattr__(self, "num_b", num_b)
        object.__setattr__(self, "den", den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _make(field: Optional[QuadraticField], na: int, nb: int, den: int) -> "QuadraticElement":
        g = math.gcd(den, na, nb)  # den first: stops at a gcd of 1
        if g > 1:
            na, nb, den = na // g, nb // g, den // g
        return QuadraticElement(field, na, nb, den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num_a == 0 and self.num_b == 0

    def as_fraction(self) -> Fraction:
        if self.num_b != 0:
            raise ValueError("not a rational value")
        return Fraction(self.num_a, self.den)

    def with_field(self, field: QuadraticField) -> "QuadraticElement":
        if self.field is not None:
            if self.field != field:
                raise MixedFieldError("element already belongs to a different field")
            return self
        return QuadraticElement._make(field, self.num_a, 0, self.den)

    # -- arithmetic ---------------------------------------------------------

    def _join(self, other: "QuadraticElement") -> Optional[QuadraticField]:
        if self.field is None:
            return other.field
        if other.field is None or other.field == self.field:
            return self.field
        raise MixedFieldError("elements from different fields")

    def __add__(self, other) -> "QuadraticElement":
        other = as_element(other)
        f = self._join(other)
        return QuadraticElement._make(
            f,
            self.num_a * other.den + other.num_a * self.den,
            self.num_b * other.den + other.num_b * self.den,
            self.den * other.den,
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "QuadraticElement":
        return QuadraticElement(self.field, -self.num_a, -self.num_b, self.den)

    def __sub__(self, other):
        return self.__add__(-as_element(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> "QuadraticElement":
        other = as_element(other)
        f = self._join(other)
        t, n = (f.omega_trace, f.omega_norm) if f is not None else (0, 0)
        a1, b1, a2, b2 = self.num_a, self.num_b, other.num_a, other.num_b
        # (a1 + b1 w)(a2 + b2 w) with w^2 = t w - n
        return QuadraticElement._make(
            f,
            a1 * a2 - n * b1 * b2,
            a1 * b2 + a2 * b1 + t * b1 * b2,
            self.den * other.den,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def conjugate(self) -> "QuadraticElement":
        if self.field is None:
            return self
        t = self.field.omega_trace
        return QuadraticElement._make(
            self.field, self.num_a + t * self.num_b, -self.num_b, self.den
        )

    def inverse(self) -> "QuadraticElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.num_b == 0:
            sign = 1 if self.num_a > 0 else -1
            return QuadraticElement._make(self.field, sign * self.den, 0, abs(self.num_a))
        c = self.conjugate()
        nr = field_norm(self)  # = self * conjugate, a nonzero rational
        return QuadraticElement._make(
            self.field,
            c.num_a * nr.denominator * (1 if nr > 0 else -1),
            c.num_b * nr.denominator * (1 if nr > 0 else -1),
            c.den * abs(nr.numerator),
        )

    def __truediv__(self, other):
        return self.__mul__(as_element(other).inverse())

    def __rtruediv__(self, other):
        return as_element(other).__mul__(self.inverse())

    def __pow__(self, k: int) -> "QuadraticElement":
        if k < 0:
            return self.inverse() ** (-k)
        base = self
        acc = QuadraticElement(self.field, 1, 0, 1)
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __str__(self) -> str:
        if self.field is None or self.num_b == 0:
            return str(Fraction(self.num_a, self.den))
        s = f"{self.num_a}{'+' if self.num_b >= 0 else '-'}{abs(self.num_b)}*w"
        return f"({s})/{self.den}" if self.den != 1 else f"({s})"


def qelem(field: Optional[QuadraticField], a: Rational, b: Rational = 0,
          den: int = 1) -> QuadraticElement:
    """Element (a + b*w)/den with a, b rational and den a positive integer."""
    fa, fb = Fraction(a), Fraction(b)
    if fb != 0 and field is None:
        raise ValueError("a sqrt coordinate needs a field")
    l = fa.denominator * fb.denominator // math.gcd(fa.denominator, fb.denominator)
    return QuadraticElement._make(
        field,
        fa.numerator * (l // fa.denominator),
        fb.numerator * (l // fb.denominator),
        l * den,
    )


def as_element(v, field: Optional[QuadraticField] = None) -> QuadraticElement:
    if isinstance(v, QuadraticElement):
        return v.with_field(field) if field is not None else v
    if isinstance(v, (int, Fraction)):
        return qelem(field, v)
    raise TypeError(f"cannot coerce {type(v).__name__} to a field element")


def as_elements(values) -> list[QuadraticElement]:
    """Every value embedded in the one field that any of them carries;
    plain rationals when none carries a field."""
    xs = [as_element(v) for v in values]
    fields = {x.field for x in xs} - {None}
    if len(fields) > 1:
        raise MixedFieldError("elements from different fields")
    field = fields.pop() if fields else None
    return [as_element(x, field) for x in xs]


def sqrt_element(field: QuadraticField) -> QuadraticElement:
    """sqrt(d) itself on the (1, w) basis."""
    if field.d % 4 == 1:
        return qelem(field, -1, 2)  # 2w - 1
    return qelem(field, 0, 1)


def field_norm(x: QuadraticElement) -> Fraction:
    """Product of x over the Galois orbit; the identity map on plain rationals."""
    if x.field is None:
        return Fraction(x.num_a, x.den)
    t, n = x.field.omega_trace, x.field.omega_norm
    a, b = x.num_a, x.num_b
    return Fraction(a * a + t * a * b + n * b * b, x.den * x.den)


def is_torsion(x: QuadraticElement) -> bool:
    """Root-of-unity test; complete for degree <= 2 (finite torsion lists)."""
    if x.field is None:
        return x.as_fraction() in (1, -1)
    if x.den != 1:
        return False
    cands = [(1, 0), (-1, 0)]
    if x.field.d == -1:
        cands += [(0, 1), (0, -1)]  # w = i
    elif x.field.d == -3:
        # w = (1+sqrt(-3))/2 is a primitive 6th root of unity
        cands += [(0, 1), (0, -1), (1, -1), (-1, 1)]
    return (x.num_a, x.num_b) in cands


# ---------------------------------------------------------------------------
# prime ideals


class PrimeIdealData(Record):
    """A prime of Q (kind 'rational') or of a quadratic field, with splitting data.

    Built only by _prime_ideals_above.  hensel_root is the root of w's
    minimal polynomial mod p that P carries (split/ramified): the smaller one
    for the split ideal a, the larger for b.  conjugate_flag only names the
    ideal (label b); the root already says which one P is.
    """

    field: Optional[QuadraticField]
    p: int
    kind: str  # rational | split | inert | ramified
    f: int
    hensel_root: Optional[int]
    conjugate_flag: bool

    @property
    def norm(self) -> int:
        return self.p ** self.f

    @property
    def ram_index(self) -> int:
        return 2 if self.kind == "ramified" else 1

    def label(self) -> str:
        if self.kind == "rational":
            return str(self.p)
        suffix = {"split": "b" if self.conjugate_flag else "a",
                  "inert": "i", "ramified": "r"}[self.kind]
        return f"{self.p}{suffix}"


def _split_roots(field: QuadraticField, p: int) -> tuple[int, int]:
    """Both roots of w^2 - t w + n mod a split prime p, ascending."""
    t, n = field.omega_trace, field.omega_norm
    if p == 2:
        roots = [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
        if len(roots) != 2:
            raise InvariantBreachError(f"2 does not split in d={field.d}")
        return roots[0], roots[1]
    s = _sqrt_mod_prime(field.disc % p, p)
    inv2 = (p + 1) // 2
    c1, c2 = (t + s) * inv2 % p, (t - s) * inv2 % p
    if c1 == c2:
        raise InvariantBreachError(f"double root {c1} at the split prime {p}")
    return (c1, c2) if c1 < c2 else (c2, c1)


def prime_ideals_above(field: Optional[QuadraticField], p: int) -> tuple[PrimeIdealData, ...]:
    """All primes above p: one for Q, two for split p, one otherwise.

    p is checked to be prime; see _prime_ideals_above for the ideals.
    """
    if not is_prime(p):
        raise UsageError(f"p={p} is not prime")
    return _prime_ideals_above(field, p)


def _prime_ideals_above(field: Optional[QuadraticField], p: int) -> tuple[PrimeIdealData, ...]:
    """prime_ideals_above for a p already known to be prime: one that the
    sieve or factorize produced.  Nothing here checks it.

    This is the one constructor of PrimeIdealData.  The kind comes from the
    Kronecker symbol; split p gives the ideal a at the smaller root of w mod
    p and b at the larger, and ramified p carries its double root.
    """
    if field is None:
        return (PrimeIdealData(None, p, "rational", 1, None, False),)
    k = kronecker(field.disc, p)
    if k == 1:
        c1, c2 = _split_roots(field, p)
        return (PrimeIdealData(field, p, "split", 1, c1, False),
                PrimeIdealData(field, p, "split", 1, c2, True))
    if k == -1:
        return (PrimeIdealData(field, p, "inert", 2, None, False),)
    c = field.d % 2 if p == 2 else field.omega_trace * ((p + 1) // 2) % p
    return (PrimeIdealData(field, p, "ramified", 1, c, False),)


def _lift_root(c: int, p: int, e: int, t: int, n: int) -> int:
    """Newton-lift a simple root c of w^2 - t w + n mod p to p^e."""
    k = 1
    while k < e:
        k = min(2 * k, e)
        pk = p ** k
        fprime = (2 * c - t) % pk
        c = (c - (c * c - t * c + n) * pow(fprime, -1, pk)) % pk
    if (c * c - t * c + n) % p ** e:
        raise InvariantBreachError(f"{c} is not a root of w^2 - {t}w + {n} "
                                   f"mod {p}^{e}")
    return c


def quad_valuation(x: QuadraticElement, P: PrimeIdealData) -> int:
    """Exact valuation of x != 0 at P; additive in products.

    At split P the norm's p-valuation m bounds v_P(x); P.hensel_root is
    lifted to p^m and a + b*root is read mod p^m.
    """
    if x.is_zero():
        raise ValueError("the zero element has no finite valuation")
    p = P.p
    if P.field is not None and x.field is None:
        x = x.with_field(P.field)
    if P.kind == "rational":
        if x.field is not None:
            raise ValueError("rational prime applied to a quadratic element")
        va = _vp(abs(x.num_a), p) if x.num_a else 0
        return va - (_vp(x.den, p) if x.den % p == 0 else 0)
    if x.field != P.field:
        raise InvariantBreachError(
            f"element of d={x.field.d} at a prime of d={P.field.d}")
    a, b = x.num_a, x.num_b
    er = P.ram_index
    vden = er * (_vp(x.den, p) if x.den % p == 0 else 0)
    if P.kind == "inert":
        va = _vp(abs(a), p) if a else None
        vb = _vp(abs(b), p) if b else None
        vnum = vb if va is None else va if vb is None else min(va, vb)
    else:
        t, n = x.field.omega_trace, x.field.omega_norm
        nrm = abs(a * a + t * a * b + n * b * b)
        m = _vp(nrm, p) if nrm % p == 0 else 0
        if P.kind == "ramified":
            vnum = m  # the single prime above p absorbs the whole norm valuation
        elif m == 0:
            vnum = 0
        else:
            c = _lift_root(P.hensel_root, p, m, t, n)
            w = (a + b * c) % p ** m
            vnum = m if w == 0 else _vp(w, p) if w % p == 0 else 0
    return vnum - vden


def ideal_factors(x: QuadraticElement,
                  index: int = 1) -> list[tuple[PrimeIdealData, int]]:
    """(P, v_P(x)) over every prime with nonzero valuation, sorted by p.

    The support is the primes of N(x)'s numerator and of x's denominator.
    The primes of N(x)'s reduced denominator are not enough: at a split p,
    v_P(x) = -v_P'(x) cancels in the norm.  index is passed to factorize
    for the numerator of N(x) only (see there); the denominator is always
    factored without a claim.
    """
    if x.is_zero():
        raise ValueError("zero has no ideal factorization")
    support = (set(factorize(abs(field_norm(x).numerator), index=index))
               | set(factorize(x.den)))
    out = []
    for p in sorted(support):
        for P in _prime_ideals_above(x.field, p):
            v = quad_valuation(x, P)
            if v != 0:
                out.append((P, v))
    return out


# ---------------------------------------------------------------------------
# residue rings O_K / P^e


class ResidueElement(Record):
    """Element of O_K/P^e, with modulus = (P, e): one residue u mod p^e, or a
    coordinate pair u + v*w with w^2 = t*w - n when P is inert.

    u and v are plain ints in [0, p^e); v is 0 outside inert rings.  There is
    no arithmetic on elements: residue_pow is the one product, and callers
    read (u, v) directly.  Equality is identity; compare (u, v) pairs.
    """

    modulus: tuple[PrimeIdealData, int]
    u: int
    v: int
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, modulus: tuple[PrimeIdealData, int], u: int, v: int = 0):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def is_one(self) -> bool:
        return self.u == 1 and self.v == 0

    def is_unit(self) -> bool:
        P, u, v = self.modulus[0], self.u, self.v
        if P.kind != "inert":
            return u % P.p != 0
        t, n = P.field.omega_trace, P.field.omega_norm
        return (u * u + t * u * v + n * v * v) % P.p != 0  # norm


def reduce(x, modulus: tuple[PrimeIdealData, int]) -> ResidueElement:
    """Ring homomorphism into O_K/P^e, with modulus = (P, e).

    Inert P keeps the pair a + b*w.  Every other P is Z/p^e: a + b*w maps to
    a + b*root, with root P.hensel_root, lifted to p^e at split P.  A p-part
    of the denominator can cancel against the numerator only at split P (the
    conjugate prime absorbs it), so there the root is lifted further by
    v_p(den); elsewhere it is refused, as is a ramified P past e = 1.
    """
    P, e = modulus
    if e < 1:
        raise UsageError("exponent must be >= 1")
    x = as_element(x, P.field)
    if x.field is not None and P.field is None:
        raise ValueError("quadratic element at a rational prime")
    p, den = P.p, x.den
    vd = _vp(den, p) if den % p == 0 else 0
    if vd and P.kind != "split":
        raise DegenerateInputError(
            f"denominator {den} is not invertible modulo {P.label()}^{e}"
        )
    if P.kind == "ramified" and e >= 2:
        raise DegenerateInputError(
            "residue arithmetic past exponent 1 at a ramified prime is unsupported"
        )
    pe, pv = p ** e, p ** vd
    a, b = x.num_a, x.num_b
    if P.hensel_root is not None:  # split or ramified: w -> its root mod p
        fld = P.field
        a += b * _lift_root(P.hensel_root, p, e + vd, fld.omega_trace,
                            fld.omega_norm)
        b = 0
        if a % pv:
            raise DegenerateInputError(
                f"element has negative valuation at {P.label()}: cannot reduce"
            )
    dinv = 1 if den == 1 else pow(den // pv, -1, pe)
    return ResidueElement(modulus, a // pv * dinv % pe, b * dinv % pe)


def residue_pow(x: ResidueElement, k: int) -> ResidueElement:
    """x^k for k >= 0; x^0 is the identity.

    Single-residue rings hand the whole power to the builtin pow(u, k, p^e).
    Inert rings square and multiply on the int pair (u, v) directly.
    Neither path builds an intermediate element.
    """
    if k < 0:
        raise ValueError("negative exponent: invert first")
    P, e = x.modulus
    pe = P.p ** e
    if P.kind != "inert":
        return ResidueElement(x.modulus, pow(x.u, k, pe), 0)
    t, n = P.field.omega_trace, P.field.omega_norm
    au, av, bu, bv = 1, 0, x.u, x.v
    while k:
        if k & 1:
            au, av = (au * bu - n * av * bv) % pe, (au * bv + bu * av + t * av * bv) % pe
        k >>= 1
        if k:
            bu, bv = (bu * bu - n * bv * bv) % pe, (2 * bu + t * bv) * bv % pe
    return ResidueElement(x.modulus, au, av)


def unit_group_order(modulus: tuple[PrimeIdealData, int]) -> int:
    """|(O_K/P^e)^x| = p^((e-1)f) * (p^f - 1) for unramified P."""
    P, e = modulus
    if P.kind == "ramified":
        raise DegenerateInputError(
            "unit group order is only exposed for unramified primes"
        )
    p, f = P.p, P.f
    return p ** ((e - 1) * f) * (p ** f - 1)
