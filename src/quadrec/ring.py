"""Exact arithmetic in quadratic number fields Q(sqrt(d)).

Elements live on the integral basis (1, w), where w = (1+sqrt(d))/2 when
d = 1 mod 4 and w = sqrt(d) otherwise; the ring of integers is exactly the
den = 1 slice.  Plain rationals are the field = None case, which keeps one
code path for sequences over Q and over a quadratic field.

Everything here is immutable and pure; values can be shared freely.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (DegenerateInputError, FactorizationError,
                     InvariantBreachError, MixedFieldError, UsageError)

Rational = Union[int, Fraction]

# Trial division handles prime factors below this bound deterministically;
# beyond it Brent's rho races Pollard's p-1 stage 1, both drawing on the one
# budget RHO_BUDGET (rho squarings; p-1 runs to B1 = RHO_BUDGET // 2).
TRIAL_LIMIT = 10 ** 6
_TRIAL_SQ = TRIAL_LIMIT ** 2
RHO_BUDGET = 2_000_000
SEGMENT = 1 << 16  # numbers per segment of the prime sieve

# Trial division by every prime through 61 runs first, so no Miller-Rabin
# base below is ever 0 mod n.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61)
# Miller-Rabin with bases (2, 7, 61) is a proven primality test below this
# bound (Jaeschke, Math. Comp. 61 (1993)); the bound itself is the first
# composite that passes all three, so the test must stay strict.
_MR_SMALL_BOUND = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)
# The first twelve prime bases are proven below this bound (Sorenson and
# Webster, Math. Comp. 86 (2017)).
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Beyond the proven bound: a fixed wider battery, deterministic but heuristic.
_MR_BASES_WIDE = _MR_BASES + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# ---------------------------------------------------------------------------
# integer plumbing


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("the p-adic valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    """Primality by trial division through 61, then strong-probable-prime tests.

    The Miller-Rabin base set is picked by the size of n:
    (2, 7, 61) below 4,759,123,141 (Jaeschke 1993), the twelve primes through
    37 below 3.3e24 (Sorenson-Webster 2017); both are proofs.  Above that a
    fixed 25-base battery is deterministic but heuristic.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_SMALL_BOUND:
        bases = _MR_SMALL_BASES
    elif n < _MR_PROVEN_BOUND:
        bases = _MR_BASES
    else:
        bases = _MR_BASES_WIDE
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> Iterator[int]:
    """Brent's rho on composite odd n, run a doubling round per next().

    Yields the modular squarings each fruitless round spent, and returns a
    factor d > 1 of n (not n itself), or None once the rounds have spent
    more than budget or the parameter sweep ends.
    """
    used = 0
    for c in range(1, 64):
        y, m, g, q = 2, 128, 1, 1
        x = ys = y
        while True:
            x = y
            for _ in range(m):
                y = (y * y + c) % n
            k = 0
            while k < m and g == 1:
                ys = y
                for _ in range(min(128, m - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            if g != 1:
                break
            used += 2 * m
            if used > budget:
                return None
            yield 2 * m
            m *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


# Prime powers raised per gcd in p-1 stage 1.
_PM1_BATCH = 256


def _pollard_pm1(n: int, bound: int, index: int) -> Iterator[int]:
    """Pollard's p-1 stage 1 on composite n, run a batch per next().

    Starts from 3^(2*index), since a prime q in factorize's classes often
    has index | q - 1, and raises it to every prime power <= bound, taking
    one gcd per batch.  Yields the exponent bits each fruitless batch spent,
    and returns a factor d > 1 of n (not n itself), or None when the primes
    run out or a single prime power reveals every factor of n at once.
    """
    a = pow(3, 2 * index, n)
    powers = _prime_powers(bound)
    while batch := list(itertools.islice(powers, _PM1_BATCH)):
        start, e = a, math.prod(batch)
        a = pow(a, e, n)
        g = math.gcd(a - 1, n)
        if g == 1:
            yield e.bit_length()
            continue
        if g == n:
            # two factors fell out in one batch: redo it a prime power at a time
            a = start
            for pk in batch:
                a = pow(a, pk, n)
                g = math.gcd(a - 1, n)
                if g > 1:
                    break
        return g if g < n else None
    return None


def _split(n: int, index: int) -> int:
    """A factor d > 1 of odd composite n, not n: Brent rho raced against p-1.

    The method that has spent less work (modular squarings, or exponent
    bits, which cost a squaring each) runs next, so a split costs at most
    about twice what the cheaper method needs.  Rho stops after RHO_BUDGET
    squarings, p-1 after the primes up to B1 = RHO_BUDGET // 2; when both
    have stopped, or together they pass 2 * RHO_BUDGET, FactorizationError.
    """
    r = math.isqrt(n)
    if r * r == n:
        return r
    budget = RHO_BUDGET
    methods = {"rho": _pollard_brent(n, budget),
               "p-1": _pollard_pm1(n, budget // 2, index)}
    spent = dict.fromkeys(methods, 0)
    while methods and sum(spent.values()) <= 2 * budget:
        name = min(methods, key=spent.__getitem__)
        try:
            spent[name] += next(methods[name])
        except StopIteration as stop:
            if stop.value is not None:
                return stop.value
            del methods[name]
    raise FactorizationError(
        f"factorization budget {budget} exhausted on cofactor {n} "
        f"(Brent rho and p-1 stage 1 with B1 = {budget // 2})"
    )


@functools.lru_cache(maxsize=256)
def _trial_wheel(index: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Trial divisors for inputs whose prime factors q divide index or have
    q^2 = 1 (mod index): the primes tried first (2, 3, 5 and those of index),
    then the first wheel candidate and the cyclic gaps between candidates.

    Candidates are the m >= 7 prime to 30 with m^2 = 1 (mod index); they
    repeat with period lcm(30, index).  index = 1 gives the 30-wheel.
    """
    if index < 1:
        raise ValueError("factorize index must be a positive integer")
    first = (2, 3, 5)
    if index > 1:
        first = tuple(sorted(set(first) | set(factorize(index))))
    period = 30 * index // math.gcd(30, index)
    roots = [r for r in range(index) if r * r % index == 1 % index]
    cands = sorted(m for r in roots
                   for m in range(7 + (r - 7) % index, 7 + period, index)
                   if math.gcd(m, 30) == 1)
    gaps = [b - a for a, b in zip(cands, cands[1:])]
    gaps.append(cands[0] + period - cands[-1])
    return first, cands[0], tuple(gaps)


def factorize(n: int, index: int = 1) -> dict[int, int]:
    """Full prime factorization {p: e} of n >= 1.

    Trial division below TRIAL_LIMIT.  A composite cofactor above it goes to
    a race of Brent's rho (at most RHO_BUDGET squarings) against Pollard's
    p-1 stage 1 (B1 = RHO_BUDGET // 2, started from 3^(2*index)): whichever
    has spent less runs next, and the first proper factor wins.  A cofactor
    that neither method splits within 2 * RHO_BUDGET raises
    FactorizationError rather than returning a guess.

    index states a fact about n: every prime factor q of n divides index or
    has q^2 = 1 (mod index).  The numerator of N(Phi_k(gamma)) satisfies it
    for index = k (a prime ideal above q that divides Phi_k(gamma) with
    q prime to k has norm q or q^2 = 1 mod k), and trial division then
    walks only those residue classes.  index = 1 claims nothing.  With
    index > 1 every returned factor is re-checked for primality and for the
    class rule, so a false claim raises InvariantBreachError instead of
    returning a wrong factorization.
    """
    if n < 1:
        raise ValueError("factorize is defined for positive integers")
    first, m, gaps = _trial_wheel(index)
    out: dict[int, int] = {}
    for p in first:
        if n % p == 0:
            out[p] = _vp(n, p)
            n //= p ** out[p]
    # m runs through the candidates while m <= min(sqrt(n), TRIAL_LIMIT - 1)
    lim = math.isqrt(n) if n < _TRIAL_SQ else TRIAL_LIMIT - 1
    while m <= lim:
        for gap in gaps:
            if not n % m:
                out[m] = _vp(n, m)
                n //= m ** out[m]
                lim = math.isqrt(n) if n < _TRIAL_SQ else TRIAL_LIMIT - 1
            m += gap
            if m > lim:
                break
    if n > 1:
        if m * m > n:
            out[n] = out.get(n, 0) + 1
        else:
            _factor_large(n, out, index)
    if index > 1:
        bad = [q for q in out
               if not ((index % q == 0 or q * q % index == 1) and is_prime(q))]
        if bad:
            raise InvariantBreachError(
                f"factors {bad} are not primes in the classes q | {index} "
                f"or q^2 = 1 (mod {index})"
            )
    return dict(sorted(out.items()))


def _factor_large(n: int, out: dict[int, int], index: int) -> None:
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _split(n, index)
    if not 1 < d < n:
        raise InvariantBreachError(f"split returned {d}, not a proper factor of {n}")
    _factor_large(d, out, index)
    _factor_large(n // d, out, index)


def euler_phi(n: int) -> int:
    """Euler totient, from the prime factorization."""
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def primes_below(n: int) -> list[int]:
    """All primes < n."""
    return list(iter_primes(2, n))


def _prime_segments(lo: int, hi: int) -> Iterator[Iterator[int]]:
    """The primes in [lo, hi), a segment at a time, sieved by primes_below."""
    lo = max(lo, 2)
    if lo >= hi:
        return
    base = primes_below(math.isqrt(hi - 1) + 1)
    for start in range(lo, hi, SEGMENT):
        end = min(start + SEGMENT, hi)
        marks = bytearray([1]) * (end - start)
        for p in base:
            if p * p >= end:
                break
            first = max(p * p, (start + p - 1) // p * p)
            marks[first - start::p] = bytearray(len(range(first, end, p)))
        yield itertools.compress(range(start, end), marks)


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """Primes in [lo, hi) via a segmented sieve; memory stays O(SEGMENT)."""
    for primes in _prime_segments(lo, hi):
        yield from primes


def _prime_powers(bound: int) -> Iterator[int]:
    """The largest power <= bound of each prime <= bound, by ascending prime."""
    for p in itertools.chain.from_iterable(_prime_segments(2, bound + 1)):
        pk = p
        while pk * p <= bound:
            pk *= p
        yield pk


def kronecker(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for prime p."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    a = D % p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Square root of a quadratic residue a modulo an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise InvariantBreachError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# fields and elements


@dataclass(frozen=True)
class QuadraticField:
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


@dataclass(frozen=True)
class QuadraticElement:
    """(num_a + num_b*w) / den, normalized: den > 0, gcd(num_a, num_b, den) = 1."""

    field: Optional[QuadraticField]
    num_a: int
    num_b: int
    den: int

    def __post_init__(self):
        if (self.den <= 0 or math.gcd(self.den, self.num_a, self.num_b) != 1
                or (self.field is None and self.num_b != 0)):
            raise ValueError(f"unnormalized element ({self.num_a} + "
                             f"{self.num_b}*w)/{self.den}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _make(field: Optional[QuadraticField], na: int, nb: int, den: int) -> "QuadraticElement":
        if den < 0:
            na, nb, den = -na, -nb, -den
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


@dataclass(frozen=True)
class PrimeIdealData:
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
    conjugate_flag: bool = False

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
        return (PrimeIdealData(None, p, "rational", 1, None),)
    k = kronecker(field.disc, p)
    if k == 1:
        c1, c2 = _split_roots(field, p)
        return (PrimeIdealData(field, p, "split", 1, c1, False),
                PrimeIdealData(field, p, "split", 1, c2, True))
    if k == -1:
        return (PrimeIdealData(field, p, "inert", 2, None),)
    c = field.d % 2 if p == 2 else field.omega_trace * ((p + 1) // 2) % p
    return (PrimeIdealData(field, p, "ramified", 1, c),)


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


@dataclass(frozen=True, slots=True, eq=False)
class ResidueElement:
    """Element of O_K/P^e, with modulus = (P, e): one residue u mod p^e, or a
    coordinate pair u + v*w with w^2 = t*w - n when P is inert.

    u and v are plain ints in [0, p^e); v is 0 outside inert rings.  There is
    no arithmetic on elements: residue_pow is the one product, and callers
    read (u, v) directly.  Equality is identity; compare (u, v) pairs.
    """

    modulus: tuple[PrimeIdealData, int]
    u: int
    v: int = 0

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
