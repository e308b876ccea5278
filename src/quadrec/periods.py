"""Periods of linear recurrences modulo prime-ideal powers.

A recurrence tuple (a_1..a_m; b_1..b_m) defines x_k = sum b_i a_i^k.  The
closed formula gives the period modulo P^e as the lcm of the multiplicative
orders of the a_i in the residue ring; period_bruteforce iterates the state
vector instead and exists to keep the formula honest.  Each tuple builds
its recurrence (coefficients and start state, from the closed form) and its
degeneracy screen once, on first use; every modulus reads them from there.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (DegenerateInputError, InvariantBreachError,
                     ResourceLimitError, UsageError)
from .factor import factorize, kronecker
from .record import Record
from .ring import (
    PrimeIdealData,
    QuadraticElement,
    QuadraticField,
    ResidueElement,
    _prime_ideals_above,
    as_element,
    as_elements,
    field_norm,
    qelem,
    quad_valuation,
    quadratic_field,
    reduce,
    residue_pow,
    unit_group_order,
)

Modulus = Union[int, tuple[PrimeIdealData, int]]


class RecurrenceTuple(Record):
    """Generators a and weights b, all nonzero, generators pairwise distinct."""

    a: tuple[QuadraticElement, ...]
    b: tuple[QuadraticElement, ...]
    name: str = ""

    __slots__ = ("__dict__",)  # room for the cached properties

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.a) != len(self.b) or not self.a:
            raise UsageError("need equally many generators and weights, at least one")
        as_elements(self.a + self.b)
        if any(x.is_zero() for x in self.a) or any(x.is_zero() for x in self.b):
            raise UsageError("zero entries are not allowed in a recurrence tuple")
        if len({(x.field, x.num_a, x.num_b, x.den) for x in self.a}) != len(self.a):
            raise UsageError("generators must be pairwise distinct")

    @property
    def order(self) -> int:
        return len(self.a)

    def field(self):
        for x in self.a + self.b:
            if x.field is not None:
                return x.field
        return None

    @functools.cached_property
    def _recurrence(self) -> tuple[tuple[QuadraticElement, ...],
                                   tuple[QuadraticElement, ...]]:
        """(char_coefficients, initial_terms), expanded once per tuple."""
        return char_coefficients(self), initial_terms(self)

    @functools.cached_property
    def _support(self) -> int:
        """Product of den * |numerator of the norm| over every a_i and b_i:
        each prime at which some entry has a nonzero valuation divides it."""
        return math.prod(x.den * abs(field_norm(x).numerator)
                         for x in self.a + self.b)


class PeriodReport(Record):
    period: int
    per_generator_orders: tuple[tuple[int, str, int], ...]
    method: str  # "formula" | "brute_force"


def fibonacci_tuple() -> RecurrenceTuple:
    """Binet pair: x_k = (phi^k - phibar^k)/sqrt(5) = F_k."""
    K = quadratic_field(5)
    phi = qelem(K, 0, 1)
    phibar = qelem(K, 1, -1)
    inv_sqrt5 = qelem(K, -1, 2, 5)  # (2w-1)/5 = 1/sqrt(5)
    return RecurrenceTuple((phi, phibar), (inv_sqrt5, -inv_sqrt5), "fibonacci")


def lucas_tuple() -> RecurrenceTuple:
    K = quadratic_field(5)
    one = as_element(1, K)
    return RecurrenceTuple((qelem(K, 0, 1), qelem(K, 1, -1)), (one, one), "lucas")


def rational_tuple(roots: Sequence[int], weights: Sequence[int]) -> RecurrenceTuple:
    return RecurrenceTuple(
        tuple(as_element(Fraction(r)) for r in roots),
        tuple(as_element(Fraction(w)) for w in weights),
        f"({','.join(map(str, roots))};{','.join(map(str, weights))})",
    )


def standard_battery() -> list[RecurrenceTuple]:
    """The fixed five tuples used by the cross-validation suites."""
    return [
        fibonacci_tuple(),
        lucas_tuple(),
        rational_tuple((2, 3), (1, 1)),
        rational_tuple((2, 3, 5), (1, 1, 1)),
        rational_tuple((3,), (2,)),
    ]


def char_coefficients(t: RecurrenceTuple) -> tuple[QuadraticElement, ...]:
    """(c_0..c_{m-1}) with x_{k+m} = sum c_i x_{k+i}, from expanding prod(x - a_i)."""
    poly = [as_element(1, t.field())]
    for root in t.a:
        prev = poly
        poly = [(-root) * prev[0]]
        for k in range(1, len(prev)):
            poly.append(prev[k - 1] - root * prev[k])
        poly.append(prev[-1])
    if poly[-1].as_fraction() != 1:
        raise InvariantBreachError("characteristic polynomial is not monic")
    return tuple(-c for c in poly[:-1])


def initial_terms(t: RecurrenceTuple) -> tuple[QuadraticElement, ...]:
    """x_0 .. x_{m-1} straight from the closed form."""
    out = []
    pows = list(t.b)
    for _ in range(t.order):
        out.append(sum(pows[1:], pows[0]))
        pows = [p * a for p, a in zip(pows, t.a)]
    return tuple(out)


def is_degenerate(t: RecurrenceTuple, P: PrimeIdealData) -> bool:
    """True iff some generator or weight has nonzero valuation at P.

    v_P(x) != 0 needs p to divide x's denominator or the numerator of N(x),
    so a p prime to the tuple's support is answered with no valuation.
    """
    if t._support % P.p:
        return False
    return any(quad_valuation(x, P) != 0 for x in t.a + t.b)


def ideal_factorization(field: Optional[QuadraticField],
                        m: int) -> list[tuple[PrimeIdealData, int]]:
    """(P, e) for every prime ideal P above each p^e exactly dividing m >= 1,
    in ascending p; (P, e) stands for P^e, or for p^e = P^(2e) at ramified P."""
    return [(P, e) for p, e in sorted(factorize(m).items())
            for P in _prime_ideals_above(field, p)]


def least_period(k: int, primes, holds) -> int:
    """Least j | k with holds(j), where holds marks the multiples of one
    period (x^j = 1 marks those of ord(x)), holds(k) is true and `primes`
    has every prime of k: each q is stripped while k/q still holds."""
    for q in primes:
        while k % q == 0 and holds(k // q):
            k //= q
    return k


@functools.lru_cache(maxsize=1024)
def _residue_field_order(p: int, f: int) -> tuple[tuple[int, int], ...]:
    """(q, a) for each q^a exactly dividing (p - 1)(p + 1 when f = 2)."""
    fac = factorize(p - 1)
    if f == 2:
        for q, a in factorize(p + 1).items():
            fac[q] = fac.get(q, 0) + a
    return tuple(fac.items())


def multiplicative_order(x: ResidueElement) -> int:
    """Smallest k >= 1 with x^k = 1, by stripping primes from the group order.

    The group order is factored as p^((e-1)f) * (p-1) * (p+1 when f=2); the
    cofactors are small, so p^f - 1 itself is never fed to the factorizer.
    """
    if not x.is_unit():
        raise DegenerateInputError("multiplicative order of a non-unit")
    P, e = x.modulus
    fac = dict(_residue_field_order(P.p, P.f))
    if e > 1:
        fac[P.p] = fac.get(P.p, 0) + (e - 1) * P.f
    k = 1
    for q, a in fac.items():
        k *= q ** a
    # ramified e=1 slips through reduce(); its residue field is still F_p
    if P.kind != "ramified" and k != unit_group_order((P, e)):
        raise InvariantBreachError(
            f"stripped multiple {k} is not the unit-group order at {P.label()}^{e}"
        )

    def is_one(j):  # x^j = 1, with no is_one() call per check
        r = residue_pow(x, j)
        return r.u == 1 and r.v == 0
    return least_period(k, fac, is_one)


def period_formula(t: RecurrenceTuple,
                   factorization: Sequence[tuple[PrimeIdealData, int]]) -> PeriodReport:
    """Period as lcm of generator orders across the prime-power factors."""
    orders = []
    period = 1
    for P, e in factorization:
        if P.kind == "ramified":
            raise DegenerateInputError(
                f"{P.label()} is ramified: the order formula does not apply"
            )
        if is_degenerate(t, P):
            raise DegenerateInputError(
                f"tuple {t.name or t} is degenerate at {P.label()}"
            )
        label = f"{P.label()}^{e}"
        for j, gen in enumerate(t.a):
            k = multiplicative_order(reduce(gen, (P, e)))
            orders.append((j, label, k))
            period = math.lcm(period, k)
    return PeriodReport(period, tuple(orders), "formula")


# ---------------------------------------------------------------------------
# brute force


def _int_state_period(cs: list[int], xs: list[int], mod: int, budget: int) -> int:
    """First return of an integer state of order m <= 3, within `budget` steps.

    One loop per order, each shifting its m plain ints with no padding.
    """
    if len(cs) == 1:
        (c0,), (s0,) = cs, xs
        a = s0
        for k in range(1, budget + 1):
            a = c0 * a % mod
            if a == s0:
                return k
    elif len(cs) == 2:
        (c0, c1), (s0, s1) = cs, xs
        a, b = s0, s1
        for k in range(1, budget + 1):
            a, b = b, (c0 * a + c1 * b) % mod
            if a == s0 and b == s1:
                return k
    else:
        (c0, c1, c2), (s0, s1, s2) = cs, xs
        a, b, c = s0, s1, s2
        for k in range(1, budget + 1):
            a, b, c = b, c, (c0 * a + c1 * b + c2 * c) % mod
            if a == s0 and b == s1 and c == s2:
                return k
    raise ResourceLimitError(f"no return within {budget} steps (mod {mod})")


def _pair_state_period(cs: list[tuple[int, int]], xs: list[tuple[int, int]],
                       wt: int, wn: int, mod: int, budget: int) -> int:
    """Same loop on (u, v) coordinates with w^2 = wt*w - wn."""
    state, start = list(xs), list(xs)
    for k in range(1, budget + 1):
        nu, nv = 0, 0
        for (cu, cv), (su, sv) in zip(cs, state):
            nu += cu * su - wn * cv * sv
            nv += cu * sv + su * cv + wt * cv * sv
        state = state[1:] + [(nu % mod, nv % mod)]
        if state == start:
            return k
    raise ResourceLimitError(f"no return within {budget} steps (mod {mod})")


def _state_period(cs: list[tuple[int, int]], xs: list[tuple[int, int]],
                  t: int, n: int, mod: int) -> int:
    """First return of a state of (u, v) pairs mod `mod`, w^2 = t*w - n.

    All-rational states (every v = 0) of order at most 3 take the integer
    loop of their order, every other state the pair loop.  The budget is 6
    times the square of the state space of one entry: 6*mod^2 for rational
    states, 6*mod^4 for pairs.
    """
    rational = all(v == 0 for _, v in cs + xs)
    budget = 6 * mod ** (2 if rational else 4)
    if rational and len(cs) <= 3:
        return _int_state_period([u for u, _ in cs], [u for u, _ in xs], mod,
                                 budget)
    return _pair_state_period(cs, xs, t, n, mod, budget)


def _to_pair(x: QuadraticElement, mod: int) -> tuple[int, int]:
    if math.gcd(x.den, mod) != 1:
        raise DegenerateInputError(f"denominator {x.den} not invertible mod {mod}")
    dinv = pow(x.den, -1, mod)
    return x.num_a * dinv % mod, x.num_b * dinv % mod


def _pair_embedding(t: RecurrenceTuple, m: Modulus):
    """(cs, xs, (trace, norm, mod)): the recurrence coefficients c_i and the
    start state x_0, x_1, .. of t as pairs (u, v) = u + v*w of plain ints mod
    `mod`, with w^2 = trace*w - norm.

    An integer modulus m is Z[w]/m, entered through _to_pair.  A prime power
    (P, e) is entered through reduce(), whose residues are pairs mod p^e as
    well (v = 0 except on inert rings), so both kinds share one arithmetic;
    there trace and norm come from P's field, since a rational tuple may be
    reduced at an ideal of Q(sqrt(d)).
    The constant coefficient c_0 must be a unit, or the state map (a
    companion matrix of determinant +-c_0) has no purely periodic orbit: its
    norm u^2 + trace*u*v + norm*v^2 must be prime to mod.
    """
    if isinstance(m, tuple):
        P, e = m
        fld, mod, label = P.field, P.p ** e, f"{P.label()}^{e}"

        def embed(x):
            r = reduce(x, m)
            return r.u, r.v
    else:
        if m < 1:
            raise UsageError("modulus must be a positive integer")
        fld, mod, label = t.field(), m, m

        def embed(x):
            return _to_pair(x, m)
    tr, nm = (fld.omega_trace, fld.omega_norm) if fld is not None else (0, 0)
    coeffs, terms = t._recurrence
    cs = [embed(c) for c in coeffs]
    u, v = cs[0]
    if math.gcd(u * u + tr * u * v + nm * v * v, mod) != 1:
        raise DegenerateInputError(f"constant coefficient not a unit mod {label}")
    return cs, [embed(x) for x in terms], (tr, nm, mod)


def period_bruteforce(t: RecurrenceTuple, m: Modulus) -> PeriodReport:
    """First-return index of the state (x_k .. x_{k+m-1}); the period oracle.

    Accepts composite rational moduli, including ones hitting ramified primes;
    requires the constant recurrence coefficient to stay invertible so the
    orbit is purely periodic and first return equals minimal period.
    """
    cs, xs, ring = _pair_embedding(t, m)
    return PeriodReport(_state_period(cs, xs, *ring), (), "brute_force")


def period_by_parts(t: RecurrenceTuple, m: int) -> PeriodReport:
    """Period of t mod m >= 1: the lcm over each (P, e) of
    ideal_factorization(m) of period_formula, or of period_bruteforce where
    the formula refuses: at (P, e) for split P, so its conjugate keeps the
    formula, and at p^e for the one ideal above any other p.  The method is
    "formula", with every order, only when no part was iterated."""
    period, orders, method = 1, [], "formula"
    for P, e in ideal_factorization(t.field(), m):
        try:
            part = period_formula(t, [(P, e)])
        except DegenerateInputError:
            part = period_bruteforce(t, (P, e) if P.kind == "split" else P.p ** e)
            method = "brute_force"
        period = math.lcm(period, part.period)
        orders += part.per_generator_orders
    return PeriodReport(period, tuple(orders) if method == "formula" else (), method)


# ---------------------------------------------------------------------------
# Fibonacci specialization


def _fib_pair(k: int, m: int) -> tuple[int, int]:
    """(F_k, F_{k+1}) mod m by fast doubling, walking bits high to low."""
    a, b = 0, 1 % m  # F_0, F_1
    for bit in bin(k)[2:]:
        c = a * (2 * b - a) % m   # F_{2j}
        d = (a * a + b * b) % m   # F_{2j+1}
        if bit == "1":
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a, b


def _is_fib_period(k: int, m: int) -> bool:
    return _fib_pair(k, m) == (0, 1 % m)


def pisano_prime_power(p: int, e: int) -> int:
    """Pisano period mod p^e, with no state loop.

    The order of the Fibonacci step matrix mod p^e is stripped from a known
    multiple: p^(e-1) times p-1 when p splits in Q(sqrt(5)), 2(p+1) when it
    is inert (p = 2 included), or pi(5) = 20 at the ramified p = 5.  The
    factor p^(e-1) is Wall's bound (Wall 1960): at every prime, the period
    mod p^e divides p^(e-1) times the period mod p.
    """
    sym = kronecker(5, p)
    base = p - 1 if sym == 1 else 2 * (p + 1) if sym == -1 else 20
    k, pe = base * p ** (e - 1), p ** e
    if not _is_fib_period(k, pe):
        raise InvariantBreachError(f"{k} is not a Fibonacci period mod {p}^{e}")
    return least_period(k, (*factorize(base), p),
                        lambda j: _is_fib_period(j, pe))


def pisano(m: int) -> int:
    """Pisano period of m >= 1: the lcm of pisano_prime_power over the prime
    powers exactly dividing m, 5 included, so no part of m iterates."""
    if m < 1:
        raise UsageError("pisano is defined for positive integers")
    return math.lcm(*(pisano_prime_power(p, e) for p, e in factorize(m).items()))
