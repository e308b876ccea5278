"""Wieferich-type predicates over rational primes and quadratic prime ideals.

The Fermat quotient k_p is the first-order term in gamma^(N(P)-1) = 1 + k_p*p
mod P^2; a prime is (gamma-base) Wieferich exactly when k_p = 0.  The Wall
period test and the Fibonacci-entry divisibility test are two deliberately
independent detectors for the Fibonacci case; they must always agree.
The scans screen a prime with one Lucas chain (_lucas_v), never in place
of the detectors or the Fermat quotients that verify a hit: unit_screen
runs it mod p^2 for an integral unit (wss_screen is its instance at phi),
and lucas_screen mod p^3 for any other quadratic base.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DegenerateInputError, InvariantBreachError, UsageError
from .factor import iter_primes
from .periods import pisano_prime_power
from .record import Record
from .ring import (
    PrimeIdealData,
    _prime_ideals_above,
    as_element,
    is_torsion,
    quad_valuation,
    reduce,
    residue_pow,
)


class WallVerdict(Record):
    p: int
    pi_p: int
    pi_p2: int
    equal: bool


def fermat_quotient_residue(gamma, P: PrimeIdealData) -> int:
    """k_p in [0, N(P)) with gamma^(N(P)-1) = 1 + k_p*p mod P^2.

    p itself is the uniformizer at every unramified prime; for inert P the
    quotient lives in the residue field F_{p^2} and is encoded as s + t*p
    from the coordinate pair s + t*w.  gamma must be a P-unit: reduce
    refuses gamma not integral at P, and at unramified P an integral gamma
    has v_P(gamma) = 0 exactly when it is a unit mod P^2.
    """
    if P.kind == "ramified":
        raise DegenerateInputError(f"{P.label()} is ramified: no Wieferich verdict")
    x = reduce(gamma, (P, 2))
    if not x.is_unit():
        raise DegenerateInputError(f"base has nonzero valuation at {P.label()}")
    p = P.p
    y = residue_pow(x, P.norm - 1)
    if (y.u - 1) % p != 0 or y.v % p != 0:
        raise InvariantBreachError(
            f"gamma^(N(P)-1) is not 1 mod {P.label()}: Fermat's little theorem fails"
        )
    s = (y.u - 1) // p % p
    if P.f == 1:
        return s
    t = y.v // p % p
    return s + t * p


def is_alpha_wieferich(gamma, P: PrimeIdealData) -> bool:
    """True iff gamma^(N(P)-1) = 1 mod P^2; torsion bases qualify trivially."""
    return fermat_quotient_residue(gamma, P) == 0


def is_x_fw_prime(X: Sequence, P: PrimeIdealData) -> bool:
    """True iff every generator satisfies the Wieferich congruence at P."""
    if not X:
        raise UsageError("empty generator list")
    return all(is_alpha_wieferich(x, P) for x in X)


def wall_period_test(p: int) -> WallVerdict:
    """Compare the Fibonacci period mod p and mod p^2, both from
    pisano_prime_power; the second is the first or p times it."""
    k1, k2 = pisano_prime_power(p, 1), pisano_prime_power(p, 2)
    return WallVerdict(p, k1, k2, k1 == k2)


def _lucas_v(s: int, k: int, m: int) -> tuple[int, int]:
    """(V_k, V_(k+1)) mod m for the Lucas sequence of (s, 1), with V_0 = 2,
    V_1 = s and V_(j+1) = s*V_j - V_(j-1), walking the bits of k high to low.
    """
    v0, v1 = 2 % m, s % m  # V_j and V_(j+1), from j = 0
    for bit in bin(k)[2:]:  # each step reads the old value before replacing it
        if bit == "1":  # j -> 2j + 1
            v0 = (v0 * v1 - s) % m
            v1 = (v1 * v1 - 2) % m
        else:           # j -> 2j
            v1 = (v0 * v1 - s) % m
            v0 = (v0 * v0 - 2) % m
    return v0, v1


def unit_screen(p: int, trace: int, norm: int, sym: int) -> bool:
    """Whether the integral unit eps of trace t and norm N = +-1 is Wieferich
    at some ideal above p, from one Lucas chain mod p^2 over half the index.

    p is odd and divides none of disc, t and t^2 - 4N; sym = (disc/p), and
    k = p - sym is even.  As eps'^k = eps^-k, the answer is p^2 | U_k(t, N)
    = t*U_(k/2)(s, 1) for s = t^2 - 2N, and (s^2 - 4)*U_j(s, 1) is
    2*V_(j+1) - s*V_j, with s^2 - 4 = t^2*(t^2 - 4N) prime to p (Lehmer 1930).
    """
    m, s = p * p, trace * trace - 2 * norm
    v0, v1 = _lucas_v(s, (p - sym) >> 1, m)
    return (2 * v1 - s * v0) % m == 0


def wss_screen(p: int) -> bool:
    """p^2 | F_{p - (5/p)}: unit_screen at phi, of trace 1 and norm -1.

    For p outside {2, 5} this is Wall's verdict (McIntosh and Roettger,
    Math. Comp. 76 (2007)): the entry point z(p^2) is z(p) or p*z(p), and
    z(p) divides p - (5/p), which p does not divide.  (5/p) = (p/5) by
    quadratic reciprocity, since 5 = 1 mod 4: it is 1 exactly when p is
    1 or 4 mod 5.  phi has U_k(1, -1) = F_k and t^2 - 4N = 5.
    """
    if p in (2, 5):
        raise UsageError("the two exceptional primes carry no verdict here")
    return unit_screen(p, 1, -1, 1 if p % 5 in (1, 4) else -1)


def lucas_screen(p: int, trace: int, norm: int, den: int, sym: int) -> bool:
    """Whether gamma = delta/den is Wieferich at some ideal above p, from one
    Lucas chain mod p^3; delta = a + b*w is integral, with integer trace and
    norm, and sym is (disc/p) for the discriminant disc of its field.

    p must be odd and divide none of den, disc and norm.  eps = delta/delta'
    has norm 1 and trace S = (trace^2 - 2*norm)/norm.  Let k = p - sym
    and c = (den^2/norm)^(p-1): gamma is Wieferich at an ideal above p
    exactly when eps^k is c mod p^2 there.  Both conjugates of eps^k are
    c mod p, so (c - eps^k)(c - eps^-k) = c^2 - c*V_k + 1 is p^2 times a
    product, which p divides exactly when one of them is c mod p^2.
    V_k = eps^k + eps^-k is the Lucas sequence of (S, 1) (Lehmer, Ann.
    Math. 31 (1930)).
    """
    m = p ** 3
    inv = pow(norm, -1, m)
    s = (trace * trace - 2 * norm) * inv % m
    c = pow(den * den * inv, p - 1, m)
    v0 = _lucas_v(s, p - sym, m)[0]
    return (c * c - c * v0 + 1) % m == 0


def _mat_mul2(A, B, m):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g) % m, (a * f + b * h) % m), \
           ((c * e + d * g) % m, (c * f + d * h) % m)


def wss_divisibility_test(p: int) -> bool:
    """Second Wall-Sun-Sun detector: F_{p - (5/p)} = 0 mod p^2.

    Kept independent of the period machinery on purpose: the Legendre symbol
    and the Fibonacci entry are recomputed here from scratch with a plain
    2x2 matrix power.
    """
    if p in (2, 5):
        raise UsageError("the two exceptional primes carry no verdict here")
    m = p * p
    ls = pow(5, (p - 1) // 2, p)
    n = p - 1 if ls == 1 else p + 1
    R, M = ((1, 0), (0, 1)), ((1, 1), (1, 0))
    k = n
    while k:
        if k & 1:
            R = _mat_mul2(R, M, m)
        M = _mat_mul2(M, M, m)
        k >>= 1
    return R[0][1] % m == 0  # F_n mod p^2


def count_non_wieferich(gamma, bound: int) -> int:
    """|{prime ideals P, N(P) <= bound, gamma not Wieferich at P}|.

    Degenerate primes count: the congruence gamma^(N-1) = 1 mod P^2 fails
    outright when gamma is not a P-unit.  Ramified primes carry no verdict
    and are skipped entirely.
    """
    g = as_element(gamma)
    if is_torsion(g):
        raise UsageError("torsion bases make every prime Wieferich; not counted")
    if bound < 2:
        return 0
    n = 0
    for p in iter_primes(2, int(bound) + 1):
        for P in _prime_ideals_above(g.field, p):
            if P.kind == "ramified" or P.norm > bound:
                continue
            if quad_valuation(g, P) != 0:
                n += 1
            elif fermat_quotient_residue(g, P) != 0:
                n += 1
    return n
