"""Cyclotomic certificates: primes with prescribed multiplicative order that
are provably non-Wieferich.

A prime dividing Phi_n(gamma) exactly once, coprime to n and to the numerator
and denominator ideals of gamma, must have ord(gamma) = n and cannot satisfy
the Wieferich congruence.  Both conclusions are re-verified computationally
for every emitted certificate rather than trusted from the bookkeeping.
"""
from __future__ import annotations

import math
from itertools import combinations

from .errors import FactorizationError, InvariantBreachError, UsageError
from .factor import factorize
from .periods import least_period
from .record import Record
from .ring import (
    PrimeIdealData,
    QuadraticElement,
    as_element,
    ideal_factors,
    is_torsion,
    reduce,
    residue_pow,
)
from .wieferich import fermat_quotient_residue


def cyclotomic_value(gamma, n: int) -> QuadraticElement:
    """Phi_n(gamma), exactly, as the Moebius product of (gamma^d - 1)^mu(n/d)
    over d | n: gamma^(n/s) - 1 for each squarefree s | n goes in the
    numerator when s has an even number of prime factors, else in the
    denominator.  A torsion gamma is refused, since some factor may be 0."""
    if n < 1:
        raise UsageError("cyclotomic index must be >= 1")
    g = as_element(gamma)
    if is_torsion(g):
        raise UsageError("cyclotomic values need a non-torsion base")
    ps = tuple(factorize(n))
    num = den = as_element(1, g.field)
    for k in range(len(ps) + 1):
        for rs in combinations(ps, k):
            term = g ** (n // math.prod(rs)) - 1
            if k % 2:
                den = den * term
            else:
                num = num * term
    return num / den


def cyclotomic_factors(gamma, d: int) -> list[tuple[PrimeIdealData, int]]:
    """ideal_factors of Phi_d(gamma), the one place where it is factored.
    Every prime of N(Phi_d(gamma))'s numerator divides d or has norm 1 mod
    d, so the factorization runs with index = d."""
    return ideal_factors(cyclotomic_value(gamma, d), index=d)


# ---------------------------------------------------------------------------
# certificates


class NonWieferichCertificate(Record):
    p: int
    prime_ideal: PrimeIdealData
    n: int
    order: int  # multiplicative order of the base at the prime, proven = n
    k_p: int    # measured Fermat quotient

    @property
    def order_check(self) -> bool:
        return self.order == self.n

    @property
    def square_check(self) -> bool:
        return self.k_p != 0


def certificate_for_n(gamma, n: int) -> list[NonWieferichCertificate]:
    """Certificates from the primes that divide Phi_n(gamma) exactly once.

    Filter: v_P(Phi_n(gamma)) = 1, P unramified, p does not divide n, and P
    outside the support of the ideal (gamma), numerator and denominator
    alike.  Every survivor is then verified on both claims; a verification
    failure is a library bug.  The order is proven equal to n by
    periods.least_period: gamma^n = 1 (mod P), and stripping n's own primes
    leaves n, so N(P) +- 1 is never factored.
    """
    g = as_element(gamma)
    factors = cyclotomic_factors(g, n)  # refuses torsion
    banned = {P.label() for P, _ in ideal_factors(g)}
    n_primes = tuple(factorize(n))
    out = []
    for P, val in factors:
        if val != 1 or n % P.p == 0 or P.label() in banned:
            continue
        if P.kind == "ramified":
            continue  # no order/Wieferich verdicts at ramified primes
        x = reduce(g, (P, 1))
        if not residue_pow(x, n).is_one():
            raise InvariantBreachError(
                f"certificate order failure at {P.label()}: gamma^n != 1, n={n}")
        order = least_period(n, n_primes, lambda j: residue_pow(x, j).is_one())
        if order != n:
            raise InvariantBreachError(
                f"certificate order failure at {P.label()}: ord={order}, n={n}")
        k_p = fermat_quotient_residue(g, P)
        if k_p == 0:
            raise InvariantBreachError(
                f"certificate found a Wieferich prime at {P.label()}, n={n}"
            )
        out.append(NonWieferichCertificate(P.p, P, n, n, k_p))
    return out


class CertifiedCount(Record):
    count: int
    # indices whose Phi_n(gamma) no stage of factor._STAGES split in budget
    skipped: tuple[int, ...]
    # the kept certificates (norm <= bound), in emission order
    certificates: tuple[NonWieferichCertificate, ...]


def witness_limit(gamma, bound: int) -> int:
    """Largest admissible witness index: n <= (log bound - log 2)/h(gamma),
    ties at the boundary included.

    With d = [Q(gamma):Q] and M the Mahler measure of gamma's primitive
    minimal polynomial, h(gamma) = log(M)/d, so the cutoff is the largest n
    with 2^d * M^n <= bound^d, decided in integers.  M = max(|a|, |b|) for
    gamma = a/b.  For a*x^2 + b*x + c with discriminant D, M is the largest
    of a and |c|, and also of (|b| + sqrt(D))/2 when D > 0; that candidate
    is compared through (|b| + sqrt(D))^n = U + V*sqrt(D).
    """
    g = as_element(gamma)
    if is_torsion(g):
        raise UsageError("torsion base certifies nothing")
    if g.is_zero():
        raise UsageError("zero base certifies nothing")
    if bound < 2:
        return 0
    if g.num_b == 0:
        q = g.as_fraction()
        deg, ms, b, D = 1, (abs(q.numerator), q.denominator), 0, 0
    else:
        a, b, c = _min_poly(g)
        deg, ms, b, D = 2, (a, abs(c)), abs(b), b * b - 4 * a * c
    cap = bound ** deg
    edges = [2 ** deg] * len(ms)  # 2^d * m^n for each integer candidate m
    U, V = 2 ** deg, 0            # 2^d * (|b| + sqrt(D))^n = U + V*sqrt(D)
    n = 0
    while True:
        edges = [e * m for e, m in zip(edges, ms)]
        if any(e > cap for e in edges):
            return n
        if D > 0:
            U, V = U * b + V * D, U + V * b
            room = (cap << (n + 1)) - U  # 2^d*((|b|+sqrt D)/2)^(n+1) <= cap
            if room < 0 or V * V * D > room * room:
                return n
        n += 1


def _min_poly(g: QuadraticElement) -> tuple[int, int, int]:
    """(a, b, c), a > 0, of the primitive minimal polynomial of an
    irrational quadratic g = (A + B*w)/den."""
    t, nw = g.field.omega_trace, g.field.omega_norm
    A, B, den = g.num_a, g.num_b, g.den
    a, b, c = den * den, -den * (2 * A + t * B), A * A + t * A * B + nw * B * B
    k = math.gcd(math.gcd(a, b), c)
    return a // k, b // k, c // k


def certified_count(gamma, bound: int) -> CertifiedCount:
    """Distinct certified non-Wieferich primes of norm <= bound.

    An unfactorable Phi_n(gamma) skips that n (the count stays a lower bound).
    """
    g = as_element(gamma)
    n_max = witness_limit(g, bound)
    seen: dict[str, int] = {}
    skipped, certs_kept = [], []
    for n in range(1, n_max + 1):
        try:
            certs = certificate_for_n(g, n)
        except FactorizationError:
            skipped.append(n)
            continue
        for c in certs:
            lbl = c.prime_ideal.label()
            if seen.setdefault(lbl, n) != n:
                raise InvariantBreachError(
                    f"prime {lbl} certified by both n={seen[lbl]} and n={n}"
                )
            if c.prime_ideal.norm <= bound:
                certs_kept.append(c)
    return CertifiedCount(len(certs_kept), tuple(skipped), tuple(certs_kept))
