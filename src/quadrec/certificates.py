"""Cyclotomic certificates: primes with prescribed multiplicative order that
are provably non-Wieferich.

A prime dividing Phi_n(gamma) exactly once, coprime to n and to the numerator
and denominator ideals of gamma, must have ord(gamma) = n and cannot satisfy
the Wieferich congruence.  Both conclusions are re-verified computationally
for every emitted certificate rather than trusted from the bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import FactorizationError, InvariantBreachError, UsageError
from .heights import element_height
from .periods import multiplicative_order
from .ring import (
    PrimeIdealData,
    QuadraticElement,
    QuadraticField,
    as_element,
    factorize,
    ideal_factors,
    is_torsion,
    reduce,
)
from .wieferich import fermat_quotient_residue


@dataclass(frozen=True)
class IdealFactorization:
    """A product of prime-ideal powers, kept sorted by (p, label)."""

    factors: tuple[tuple[PrimeIdealData, int], ...]

    def __post_init__(self):
        labels = [P.label() for P, _ in self.factors]
        assert labels == sorted(labels, key=lambda s: (len(s), s))
        assert all(e > 0 for _, e in self.factors)

    def support(self) -> set[str]:
        return {P.label() for P, _ in self.factors}

    def norm(self) -> int:
        out = 1
        for P, e in self.factors:
            out *= P.norm ** e
        return out

    def is_trivial(self) -> bool:
        return not self.factors


def _sorted_ideal(factors) -> IdealFactorization:
    return IdealFactorization(
        tuple(sorted(factors, key=lambda t: (len(t[0].label()), t[0].label())))
    )


def numerator_denominator(gamma, field: Optional[QuadraticField] = None
                          ) -> tuple[IdealFactorization, IdealFactorization]:
    """Coprime integral ideals I, J with (gamma) = I/J."""
    g = as_element(gamma, field)
    num, den = [], []
    for P, v in ideal_factors(g):
        (num if v > 0 else den).append((P, abs(v)))
    return _sorted_ideal(num), _sorted_ideal(den)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


_CYCLO: dict[int, tuple[int, ...]] = {1: (-1, 1)}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(num, den):
    """Quotient of num/den over Z; the division must be exact."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q[k] = c // den[-1]
        if q[k]:
            for j, dj in enumerate(den):
                num[k + j] -= q[k] * dj
    assert not any(num), "inexact polynomial division"
    return q


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, by exact division of x^n - 1."""
    if n < 1:
        raise UsageError("cyclotomic index must be >= 1")
    if n in _CYCLO:
        return _CYCLO[n]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_poly(d))
    num = [-1] + [0] * (n - 1) + [1]
    out = tuple(_poly_divexact(num, den))
    _CYCLO[n] = out
    return out


def cyclotomic_value(gamma, n: int,
                     field: Optional[QuadraticField] = None) -> QuadraticElement:
    """Phi_n(gamma), exactly, by Horner evaluation."""
    g = as_element(gamma, field)
    acc = as_element(0, g.field)
    for c in reversed(cyclotomic_poly(n)):
        acc = acc * g + c
    return acc


def squarefree_part(N: int) -> int:
    """Product of the primes dividing N with valuation exactly 1."""
    if N == 0:
        raise UsageError("0 has no squarefree part")
    out = 1
    for p, e in factorize(abs(N)).items():
        if e == 1:
            out *= p
    return out


# ---------------------------------------------------------------------------
# ideal splits and certificates


@dataclass(frozen=True)
class IdealSplit:
    n: int
    mode: str  # "power" | "cyclotomic"
    value: QuadraticElement
    u_part: IdealFactorization  # valuation exactly 1
    v_part: IdealFactorization  # valuation >= 2
    w_part: IdealFactorization  # denominator contributions


def ideal_split(gamma, n: int, mode: str,
                field: Optional[QuadraticField] = None) -> IdealSplit:
    """Split the ideal of gamma^n - 1 or Phi_n(gamma) by valuation profile."""
    g = as_element(gamma, field)
    if is_torsion(g):
        raise UsageError("torsion base: the split degenerates")
    if n < 1:
        raise UsageError("index must be >= 1")
    if mode == "power":
        value = g ** n - 1
    elif mode == "cyclotomic":
        value = cyclotomic_value(g, n)
    else:
        raise UsageError(f"unknown mode {mode!r}")
    u, v, w = [], [], []
    if not value.is_zero():
        for P, val in ideal_factors(value):
            if val == 1:
                u.append((P, 1))
            elif val >= 2:
                v.append((P, val))
            else:
                w.append((P, -val))
    return IdealSplit(n, mode, value, _sorted_ideal(u), _sorted_ideal(v),
                      _sorted_ideal(w))


@dataclass(frozen=True)
class NonWieferichCertificate:
    p: int
    prime_ideal: PrimeIdealData
    n: int
    order: int  # measured multiplicative order of the base at the prime
    k_p: int    # measured Fermat quotient

    @property
    def order_check(self) -> bool:
        return self.order == self.n

    @property
    def square_check(self) -> bool:
        return self.k_p != 0


def certificate_for_n(gamma, n: int,
                      field: Optional[QuadraticField] = None
                      ) -> list[NonWieferichCertificate]:
    """Certificates from the squarefree part of (Phi_n(gamma)).

    Filter: prime unramified, p does not divide n, prime outside the support
    of the numerator and denominator ideals of gamma.  Every survivor is then
    verified on both claims; a verification failure is a library bug.
    """
    g = as_element(gamma, field)
    if is_torsion(g):
        raise UsageError("torsion base certifies nothing")
    split = ideal_split(g, n, "cyclotomic")
    I, J = numerator_denominator(g)
    banned = I.support() | J.support()
    out = []
    for P, val in split.u_part.factors:
        assert val == 1
        if P.kind == "ramified":
            continue  # no order/Wieferich verdicts at ramified primes
        if n % P.p == 0 or P.label() in banned:
            continue
        order = multiplicative_order(reduce(g, (P, 1)))
        k_p = fermat_quotient_residue(g, P)
        if order != n:
            raise InvariantBreachError(
                f"certificate order failure at {P.label()}: ord={order}, n={n}"
            )
        if k_p == 0:
            raise InvariantBreachError(
                f"certificate found a Wieferich prime at {P.label()}, n={n}"
            )
        out.append(NonWieferichCertificate(P.p, P, n, order, k_p))
    return out


@dataclass(frozen=True)
class CertifiedCount:
    base: str
    bound: int
    count: int
    per_n: tuple[tuple[int, tuple[str, ...]], ...]  # witness index -> kept primes
    skipped: tuple[int, ...]  # indices lost to factorization failure
    # the kept certificates (norm <= bound), in emission order
    certificates: tuple[NonWieferichCertificate, ...] = ()


def witness_limit(gamma, bound: int,
                  field: Optional[QuadraticField] = None) -> int:
    """Largest admissible witness index: n <= (log bound - log 2)/h(gamma),
    ties at the boundary included.

    For rational gamma = a/b, h = log max(|a|, |b|), so the cutoff is the
    largest n with 2 * max(|a|, |b|)^n <= bound, decided in integers.
    """
    g = as_element(gamma, field)
    if is_torsion(g):
        raise UsageError("torsion base certifies nothing")
    if bound < 2:
        return 0
    if g.num_b == 0:
        q = g.as_fraction()
        M = max(abs(q.numerator), q.denominator)
        n, edge = 0, 2 * M
        while edge <= bound:
            n, edge = n + 1, edge * M
        return n
    h = element_height(g)
    assert h > 0  # non-torsion algebraic numbers of degree <= 2 have h > 0
    return int(math.floor((math.log(bound) - math.log(2)) / h + 1e-9))


def certified_count(gamma, bound: int,
                    field: Optional[QuadraticField] = None,
                    log=None) -> CertifiedCount:
    """Distinct certified non-Wieferich primes of norm <= bound.

    An unfactorable Phi_n(gamma) skips that n (the count stays a lower bound).
    """
    g = as_element(gamma, field)
    n_max = witness_limit(g, bound)
    seen: dict[str, int] = {}
    kept: set[str] = set()
    per_n, skipped, certs_kept = [], [], []
    for n in range(1, n_max + 1):
        try:
            certs = certificate_for_n(g, n)
        except FactorizationError as exc:
            skipped.append(n)
            if log:
                log(f"n={n} skipped: {exc}")
            continue
        labels = []
        for c in certs:
            lbl = c.prime_ideal.label()
            if seen.setdefault(lbl, n) != n:
                raise InvariantBreachError(
                    f"prime {lbl} certified by both n={seen[lbl]} and n={n}"
                )
            if c.prime_ideal.norm <= bound:
                kept.add(lbl)
                labels.append(lbl)
                certs_kept.append(c)
        per_n.append((n, tuple(labels)))
    return CertifiedCount(str(g), bound, len(kept), tuple(per_n), tuple(skipped),
                          tuple(certs_kept))
