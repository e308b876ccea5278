"""Multiplicative group structure of recurrence roots, prime-counting
heuristics, and the companion-matrix view of a recurrence.

Rank computations are exact and use no float: the valuation matrix is
integral, its kernel is computed over the rationals, and a unit's exponent
against the fundamental unit is read off exact comparisons, which certify
every torsion relation without forming its product.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InvariantBreachError, ResourceLimitError, UsageError
from .factor import iter_primes
from .heights import _valuation_rows
from .periods import (RecurrenceTuple, _pair_embedding, _state_period,
                      char_coefficients, ideal_factorization, period_formula)
from .record import Record
from .ring import (QuadraticElement, QuadraticField, _prime_ideals_above,
                   as_element, as_elements, ideal_factors, is_torsion)

PRODUCT_BITS = 1 << 22  # largest sum_i |e_i| * bits(g_i) of a product we form


class MultiplicativeGroupReport(Record):
    support_primes: tuple[str, ...]
    valuation_matrix: tuple[tuple[int, ...], ...]  # rows follow the generators
    kernel_basis: tuple[tuple[int, ...], ...]
    torsion_relations: tuple[tuple[int, ...], ...]
    free_rank: int


def _nullspace(columns: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {e : sum_i e_i * columns[j][i] = 0 for all j}."""
    mat = [[Fraction(c) for c in col] for col in columns]
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        den = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * den) for v in vec]
        g = math.gcd(*ints)
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        basis.append(tuple(ints))
    return basis


def _product(gens: Sequence[QuadraticElement],
             vec: Sequence[int]) -> QuadraticElement:
    size = sum(abs(e) * (g.num_a.bit_length() + g.num_b.bit_length()
                         + g.den.bit_length()) for g, e in zip(gens, vec))
    if size > PRODUCT_BITS:
        raise ResourceLimitError(f"kernel vector {tuple(vec)} asks for a product "
                                 f"of {size} bits, past the bound {PRODUCT_BITS}")
    return math.prod((g ** e for g, e in zip(gens, vec) if e),
                     start=as_element(1, gens[0].field))


def _fundamental_unit(f: QuadraticField) -> QuadraticElement:
    """The unit eps > 1 of a real field that generates its units up to sign:
    h - g*omega', from the first convergent h/g of omega's continued fraction
    with N(h - g*omega) = +-1 (Cohen, GTM 138, 5.7)."""
    t, n, r = f.omega_trace, f.omega_norm, math.isqrt(f.disc)
    P, Q = t, 2  # omega = (P + sqrt(disc))/Q
    h, h0, g, g0 = 1, 0, 0, 1
    while True:
        a = (P + r) // Q
        h, h0, g, g0 = a * h + h0, h, a * g + g0, g
        if abs(h * h - t * h * g + n * g * g) == 1:
            return QuadraticElement(f, h - g * t, g, 1)
        P = a * Q - P
        Q = (f.disc - P * P) // Q


def _unit_exponent(u: QuadraticElement) -> int:
    """k with u = +-eps^k for eps the fundamental unit of a real field, read
    bit by bit off exact comparisons with eps^(2^i); 0 for torsion u.  In Q
    and imaginary fields, whose units are all torsion, any other u raises."""
    if is_torsion(u):
        return 0
    k, sign, f, rem = 0, 1, u.field, u
    if f is not None and f.d > 0:
        def big(x):  # |x| >= 1 for a unit x = s + t*sqrt(d) iff s*t >= 0
            return (2 * x.num_a + x.num_b * f.omega_trace) * x.num_b >= 0
        sign = 1 if big(u) else -1
        rem, powers = u ** sign, [_fundamental_unit(f)]
        while big(rem / powers[-1]):
            powers.append(powers[-1] ** 2)
        for power in reversed(powers):
            r = rem / power
            k, rem = (2 * k + 1, r) if big(r) else (2 * k, rem)
    if not is_torsion(rem):
        raise InvariantBreachError(f"kernel product {u} is not a power of the "
                                   f"fundamental unit: the support missed a prime")
    return sign * k


def _coerce_generators(a):
    out = as_elements(a)
    if not out:
        raise UsageError("at least one generator is required")
    if any(x.is_zero() for x in out):
        raise UsageError("zero is not a generator of a multiplicative group")
    return out


def multiplicative_rank(a) -> MultiplicativeGroupReport:
    """Exact free rank of the group generated by a, with full bookkeeping.

    Each kernel vector v of the valuation matrix gives a unit +-eps^k_v.
    The units have free rank at most one, so the v of largest |k_v| is kept
    and every other non-torsion v gives the relation
    (k_keep*v - k_v*keep)/gcd, torsion since its exponent on eps is 0.
    """
    gens = _coerce_generators(a)
    m = len(gens)
    support = sorted(_valuation_rows([ideal_factors(g) for g in gens]),
                     key=lambda r: (r[0].p, r[0].label()))
    labels = [P.label() for P, _ in support]
    columns = [vrow for _, vrow in support]
    matrix = tuple(zip(*columns)) if columns else ((),) * m
    basis = _nullspace(columns, m)

    exps = [_unit_exponent(_product(gens, vec)) for vec in basis]
    torsion = [vec for vec, k in zip(basis, exps) if not k]
    free = [(k, vec) for vec, k in zip(basis, exps) if k]
    if free:
        kj, keep = max(free, key=lambda kv: abs(kv[0]))  # the first on a tie
        for ki, vec in free:
            g = math.gcd(ki, kj) if kj > 0 else -math.gcd(ki, kj)
            w = tuple((kj * x - ki * y) // g for x, y in zip(vec, keep))
            if any(w):  # keep itself gives the zero vector
                torsion.append(w)
        free = [(kj, keep)]
    kernel = tuple(vec for _, vec in free) + tuple(torsion)
    return MultiplicativeGroupReport(
        support_primes=tuple(labels), valuation_matrix=matrix,
        kernel_basis=kernel, torsion_relations=tuple(torsion),
        free_rank=m - len(torsion))


def expected_counts(a, Ys: Sequence[int]) -> list[float]:
    """For every Y in Ys, the sum of N(P)^(-r) over admissible primes of norm
    at most Y, where r is the free rank of the group generated by a; split
    primes count per ideal.  One prime pass serves every Y, and each total
    adds its terms in ascending order, bit-identical to a pass for Y alone.
    """
    if not Ys:
        return []
    gens = _coerce_generators(a)
    rank = multiplicative_rank(gens)
    r, degenerate = rank.free_rank, set(rank.support_primes)
    f = gens[0].field
    ys = sorted(set(Ys), reverse=True)
    totals = dict.fromkeys(ys, 0.0)
    for p in iter_primes(2, ys[0] + 1):
        for P in _prime_ideals_above(f, p):
            if P.kind == "ramified" or P.label() in degenerate:
                continue
            term = P.norm ** (-r)
            for y in ys:  # every Y >= N(P), largest first
                if P.norm > y:
                    break
                totals[y] += term
    return [totals[y] for y in Ys]


# ---------------------------------------------------------------------------
# companion matrices


def _mat_vec(ring, M, q):
    """M q over pairs with ring = (t, n, mod), each entry summed on the pairs
    and reduced once at the end."""
    tr, nm, mod = ring
    out = []
    for row in M:
        u = v = 0
        for (a, b), (c, d) in zip(row, q):
            bd = b * d
            u += a * c - nm * bd
            v += a * d + b * c + tr * bd
        out.append((u % mod, v % mod))
    return out


def _mat_mul(ring, A, B):
    """A B, one column of B at a time."""
    return tuple(zip(*(_mat_vec(ring, A, col) for col in zip(*B))))


def orbit_period(t: RecurrenceTuple, modulus) -> int:
    """Smallest k >= 1 with M^k q0 = q0, for M the companion matrix of t and
    q0 its start state: the first return of the oracle's state loop, then
    confirmed by applying the binary powers of M to q0.

    M q shifts the state and appends the recurrence step, so the last row of
    M is the embedded coefficients and every other row a shift.
    """
    cs, q0, ring = _pair_embedding(t, modulus)
    k = _state_period(cs, q0, *ring)
    M = [[(1, 0) if j == i + 1 else (0, 0) for j in range(len(cs))]
         for i in range(len(cs) - 1)] + [cs]
    q, e = q0, k
    while e:
        if e & 1:
            q = _mat_vec(ring, M, q)
        e >>= 1
        if e:
            M = _mat_mul(ring, M, M)
    if q != q0:
        raise InvariantBreachError("orbit return failed the matrix-power check")
    return k


def eigen_consistency(t: RecurrenceTuple, modulus) -> dict:
    """Cross-validate the companion orbit against the order formula, and the
    characteristic polynomial against the root factorization."""
    cs = char_coefficients(t)
    for a in t.a:
        val = a ** len(cs)
        for j, c in enumerate(cs):
            val = val - c * a ** j
        if not val.is_zero():
            raise InvariantBreachError(
                f"root {a} fails the characteristic polynomial")
    fac = ideal_factorization(t.field(), modulus) \
        if isinstance(modulus, int) else [modulus]
    formula = period_formula(t, fac)
    orbit = orbit_period(t, modulus)
    if orbit != formula.period:
        raise InvariantBreachError(
            f"orbit period {orbit} != formula period {formula.period} "
            f"mod {modulus}")
    return {"modulus": modulus, "orbit": orbit, "formula": formula.period,
            "match": True}
