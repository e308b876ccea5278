"""Multiplicative group structure of recurrence roots, prime-counting
heuristics, and the companion-matrix view of a recurrence.

Rank computations are exact: the valuation matrix is integral, its kernel is
computed over the rationals, and every claimed torsion relation is verified
by evaluating the corresponding product in the field.  Floating point enters
only to GUESS a recombination, never to certify one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantBreachError, ResourceLimitError, UsageError
from .heights import _infinite_places, _valuation_rows
from .periods import (RecurrenceTuple, _pair_embedding, _state_period,
                      char_coefficients, ideal_factorization, initial_terms,
                      period_formula)
from .ring import (QuadraticElement, _prime_ideals_above, as_element,
                   as_elements, is_torsion, iter_primes)

EXPONENT_CLAMP = 64  # largest |e_i| we will raise a generator to


@dataclass(frozen=True)
class MultiplicativeGroupReport:
    generators: tuple[str, ...]
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


def _clamped_product(gens: Sequence[QuadraticElement],
                     vec: Sequence[int]) -> QuadraticElement:
    if max(abs(e) for e in vec) > EXPONENT_CLAMP:
        raise ResourceLimitError(
            f"kernel vector {tuple(vec)} exceeds the exponent clamp "
            f"{EXPONENT_CLAMP}")
    out = as_element(1, gens[0].field)
    for g, e in zip(gens, vec):
        if e:
            out = out * g ** e
    return out


def _archimedean_log(x: QuadraticElement) -> float:
    """log of the first infinite place value; nonzero iff a unit is
    non-torsion (degree <= 2)."""
    return float(_infinite_places(x)[0].log_value())


def _coerce_generators(a):
    out = as_elements(a)
    if not out:
        raise UsageError("at least one generator is required")
    if any(x.is_zero() for x in out):
        raise UsageError("zero is not a generator of a multiplicative group")
    return out


def multiplicative_rank(a) -> MultiplicativeGroupReport:
    """Exact free rank of the group generated by a, with full bookkeeping.

    Kernel vectors of the valuation matrix give unit-valued products; each is
    either verified torsion or recombined (in a real field, where the unit
    rank is one) until the torsion relations span everything they can.
    """
    gens = _coerce_generators(a)
    m = len(gens)
    support = sorted(_valuation_rows(gens), key=lambda r: (r[0].p, r[0].label()))
    labels = [P.label() for P, _ in support]
    columns = [vrow for _, vrow in support]
    matrix = tuple(zip(*columns)) if columns else ((),) * m
    basis = _nullspace(columns, m)

    torsion, nontorsion = [], []
    for vec in basis:
        prod = _clamped_product(gens, vec)
        (torsion if is_torsion(prod) else nontorsion).append(vec)

    if len(nontorsion) > 1:
        # the unit group has free rank one here, so all of these are powers
        # of a single unit; recombine pairwise down to one representative
        logs = [_archimedean_log(_clamped_product(gens, v)) for v in nontorsion]
        j = max(range(len(nontorsion)), key=lambda i: abs(logs[i]))
        if logs[j] == 0:
            raise InvariantBreachError(
                f"non-torsion kernel vector {nontorsion[j]} has a zero log")
        keep = nontorsion[j]
        recombined = [keep]
        for i, vec in enumerate(nontorsion):
            if i == j:
                continue
            ratio = Fraction(logs[i] / logs[j]).limit_denominator(EXPONENT_CLAMP)
            w = tuple(ratio.denominator * x - ratio.numerator * y
                      for x, y in zip(vec, keep))
            cand = _clamped_product(gens, w)
            if not is_torsion(cand):
                raise ResourceLimitError(
                    f"recombination of {vec} against {keep} is not torsion "
                    f"within the exponent clamp")
            torsion.append(w)
        nontorsion = recombined

    kernel = tuple(nontorsion) + tuple(torsion)
    return MultiplicativeGroupReport(
        generators=tuple(str(g) for g in gens),
        support_primes=tuple(labels),
        valuation_matrix=matrix,
        kernel_basis=kernel,
        torsion_relations=tuple(torsion),
        free_rank=m - len(torsion),
    )


def expected_count(a, Y: int) -> float:
    """Sum of N(P)^(-r) over admissible primes of norm at most Y, where r is
    the free rank of the group generated by a; split primes count per ideal."""
    return expected_counts(a, [Y])[0]


def expected_counts(a, Ys: Sequence[int]) -> list[float]:
    """expected_count(a, Y) for every Y in Ys, from one prime pass.

    Each total adds its own terms in the order expected_count(a, Y) adds
    them, so every float is bit-identical to the one-Y call.
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


@dataclass(frozen=True)
class CompanionSystem:
    source: RecurrenceTuple
    coefficients: tuple[QuadraticElement, ...]  # c_0 .. c_{m-1}
    matrix: tuple[tuple[QuadraticElement, ...], ...]
    q0: tuple[QuadraticElement, ...]


def companion_system(t: RecurrenceTuple) -> CompanionSystem:
    """Companion matrix M and initial state q0 with q_{k+1} = M q_k."""
    cs = char_coefficients(t)
    m = len(cs)
    f = t.field()
    zero, one = as_element(0, f), as_element(1, f)
    rows = []
    for i in range(m - 1):
        rows.append(tuple(one if j == i + 1 else zero for j in range(m)))
    rows.append(tuple(cs))
    return CompanionSystem(t, tuple(cs), tuple(rows), initial_terms(t))


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
    return tuple(out)


def _mat_mul(ring, A, B):
    """A B, one column of B at a time."""
    return tuple(zip(*(_mat_vec(ring, A, col) for col in zip(*B))))


def _mat_pow(ring, M, k):
    if k < 1:
        raise InvariantBreachError(f"matrix power exponent {k} is below 1")
    result = None
    acc = M
    while k:
        if k & 1:
            result = acc if result is None else _mat_mul(ring, result, acc)
        k >>= 1
        if k:
            acc = _mat_mul(ring, acc, acc)
    return result


def orbit_period(sys: CompanionSystem, modulus,
                 budget: int = 10 ** 7) -> int:
    """Smallest k >= 1 with M^k q0 = q0, by iteration, then confirmed by an
    independent binary matrix power.

    M is a companion matrix, so M q shifts the state and appends the
    recurrence step: the iteration is the state loop of the period oracle.
    """
    if modulus == 1:
        return 1
    embed, ring = _pair_embedding(sys.source.field(), modulus,
                                  sys.coefficients[0])
    M = tuple(tuple(embed(x) for x in row) for row in sys.matrix)
    q0 = tuple(embed(x) for x in sys.q0)
    k = _state_period(list(M[-1]), list(q0), *ring, budget)
    Mk = _mat_pow(ring, M, k)
    if _mat_vec(ring, Mk, q0) != q0:
        raise InvariantBreachError("orbit return failed the matrix-power check")
    return k


def eigen_consistency(t: RecurrenceTuple, modulus) -> dict:
    """Cross-validate the companion orbit against the order formula, and the
    characteristic polynomial against the root factorization."""
    sys = companion_system(t)
    m = len(sys.coefficients)
    for a in t.a:
        val = a ** m
        for j, c in enumerate(sys.coefficients):
            val = val - c * a ** j
        if not val.is_zero():
            raise InvariantBreachError(
                f"root {a} fails the characteristic polynomial")
    fac = ideal_factorization(t.field(), modulus) \
        if isinstance(modulus, int) else [modulus]
    formula = period_formula(t, fac)
    orbit = orbit_period(sys, modulus)
    if orbit != formula.period:
        raise InvariantBreachError(
            f"orbit period {orbit} != formula period {formula.period} "
            f"mod {modulus}")
    return {"modulus": modulus, "orbit": orbit, "formula": formula.period,
            "match": True}
