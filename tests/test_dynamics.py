import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec import dynamics
from quadrec.dynamics import (
    _fundamental_unit,
    eigen_consistency,
    expected_counts,
    multiplicative_rank,
    orbit_period,
)
from quadrec.errors import (DegenerateInputError, InvariantBreachError,
                            ResourceLimitError, UsageError)
from quadrec.periods import (RecurrenceTuple, fibonacci_tuple, is_degenerate,
                             period_bruteforce, rational_tuple,
                             standard_battery)
from quadrec.factor import is_prime
from quadrec.ring import (as_element, field_norm, ideal_factors, is_torsion,
                          prime_ideals_above, qelem, quadratic_field,
                          sqrt_element)

K2 = quadratic_field(2)
K5 = quadratic_field(5)
KI = quadratic_field(-1)
PHI = qelem(K5, 0, 1)
TOL = 1e-12


def test_rank_unit_conjugate_pair():
    r = multiplicative_rank([PHI, PHI.conjugate()])
    assert r.free_rank == 1
    assert r.support_primes == ()
    assert r.valuation_matrix == ((), ())
    assert r.torsion_relations == ((1, 1),)  # phi * conj(phi) = -1


def test_rank_frozen_examples():
    assert multiplicative_rank([2, 3]).free_rank == 2
    assert multiplicative_rank([2, 4]).free_rank == 1
    assert multiplicative_rank([as_element(2, K5), PHI]).free_rank == 2
    assert multiplicative_rank([1]).free_rank == 0
    assert multiplicative_rank([-1, 2]).free_rank == 1
    assert multiplicative_rank([2, -2]).free_rank == 1
    assert multiplicative_rank([2, 8, 3]).free_rank == 2
    assert multiplicative_rank([Fraction(3, 2), 2]).free_rank == 2


def test_rank_recombines_powers_of_one_unit():
    r = multiplicative_rank([PHI ** 2, PHI ** 3])
    assert r.free_rank == 1
    assert r.torsion_relations == ((3, -2),)
    prod = (PHI ** 2) ** 3 * (PHI ** 3) ** (-2)
    assert is_torsion(prod)


def test_rank_valuation_matrix_entries():
    r = multiplicative_rank([Fraction(3, 2), 12])
    assert r.support_primes == ("2", "3")
    assert r.valuation_matrix == ((-1, 1), (2, 1))
    assert r.kernel_basis == ()
    assert r.free_rank == 2


def test_rank_torsion_relations_verify():
    for gens in [[PHI, PHI.conjugate()], [PHI ** 2, PHI ** 3],
                 [as_element(2, K5), as_element(-2, K5)],
                 [PHI, PHI ** 2, as_element(3, K5)]]:
        r = multiplicative_rank(gens)
        for vec in r.torsion_relations:
            prod = as_element(1, gens[0].field)
            for g, e in zip(gens, vec):
                prod = prod * g ** e
            assert is_torsion(prod)
        assert r.free_rank == len(gens) - len(r.torsion_relations)


def test_rank_product_size_bound():
    # (4000, -4001) asks for a product of about 3.2e7 bits: refused unformed
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="past the bound"):
        multiplicative_rank([2 ** 4001, 2 ** 4000])
    assert time.perf_counter() - start < 1
    assert multiplicative_rank([2 ** 64, 2 ** 63]).free_rank == 1


def test_rank_takes_exponents_past_64():
    r = multiplicative_rank([2 ** 70, 8])
    assert (r.free_rank, r.torsion_relations) == (1, ((3, -70),))
    # two powers of phi whose exponent ratio 3/100 no small fraction meets
    r = multiplicative_rank([PHI ** 100, PHI ** 3])
    assert (r.free_rank, r.torsion_relations) == (1, ((-3, 100),))
    assert r.kernel_basis == ((1, 0), (-3, 100))


def _two_three_phi(a, b, c, e, f, g):
    """[2^a*phi^b, 2^c, 3^e*phi^f, 3^g] in Q(sqrt5)."""
    two, three = as_element(2, K5), as_element(3, K5)
    return [two ** a * PHI ** b, two ** c, three ** e * PHI ** f, three ** g]


def test_rank_certifies_relations_without_forming_them(monkeypatch):
    # the relation's product would have 655,092,943 bits; the unit exponents
    # of the two kernel products already prove it torsion
    formed = []
    real = dynamics._product
    monkeypatch.setattr(dynamics, "_product",
                        lambda gens, vec: formed.append(vec) or real(gens, vec))
    start = time.perf_counter()
    r = multiplicative_rank(_two_three_phi(500, 500, 499, 500, 499, 498))
    assert time.perf_counter() - start < 10
    assert r.support_primes == ("2i", "3i")
    assert r.kernel_basis == ((499, -500, 0, 0),
                              (-124251, 124500, 124500, -125000))
    assert r.torsion_relations == ((-124251, 124500, 124500, -125000),)
    assert r.free_rank == 3
    assert formed == [(499, -500, 0, 0), (0, 0, 249, -250)]


@given(st.lists(st.integers(-60, 60), min_size=6, max_size=6))
@settings(max_examples=40)
def test_rank_of_powers_of_two_three_and_phi(exps):
    # 2, 3 and phi are independent modulo +-1, so w is a torsion relation
    # exactly when the exponent matrix M over (2, 3, phi) maps it to zero
    import sympy
    a, b, c, e, f, g = exps
    M = [[a, c, 0, 0], [0, 0, e, g], [b, 0, f, 0]]
    r = multiplicative_rank(_two_three_phi(*exps))
    assert r.free_rank == sympy.Matrix(M).rank()
    for w in r.torsion_relations:
        assert [sum(x * y for x, y in zip(row, w)) for row in M] == [0, 0, 0]


@pytest.mark.parametrize("d, want", [
    (2, (1, 1)), (3, (2, 1)), (5, (0, 1)), (6, (5, 2)), (7, (8, 3)),
    (13, (1, 1)), (61, (17, 5)), (94, (2143295, 221064)), (109, (118, 25)),
    (181, (604, 97))])
def test_fundamental_unit_table(d, want):
    # e.g. d = 61: 17 + 5*w = (39 + 5*sqrt(61))/2
    eps = _fundamental_unit(quadratic_field(d))
    assert (eps.num_a, eps.num_b, eps.den) == (*want, 1)


def _smallest_unit(d):
    """(x + y*sqrt(d))/2 > 1 with x^2 - d*y^2 = +-4 and the least y >= 1, on
    the (1, w) basis; x and y are even unless d = 1 mod 4."""
    step = 1 if d % 4 == 1 else 2
    for y in itertools.count(step, step):
        for s in (-4, 4):
            x = math.isqrt(d * y * y + s)
            if x * x == d * y * y + s and x % step == 0:
                return ((x - y) // 2, y) if d % 4 == 1 else (x // 2, y // 2)


@pytest.mark.parametrize("d", [d for d in range(2, 60)
                               if all(d % (q * q) for q in (2, 3, 5, 7))])
def test_fundamental_unit_is_the_smallest_unit(d):
    eps = _fundamental_unit(quadratic_field(d))
    assert (eps.num_a, eps.num_b) == _smallest_unit(d)


# a unit of infinite order in each real field, a root of unity elsewhere
ATOM_UNITS = [(None, as_element(-1)), (K2, qelem(K2, 1, 1)), (K5, PHI),
              (KI, qelem(KI, 0, 1))]


@st.composite
def _group_by_construction(draw):
    """Generators prod_j p_j^E[i][j] * u^E[i][-1] over 2-3 primes p_j and
    the field's unit u, with exponents up to 500, and the matrix E.

    Every kernel product gets formed, so E keeps them inside the size
    bound: of the primes that two generators share, at most one carries a
    unit factor, and then no generator is a pure power of u.
    """
    field, unit = draw(st.sampled_from(ATOM_UNITS))
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=2,
                           max_size=3, unique=True))
    exponent = st.integers(-500, 500).filter(bool)
    mixed = pair_left = draw(st.booleans())
    rows = []
    for j in range(len(primes)):
        n = draw(st.integers(1 if j == 0 else 0, 2))
        for i in range(n):
            row = [0] * (len(primes) + 1)
            row[j] = draw(exponent)
            if n == 1 or (i == 1 and pair_left):
                row[-1] = draw(st.integers(-500, 500))
                pair_left = pair_left and n == 1
            rows.append(row)
    if not mixed:
        rows += [[0] * len(primes) + [draw(exponent)]
                 for _ in range(draw(st.integers(0, 3)))]
    rows = draw(st.permutations(rows))
    gens = []
    for row in rows:
        g = unit ** row[-1]
        for p, e in zip(primes, row):
            g = g * as_element(p, field) ** e
        gens.append(g)
    return gens, rows


@given(_group_by_construction())
@settings(max_examples=60)
def test_rank_is_the_rank_of_the_exponent_matrix(case):
    import sympy
    gens, rows = case
    field = gens[0].field
    if field is None or field.d < 0:  # u is torsion: its column drops out
        rows = [row[:-1] for row in rows]
    r = multiplicative_rank(gens)
    assert r.free_rank == sympy.Matrix(rows).rank()
    for vec in r.torsion_relations:
        prod = as_element(1, field)
        for g, e in zip(gens, vec):
            prod = prod * g ** e
        assert is_torsion(prod)


def test_rank_rejects_bad_input():
    with pytest.raises(UsageError):
        multiplicative_rank([])
    with pytest.raises(UsageError):
        multiplicative_rank([2, 0])


def test_rank_rejects_generators_from_two_fields():
    # the first field used to win: these gave free rank 3 and a finite sum
    mixed = [qelem(quadratic_field(2), 1, 1), 3, sqrt_element(K5)]
    with pytest.raises(ValueError, match="elements from different fields"):
        multiplicative_rank(mixed)
    with pytest.raises(ValueError, match="elements from different fields"):
        expected_counts(mixed, [100])


@given(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9,
                             max_denominator=9), min_size=1, max_size=4),
       st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
@settings(max_examples=60)
def test_rank_bounds_and_monotonicity(gens, extra):
    r = multiplicative_rank(gens).free_rank
    assert 0 <= r <= len(gens)
    bigger = multiplicative_rank(gens + [extra]).free_rank
    assert r <= bigger <= r + 1


@given(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9,
                             max_denominator=9), min_size=1, max_size=3))
@settings(max_examples=40)
def test_rank_inversion_invariance(gens):
    direct = multiplicative_rank(gens).free_rank
    inverted = multiplicative_rank([1 / g for g in gens]).free_rank
    assert direct == inverted


def test_expected_count_values():
    assert abs(expected_counts([2], [10])[0] - (1 / 3 + 1 / 5 + 1 / 7)) < TOL
    assert abs(expected_counts([2, 3], [10])[0] - (1 / 25 + 1 / 49)) < TOL
    assert expected_counts([2], [2])[0] == 0.0


def test_expected_count_per_ideal():
    got = expected_counts([PHI ** 2], [11])[0]
    assert abs(got - (1 / 4 + 1 / 9 + 2 / 11)) < TOL
    got = expected_counts([as_element(3, K5)], [30])[0]
    # 3 is inert and degenerate; 5 is ramified; split primes count twice
    assert abs(got - (1 / 4 + 2 / 11 + 2 / 19 + 2 / 29)) < TOL


def test_expected_count_monotone_in_bound_and_rank():
    assert expected_counts([2], [100])[0] > expected_counts([2], [10])[0]
    assert expected_counts([2, 3], [100])[0] < expected_counts([2], [100])[0]


@pytest.mark.parametrize("gens", [[2], [2, 3], [PHI ** 2], [as_element(3, K5)]],
                         ids=["2", "2,3", "phi^2", "3 in Q(sqrt5)"])
def test_expected_counts_bit_identical_to_one_y_sums(gens):
    # the one-pass totals must equal the plain per-Y loop float for float
    ys = [5000, 10, 700, 10, 1, 2]
    r = multiplicative_rank(gens).free_rank
    field = as_element(gens[0]).field
    bad = {P.label() for g in gens for P, _ in ideal_factors(as_element(g))}
    want = []
    for y in ys:
        total = 0.0
        for p in range(2, y + 1):
            if not is_prime(p):
                continue
            for P in prime_ideals_above(field, p):
                if P.kind != "ramified" and P.norm <= y and P.label() not in bad:
                    total += P.norm ** (-r)
        want.append(total)
    assert expected_counts(gens, ys) == want
    assert [expected_counts(gens, [y])[0] for y in ys] == want
    assert expected_counts(gens, []) == []


def test_orbit_period_values():
    t = fibonacci_tuple()
    assert orbit_period(t, 7) == 16
    assert orbit_period(t, 11) == 10
    assert orbit_period(t, 1) == 1
    P11 = prime_ideals_above(K5, 11)[0]
    assert orbit_period(t, (P11, 1)) == 10
    P2 = prime_ideals_above(K5, 2)[0]
    assert orbit_period(t, (P2, 2)) == 6


def test_orbit_matches_bruteforce():
    for t in [fibonacci_tuple(), rational_tuple([2, 3], [1, 1]),
              rational_tuple([3], [2])]:
        for m in [7, 11, 13, 23, 49]:
            try:
                expect = period_bruteforce(t, m).period
            except DegenerateInputError:
                continue
            assert orbit_period(t, m) == expect, (t.name, m)


def test_orbit_matches_bruteforce_at_ideal_moduli():
    kinds = set()
    for t in standard_battery():
        for p in range(2, 2001):
            if not is_prime(p):
                continue
            for P in prime_ideals_above(t.field(), p):
                if P.kind == "ramified":
                    continue
                for e in (1, 2):
                    if P.norm ** e > 2000:
                        break
                    try:
                        expect = period_bruteforce(t, (P, e)).period
                    except DegenerateInputError:
                        with pytest.raises(DegenerateInputError):
                            orbit_period(t, (P, e))
                        continue
                    assert orbit_period(t, (P, e)) == expect, (t.name, P, e)
                    kinds.add((P.kind, e))
    assert kinds == {(k, e) for k in ("rational", "split", "inert")
                     for e in (1, 2)}


def test_orbit_rejects_singular_matrix_at_ideal_moduli():
    (P3,) = prime_ideals_above(None, 3)
    with pytest.raises(DegenerateInputError):
        orbit_period(rational_tuple([3], [2]), (P3, 2))
    (P2,) = prime_ideals_above(None, 2)
    with pytest.raises(DegenerateInputError):
        orbit_period(rational_tuple([2, 3], [1, 1]), (P2, 1))
    # roots 2 and phi: c_0 = 2*phi vanishes at the inert prime above 2
    one = as_element(1, K5)
    t = RecurrenceTuple((as_element(2, K5), PHI), (one, one))
    (Q2,) = prime_ideals_above(K5, 2)
    with pytest.raises(DegenerateInputError):
        orbit_period(t, (Q2, 1))
    P11 = prime_ideals_above(K5, 11)[0]
    assert orbit_period(t, (P11, 1)) == \
        period_bruteforce(t, (P11, 1)).period


def test_orbit_rejects_singular_matrix():
    with pytest.raises(DegenerateInputError):
        orbit_period(rational_tuple([3], [2]), 9)
    with pytest.raises(DegenerateInputError):
        orbit_period(rational_tuple([2, 3], [1, 1]), 4)  # det -6 shares 2 with 4


@pytest.mark.parametrize("shift", [1, -1])
def test_orbit_matrix_power_catches_a_wrong_return(monkeypatch, shift):
    import quadrec.dynamics as mod
    real = mod._state_period
    monkeypatch.setattr(mod, "_state_period",
                        lambda *args: real(*args) + shift)
    with pytest.raises(InvariantBreachError, match="matrix-power check"):
        orbit_period(fibonacci_tuple(), 7)  # 16 is the true period
    P11 = prime_ideals_above(K5, 11)[0]
    with pytest.raises(InvariantBreachError, match="matrix-power check"):
        orbit_period(fibonacci_tuple(), (P11, 2))


def test_modulus_one_embeds_and_returns_at_once():
    for t in standard_battery():
        assert orbit_period(t, 1) == period_bruteforce(t, 1).period == 1


@pytest.mark.parametrize("gen", [as_element(2), qelem(KI, 1, 1),
                                 as_element(2, K5)],
                         ids=["2", "1+i", "2 in Q(sqrt5)"])
def test_rank_rejects_a_kernel_product_outside_the_units(monkeypatch, gen):
    import quadrec.dynamics as mod
    # with the support dropped, the generator is a kernel vector whose
    # product is not a unit: in Q and Q(i) not torsion, in Q(sqrt5) no +-eps^k
    monkeypatch.setattr(mod, "_valuation_rows", lambda factor_lists: [])
    with pytest.raises(InvariantBreachError, match="support missed a prime"):
        multiplicative_rank([gen])


def test_eigen_consistency_examples():
    t = rational_tuple([2, 3], [1, 1])
    out = eigen_consistency(t, 7)
    assert out["orbit"] == out["formula"] == 6 and out["match"]
    assert eigen_consistency(t, 11)["orbit"] == 10
    assert eigen_consistency(fibonacci_tuple(), 7)["orbit"] == 16
    assert eigen_consistency(rational_tuple([2, 3, 5], [1, 1, 1]), 7)["orbit"] == 6


def test_eigen_consistency_battery():
    checked = 0
    for t in standard_battery():
        f = t.field()
        for p in range(2, 60):
            if not is_prime(p):
                continue
            for P in prime_ideals_above(f, p):
                if P.kind == "ramified" or is_degenerate(t, P):
                    continue
                e = 1
                while P.norm ** e <= 400:
                    out = eigen_consistency(t, (P, e))
                    assert out["match"]
                    checked += 1
                    e += 1
    assert checked > 100
