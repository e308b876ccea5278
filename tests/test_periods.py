import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import oracles
import quadrec.periods
from quadrec.errors import (DegenerateInputError, InvariantBreachError,
                            ResourceLimitError, UsageError)
from quadrec.periods import (
    PeriodReport,
    RecurrenceTuple,
    _fib_pair,
    _int_state_period,
    _state_period,
    char_coefficients,
    fibonacci_tuple,
    ideal_factorization,
    initial_terms,
    is_degenerate,
    least_period,
    lucas_tuple,
    multiplicative_order,
    period_bruteforce,
    period_formula,
    pisano,
    pisano_prime_power,
    rational_tuple,
    standard_battery,
)
from quadrec.ring import (
    as_element,
    prime_ideals_above,
    qelem,
    quad_valuation,
    quadratic_field,
    reduce,
)

K5 = quadratic_field(5)
FIB = fibonacci_tuple()


# ---------------------------------------------------------------------------
# tuple structure


def test_fibonacci_tuple_reproduces_fibonacci():
    xs = initial_terms(FIB)
    assert [x.as_fraction() for x in xs] == [0, 1]
    assert char_coefficients(FIB) == (as_element(1, K5), as_element(1, K5))
    # closed form at a few deeper indices
    phi, phibar = FIB.a
    b1, b2 = FIB.b
    for k, fk in [(2, 1), (3, 2), (7, 13), (10, 55)]:
        val = b1 * phi ** k + b2 * phibar ** k
        assert val.as_fraction() == fk


def test_lucas_tuple_initials():
    assert [x.as_fraction() for x in initial_terms(lucas_tuple())] == [2, 1]


def test_rational_tuple_companion_data():
    t = rational_tuple((2, 3), (1, 1))
    assert [c.as_fraction() for c in char_coefficients(t)] == [-6, 5]
    assert [x.as_fraction() for x in initial_terms(t)] == [2, 5]
    t3 = rational_tuple((2, 3, 5), (1, 1, 1))
    assert [c.as_fraction() for c in char_coefficients(t3)] == [30, -31, 10]
    assert [x.as_fraction() for x in initial_terms(t3)] == [3, 10, 38]


def test_char_coefficients_demands_a_monic_expansion(monkeypatch):
    t = rational_tuple((2, 3), (1, 1))
    real = quadrec.periods.as_element
    # a leading coefficient of 2 stands in for a broken expansion
    monkeypatch.setattr(quadrec.periods, "as_element",
                        lambda x, f=None: real(2 if x == 1 else x, f))
    with pytest.raises(InvariantBreachError, match="monic"):
        char_coefficients(t)


def test_tuple_rejects_repeats_and_zeros():
    with pytest.raises(Exception):
        rational_tuple((2, 2), (1, 1))
    with pytest.raises(Exception):
        rational_tuple((2, 3), (1, 0))


@pytest.mark.parametrize("route", [
    lambda t: period_formula(t, ideal_factorization(t.field(), 7)),
    lambda t: period_bruteforce(t, 7),
], ids=["formula", "bruteforce"])
def test_tuple_rejects_two_fields(route):
    K2 = quadratic_field(2)
    phi, one = qelem(K5, 0, 1), as_element(1)
    for a, b in (((phi, qelem(K2, 0, 1)), (one, one)),
                 ((phi, as_element(2)), (one, qelem(K2, 1, 1)))):
        with pytest.raises(UsageError, match="elements from different fields"):
            route(RecurrenceTuple(a, b))


# ---------------------------------------------------------------------------
# degeneracy


K2 = quadratic_field(2)
# 7 divides only a weight's denominator
DEN7 = RecurrenceTuple(FIB.a, (qelem(K5, 1, 0, 7), as_element(1, K5)), "den7")
# N(3 + sqrt 2) = 7: valuation 1 at one ideal above 7, 0 at the other
NORM7 = RecurrenceTuple((qelem(K2, 3, 1), qelem(K2, 1, 1)),
                        (as_element(1, K2), as_element(1, K2)), "norm7")


@pytest.mark.parametrize("t", standard_battery() + [DEN7, NORM7],
                         ids=lambda t: t.name)
def test_degeneracy_screen_matches_the_valuations(t):
    # every prime ideal above p < 200, split, inert and ramified alike; a
    # rational tuple is also tried at the ideals of Q(sqrt 5)
    fields = {t.field(), K5} if t.field() is None else {t.field()}
    seen = set()
    for fld in fields:
        for p in oracles.primes_below(200):
            for P in prime_ideals_above(fld, p):
                want = any(quad_valuation(x, P) != 0 for x in t.a + t.b)
                assert is_degenerate(t, P) == want, P.label()
                seen.add(P.kind)
    kinds = {"split", "inert", "ramified"}
    assert seen == (kinds | {"rational"} if t.field() is None else kinds)


def test_degeneracy_screen_skips_the_valuations(monkeypatch):
    # 7 divides no denominator or norm of the Fibonacci tuple's entries
    calls = []
    real = quadrec.periods.quad_valuation
    monkeypatch.setattr(quadrec.periods, "quad_valuation",
                        lambda x, P: calls.append(P) or real(x, P))
    (Q,) = prime_ideals_above(K5, 7)
    (R,) = prime_ideals_above(K5, 5)
    assert not is_degenerate(FIB, Q)
    assert calls == []
    assert is_degenerate(FIB, R)
    assert calls


def test_degenerate_flags():
    (R,) = prime_ideals_above(K5, 5)
    (Q,) = prime_ideals_above(K5, 7)
    assert is_degenerate(FIB, R)  # 1/sqrt(5) has valuation -1 there
    assert not is_degenerate(FIB, Q)
    t = rational_tuple((2, 3), (1, 1))
    (S,) = prime_ideals_above(None, 3)
    assert is_degenerate(t, S)
    (S2,) = prime_ideals_above(None, 7)
    assert not is_degenerate(t, S2)
    (P7,) = prime_ideals_above(K5, 7)
    assert is_degenerate(DEN7, P7)
    A, B = prime_ideals_above(K2, 7)
    assert (is_degenerate(NORM7, A), is_degenerate(NORM7, B)) == (False, True)


# ---------------------------------------------------------------------------
# multiplicative order


def test_least_period_strips_to_every_divisor():
    # "j is a multiple of d" holds at K for every d | K, and its least
    # period is d; K = 1 has no primes, and 2^8, 3^5, 2^2*3^2*5 repeat them
    for K in range(1, 501):
        primes = [q for q in range(2, K + 1)
                  if K % q == 0 and all(q % r for r in range(2, q))]
        for d in range(1, K + 1):
            if K % d == 0:
                assert least_period(K, primes, lambda j: j % d == 0) == d


def test_order_examples():
    (P7,) = prime_ideals_above(None, 7)
    assert multiplicative_order(reduce(1, (P7, 1))) == 1
    assert multiplicative_order(reduce(2, (P7, 1))) == 3
    (P,) = prime_ideals_above(None, 1093)
    assert multiplicative_order(reduce(2, (P, 2))) == 364
    # 1093 is base-2 Wieferich: order does not grow from p to p^2
    assert multiplicative_order(reduce(2, (P, 1))) == 364


@given(st.integers(min_value=2, max_value=400))
def test_order_matches_brute(a):
    for p in (7, 11, 13):
        for e in (1, 2):
            if a % p == 0:
                continue
            (P,) = prime_ideals_above(None, p)
            assert multiplicative_order(reduce(a, (P, e))) == oracles.order_brute(
                a, p ** e
            )


def test_order_in_inert_residue_ring():
    (Q,) = prime_ideals_above(K5, 7)
    phi = qelem(K5, 0, 1)
    r = reduce(phi, (Q, 2))
    assert multiplicative_order(r) == oracles.pair_order_brute(r.u, r.v, 7, 2, 1, -1)


# ---------------------------------------------------------------------------
# the closed period formula


def test_formula_fibonacci_inert_seven():
    (Q,) = prime_ideals_above(K5, 7)
    rep = period_formula(FIB, [(Q, 1)])
    assert rep.period == 16
    assert rep.method == "formula"
    lcm = 1
    for _, _, k in rep.per_generator_orders:
        lcm = lcm * k // math.gcd(lcm, k)
    assert lcm == rep.period


def test_formula_fibonacci_split_eleven():
    pair = [(P, 1) for P in prime_ideals_above(K5, 11)]
    assert period_formula(FIB, pair).period == 10


def test_formula_empty_modulus():
    assert period_formula(FIB, []).period == 1


def test_formula_rejects_ramified_and_degenerate():
    (R,) = prime_ideals_above(K5, 5)
    with pytest.raises(DegenerateInputError):
        period_formula(FIB, [(R, 1)])
    (S,) = prime_ideals_above(None, 3)
    with pytest.raises(DegenerateInputError):
        period_formula(rational_tuple((2, 3), (1, 1)), [(S, 1)])


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_fibonacci_small_moduli():
    assert period_bruteforce(FIB, 7).period == 16
    assert period_bruteforce(FIB, 1).period == 1
    assert period_bruteforce(FIB, 21).period == 16
    assert period_bruteforce(FIB, 10).period == 60  # ramified factor 5 accepted


def test_brute_matches_plain_iteration():
    for m in (4, 6, 7, 11, 13, 25, 30):
        assert period_bruteforce(FIB, m).period == oracles.pisano_brute(m)


def test_brute_ideal_vs_rational_modulus():
    (Q,) = prime_ideals_above(K5, 7)
    assert period_bruteforce(FIB, (Q, 1)).period == period_bruteforce(FIB, 7).period
    for P in prime_ideals_above(K5, 11):
        assert period_bruteforce(FIB, (P, 1)).period == 10


def test_brute_ideal_reduces_each_value_once(monkeypatch):
    # c0 is reduced once for the unit check, and that residue is embedded
    calls = []
    monkeypatch.setattr(quadrec.periods, "reduce",
                        lambda x, m: calls.append(x) or reduce(x, m))
    for P in prime_ideals_above(K5, 11):
        assert period_bruteforce(FIB, (P, 2)).period == 110
    coeffs, xs = char_coefficients(FIB), initial_terms(FIB)
    assert calls == 2 * [coeffs[0], coeffs[1], *xs]


def test_brute_ideal_power_matches_its_integer_modulus():
    # O_K/P^e is Z[w]/p^e at inert and rational P, so the (t, n, p^e) triple
    # that _pair_embedding builds for (P, e) must give the p^e period
    covered = set()
    for t in standard_battery():
        for p in oracles.primes_below(3001):
            for P in prime_ideals_above(t.field(), p):
                if P.kind not in ("inert", "rational") or is_degenerate(t, P):
                    continue
                for e in range(1, 4):
                    if P.norm ** e > 3000:
                        break
                    assert (period_bruteforce(t, (P, e)).period
                            == period_bruteforce(t, p ** e).period), (
                        t.name, P.label(), e)
                    covered.add((P.kind, e))
    assert covered == {(kind, e) for kind in ("inert", "rational")
                       for e in (1, 2, 3)}


def test_brute_quadratic_valued_tuple():
    # x_k = phi^k is not rational, so the pair path is the one exercised
    t = RecurrenceTuple((qelem(K5, 0, 1),), (as_element(1, K5),), "phi-power")
    (Q,) = prime_ideals_above(K5, 7)
    rep = period_bruteforce(t, (Q, 1))
    assert rep.period == multiplicative_order(reduce(qelem(K5, 0, 1), (Q, 1)))
    assert period_bruteforce(t, 7).period == rep.period


def test_brute_rejects_non_unit_constant_term():
    with pytest.raises(DegenerateInputError):
        period_bruteforce(rational_tuple((3,), (2,)), 9)


@pytest.mark.parametrize("cs, xs, mod, period", [
    ([3], [1], 7, 6),                       # 3 has order 6 mod 7
    ([1, 1], [0, 1], 7, 16),                # Fibonacci, pi(7) = 16
    ([30 % 11, -31 % 11, 10], [3, 10, 38 % 11], 11, 10),  # 2^k + 3^k + 5^k
], ids=["order1", "order2", "order3"])
def test_state_loop_budget_guard(cs, xs, mod, period):
    with pytest.raises(ResourceLimitError):
        _int_state_period(cs, xs, mod, period - 1)
    assert _int_state_period(cs, xs, mod, period) == period


@given(st.data())
def test_int_state_loops_match_the_plain_sequence(data):
    # each per-order loop against the first return of the state built from
    # plain terms; a budget the oracle does not reach must raise
    m = data.draw(st.integers(2, 500))
    r = data.draw(st.integers(1, 3))
    cs = data.draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))
    assume(math.gcd(cs[0], m) == 1)
    xs = data.draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))
    budget = 3000
    terms = oracles.sequence_brute(cs, xs, m, budget + r)
    first = next((k for k in range(1, budget + 1)
                  if terms[k:k + r] == terms[:r]), None)
    if first is None:
        with pytest.raises(ResourceLimitError):
            _int_state_period(cs, xs, m, budget)
    else:
        assert _int_state_period(cs, xs, m, budget) == first


def test_order_four_rational_state_takes_the_pair_loop(monkeypatch):
    budgets = []

    def pair_loop(cs, xs, wt, wn, mod, budget):
        budgets.append(budget)
        return real(cs, xs, wt, wn, mod, budget)

    real = quadrec.periods._pair_state_period
    monkeypatch.setattr(quadrec.periods, "_pair_state_period", pair_loop)
    # roots 2, 3, 5, 7 and weights 1: x_k+4 = -210 x_k + 247 x_k+1 - 101 x_k+2
    # + 17 x_k+3, from x = 4, 17, 87, 503
    cs = [(-210 % 143, 0), (247 % 143, 0), (-101 % 143, 0), (17, 0)]
    xs = [(4, 0), (17, 0), (87, 0), (503 % 143, 0)]
    assert _state_period(cs, xs, 0, 0, 143) == 60
    assert budgets == [6 * 143 ** 2]
    # the guard: the same state with one step too few to return, and with
    # exactly enough
    with pytest.raises(ResourceLimitError):
        real(cs, xs, 0, 0, 143, 59)
    assert real(cs, xs, 0, 0, 143, 60) == 60


def _first_return(roots, weights, m):
    """Period of x_k = sum w r^k mod m from plain terms, by first return."""
    coeffs = [1]
    for r in roots:  # prod (x - r), lowest degree first
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    cs = [-c for c in coeffs[:-1]]
    init = [sum(w * r ** k for r, w in zip(roots, weights)) for k in range(len(roots))]
    xs = oracles.sequence_brute(cs, init, m, 2 * m + 8)
    r = len(roots)
    return next(k for k in range(1, m + 2) if xs[k:k + r] == xs[:r])


@given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool),
                min_size=1, max_size=4, unique=True),
       st.lists(st.integers(min_value=-5, max_value=5).filter(bool),
                min_size=4, max_size=4),
       st.integers(min_value=2, max_value=200))
def test_brute_rational_orders_one_to_four_match_plain_terms(roots, weights, m):
    assume(math.gcd(math.prod(roots), m) == 1)
    weights = weights[:len(roots)]
    rep = period_bruteforce(rational_tuple(roots, weights), m)
    assert rep.period == _first_return(roots, weights, m)


@given(st.integers(min_value=0, max_value=60))
def test_sequence_terms_follow_recurrence(seed):
    import random

    rng = random.Random(seed)
    m = rng.choice((1, 2, 3))
    roots = rng.sample(range(2, 12), m)
    weights = [rng.choice((1, 2, 3, -1)) for _ in range(m)]
    t = rational_tuple(roots, weights)
    cs = [c.as_fraction() for c in char_coefficients(t)]
    xs = [sum(Fraction(w) * Fraction(r) ** k for r, w in zip(roots, weights))
          for k in range(m + 6)]
    for k in range(m, len(xs)):
        assert xs[k] == sum(c * x for c, x in zip(cs, xs[k - m:k]))


# ---------------------------------------------------------------------------
# formula vs brute on a small sweep (the full-norm sweep is in acceptance)


def test_formula_equals_brute_small_sweep():
    for t in standard_battery():
        fld = t.field()
        for p in oracles.primes_below(60):
            if fld is None:
                ideals = prime_ideals_above(None, p)
            else:
                P = prime_ideals_above(fld, p)[0]
                if P.kind == "ramified":
                    continue
                ideals = prime_ideals_above(fld, p)
            for P in ideals:
                if is_degenerate(t, P):
                    continue
                for e in (1, 2):
                    if P.norm ** e > 400:
                        continue
                    lhs = period_formula(t, [(P, e)]).period
                    rhs = period_bruteforce(t, (P, e)).period
                    assert lhs == rhs, (t.name, P.label(), e)


# ---------------------------------------------------------------------------
# pisano


def test_pisano_frozen_values():
    assert pisano(7) == 16
    assert pisano(1) == 1
    assert pisano(10) == 60
    assert pisano(2) == 3
    assert pisano(3) == 8
    assert pisano(11) == 10
    assert pisano(29) == 14
    assert pisano(9) == 24
    assert pisano(49) == 112
    assert pisano(121) == 110


def test_pisano_lcm_not_product():
    assert pisano(21) == 16
    assert math.lcm(pisano(3), pisano(7)) == 16
    assert pisano(3) * pisano(7) == 128  # the tempting wrong answer


@given(st.integers(min_value=2, max_value=150))
def test_pisano_matches_iteration(m):
    assert pisano(m) == oracles.pisano_brute(m)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=400))
def test_pisano_five_power_moduli_match_iteration(a, k):
    # 5^a starts from pi(5) = 20 and lifts like every other prime power
    m = 5 ** a * k
    assert pisano(m) == oracles.pisano_brute(m)


@given(st.integers(min_value=1, max_value=5000).filter(lambda m: m % 5))
def test_pisano_matches_the_ideal_formula(m):
    # the two formula routes check each other away from the ramified 5
    rep = period_formula(FIB, ideal_factorization(K5, m))
    assert pisano(m) == rep.period


def test_pisano_degenerate_modulus_budget():
    """5 * 1000003 iterates nowhere: pi(5) = 20 is stripped like any other
    multiple.  The brute-force route over the whole modulus takes about 10^7
    steps."""
    best = math.inf
    for _ in range(5):
        t = time.perf_counter()
        assert pisano(5 * 1000003) == 10_000_040
        best = min(best, time.perf_counter() - t)
    assert best < 0.05, f"pisano(5 * 1000003) took {best * 1e3:.1f} ms"


def test_ideal_factorization_ascending():
    fac = ideal_factorization(K5, 11 ** 2 * 7 * 2)
    assert [(P.label(), e) for P, e in fac] == [
        ("2i", 1), ("7i", 1), ("11a", 2), ("11b", 2)]
    assert [(P.label(), e) for P, e in ideal_factorization(None, 45)] == [
        ("3", 2), ("5", 1)]
    assert ideal_factorization(None, 1) == []


@given(st.integers(min_value=0, max_value=300))
def test_pisano_crt_lcm_law(i):
    ps = [p for p in oracles.primes_below(60) if p != 5]
    p = ps[i % len(ps)]
    q = ps[(i * 7 + 3) % len(ps)]
    if p == q:
        return
    assert pisano(p * q) == math.lcm(pisano(p), pisano(q))


def test_pisano_prime_power_frozen():
    assert pisano_prime_power(7, 1) == 16
    assert pisano_prime_power(7, 2) == 112
    assert pisano_prime_power(11, 1) == 10
    assert pisano_prime_power(11, 2) == 110
    assert pisano_prime_power(3, 1) == 8
    assert pisano_prime_power(3, 2) == 24
    assert pisano_prime_power(2, 1) == 3
    assert pisano_prime_power(2, 3) == 12
    assert pisano_prime_power(5, 1) == 20
    assert pisano_prime_power(5, 2) == 100


def test_pisano_prime_power_matches_brute():
    # 2 and 5 included: neither iterates, both strip p^(e-1) times the
    # multiple at p, the bound of Wall's rule
    for p in oracles.primes_below(60):
        e = 1
        while p ** e <= 10 ** 5:
            assert pisano_prime_power(p, e) == oracles.pisano_brute(p ** e), (p, e)
            e += 1


def test_pisano_prime_power_guard_on_kronecker(monkeypatch):
    monkeypatch.setattr(quadrec.periods, "kronecker", lambda D, p: 0)
    with pytest.raises(InvariantBreachError):
        pisano_prime_power(7, 1)


def test_pisano_prime_power_guard_on_multiple(monkeypatch):
    monkeypatch.setattr(quadrec.periods, "_is_fib_period", lambda k, m: False)
    with pytest.raises(InvariantBreachError):
        pisano_prime_power(7, 1)


def test_pisano_prime_power_guard_on_full_multiple_at_e2(monkeypatch):
    assert pisano_prime_power(7, 2) == 112
    # periods mod 7 check out, but the full multiple 16 * 7 = 112 is no
    # period mod 49, so the guard on the multiple fires at e = 2 as well
    monkeypatch.setattr(quadrec.periods, "_is_fib_period",
                        lambda k, m: m == 7 and _fib_pair(k, m) == (0, 1))
    assert pisano_prime_power(7, 1) == 16
    with pytest.raises(InvariantBreachError):
        pisano_prime_power(7, 2)


@given(st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=2, max_value=97))
def test_fib_pair_fast_doubling(k, m):
    want = (oracles.fib_mod(k, m), oracles.fib_mod(k + 1, m))
    assert _fib_pair(k, m) == want


# ---------------------------------------------------------------------------
# divisibility and stability


def test_divisibility_examples():
    # the period at P divides N(P) - 1
    for p, period, bound in [(11, 10, 10), (7, 16, 48), (29, 14, 28)]:
        for P in prime_ideals_above(K5, p):
            assert period_formula(FIB, [(P, 1)]).period == period
            assert P.norm - 1 == bound


def test_divisibility_sweep():
    t = rational_tuple((2, 3), (1, 1))
    for p in oracles.primes_below(200):
        if p in (2, 3):
            continue
        (P,) = prime_ideals_above(None, p)
        assert (P.norm - 1) % period_formula(t, [(P, 1)]).period == 0


def test_stability_scaling():
    # once the period first grows, it grows by exactly p per extra exponent
    for t in (FIB, rational_tuple((2, 3), (1, 1))):
        fld = t.field()
        for p in oracles.primes_below(50):
            if fld is not None:
                P = prime_ideals_above(fld, p)[0]
                if P.kind == "ramified" or is_degenerate(t, P):
                    continue
            else:
                (P,) = prime_ideals_above(None, p)
                if is_degenerate(t, P):
                    continue
            k1 = period_formula(t, [(P, 1)]).period
            k2 = period_formula(t, [(P, 2)]).period
            if k1 != k2:
                assert k2 == p * k1
                assert period_formula(t, [(P, 3)]).period == p * k2
                assert period_formula(t, [(P, 4)]).period == p * p * k2
