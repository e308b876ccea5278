import math
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from quadrec import factor, ring
from quadrec.errors import (DegenerateInputError, FactorizationError,
                            InvariantBreachError, MixedFieldError,
                            QuadrecError, UsageError)
from quadrec.factor import factorize, is_prime, kronecker
from quadrec.ring import (
    PrimeIdealData,
    QuadraticElement,
    _lift_root,
    _prime_ideals_above,
    as_element,
    as_elements,
    field_norm,
    ideal_factors,
    is_torsion,
    prime_ideals_above,
    qelem,
    quad_valuation,
    quadratic_field,
    reduce,
    residue_pow,
    sqrt_element,
    unit_group_order,
)

K5 = quadratic_field(5)
PHI = qelem(K5, 0, 1)  # w = (1+sqrt 5)/2


# ---------------------------------------------------------------------------
# field construction


def test_field_invariants():
    assert (K5.disc, K5.omega_trace, K5.omega_norm) == (5, 1, -1)
    K2 = quadratic_field(2)
    assert (K2.disc, K2.omega_trace, K2.omega_norm) == (8, 0, -2)
    K3m = quadratic_field(-3)
    assert (K3m.disc, K3m.omega_trace, K3m.omega_norm) == (-3, 1, 1)
    K1m = quadratic_field(-1)
    assert (K1m.disc, K1m.omega_trace, K1m.omega_norm) == (-4, 0, 1)


def test_field_rejects_bad_d():
    for d in (0, 1, 4, 12, -4, 45):
        with pytest.raises(UsageError):
            quadratic_field(d)


def test_sqrt_element_squares_to_d():
    for d in (5, 2, 3, -1, -3, 13, -7):
        K = quadratic_field(d)
        s = sqrt_element(K)
        assert (s * s).as_fraction() == d


# ---------------------------------------------------------------------------
# element arithmetic


def test_golden_ratio_norm_and_square():
    assert field_norm(PHI) == -1
    assert PHI * PHI == PHI + 1  # w^2 = w + 1 in d=5


def test_inverse_roundtrip():
    x = qelem(K5, 3, -2, 7)
    assert (x * x.inverse()).as_fraction() == 1
    y = as_element(Fraction(-6, 35), K5)
    assert (y * y.inverse()).as_fraction() == 1


def test_as_elements_embeds_in_the_one_field_any_value_carries():
    K2 = quadratic_field(2)
    xs = as_elements([2, PHI, Fraction(1, 3)])
    assert xs == [as_element(2, K5), PHI, as_element(Fraction(1, 3), K5)]
    assert [x.field for x in as_elements([2, as_element(3)])] == [None, None]
    assert as_elements([]) == []
    # a rational put in a field carries that field
    with pytest.raises(ValueError, match="elements from different fields"):
        as_elements([as_element(2, K5), 1, sqrt_element(K2)])
    with pytest.raises(ValueError, match="different field"):
        as_element(PHI, K2)  # used to return PHI, still in Q(sqrt(5))


def test_mixed_fields_raise_one_typed_error():
    from quadrec.dynamics import multiplicative_rank
    from quadrec.heights import triple_height
    from quadrec.periods import RecurrenceTuple

    K2 = quadratic_field(2)
    mixed = [PHI, qelem(K2, 1, 1)]
    calls = [lambda: as_elements(mixed), lambda: PHI + mixed[1],
             lambda: PHI * mixed[1], lambda: as_element(PHI, K2),
             lambda: triple_height(*mixed, 1),
             lambda: multiplicative_rank(mixed),
             lambda: RecurrenceTuple(tuple(mixed), (1, 1))]
    for call in calls:
        with pytest.raises(QuadrecError) as info:
            call()
        assert isinstance(info.value, MixedFieldError)
        assert isinstance(info.value, UsageError) and isinstance(info.value, ValueError)
        assert info.value.exit_code == 2
        assert "different field" in str(info.value)


def test_pow_matches_repeated_product():
    acc = as_element(1, K5)
    for k in range(9):
        assert PHI ** k == acc
        acc = acc * PHI
    assert PHI ** -3 == (PHI ** 3).inverse()


def test_integral_product_skips_the_numerator_gcd():
    # den = 1 ends the normalizing gcd at once; gcd(num_a, num_b) of these
    # 300-kilobit coprime numerators alone takes a quarter of a second
    x, y = qelem(K5, 3 ** 200000, 5 ** 180000), qelem(K5, 1, 1)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        z = x * y
        best = min(best, time.perf_counter() - t0)
    assert z.den == 1 and z.num_a == x.num_a + x.num_b  # w^2 = w + 1
    assert best < 0.05


small_rat = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
).filter(lambda q: True)


def elements(d):
    K = quadratic_field(d)
    return st.builds(
        lambda a, b: qelem(K, a, b),
        small_rat,
        small_rat,
    )


@given(elements(5), elements(5))
def test_norm_is_multiplicative(x, y):
    assert field_norm(x * y) == field_norm(x) * field_norm(y)


@given(elements(-3), elements(-3))
def test_conjugation_is_a_ring_map(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(elements(2))
def test_norm_equals_self_times_conjugate(x):
    prod = x * x.conjugate()
    assert prod.num_b == 0
    assert prod.as_fraction() == field_norm(x)


def test_torsion_lists():
    assert is_torsion(as_element(-1, K5))
    assert not is_torsion(PHI)
    Ki = quadratic_field(-1)
    i = qelem(Ki, 0, 1)
    assert is_torsion(i) and is_torsion(-i)
    K3 = quadratic_field(-3)
    z = qelem(K3, 0, 1)
    assert is_torsion(z)
    assert (z ** 6).as_fraction() == 1 and (z ** 3).as_fraction() == -1
    # all six sixth roots are flagged, nothing else of small height is
    sixth = [z ** k for k in range(6)]
    assert all(is_torsion(u) for u in sixth)
    assert len({(u.num_a, u.num_b) for u in sixth}) == 6
    assert not is_torsion(qelem(K3, 2, 0))


# ---------------------------------------------------------------------------
# splitting of rational primes


def test_splitting_in_golden_field():
    assert prime_ideals_above(K5, 11)[0].kind == "split"
    assert prime_ideals_above(K5, 5)[0].kind == "ramified"
    assert prime_ideals_above(K5, 7)[0].kind == "inert"
    assert prime_ideals_above(K5, 2)[0].kind == "inert"  # disc 5 = 5 mod 8


@given(st.integers(min_value=0, max_value=200))
def test_kronecker_matches_euler_criterion(i):
    ps = oracles.primes_below(300)[1:]  # odd primes
    p = ps[i % len(ps)]
    for D in (5, 8, -3, -4, 12, 13, -20):
        assert kronecker(D, p) == oracles.legendre(D, p)


def test_kronecker_at_two():
    assert kronecker(17, 2) == 1   # 17 = 1 mod 8
    assert kronecker(7, 2) == 1    # 7 mod 8
    assert kronecker(5, 2) == -1
    assert kronecker(-3, 2) == -1  # -3 = 5 mod 8
    assert kronecker(8, 2) == 0


def test_primes_above_counts():
    assert len(prime_ideals_above(K5, 11)) == 2
    assert len(prime_ideals_above(K5, 7)) == 1
    assert len(prime_ideals_above(K5, 5)) == 1
    assert len(prime_ideals_above(None, 13)) == 1
    with pytest.raises(UsageError):
        prime_ideals_above(K5, 12)


def test_sieved_and_factored_primes_are_not_proved_again(monkeypatch):
    from quadrec.dynamics import expected_counts
    from quadrec.periods import ideal_factorization
    from quadrec.search import wieferich_predicate
    from quadrec.wieferich import count_non_wieferich

    for p in oracles.primes_below(200):
        for fld in (None, K5, quadratic_field(-7)):
            assert _prime_ideals_above(fld, p) == prime_ideals_above(fld, p)
    calls = []
    real = ring.is_prime
    monkeypatch.setattr(ring, "is_prime", lambda n: calls.append(n) or real(n))
    expected_counts([2, 3], [10 ** 4])
    count_non_wieferich(PHI, 2000)
    ideal_factorization(K5, 2 * 3 * 7 * 11 * 10007)
    test = wieferich_predicate(PHI).test
    for p in oracles.primes_below(500):
        test(p)
    assert calls == []
    prime_ideals_above(K5, 7)  # the public entry still checks its p
    assert calls == [7]


def test_ideal_norms_and_labels():
    P1, P2 = prime_ideals_above(K5, 11)
    assert (P1.norm, P2.norm) == (11, 11)
    assert {P1.label(), P2.label()} == {"11a", "11b"}
    (Q,) = prime_ideals_above(K5, 7)
    assert Q.norm == 49 and Q.f == 2
    (R,) = prime_ideals_above(K5, 5)
    assert R.norm == 5 and R.ram_index == 2


ORACLE_FIELDS = (5, 2, -1, -3, 13, -7)


@given(st.sampled_from(ORACLE_FIELDS), st.sampled_from(oracles.primes_below(2000)))
@example(5, 2)
@example(2, 2)
@example(-1, 2)
@example(-3, 2)
@example(13, 2)
@example(-7, 2)
def test_prime_ideals_match_enumerated_roots(d, p):
    # a carries the smaller root of w mod p, b the larger; inert p has no
    # root and ramified p has its double root
    roots = oracles.roots_of_omega_brute(d, p)
    if not roots:
        want = [("inert", f"{p}i", 2, None)]
    elif len(roots) == 1:
        want = [("ramified", f"{p}r", 1, roots[0])]
    else:
        want = [("split", f"{p}{s}", 1, r) for s, r in zip("ab", roots)]
    got = [(P.kind, P.label(), P.f, P.hensel_root)
           for P in prime_ideals_above(quadratic_field(d), p)]
    assert got == want


# ---------------------------------------------------------------------------
# Hensel lifting


def test_root_mod_11_exhaustive():
    # w^2 = w + 1, so roots of x^2 - x - 1 mod 11
    expect = {x for x in range(11) if (x * x - x - 1) % 11 == 0}
    assert expect == {4, 8}
    P1, P2 = prime_ideals_above(K5, 11)
    assert {P1.hensel_root, P2.hensel_root} == {4, 8}


def _lifted(P, e):
    return _lift_root(P.hensel_root, P.p, e, K5.omega_trace, K5.omega_norm)


def test_lift_to_prime_square():
    Pa, Pb = prime_ideals_above(K5, 11)
    c, c2 = _lifted(Pa, 2), _lifted(Pb, 2)
    for r, P in ((c, Pa), (c2, Pb)):
        assert (r * r - r - 1) % 121 == 0
        assert r % 11 == P.hensel_root
    assert (c + c2) % 121 == 1  # root sum = trace of w


@given(st.integers(min_value=1, max_value=6))
def test_lift_tower_consistency(e):
    for P in prime_ideals_above(K5, 11):
        c = _lifted(P, e)
        assert (c * c - c - 1) % 11 ** e == 0
        if e > 1:
            assert c % 11 ** (e - 1) == _lifted(P, e - 1)


def test_lift_refuses_inert_and_deep_ramified():
    (Q,) = prime_ideals_above(K5, 7)
    assert Q.hensel_root is None  # inert: no root of w mod 7
    (R,) = prime_ideals_above(K5, 5)
    assert R.hensel_root == 3  # 2x = 1 mod 5
    with pytest.raises(DegenerateInputError):
        reduce(PHI, (R, 2))


# ---------------------------------------------------------------------------
# valuations


def test_valuation_spot_checks():
    P1, P2 = prime_ideals_above(K5, 11)
    (Q,) = prime_ideals_above(K5, 7)
    (R,) = prime_ideals_above(K5, 5)
    eleven = as_element(11, K5)
    assert quad_valuation(eleven, P1) == 1
    assert quad_valuation(eleven, P2) == 1
    assert quad_valuation(as_element(7, K5), Q) == 1
    assert quad_valuation(as_element(Fraction(1, 11), K5), P1) == -1
    # (sqrt 5)^2 = 5 and (5) = R^2, so v_R(sqrt 5) = 1
    assert quad_valuation(sqrt_element(K5), R) == 1
    assert quad_valuation(as_element(5, K5), R) == 2
    assert quad_valuation(PHI, P1) == 0  # unit: norm -1
    (S,) = prime_ideals_above(None, 3)
    assert quad_valuation(as_element(Fraction(18, 5)), S) == 2


@given(st.sampled_from((5, 2, -1)), st.integers(-1000, 1000),
       st.integers(-1000, 1000), st.integers(1, 30), st.integers(0, 3))
def test_split_valuation_matches_enumerated_lifts(d, a, b, den, j):
    # (root - w)^j lies in P^j, so valuations above 1 come up often
    assume(a or b)
    K = quadratic_field(d)
    for p in oracles.primes_below(30):
        roots = oracles.roots_of_omega_brute(d, p)
        if len(roots) != 2:
            continue
        for P, root in zip(prime_ideals_above(K, p), roots):
            x = qelem(K, a, b, den) * qelem(K, root, -1) ** j
            v_num = oracles.split_valuation_brute(x.num_a, x.num_b, d, p, root)
            if v_num is None:
                continue  # past what enumeration decides
            v_den = next(k for k in range(99) if x.den % p ** (k + 1))
            assert quad_valuation(x, P) == v_num - v_den, (P.label(), x)


@given(elements(5).filter(lambda x: not x.is_zero()),
       elements(5).filter(lambda x: not x.is_zero()))
def test_valuation_is_additive(x, y):
    for p in (2, 7, 11, 5, 19):
        for P in prime_ideals_above(K5, p):
            assert quad_valuation(x * y, P) == quad_valuation(x, P) + quad_valuation(y, P)


@given(elements(5).filter(lambda x: not x.is_zero()))
def test_valuations_account_for_the_norm(x):
    # sum_{P | p} f_P v_P(x) = v_p(N(x)), the degree formula for quadratic K
    nx = field_norm(x)
    for p in (2, 5, 7, 11, 19, 29, 31):
        vp_norm = 0
        num, den = abs(nx.numerator), nx.denominator
        while num % p == 0:
            num //= p
            vp_norm += 1
        while den % p == 0:
            den //= p
            vp_norm -= 1
        ideals = prime_ideals_above(K5, p)
        got = sum(P.f * quad_valuation(x, P) for P in ideals)
        if ideals[0].kind == "ramified":
            got = quad_valuation(x, ideals[0])  # v_p(N) = v_P here, e_r = 2
        assert got == vp_norm


@settings(max_examples=200)
@given(st.sampled_from((5, 13, -3, 2, -1, 17, -7, 10)), st.integers(-300, 300),
       st.integers(-300, 300), st.integers(1, 300))
@example(13, 1, 2, 3)  # (2+sqrt 13)/3: v_3a = -1 and v_3b = 1 cancel in N = -1
def test_ideal_factors_agree_with_valuations(d, a, b, den):
    # every prime where x = (a + b*w)/den has a nonzero valuation divides
    # N(a + b*w)*den, so valuations read there give the whole factorization;
    # N(x)'s own denominator is den^2 over a common factor, and may lose p
    assume(a or b)
    K = quadratic_field(d)
    x = qelem(K, a, b, den)
    num_norm = int(abs(field_norm(qelem(K, x.num_a, x.num_b))))
    want = [(P.label(), v) for p in sorted(factorize(num_norm * x.den))
            for P in prime_ideals_above(K, p)
            if (v := quad_valuation(x, P)) != 0]
    assert [(P.label(), v) for P, v in ideal_factors(x)] == want


# ---------------------------------------------------------------------------
# residue rings


def test_reduction_spot_values():
    (P,) = prime_ideals_above(K5, 11)[:1]
    r = reduce(PHI, (P, 1))
    assert r.u in (4, 8) and r.v == 0
    (Q,) = prime_ideals_above(K5, 7)
    rq = reduce(PHI, (Q, 1))
    assert (rq.u, rq.v) == (0, 1)
    with pytest.raises(DegenerateInputError):
        reduce(qelem(K5, 1, 0, 7), (Q, 1))


@given(elements(5), elements(5))
def test_reduction_is_a_ring_homomorphism(x, y):
    for p in (7, 11):
        for P in prime_ideals_above(K5, p):
            for e in (1, 2):
                mod = (P, e)
                try:
                    rx, ry = reduce(x, mod), reduce(y, mod)
                except DegenerateInputError:
                    continue  # denominator hits p
                a, b, pe = (rx.u, rx.v), (ry.u, ry.v), P.p ** e
                s, prod = reduce(x + y, mod), reduce(x * y, mod)
                assert (s.u, s.v) == oracles.pair_add(a, b, pe)
                assert (prod.u, prod.v) == oracles.pair_mul(
                    a, b, K5.omega_trace, K5.omega_norm, pe)


def test_unit_group_orders_frozen():
    (P,) = prime_ideals_above(K5, 11)[:1]
    (Q,) = prime_ideals_above(K5, 7)
    assert unit_group_order((P, 1)) == 10
    assert unit_group_order((Q, 1)) == 48
    assert unit_group_order((Q, 2)) == 2352
    (R,) = prime_ideals_above(K5, 5)
    with pytest.raises(DegenerateInputError):
        unit_group_order((R, 1))


def test_unit_group_orders_exhaustive():
    for d in (5, 2, -1):
        K = quadratic_field(d)
        for p in (2, 3, 5, 7, 11, 13):
            P = prime_ideals_above(K, p)[0]
            if P.kind == "ramified":
                continue
            for e in (1, 2):
                if P.kind == "inert" and p ** (2 * e) > 50000:
                    continue
                brute = oracles.unit_count_brute(
                    p, e, K.omega_trace, K.omega_norm, P.kind == "inert"
                )
                assert unit_group_order((P, e)) == brute, (d, p, e)


@given(elements(5))
def test_fermat_for_residue_units(x):
    for p in (7, 11, 2):
        for P in prime_ideals_above(K5, p):
            for e in (1, 2):
                try:
                    r = reduce(x, (P, e))
                except DegenerateInputError:
                    continue
                if not r.is_unit():
                    continue
                assert residue_pow(r, unit_group_order((P, e))).is_one()


def test_inert_pair_order_matches_brute():
    (Q,) = prime_ideals_above(K5, 7)
    r = reduce(PHI, (Q, 2))
    k = oracles.pair_order_brute(r.u, r.v, 7, 2, 1, -1)
    assert residue_pow(r, k).is_one()
    assert not residue_pow(r, k // 2).is_one() if k % 2 == 0 else True
    assert unit_group_order((Q, 2)) % k == 0


# ---------------------------------------------------------------------------
# integer factorization support


def test_is_prime_against_sieve():
    sieve = set(oracles.primes_below(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_large_spots():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    assert is_prime(1093) and is_prime(3511)


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factorize_reassembles(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p ** e
    assert prod == n


def test_factorize_crosschecks_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (2 ** 64 - 1, 10 ** 15 + 37, 600851475143, 97 ** 3 * 89 ** 2):
        assert factorize(n) == dict(sympy.factorint(n))


def test_factorize_known_semiprime():
    # both factors above the trial-division bound, forces the rho path
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


# ---------------------------------------------------------------------------
# class-restricted trial division


def test_index_one_wheel_is_the_30_wheel():
    from quadrec.factor import _trial_wheel
    assert _trial_wheel(1) == ((2, 3, 5), 7, (4, 2, 4, 2, 4, 6, 2, 6))


@pytest.mark.parametrize("index", [2, 4, 7, 12, 30, 60, 101])
def test_wheel_walks_exactly_the_admissible_classes(index):
    from quadrec.factor import _trial_wheel
    first, m, gaps = _trial_wheel(index)
    assert set(first) == {2, 3, 5} | set(factorize(index))
    walked = set()
    for gap in gaps * 3:
        walked.add(m)
        m += gap
    top = max(walked)
    assert walked == {k for k in range(7, top + 1)
                      if math.gcd(k, 30) == 1 and k * k % index == 1}


@settings(max_examples=40)
@given(st.sampled_from([None, 2, 5, -1]), st.integers(-5, 5),
       st.integers(-3, 3), st.integers(1, 3), st.integers(1, 60))
def test_factorize_along_cyclotomic_classes_matches_plain(d, a, b, den, n):
    # every prime of the numerator of N(Phi_n(gamma)) divides n or has
    # q^2 = 1 (mod n), so the class-restricted walk must lose nothing
    from quadrec.certificates import cyclotomic_value
    field = None if d is None else quadratic_field(d)
    gamma = qelem(field, a, b if field else 0, den)
    assume(not is_torsion(gamma))  # cyclotomic_value refuses roots of unity
    value = cyclotomic_value(gamma, n)
    N = abs(field_norm(value).numerator)
    # a small budget keeps each example fast; patched here, because a
    # function-scoped monkeypatch does not mix with hypothesis
    with mock.patch.object(factor, "RHO_BUDGET", 50_000):
        try:
            plain = factorize(N)
        except FactorizationError:
            assume(False)  # a hard cofactor outran the budget, not our claim
        assert factorize(N, index=n) == plain


def test_factorize_with_index_on_mersenne_numbers():
    assert factorize(2 ** 29 - 1, index=29) == {233: 1, 1103: 1, 2089: 1}
    assert factorize(2 ** 32 + 1, index=64) == {641: 1, 6700417: 1}  # Phi_64(2)
    assert factorize(1, index=7) == {}


@pytest.mark.parametrize("N, index", [
    (77, 5),               # 7 and 11: the m^2 > cofactor shortcut claims 77
    (7, 5),                # a prime outside the classes +-1 (mod 5)
    (91 * 1000003, 5),     # the walk divides out 91 = 7 * 13, 91 = 1 (mod 5)
    (7 * 1000003, 5),      # 7 = 2, 1000003 = 3 (mod 5): shortcut claims the product
])
def test_false_index_hint_raises(N, index):
    with pytest.raises(InvariantBreachError):
        factorize(N, index=index)


def _returns(value):
    """A stand-in split method: a generator that returns value at once."""
    def method(*args):
        return value
        yield
    return method


def _spins(*args):
    """A stand-in split method that keeps spending work and never ends."""
    while True:
        yield 1


def _work(method):
    """Run a split method to its end: what it returned and the work it yielded."""
    work = 0
    try:
        while True:
            work += next(method)
    except StopIteration as stop:
        return stop.value, work


def _drain(method):
    """Run a split method to its end and give back what it returned."""
    return _work(method)[0]


def test_factor_large_rejects_an_improper_rho_factor(monkeypatch):
    monkeypatch.setattr(factor, "_pollard_brent", _returns(1_000_003 * 1_000_033))
    with pytest.raises(InvariantBreachError):
        factorize(1_000_003 * 1_000_033)


def test_factor_large_rejects_an_improper_pm1_factor(monkeypatch):
    monkeypatch.setattr(factor, "_pollard_brent", _spins)
    monkeypatch.setattr(factor, "_pollard_pm1", _returns(1_000_003 * 1_000_033))
    with pytest.raises(InvariantBreachError):
        factorize(1_000_003 * 1_000_033)


# ---------------------------------------------------------------------------
# the rho / p-1 race


def test_race_splits_mersenne_101_within_a_second():
    # 7432339208719 - 1 = 2 * 3 * 101 * 44029 * 278557 is smooth below
    # B1 = 10^6; p-1's stage-2 sweep reaches 278557 after under a third of
    # the work stage 1 needs, and rho alone ran out its whole budget on this
    # number
    import time
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        got = factorize(2 ** 101 - 1, index=101)
        best = min(best, time.perf_counter() - t0)
        assert got == {7432339208719: 1, 341117531003194129: 1}
        if best < 1.0:
            break
    assert best < 1.0


def test_pm1_streams_its_primes(monkeypatch):
    # p-1 walks the primes below B1 = 10^6 by a segmented sieve, so no
    # sieve is ever asked for more than the base primes below sqrt(B1)
    asked = []
    real = factor.primes_below

    def recording(n):
        asked.append(n)
        return real(n)

    monkeypatch.setattr(factor, "primes_below", recording)
    assert factorize(2 ** 101 - 1, index=101) == {7432339208719: 1,
                                                 341117531003194129: 1}
    b1 = factor.RHO_BUDGET // 2
    assert asked and max(asked) <= math.isqrt(b1) + 1


def test_pm1_backtracks_when_one_batch_reveals_both_factors():
    from quadrec.factor import _PM1_BATCH, _pollard_pm1
    q1, q2 = 2860395497579, 6604071883847
    assert q1 - 1 == 2 * 739 * 823 * 1237 * 1901
    assert q2 - 1 == 2 * 563 * 1303 * 1607 * 2801
    # every factor of q1 - 1 and q2 - 1 below 1901 lies in the first batch of
    # prime powers, 1901 and 2801 both lie in the second, so the second
    # batch's gcd is q1 * q2 itself; only the walk back separates them
    ps = oracles.primes_below(4000)
    assert ps[_PM1_BATCH - 1] < 1901 < 2801 <= ps[2 * _PM1_BATCH - 1]
    assert max(1607, 1303, 1237) < ps[_PM1_BATCH]
    assert all(is_prime(q) for q in (q1, q2))
    assert _drain(_pollard_pm1(q1 * q2, 10 ** 6, 1)) == q1
    assert factorize(q1 * q2) == {q1: 1, q2: 1}


def test_pm1_sweep_finds_mersenne_101_before_stage_1_would():
    # 7432339208719 - 1 = 2 * 3 * 101 * 44029 * 278557: stage 1 alone has to
    # raise through every prime power up to 278557, while the sweep starts
    # past B1/20 = 50000 and spends 2 per prime up to 278557
    from quadrec.factor import _pollard_pm1
    n = 2 ** 101 - 1
    found, work = _work(_pollard_pm1(n, 10 ** 6, 101))
    with mock.patch.object(factor, "_pm1_sweep", _returns(None)):
        alone, stage_1 = _work(_pollard_pm1(n, 10 ** 6, 101))
    assert found == alone == 7432339208719
    assert work < stage_1


@settings(max_examples=25)
@given(st.lists(st.sampled_from(oracles.primes_below(200)), min_size=1,
                max_size=2),
       st.sampled_from(oracles.primes_below(20_000)),
       st.integers(10 ** 6, 10 ** 9), st.sampled_from([1, 2, 3, 5]))
def test_pm1_sweep_loses_no_factor_stage_1_finds(smalls, r, other, index):
    # q - 1 = 2 * smalls * r * t is smooth below B1 = 20000 for small t; the
    # sweep runs after the first batch of stage 1, and whatever it returns,
    # stage 1 must still find every factor it finds on its own
    from quadrec.factor import _pollard_pm1
    bound, k = 20_000, 2 * math.prod(smalls) * r
    q = next(k * t + 1 for t in range(1, bound)
             if oracles.is_prime_trial(k * t + 1))
    p = oracles.next_prime(other)
    assume(p != q)
    with mock.patch.object(factor, "_pm1_sweep", _returns(None)):
        alone = _drain(_pollard_pm1(p * q, bound, index))
    got = _drain(_pollard_pm1(p * q, bound, index))
    assert got in ((p, q) if alone is not None else (None, p, q))


def _recording_sweep(monkeypatch):
    """Patch factor._pm1_sweep to log (lo, hi, returned, work) of each call."""
    calls, real = [], factor._pm1_sweep

    def sweep(n, b, lo, hi):
        method, work = real(n, b, lo, hi), 0
        try:
            while True:
                step = next(method)
                work += step
                yield step
        except StopIteration as stop:
            calls.append((lo, hi, stop.value, work))
            return stop.value

    monkeypatch.setattr(factor, "_pm1_sweep", sweep)
    return calls


def test_pm1_stage_1_resumes_when_the_sweep_finds_both_factors(monkeypatch):
    from quadrec.factor import _pollard_pm1
    q1, q2 = 4746932191, 1582851271
    assert q1 - 1 == 2 * 3 * 3 * 5 * 7 * 11 * 13 * 52691
    assert q2 - 1 == 2 * 3 * 5 * 7 * 11 * 13 * 52709
    assert all(oracles.is_prime_trial(q) for q in (q1, q2))
    # stage 1's 21st batch is the first to pass B1/20 = 50000 and ends at
    # 52667; 52691 and 52709 both lie in the sweep's first batch, so its
    # gcd is q1 * q2.  Stage 1 then walks back its own batch as before.
    with mock.patch.object(factor, "_pm1_sweep", _returns(None)):
        alone = _drain(_pollard_pm1(q1 * q2, 10 ** 6, 1))
    calls = _recording_sweep(monkeypatch)
    assert _drain(_pollard_pm1(q1 * q2, 10 ** 6, 1)) == alone == q1
    assert calls == [(52667, 10 ** 6, None, 0)]
    assert factorize(q1 * q2) == {q2: 1, q1: 1}


def test_pm1_spends_at_most_the_rho_budget(monkeypatch):
    # the safe primes of the test below: neither q - 1 is smooth, so p-1
    # runs stage 1 to B1 and the sweep over every prime it covers, and still
    # ends within RHO_BUDGET
    q1, q2 = 1000000000547, 1000002002543
    calls = _recording_sweep(monkeypatch)
    found, work = _work(dict(factor._STAGES)["p-1"](q1 * q2, 1))
    assert found is None and len(calls) == 1
    lo, b1, _, swept = calls[0]
    assert b1 == factor.RHO_BUDGET // 2
    assert swept == 2 * sum(1 for q in oracles.primes_below(b1 + 1) if q > lo)
    assert work <= factor.RHO_BUDGET


def test_race_gives_up_on_a_product_of_safe_primes(monkeypatch):
    # q = 2r + 1 with r prime: neither q - 1 is smooth, and rho needs about
    # 10^6 steps, far past the budget
    q1, q2 = 1000000000547, 1000002002543
    assert all(is_prime(q) and is_prime(q // 2) for q in (q1, q2))
    monkeypatch.setattr(factor, "RHO_BUDGET", 20_000)
    with pytest.raises(FactorizationError) as info:
        factorize(q1 * q2)
    assert str(q1 * q2) in str(info.value) and "20000" in str(info.value)
    # the message names every stage with the work it spent
    assert re.search(r"\(work spent: rho \d+, p-1 \d+\)$", str(info.value))


def test_rho_yields_the_work_of_every_round_it_runs(monkeypatch):
    # rho stops after the first doubling round that passes its budget, and
    # that round's squarings are yielded too: with a budget of 5000 the
    # rounds spend 256 + 512 + 1024 + 2048 + 4096 = 7936, not the first
    # four's 3840
    q1, q2 = 1000000000547, 1000002002543
    monkeypatch.setattr(factor, "RHO_BUDGET", 5_000)
    assert _work(dict(factor._STAGES)["rho"](q1 * q2, 1)) == (None, 7936)


def test_ring_does_not_re_export_the_factoring_internals():
    # a test that patches one of these on ring must raise, not patch nothing
    for name in ("RHO_BUDGET", "SEGMENT", "TRIAL_LIMIT", "_STAGES",
                 "_pollard_brent", "_pollard_pm1", "_split", "primes_below",
                 "iter_primes", "euler_phi"):
        assert hasattr(factor, name) and not hasattr(ring, name), name


@settings(max_examples=15)
@given(st.integers(10 ** 6, 10 ** 9), st.integers(10 ** 6, 10 ** 9))
def test_race_matches_trial_division_on_semiprimes(a, b):
    p, q = oracles.next_prime(a), oracles.next_prime(b)
    # p and q are primes by trial division, so p * q has no other factorization
    want = {p: 2} if p == q else {min(p, q): 1, max(p, q): 1}
    assert factorize(p * q) == want


# ---------------------------------------------------------------------------
# typed errors in the integer plumbing


def test_vp_of_zero_raises_value_error():
    from quadrec.factor import _vp
    with pytest.raises(ValueError):
        _vp(0, 3)
    assert _vp(-72, 2) == 3 and _vp(72, 3) == 2 and _vp(5, 7) == 0


def test_sqrt_mod_prime_of_a_non_residue_raises():
    from quadrec.factor import _sqrt_mod_prime
    with pytest.raises(InvariantBreachError):
        _sqrt_mod_prime(3, 7)  # the squares mod 7 are 1, 2 and 4
    with pytest.raises(InvariantBreachError):
        _sqrt_mod_prime(3, 17)  # 17 = 1 (mod 4): the Tonelli-Shanks branch
    assert _sqrt_mod_prime(2, 7) ** 2 % 7 == 2
    assert _sqrt_mod_prime(2, 17) ** 2 % 17 == 2


def test_unnormalized_elements_are_rejected():
    # the three normal-form invariants, each broken by direct construction
    for field, a, b, den in [(None, 1, 0, 0), (None, 1, 0, -2),
                             (K5, 2, 4, 6), (None, 1, 1, 1)]:
        with pytest.raises(ValueError, match="unnormalized"):
            QuadraticElement(field, a, b, den)
    assert QuadraticElement(K5, 2, 3, 6) == qelem(K5, 2, 3, 6)


def test_split_roots_rejects_a_prime_that_does_not_split():
    from quadrec.ring import _split_roots
    with pytest.raises(InvariantBreachError):
        _split_roots(K5, 2)  # 2 is inert in Q(sqrt 5)
    with pytest.raises(InvariantBreachError):
        _split_roots(K5, 5)  # 5 ramifies: a double root
    assert _split_roots(K5, 11) == (4, 8)


def test_lift_root_rejects_a_non_root():
    t, n = K5.omega_trace, K5.omega_norm  # w^2 - w - 1
    with pytest.raises(InvariantBreachError):
        _lift_root(2, 11, 2, t, n)  # 2^2 - 2 - 1 = 1 (mod 11)
    c = _lift_root(4, 11, 3, t, n)
    assert (c * c - t * c + n) % 11 ** 3 == 0


def test_valuation_rejects_a_prime_of_another_field():
    (P,) = prime_ideals_above(quadratic_field(2), 3)
    with pytest.raises(InvariantBreachError):
        quad_valuation(PHI, P)
