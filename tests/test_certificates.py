import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadrec.certificates import (
    CertifiedCount,
    NonWieferichCertificate,
    certificate_for_n,
    certified_count,
    cyclotomic_value,
    witness_limit,
)
from quadrec.errors import FactorizationError, InvariantBreachError, UsageError
from quadrec.factor import factorize
from quadrec.periods import least_period, multiplicative_order
from quadrec.ring import (as_element, field_norm, ideal_factors,
                          prime_ideals_above, qelem, quadratic_field, reduce,
                          residue_pow, sqrt_element)

K2 = quadratic_field(2)
K5 = quadratic_field(5)
PHI = qelem(K5, 0, 1)


def test_cyclotomic_small_values():
    assert cyclotomic_value(2, 1) == as_element(1)
    assert cyclotomic_value(2, 6) == as_element(3)
    assert cyclotomic_value(2, 11) == as_element(2047)
    assert cyclotomic_value(2, 12) == as_element(13)
    assert cyclotomic_value(0, 1) == as_element(-1)
    assert cyclotomic_value(0, 30) == as_element(1)
    for n in (0, -4):
        with pytest.raises(UsageError, match="cyclotomic index must be >= 1"):
            cyclotomic_value(2, n)


# 2, -3, 3/2, 1+sqrt(2), (1+sqrt(5))/2, 1+i and 2+sqrt(-3)
SYMPY_BASES = [as_element(2), as_element(-3), as_element(Fraction(3, 2)),
               qelem(K2, 1, 1), PHI, qelem(quadratic_field(-1), 1, 1),
               2 + sqrt_element(quadratic_field(-3))]


def test_cyclotomic_matches_sympy():
    import sympy

    x = sympy.Symbol("x")
    for n in range(1, 121):
        coeffs = [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, x), x)
                  .all_coeffs()]  # leading coefficient first
        for g in SYMPY_BASES:
            horner = as_element(0, g.field)
            for c in coeffs:
                horner = horner * g + c
            assert cyclotomic_value(g, n) == horner, (str(g), n)


@pytest.mark.parametrize("gamma", [
    as_element(1), as_element(-1), qelem(quadratic_field(-1), 0, 1),
    qelem(quadratic_field(-3), 0, 1)], ids=["1", "-1", "i", "zeta6"])
def test_cyclotomic_value_refuses_torsion(gamma):
    # (1+sqrt(-3))/2 is w in Q(sqrt(-3)), a primitive 6th root of unity
    for n in (1, 2, 3, 5, 6):
        with pytest.raises(UsageError, match="non-torsion"):
            cyclotomic_value(gamma, n)


def test_divisor_coherence_rational():
    # prod over d | n of Phi_d(2) recomposes 2^n - 1 exactly
    for n in range(1, 201):
        prod = as_element(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_value(2, d)
        assert prod == as_element(2 ** n - 1), n


def test_divisor_coherence_quadratic():
    g = PHI * PHI
    for n in range(1, 41):
        prod = as_element(1, K5)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_value(g, d)
        assert prod == g ** n - 1, n


def _norm_of(factors) -> Fraction:
    out = Fraction(1)
    for P, v in factors:
        out *= Fraction(P.norm) ** v
    return out


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 40),
       st.sampled_from([5, 2, -1, -3]))
def test_ideal_factors_recompose_the_norm(a, b, den, d):
    K = quadratic_field(d)
    x = qelem(K, a, b, den)
    if x.is_zero():
        return
    factors = ideal_factors(x)
    assert all(v != 0 for _, v in factors)
    assert len({P.label() for P, _ in factors}) == len(factors)
    assert _norm_of(factors) == abs(field_norm(x))


def test_ideal_factors_recompose_cyclotomic_norms():
    # gamma^n - 1 factors with no index claim, Phi_n(gamma) with index = n
    for value, index in [(as_element(2) ** 10 - 1, 1),
                         (cyclotomic_value(2, 12), 12),
                         (as_element(Fraction(3, 2)) ** 6 - 1, 1),
                         (cyclotomic_value(PHI * PHI, 7), 7),
                         (qelem(K5, 1, 2, 3) ** 4 - 1, 1)]:
        factors = ideal_factors(value, index=index)
        assert _norm_of(factors) == abs(field_norm(value)), value
    # phi^10 - 1 has norm 2 - L_10 = -121, split across both primes over 11
    assert [(P.label(), v) for P, v in ideal_factors(PHI ** 10 - 1)] == [
        ("11a", 1), ("11b", 1)]


def test_certificates_base_two():
    certs = certificate_for_n(2, 3)
    assert [(c.p, c.n) for c in certs] == [(7, 3)]
    assert certs[0].order_check and certs[0].square_check
    assert certs[0].order == 3 and pow(2, 3, 7) == 1

    assert sorted(c.p for c in certificate_for_n(2, 11)) == [23, 89]
    assert certificate_for_n(2, 1) == []
    # Phi_6(2) = 3 divides n = 6, so the coprimality filter drops it
    assert certificate_for_n(2, 6) == []
    # Phi_5(3) = 121 = 11^2: a prime dividing twice certifies nothing
    assert cyclotomic_value(3, 5) == as_element(121)
    assert certificate_for_n(3, 5) == []


def test_certificates_verify_both_claims():
    for n in [2, 3, 4, 5, 7, 9, 10, 11, 13]:
        for c in certificate_for_n(2, n):
            assert pow(2, c.n, c.p) == 1
            for d in range(1, c.n):
                if c.n % d == 0:
                    assert pow(2, d, c.p) != 1
            assert pow(2, c.p - 1, c.p * c.p) != 1  # non-Wieferich, directly


def test_certificates_fractional_base():
    certs = certificate_for_n(Fraction(3, 2), 2)
    assert [(c.p, c.n) for c in certs] == [(5, 2)]
    inv2 = pow(2, -1, 5)
    assert pow(3 * inv2, 2, 5) == 1 and (3 * inv2) % 5 != 1


def test_certificates_quadratic_base():
    g = PHI * PHI
    seen = {}
    for n in range(1, 13):
        for c in certificate_for_n(g, n):
            assert c.order == n and c.k_p != 0
            assert seen.setdefault(c.prime_ideal.label(), n) == n
    assert seen  # the sweep certifies at least one prime


def test_certificates_reject_torsion():
    with pytest.raises(UsageError):
        certificate_for_n(1, 3)
    with pytest.raises(UsageError):
        certificate_for_n(qelem(quadratic_field(-1), 0, 1), 3)


def test_certified_count_frozen():
    assert witness_limit(2, 1000) == 8  # n = 1 and 6 certify nothing
    cc = certified_count(2, 1000)
    assert cc.count == 6
    assert [(c.n, c.prime_ideal.label()) for c in cc.certificates] == [
        (2, "3"), (3, "7"), (4, "5"), (5, "31"), (7, "127"), (8, "17")]
    assert cc.skipped == ()


def test_certified_count_keeps_certificates_in_order():
    cc = certified_count(2, 100)
    assert [(c.n, c.p) for c in cc.certificates] == [(2, 3), (3, 7), (4, 5),
                                                     (5, 31)]
    assert cc.count == len(cc.certificates)
    assert all(c.prime_ideal.norm <= 100 for c in cc.certificates)


def test_certified_count_starts_at_n_1():
    # Phi_1(3) = 2, so the first witness index certifies the prime 2
    cc = certified_count(3, 100)
    assert [(c.n, c.p) for c in cc.certificates] == [(1, 2), (3, 13)]


def test_certified_count_keeps_a_certificate_whose_norm_is_the_bound():
    cc = certified_count(PHI, 11)
    assert cc.count == 2 and "11a" in [c.prime_ideal.label()
                                       for c in cc.certificates]
    cc = certified_count(qelem(quadratic_field(3), 2, 1), 25)  # 2 + sqrt(3)
    assert [c.prime_ideal.label() for c in cc.certificates] == ["5i"]


@pytest.mark.parametrize("gamma", [2, 3, 7, Fraction(3, 2), Fraction(-5, 3),
                                   Fraction(1, 2)])
@pytest.mark.parametrize("n", [1, 5, 29, 60])
def test_witness_limit_exact_at_rational_boundary(gamma, n):
    # the cutoff is the largest n with 2 * max(|a|, |b|)^n <= bound
    q = Fraction(gamma)
    edge = 2 * max(abs(q.numerator), q.denominator) ** n
    assert witness_limit(gamma, edge) == n
    assert witness_limit(gamma, edge + 1) == n
    assert witness_limit(gamma, edge - 1) == n - 1


def test_certified_count_small_bounds():
    assert certified_count(2, 1).count == 0
    assert certified_count(2, 2).count == 0
    assert witness_limit(2, 7) == 1
    assert certified_count(2, 7).certificates == ()


def test_certified_count_monotone():
    counts = [certified_count(2, B).count for B in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_certified_count_base_2_to_1e31_skips_nothing():
    # n = 101 is in range; rho alone could not split 2^101 - 1 in budget
    cc = certified_count(2, 10 ** 31)
    assert cc.skipped == ()
    assert cc.count == 170


def test_certified_count_base_2_to_1e40_skips_nothing():
    # p-1 splits the cofactors of Phi_101(2) and Phi_125(2), which rho
    # alone could not within its budget
    import time
    t0 = time.perf_counter()
    cc = certified_count(2, 10 ** 40)
    assert time.perf_counter() - t0 < 3.0
    assert cc.skipped == ()
    assert cc.count == 239


def test_certified_count_quadratic_base():
    cc = certified_count(PHI * PHI, 200)
    assert cc.count >= 1
    assert cc.skipped == ()


def test_certified_count_skip_on_factorization_failure(monkeypatch):
    import quadrec.certificates as mod

    real = mod.ideal_factors
    bad = as_element(5)  # the value Phi_4(2)

    def flaky(x, *a, **k):
        if x == bad:
            raise FactorizationError("synthetic budget failure")
        return real(x, *a, **k)

    monkeypatch.setattr(mod, "ideal_factors", flaky)
    cc = certified_count(2, 1000)
    assert cc.skipped == (4,)
    assert cc.count == 5  # the n = 4 prime is lost; lower bound semantics


def test_certified_count_detects_duplicate_primes(monkeypatch):
    import quadrec.certificates as mod

    P7 = prime_ideals_above(None, 7)[0]

    def forged(gamma, n):
        return [NonWieferichCertificate(7, P7, n, n, 1)]

    monkeypatch.setattr(mod, "certificate_for_n", forged)
    with pytest.raises(InvariantBreachError):
        certified_count(2, 100)


@pytest.mark.parametrize("k", range(1, 40))
def test_witness_limit_exact_at_quadratic_boundary(k):
    # 3+sqrt(2) has minimal polynomial x^2 - 6x + 7 with both roots above 1,
    # so M = 7 and the cutoff is the largest n with 4 * 7^n <= bound^2
    g = qelem(K2, 3, 1)
    edge = 2 * 7 ** k
    assert witness_limit(g, edge) == 2 * k
    assert witness_limit(g, edge + 1) == 2 * k
    assert witness_limit(g, edge - 1) == 2 * k - 1


def _height_oracle(g) -> mpmath.mpf:
    """h(g) = log(M)/2 from the roots of g's minimal polynomial, at 600 bits."""
    t, nw = g.field.omega_trace, g.field.omega_norm
    A, B, den = g.num_a, g.num_b, g.den
    a, b, c = den * den, -den * (2 * A + t * B), A * A + t * A * B + nw * B * B
    k = math.gcd(math.gcd(a, b), c)
    a, b, c = a // k, b // k, c // k
    s = mpmath.sqrt(b * b - 4 * a * c)  # complex when D < 0
    roots = ((-b + s) / (2 * a), (-b - s) / (2 * a))
    M = a * mpmath.fprod(max(1, abs(r)) for r in roots)
    return mpmath.log(M) / 2


@settings(max_examples=60)
@given(st.sampled_from([(2, 1, 1, 1), (5, 0, 1, 1), (3, 2, 1, 1),
                        (2, 1, 3, 1), (13, 1, 2, 1), (-1, 1, 2, 1),
                        (-3, 2, 1, 1), (5, 1, -3, 1),
                        (5, 1, 2, 3),     # (1+2w)/3 in Q(sqrt(5))
                        (13, 1, 2, 3)]),  # (2+sqrt(13))/3
       st.integers(1, 200), st.integers(-2, 2))
@example((5, 1, 2, 3), 100, 0)
@example((13, 1, 2, 3), 100, 0)
def test_witness_limit_matches_high_precision_heights(base, n, delta):
    # bounds next to 2*H^n, where the old float cutoff could misjudge; the
    # bases with den > 1 have a minimal polynomial that is not monic
    d, a, b, den = base
    g = qelem(quadratic_field(d), a, b, den)
    with mpmath.workprec(600):
        h = _height_oracle(g)
        bound = int(mpmath.floor(2 * mpmath.exp(n * h))) + delta
        assume(bound >= 2)
        x = (mpmath.log(bound) - mpmath.log(2)) / h
        assume(abs(x - mpmath.nint(x)) > mpmath.mpf(10) ** -100)  # no exact tie
        assert witness_limit(g, bound) == int(mpmath.floor(x))


@pytest.mark.parametrize("bound", [-10 ** 6, 0, 1])
def test_witness_limit_is_0_below_2(bound):
    assert witness_limit(PHI, bound) == 0 and witness_limit(2, bound) == 0


def test_witness_limit_rejects_zero_base():
    with pytest.raises(UsageError):
        witness_limit(0, 100)


def test_order_proof_agrees_with_measured_order():
    # certificate_for_n proves ord = n from n's primes; the stripping route
    # of periods.multiplicative_order must measure the same order
    for g in (as_element(2), qelem(K2, 1, 1)):
        seen = 0
        for n in range(1, 61):
            for c in certificate_for_n(g, n):
                assert c.order == n
                assert multiplicative_order(reduce(g, (c.prime_ideal, 1))) == n
                seen += 1
        assert seen > 30


def test_order_proof_refuses_a_wrong_order():
    # 2 has order 5 mod 31 and 3 has order 30: stripping n's primes lands
    # on the order, so any n it leaves changed is refused
    (P,) = prime_ideals_above(None, 31)
    two, three = reduce(2, (P, 1)), reduce(3, (P, 1))

    def strip(x, n):
        return least_period(n, factorize(n), lambda j: residue_pow(x, j).is_one())
    assert strip(two, 5) == 5
    assert strip(two, 10) == 5   # the order is n/r
    assert strip(three, 60) == 30


def _claim_31_divides_phi_10(monkeypatch):
    """Let certificates read 31 || Phi_10(2); 2 has order 5 mod 31."""
    import quadrec.certificates as mod
    real = mod.cyclotomic_factors
    (P31,) = prime_ideals_above(None, 31)
    monkeypatch.setattr(mod, "cyclotomic_factors",
                        lambda g, d: [(P31, 1)] if d == 10 else real(g, d))


def test_failed_order_proof_reports_the_measured_order(monkeypatch):
    _claim_31_divides_phi_10(monkeypatch)
    with pytest.raises(InvariantBreachError, match=r"at 31: ord=5, n=10"):
        certificate_for_n(2, 10)


def test_failed_order_proof_is_a_breach_when_p_minus_1_does_not_factor(
        monkeypatch):
    # the order proof strips n's own primes, so a p - 1 that does not factor
    # changes neither the breach nor its measured order, and the index is
    # not recorded as skipped
    import quadrec.periods

    def refuse(*args):
        raise FactorizationError("p - 1 does not split")

    _claim_31_divides_phi_10(monkeypatch)
    monkeypatch.setattr(quadrec.periods, "factorize", refuse)
    with pytest.raises(InvariantBreachError, match=r"at 31: ord=5, n=10"):
        certified_count(2, 2048)


def test_order_proof_refuses_gamma_n_not_one(monkeypatch):
    # 2 has order 3 mod 7, so 2^10 = 2 (mod 7): no order to strip
    import quadrec.certificates as mod
    (P7,) = prime_ideals_above(None, 7)
    monkeypatch.setattr(mod, "cyclotomic_factors", lambda g, d: [(P7, 1)])
    with pytest.raises(InvariantBreachError,
                       match=r"at 7: gamma\^n != 1, n=10"):
        certificate_for_n(2, 10)


def test_certificate_at_a_wieferich_prime_is_a_breach(monkeypatch):
    # Phi_10(2) = 11 and 2 has order 10 mod 11; a Fermat quotient of 0
    # there would make 11 a Wieferich prime, which a certificate excludes
    import quadrec.certificates as mod
    monkeypatch.setattr(mod, "fermat_quotient_residue", lambda g, P: 0)
    with pytest.raises(InvariantBreachError,
                       match="Wieferich prime at 11, n=10"):
        certificate_for_n(2, 10)
