import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import quadrec.certificates
import quadrec.heights
from quadrec.certificates import cyclotomic_value
from quadrec.errors import FactorizationError, UsageError
from quadrec.heights import (
    _quality,
    abc_quality,
    element_height,
    local_values,
    log_norm,
    phi_norm_ratio,
    power_triples,
    radical,
    totient_density,
    triple_height,
)
from quadrec.ring import (as_element, is_torsion, prime_ideals_above, qelem,
                          quadratic_field)
from oracles import phi_brute

K5 = quadratic_field(5)
K2 = quadratic_field(2)
KM1 = quadratic_field(-1)
KM3 = quadratic_field(-3)
K13 = quadratic_field(13)
KM2 = quadratic_field(-2)
PHI = qelem(K5, 0, 1)
TOL = 1e-12

elements = st.builds(
    qelem,
    st.sampled_from([K5, K2, KM1, KM3]),
    st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 30),
).filter(lambda x: not x.is_zero())


def test_height_spot_values():
    assert element_height(1) == 0.0
    assert abs(element_height(2) - math.log(2)) < TOL
    assert abs(element_height(Fraction(1, 2)) - math.log(2)) < TOL
    assert abs(element_height(Fraction(2, 3)) - math.log(3)) < TOL
    golden = math.log((1 + math.sqrt(5)) / 2) / 2
    assert abs(element_height(PHI) - golden) < 1e-9
    assert abs(element_height(PHI.conjugate()) - golden) < 1e-9
    root5 = qelem(K5, -1, 2)  # 2*omega - 1
    assert abs(element_height(root5) - math.log(5) / 2) < TOL
    one_plus_i = qelem(KM1, 1, 1)
    assert abs(element_height(one_plus_i) - math.log(2) / 2) < TOL


@pytest.mark.parametrize("x, want", [
    (as_element(Fraction(-7, 12)), "2.4849066497880004"),
    (as_element(Fraction(2 ** 61 - 1, 3 ** 40)), "43.944491546724386"),
    (PHI, "0.24060591252980174"),
    (PHI ** 200, "48.12118250596034"),
    (qelem(K2, 1, 1), "0.4406867935097715"),
    (qelem(K2, 3, -5, 7), "2.127788444539102"),
    (qelem(KM1, 1, 1), "0.34657359027997264"),
    (qelem(KM1, 2, 3, 5), "1.6094379124341003"),
    (qelem(KM3, 2, 1), "0.9729550745276566"),
    (qelem(K13, 1, 2, 3), "0.8618787029592632"),  # (2+sqrt 13)/3, 3 splits
    (qelem(KM2, 1, 1, 3), "0.5493061443340549"),  # (1+sqrt -2)/3, 3 splits
], ids=["-7/12", "mersenne61/3^40", "phi", "phi^200", "1+sqrt2",
        "(3-5sqrt2)/7", "1+i", "(2+3i)/5", "2+omega3", "(2+sqrt13)/3",
        "(1+sqrt-2)/3"])
def test_height_reprs_are_pinned(x, want):
    # exact floats: a change in which logs are added, or in what order,
    # shows here before any tolerance could hide it
    assert repr(element_height(x)) == want


def test_local_values_examples():
    vals = local_values(as_element(2, K5))
    finite = [pv for pv in vals if pv.kind == "finite"]
    inf = [pv for pv in vals if pv.kind == "infinite"]
    assert [(pv.ideal.label(), pv.value) for pv in finite] == [("2i", Fraction(1, 4))]
    assert sorted(float(pv.value) for pv in inf) == [2.0, 2.0]
    assert all(pv.weight == 1 for pv in inf)

    vals = local_values(PHI)
    assert all(pv.kind == "infinite" for pv in vals)
    got = sorted(float(pv.value) for pv in vals)
    assert abs(got[0] - 0.6180339887498949) < 1e-12
    assert abs(got[1] - 1.618033988749895) < 1e-12


def test_complex_place_is_exact():
    vals = local_values(qelem(KM1, 1, 1))
    inf = [pv for pv in vals if pv.kind == "infinite"]
    assert len(inf) == 1 and inf[0].weight == 2
    assert inf[0].value == Fraction(2)  # |1+i|^2, exact


@given(elements)
@settings(max_examples=150)
def test_product_formula(x):
    total = sum(pv.log_value() for pv in local_values(x))
    assert abs(total) < TOL


@given(st.integers(-40, 40).filter(lambda a: a != 0), st.integers(1, 40))
def test_product_formula_rational(a, den):
    x = as_element(Fraction(a, den))
    total = sum(pv.log_value() for pv in local_values(x))
    assert abs(total) < TOL


def _mahler_height(x):
    """log M(f) / deg f, with f the primitive integer minimal polynomial of x
    and M(f) its leading coefficient times its roots of modulus above 1."""
    if x.num_b == 0:
        return math.log(max(abs(x.num_a), x.den))
    t, n = (x + x.conjugate()).as_fraction(), (x * x.conjugate()).as_fraction()
    lead = math.lcm(t.denominator, n.denominator)
    lead //= math.gcd(lead, int(t * lead), int(n * lead))
    disc = cmath.sqrt(t * t - 4 * n)
    roots = ((float(t) + disc) / 2, (float(t) - disc) / 2)
    return math.log(lead * math.prod(max(1.0, abs(r)) for r in roots)) / 2


@given(elements)
@example(qelem(quadratic_field(13), 1, 2, 3))  # (2+sqrt 13)/3: 3a and 3b
@settings(max_examples=150)
def test_height_is_the_mahler_measure(x):
    assert abs(element_height(x) - _mahler_height(x)) < 1e-9


def test_height_sees_split_primes_that_cancel_in_the_norm():
    # (2+sqrt 13)/3 has norm -1, but v_3a = -1: M(3x^2 - 4x - 3) = 3 * 1.8685
    x = qelem(quadratic_field(13), 1, 2, 3)
    assert round(element_height(x), 4) == 0.8619


@given(elements)
@settings(max_examples=60)
def test_height_inversion_and_lambda_sum(x):
    h = element_height(x)
    assert abs(h - element_height(x.inverse())) < TOL
    # the local heights log+ |x|_v / [K:Q] add up to h(x)
    deg = 1 if x.field is None else 2
    lam = sum(max(pv.log_value(), 0) for pv in local_values(x)) / deg
    assert abs(lam - h) < TOL


def test_height_power_scaling():
    for g in [as_element(2), as_element(Fraction(3, 2)), PHI * PHI,
              qelem(K2, 1, 1)]:
        h1 = element_height(g)
        for n in range(1, 21):
            assert abs(element_height(g ** n) - n * h1) < TOL * n


@pytest.mark.parametrize("gamma", [PHI, qelem(K2, 1, 1)], ids=["phi", "1+sqrt2"])
@pytest.mark.parametrize("n", [100, 200, 400])
def test_small_conjugate_of_a_large_unit_keeps_its_bits(gamma, n):
    # |sigma(gamma^n)| = phi^-n or (sqrt2 - 1)^n at the other real place,
    # which a difference of two 128-bit numbers near gamma^n cannot give
    x = gamma ** n
    assert abs(element_height(x) - n * element_height(gamma)) < 1e-9
    assert abs(sum(pv.log_value() for pv in local_values(x))) < 1e-9


def test_triple_height_examples():
    assert abs(triple_height(32, 1, 31) - 5 * math.log(2)) < TOL
    assert abs(triple_height(1, 2, 3) - math.log(3)) < TOL
    assert abs(triple_height(1, 1, 1)) < TOL


def test_triple_height_projective_invariance():
    base = triple_height(3, 5, 7)
    assert abs(triple_height(6, 10, 14) - base) < TOL
    assert abs(triple_height(Fraction(3, 11), Fraction(5, 11), Fraction(7, 11))
               - base) < TOL
    a, b, c = as_element(3, K5), as_element(5, K5), as_element(7, K5)
    scaled = triple_height(a * PHI, b * PHI, c * PHI)
    assert abs(scaled - base) < 1e-10


def test_triples_from_two_fields_are_refused():
    # phi and 1+sqrt(2) once shared one valuation table: 0.4407 and 0.6931
    with pytest.raises(ValueError, match="elements from different fields"):
        triple_height(PHI, qelem(K2, 1, 1), 1)
    with pytest.raises(ValueError, match="elements from different fields"):
        radical(PHI, qelem(K2, 1, 1), 2)
    # a leading plain rational joins the field of the others; it used to
    # drop them to degree 1 and read 1.9248 and 2.8904 here
    assert triple_height(as_element(1), PHI ** 4, 1) == triple_height(1, PHI ** 4, 1)
    assert radical(as_element(2), PHI ** 4 + 1, 1) == radical(2, PHI ** 4 + 1, 1)


def test_radical_examples():
    assert abs(radical(32, 1, 31) - math.log(2) - math.log(31)) < TOL
    assert abs(radical(4, 9, -13) - math.log(2 * 3 * 13)) < TOL
    assert radical(1, 1, 1) == 0.0
    assert abs(radical(2, 2, 2)) < TOL  # shared valuation does not count
    with pytest.raises(UsageError):
        radical(0, 1, 1)


def test_abc_quality_examples():
    assert abs(abc_quality(1, -2, 1) - 1.0) < TOL
    assert abs(abc_quality(2, 3, -5) - math.log(5) / math.log(30)) < TOL
    assert abs(abc_quality(1, 80, -81) - math.log(81) / math.log(30)) < TOL
    with pytest.raises(UsageError):
        abc_quality(1, 2, 3)  # sum is not zero
    with pytest.raises(UsageError):
        abc_quality(0, 1, -1)


def test_abc_quality_unit_triple_is_infinite():
    # phi + conj(phi) - 1 = 0 with every coordinate a unit: no finite support
    q = abc_quality(PHI, PHI.conjugate(), -1)
    assert q == math.inf


def test_abc_quality_torsion_triple_is_zero():
    zeta = qelem(KM3, 0, 1)  # primitive sixth root of unity
    assert abc_quality(zeta, zeta.conjugate(), -1) == 0.0


def test_log_norm_values():
    assert abs(log_norm(as_element(2)) - math.log(2)) < TOL
    assert log_norm(PHI) == 0.0
    P2 = prime_ideals_above(K5, 2)[0]
    assert abs(log_norm(P2) - math.log(2)) < TOL  # norm 4, degree 2
    P11 = prime_ideals_above(K5, 11)[0]
    assert abs(log_norm(P11) - math.log(11) / 2) < TOL
    P3 = prime_ideals_above(None, 3)[0]
    assert abs(log_norm(P3) - math.log(3)) < TOL


def test_phi_norm_ratio_values():
    assert phi_norm_ratio(2, 1).ratio == 0.0
    r = phi_norm_ratio(2, 6)
    assert abs(r.ratio - math.log(3) / 2) < TOL
    assert abs(r.target - math.log(2)) < TOL
    assert abs(phi_norm_ratio(2, 210).ratio - math.log(2)) < 0.05
    with pytest.raises(UsageError):
        phi_norm_ratio(-1, 2)  # a torsion base; Phi_2(-1) = 0


def test_phi_norm_ratio_quadratic_target():
    g = PHI * PHI
    r = phi_norm_ratio(g, 30)
    assert abs(r.target - math.log((1 + math.sqrt(5)) / 2)) < 1e-9
    assert abs(phi_norm_ratio(3, 60).ratio - math.log(3)) < 0.1


@pytest.mark.parametrize("gamma, target", [
    (2, "0.6931471805599453"),
    (Fraction(3, 2), "0.4054651081081644"),
    (PHI, "0.24060591252980174"),
    (qelem(K2, 1, 1), "0.4406867935097715"),
    (qelem(KM1, 1, 1), "0.34657359027997264"),
    (qelem(quadratic_field(-7), 0, 1), "0.34657359027997264"),
], ids=["two", "three-halves", "phi", "one-plus-sqrt-2", "one-plus-i",
        "half-one-plus-sqrt-minus-7"])
def test_phi_norm_ratio_target_is_pinned(gamma, target):
    # h(gamma : 1) at the infinite places, pinned to the last bit
    assert repr(phi_norm_ratio(gamma, 3).target) == target


def test_phi_norm_ratio_refuses_zero():
    with pytest.raises(UsageError, match="zero has no archimedean contribution"):
        phi_norm_ratio(0, 3)


def test_phi_norm_lower_bound():
    for n in range(3, 61):
        assert phi_norm_ratio(2, n).ratio >= 0.3, n


def test_totient_density_small():
    count, bound = totient_density(1, 0.1)
    assert count == 1 and abs(bound - (6 / math.pi ** 2 - 0.1)) < TOL
    count, bound = totient_density(1000, 0.2)
    assert count >= bound and count >= 407


def test_totient_density_matches_direct_count():
    Y, delta = 3000, 0.5
    count, bound = totient_density(Y, delta)
    direct = sum(1 for n in range(1, Y + 1) if phi_brute(n) >= delta * n)
    assert count == direct
    assert count >= bound


def test_totient_density_validation():
    with pytest.raises(UsageError):
        totient_density(0, 0.2)
    with pytest.raises(UsageError):
        totient_density(10, 0.0)
    with pytest.raises(UsageError):
        totient_density(10, 0.99)


def test_zero_rejections():
    with pytest.raises(UsageError):
        element_height(0)
    with pytest.raises(UsageError):
        local_values(qelem(K5, 0, 0))
    with pytest.raises(UsageError):
        triple_height(0, 0, 0)


KM7 = quadratic_field(-7)
# (field, den) pairs: Q, Q(sqrt2), Q(sqrt5), Q(sqrt13) over 3, Q(i), Q(sqrt-7)
POWER_BASES = [(None, 1), (K2, 1), (K5, 1), (K13, 3), (KM1, 1), (KM7, 1)]


def _whole_triple_rows(g, n_from, n_to):
    """(n, h, rad, q) with 1 - g^n factored whole, the general route."""
    rows = []
    for n in range(n_from, n_to + 1):
        triple = (g ** n, as_element(-1, g.field), 1 - g ** n)
        h, r = triple_height(*triple), radical(*triple)
        rows.append((n, h, r, _quality(h, r)))
    return rows


@settings(max_examples=40)
@given(st.sampled_from(POWER_BASES), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(1, 30), st.integers(0, 2))
@example((K13, 3), 1, 2, 1, 2)  # (2+sqrt13)/3: 3 splits, v_3a = -1, v_3b = 1
@example((K5, 1), 0, 1, 28, 2)  # phi: 11 splits in phi^10 - 1
def test_power_triples_match_the_whole_triple(fd, a, b, n_from, width):
    K, den = fd
    if K is None:
        b = 0
    g = qelem(K, a, b, den)
    if g.is_zero() or is_torsion(g):
        return
    try:
        rows = power_triples(g, n_from, n_from + width)
        want = _whole_triple_rows(g, n_from, n_from + width)
    except FactorizationError:
        reject()  # a cofactor that neither rho nor p-1 splits: nothing to compare
    assert list(map(repr, rows)) == list(map(repr, want))


def test_power_triples_factor_only_gamma_and_each_cyclotomic_value(monkeypatch):
    g = qelem(K13, 1, 2, 3)  # (2+sqrt13)/3
    whole, per_d = [], []
    real = quadrec.heights.ideal_factors
    monkeypatch.setattr(quadrec.heights, "ideal_factors",
                        lambda x: whole.append(x) or real(x))
    monkeypatch.setattr(quadrec.certificates, "ideal_factors",
                        lambda x, index: per_d.append((x, index)) or real(x, index))
    power_triples(g, 1, 12)
    assert whole == [g]  # 1 - g^n is never factored whole
    assert [d for _, d in per_d] == list(range(1, 13))  # each Phi_d once
    assert all(x == cyclotomic_value(g, d) for x, d in per_d)


def test_abc_quality_factors_each_coordinate_once(monkeypatch):
    seen = []
    real = quadrec.heights.ideal_factors
    monkeypatch.setattr(quadrec.heights, "ideal_factors",
                        lambda x: seen.append(x) or real(x))
    assert abs(abc_quality(1, 80, -81) - math.log(81) / math.log(30)) < TOL
    assert seen == [as_element(1), as_element(80), as_element(-81)]


@pytest.mark.parametrize("base, msg", [(0, "zero base"),
                                       (-1, "non-torsion"),
                                       (qelem(KM1, 0, 1), "non-torsion")])
def test_power_triples_refuse_zero_and_torsion_bases(monkeypatch, base, msg):
    monkeypatch.setattr(quadrec.heights, "ideal_factors", None)  # never reached
    with pytest.raises(UsageError, match=msg):
        power_triples(base, 1, 3)
