"""Acceptance gate: one test per shipped guarantee, numbered c01..c14.

Each test restates its guarantee in the docstring and enforces the stated
time budget where one exists.  `pytest -v` prints one pass/fail line per
criterion.
"""
import math
import random
import time
from fractions import Fraction

from quadrec.certificates import certificate_for_n, certified_count
from quadrec.dynamics import eigen_consistency, multiplicative_rank
from quadrec.heights import (abc_quality, local_values, element_height,
                             log_norm, phi_norm_ratio, totient_density)
from quadrec.certificates import cyclotomic_value
from quadrec.periods import (is_degenerate, period_bruteforce, period_formula,
                             pisano, standard_battery)
from quadrec.factor import euler_phi, factorize, is_prime, primes_below
from quadrec.ring import (as_element, prime_ideals_above, qelem,
                          quadratic_field, sqrt_element)
from quadrec.search import search_range, wall_predicate, wieferich_predicate
from quadrec.wieferich import wall_period_test, wss_divisibility_test

K5 = quadratic_field(5)
PHI = qelem(K5, 0, 1)
PHIBAR = qelem(K5, 1, -1)


def _battery_moduli(t, bound):
    """Non-degenerate unramified prime-ideal powers of norm <= bound."""
    out = []
    for p in primes_below(bound + 1):
        for P in prime_ideals_above(t.field(), p):
            if P.kind == "ramified" or is_degenerate(t, P):
                continue
            e = 1
            while P.norm ** e <= bound:
                out.append((P, e))
                e += 1
    return out


def test_c01_fibonacci_period_mod_7():
    """pisano(7) = 16, exactly, in under a millisecond."""
    assert pisano(7) == 16
    best = min(_timed_pisano_7() for _ in range(5))
    assert best < 1e-3, f"pisano(7) took {best * 1e3:.3f} ms"


def _timed_pisano_7():
    t0 = time.perf_counter()
    assert pisano(7) == 16
    return time.perf_counter() - t0


def test_c02_formula_matches_bruteforce_to_1e4():
    """period_formula equals period_bruteforce for the five-tuple battery
    over every non-degenerate unramified prime power of norm <= 10^4,
    within 60 seconds."""
    t0 = time.perf_counter()
    checked = 0
    for t in standard_battery():
        for m in _battery_moduli(t, 10 ** 4):
            a = period_formula(t, [m]).period
            b = period_bruteforce(t, m).period
            assert a == b, f"{t.name} mod {m[0].label()}^{m[1]}: {a} != {b}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 6000
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"


def test_c03_period_lcm_not_product():
    """pisano(21) = lcm(pisano(3), pisano(7)) = 16, strictly below the
    product 8 * 16: periods combine by lcm, never by multiplication."""
    assert pisano(3) == 8 and pisano(7) == 16
    assert pisano(21) == 16
    assert pisano(21) == math.lcm(pisano(3), pisano(7))
    assert pisano(21) != pisano(3) * pisano(7)


def test_c04_period_divides_residue_group_order():
    """The period mod a non-degenerate unramified prime ideal divides
    N(P) - 1, with zero violations across the battery up to norm 10^4."""
    violations = []
    for t in standard_battery():
        for P, e in _battery_moduli(t, 10 ** 4):
            if e != 1:
                continue
            k = period_formula(t, [(P, 1)]).period
            if (P.norm - 1) % k:
                violations.append((t.name, P.label(), k))
    assert violations == []


def test_c05_no_wall_sun_sun_below_1e6():
    """No prime p < 10^6 has equal Fibonacci periods mod p and mod p^2,
    and the period test agrees with the independent divisibility test for
    every p < 10^4 (p != 2, 5).  Budget: 10 minutes single-threaded."""
    t0 = time.perf_counter()
    ck = search_range(wall_predicate(), 2, 10 ** 6)
    assert ck.hits == []
    assert ck.primes_scanned == 78498
    for p in primes_below(10 ** 4):
        if p in (2, 5):
            continue
        assert wall_period_test(p).equal == wss_divisibility_test(p), p
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"desk search took {elapsed:.1f}s"


def test_c06_base2_wieferich_below_1e4():
    """The base-2 search below 10^4 finds exactly {1093, 3511}, re-verified
    here by direct exponentiation over every prime in range; under 5 s."""
    t0 = time.perf_counter()
    ck = search_range(wieferich_predicate(2), 2, 10 ** 4)
    found = [h["p"] for h in ck.hits]
    direct = [p for p in primes_below(10 ** 4) if p != 2
              and pow(2, p - 1, p * p) == 1]
    assert found == direct == [1093, 3511]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"search took {elapsed:.1f}s"


def test_c07_certificate_soundness_n_to_60():
    """Every certificate for base 2 with witness index n <= 60 survives
    independent order and non-square verification, and no prime is
    certified at two different indices."""
    owner = {}
    total = 0
    for n in range(1, 61):
        for c in certificate_for_n(2, n):
            p = c.p
            assert is_prime(p)
            # order of 2 mod p is exactly n, checked with bare pow
            assert pow(2, n, p) == 1
            for q in factorize(n):
                assert pow(2, n // q, p) != 1, (p, n, q)
            # non-Wieferich: the Fermat quotient does not vanish
            assert pow(2, p - 1, p * p) != 1, p
            assert owner.setdefault(p, n) == n, f"{p} certified twice"
            total += 1
    assert total >= 20  # the sweep is far from vacuous


def test_c08_certified_count_growth():
    """Distinct certified primes below B is nondecreasing in B, and its
    least-squares slope against log B over B in {10^3..10^9} is positive."""
    counts = [certified_count(2, 10 ** k).count for k in range(3, 10)]
    assert counts == sorted(counts)
    xs = [math.log(10 ** k) for k in range(3, 10)]
    mx, my = sum(xs) / len(xs), sum(counts) / len(counts)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, counts))
             / sum((x - mx) ** 2 for x in xs))
    assert slope > 0, f"slope {slope}"


def test_c09_height_product_formula_and_scaling():
    """Heights behave: the product formula sums to 0 within 1e-12 on 10^3
    random elements, h(g^n) = n h(g) for n <= 20, and
    abc_quality(1, 80, -81) = log 81 / log 30 within 1e-12."""
    rng = random.Random(90)
    fields = [quadratic_field(d) for d in (5, 2, -1, -3)] + [None]
    tested = 0
    while tested < 1000:
        K = rng.choice(fields)
        x = qelem(K, rng.randint(-40, 40),
                  rng.randint(-40, 40) if K is not None else 0,
                  rng.randint(1, 40))
        if x.is_zero():
            continue
        total = sum(pl.log_value() for pl in local_values(x))
        assert abs(total) < 1e-12, (x, total)
        tested += 1
    K2 = quadratic_field(2)
    for g in (as_element(2), as_element(Fraction(3, 2)), PHI,
              as_element(1, K2) + sqrt_element(K2)):
        h1 = element_height(g)
        for n in range(1, 21):
            assert abs(element_height(g ** n) - n * h1) < 1e-11, (g, n)
    want = math.log(81) / math.log(30)
    assert abs(abc_quality(1, 80, -81) - want) < 1e-12


def test_c10_cyclotomic_lognorm_lower_bound():
    """log N(Phi_n(2)) >= 0.3 phi(n) for all 3 <= n <= 500, and the
    normalized ratio approaches log 2 with shrinking gaps over
    n in {50, 100, 200, 400}, the last gap below 0.05."""
    for n in range(3, 501):
        assert log_norm(cyclotomic_value(2, n)) >= 0.3 * euler_phi(n), n
    gaps = [abs(phi_norm_ratio(2, n).ratio - math.log(2))
            for n in (50, 100, 200, 400)]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.05


def test_c11_totient_density_sieve():
    """At least (6/pi^2 - 1/2) * 10^5 integers n <= 10^5 satisfy
    phi(n) >= n/2; sieved in under a second."""
    t0 = time.perf_counter()
    count, bound = totient_density(10 ** 5, 0.5)
    elapsed = time.perf_counter() - t0
    assert count >= bound
    assert count == 48864  # frozen: the sieve is deterministic
    assert elapsed < 1, f"sieve took {elapsed:.2f}s"


def test_c12_free_rank_examples():
    """free_rank({phi, phibar}) = 1, free_rank({2, 3}) = 2,
    free_rank({2, 4}) = 1; all exact."""
    assert multiplicative_rank([PHI, PHIBAR]).free_rank == 1
    assert multiplicative_rank([as_element(2), as_element(3)]).free_rank == 2
    assert multiplicative_rank([as_element(2), as_element(4)]).free_rank == 1


def test_c13_orbit_matches_formula_battery():
    """Companion-matrix orbit periods equal formula periods across the
    five-tuple battery for every admissible modulus of norm <= 10^3,
    with zero mismatches."""
    checked = 0
    for t in standard_battery():
        for m in _battery_moduli(t, 10 ** 3):
            rep = eigen_consistency(t, m)
            assert rep["match"], (t.name, m)
            checked += 1
    assert checked > 800


def test_c14_resume_byte_identical(tmp_path):
    """A search over [2, 10^5) interrupted mid-range and resumed finishes
    with a final checkpoint record byte-identical to the uninterrupted
    run's, and with the same hits."""
    straight = str(tmp_path / "straight.jsonl")
    broken = str(tmp_path / "broken.jsonl")
    full = search_range(wieferich_predicate(2), 2, 10 ** 5, straight)
    part = search_range(wieferich_predicate(2), 2, 10 ** 5, broken,
                        stop_after=4000)
    assert not part.complete and part.cursor < 10 ** 5
    resumed = search_range(wieferich_predicate(2), 2, 10 ** 5, broken,
                           resume=True)
    assert resumed.complete and resumed.hits == full.hits
    with open(straight, "rb") as fh:
        last_straight = fh.read().splitlines()[-1]
    with open(broken, "rb") as fh:
        last_broken = fh.read().splitlines()[-1]
    assert last_straight == last_broken
