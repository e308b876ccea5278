"""The plain-int residue kernel against exact field arithmetic, the sized
Miller-Rabin base sets against trial division, and the result guards that
must raise rather than vanish under python -O."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import quadrec.periods
import quadrec.wieferich
from quadrec.errors import DegenerateInputError, InvariantBreachError
from quadrec.factor import is_prime
from quadrec.periods import multiplicative_order
from quadrec.ring import (as_element, prime_ideals_above, qelem,
                          quadratic_field, reduce, residue_pow,
                          unit_group_order)
from quadrec.wieferich import fermat_quotient_residue

# field d (None for Q) -> rational primes covering every splitting kind:
# rational, split (both conjugates), inert and ramified
FIELDS = {
    None: (2, 3, 7),
    5: (11, 2, 3, 5),
    2: (7, 3, 2),
    -1: (5, 3, 2),
}


def elements(d):
    K = quadratic_field(d) if d is not None else None
    small = st.integers(min_value=-40, max_value=40)
    b = small if K is not None else st.just(0)
    return st.builds(lambda a, b, den: qelem(K, a, b, den),
                     small, b, st.integers(min_value=1, max_value=12))


def _moduli(d):
    K = quadratic_field(d) if d is not None else None
    for p in FIELDS[d]:
        for P in prime_ideals_above(K, p):
            for e in ((1,) if P.kind == "ramified" else (1, 2, 3)):
                yield P, e


def _group_order(P, e):
    # the ramified ring at e = 1 is the field F_p
    return P.norm - 1 if P.kind == "ramified" else unit_group_order((P, e))


def test_moduli_cover_every_kind():
    kinds = {P.kind for d in FIELDS for P, _ in _moduli(d)}
    assert kinds == {"rational", "split", "inert", "ramified"}
    split = [P for d in FIELDS if d is not None for P, e in _moduli(d)
             if P.kind == "split" and e == 1]
    assert {P.conjugate_flag for P in split} == {False, True}


@pytest.mark.parametrize("d", list(FIELDS), ids=lambda d: f"d={d}")
@settings(max_examples=25)
@given(data=st.data())
def test_residue_pow_matches_exact_powering(d, data):
    x = data.draw(elements(d))
    k_random = data.draw(st.integers(min_value=2, max_value=1500))
    for P, e in _moduli(d):
        try:
            r = reduce(x, (P, e))
        except DegenerateInputError:
            continue  # x is not integral at P
        for k in (0, 1, k_random, _group_order(P, e)):
            got, want = residue_pow(r, k), reduce(x ** k, (P, e))
            assert (got.u, got.v) == (want.u, want.v), (P.label(), e, k)


# ---------------------------------------------------------------------------
# is_prime: sized base sets


def test_is_prime_matches_trial_division_below_2e5():
    for n in range(200_000):
        assert is_prime(n) == oracles.is_prime_trial(n), n


def test_is_prime_on_witness_bases():
    # 2, 7 and 61 are bases; trial division must settle them first
    for n in (2, 7, 41, 43, 47, 53, 59, 61):
        assert oracles.is_prime_trial(n)
        assert is_prime(n), n


def test_is_prime_at_the_three_base_boundary():
    spsp = (3_215_031_751,  # 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
            4_759_123_141)  # 48781 * 97561, the first to pass 2, 7 and 61
    assert 151 * 751 * 28_351 == spsp[0]
    assert 48_781 * 97_561 == spsp[1]
    for n in spsp:
        assert not oracles.is_prime_trial(n)
        assert not is_prime(n), n
    for n in (4_759_123_129, 4_759_123_151):
        assert oracles.is_prime_trial(n), n
        assert is_prime(n), n


# ---------------------------------------------------------------------------
# result guards


def test_fermat_guard_raises_on_a_broken_power(monkeypatch):
    (P,) = prime_ideals_above(None, 7)
    assert fermat_quotient_residue(as_element(2), P) == 2  # 2^6 = 1 + 9*7

    def broken(x, k):
        return reduce(2, x.modulus)  # 2 is not 1 mod 7

    monkeypatch.setattr(quadrec.wieferich, "residue_pow", broken)
    with pytest.raises(InvariantBreachError):
        fermat_quotient_residue(as_element(2), P)


def test_order_guard_raises_on_a_wrong_group_order(monkeypatch):
    (P,) = prime_ideals_above(None, 11)
    assert multiplicative_order(reduce(2, (P, 1))) == 10
    monkeypatch.setattr(quadrec.periods, "unit_group_order", lambda m: 11)
    with pytest.raises(InvariantBreachError):
        multiplicative_order(reduce(2, (P, 1)))
