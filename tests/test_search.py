import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from quadrec import factor, search
from quadrec.errors import CheckpointError, InvariantBreachError, UsageError
from quadrec.ring import (as_element, field_norm, prime_ideals_above, qelem,
                          quadratic_field)
from quadrec.search import (
    SearchPredicate,
    iter_primes,
    predicate_config_hash,
    search_range,
    wall_predicate,
    wieferich_predicate,
)
from quadrec.wieferich import WallVerdict, unit_screen

K5 = quadratic_field(5)


def test_iter_primes_matches_sieve(monkeypatch):
    assert list(iter_primes(2, 1000)) == oracles.primes_below(1000)
    assert list(iter_primes(0, 30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(iter_primes(100, 130)) == [101, 103, 107, 109, 113, 127]
    assert list(iter_primes(50, 50)) == []
    # the sieving primes come from the same sieve one level down, so every
    # small bound exercises the recursion's base cases
    for n in range(201):
        assert factor.primes_below(n) == oracles.primes_below(n), n
    # segment boundaries do not lose primes
    monkeypatch.setattr(factor, "SEGMENT", 64)
    got = list(iter_primes(2, 5000))
    assert got == oracles.primes_below(5000)
    assert factor.primes_below(5000) == got


def test_iter_primes_matches_the_oracle_on_every_small_range(monkeypatch):
    # the sieve marks odd numbers only and yields 2 on its own, so check
    # every range with 0 <= lo <= hi <= 200, then ranges across the edges
    # of 64-number segments with lo and hi both odd and even
    def check(lo, hi):
        want = [p for p in oracles.primes_below(hi) if p >= lo]
        assert list(iter_primes(lo, hi)) == want, (lo, hi)

    for lo in range(201):
        for hi in range(lo, 201):
            check(lo, hi)
    monkeypatch.setattr(factor, "SEGMENT", 64)
    for lo in (0, 1, 2, 3, 4, 64, 65, 127, 128, 1000, 1001):
        for span in (0, 1, 63, 64, 65, 128, 129, 3998, 3999):
            check(lo, lo + span)


def test_empty_range_checkpoint():
    ck = search_range(wieferich_predicate(2), 10, 10)
    assert ck.cursor == 10 and ck.hits == [] and ck.primes_scanned == 0
    with pytest.raises(UsageError):
        search_range(wieferich_predicate(2), 10, 5)


def test_base2_wieferich_scan():
    ck = search_range(wieferich_predicate(2), 2, 10 ** 4)
    assert [h["p"] for h in ck.hits] == [1093, 3511]
    assert ck.primes_scanned == len(oracles.primes_below(10 ** 4))
    for h in ck.hits:
        p = h["p"]
        assert pow(2, p - 1, p * p) == 1  # re-derive, not trust
        assert h["aggregate"]


def test_base3_scan_finds_eleven():
    ck = search_range(wieferich_predicate(3), 2, 100)
    assert [h["p"] for h in ck.hits] == [11]


def test_quadratic_base_scan_runs():
    from quadrec.ring import qelem, quadratic_field

    phi = qelem(quadratic_field(5), 0, 1)
    ck = search_range(wieferich_predicate(phi), 2, 200)
    # any hit must survive its own verifier
    pred = wieferich_predicate(phi)
    assert all(pred.verify(h) for h in ck.hits)


def _hit_by_valuation(g, p):
    """The hit record by the rule that reads v_P(g) at every ideal."""
    from quadrec.ring import prime_ideals_above, quad_valuation
    from quadrec.wieferich import fermat_quotient_residue

    ideals = [P for P in prime_ideals_above(g.field, p)
              if P.kind != "ramified" and quad_valuation(g, P) == 0]
    hits = sorted(P.label() for P in ideals if fermat_quotient_residue(g, P) == 0)
    if not hits:
        return None
    return {"p": p, "ideals": hits, "aggregate": len(hits) == len(ideals)}


def test_predicate_support_rule_matches_the_valuation_rule():
    from quadrec.ring import as_element, qelem, quadratic_field

    bases = [2, 6, -3, Fraction(3, 2), Fraction(-5, 7),
             qelem(quadratic_field(5), 0, 1),   # (1+sqrt 5)/2
             qelem(quadratic_field(2), 1, 2),   # 1+2*sqrt 2
             qelem(quadratic_field(-7), 0, 1)]  # (1+sqrt -7)/2
    for g in bases:
        test = wieferich_predicate(g).test
        for p in oracles.primes_below(3000):
            assert test(p) == _hit_by_valuation(as_element(g), p), (str(g), p)


def test_wall_scan_small_slice():
    ck = search_range(wall_predicate(), 2, 3000)
    assert ck.hits == []
    assert ck.primes_scanned == len(oracles.primes_below(3000))


def test_wall_predicate_runs_the_period_test_only_past_the_screen(monkeypatch):
    calls = []
    real = search.wall_period_test
    monkeypatch.setattr(search, "wall_period_test",
                        lambda p: calls.append(p) or real(p))
    ck = search_range(wall_predicate(), 2, 3000)
    assert ck.hits == [] and calls == [2, 5]  # 2 and 5 skip the screen


def test_wall_predicate_flags_a_screen_that_wall_contradicts(monkeypatch):
    monkeypatch.setattr(search, "wss_screen", lambda p: True)
    pred = wall_predicate()
    assert pred.test(5) is None
    with pytest.raises(InvariantBreachError, match="p=7 passes"):
        pred.test(7)


@settings(max_examples=25)
@given(st.sampled_from((5, 13, -3, 2, 3, -1, 17, -7, 10)),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 40))
@example(5, 0, 1, 1)     # (1+sqrt 5)/2
@example(5, 2, 0, 1)     # 2 in Q(sqrt 5): hits at 1093i and 3511a, 3511b
@example(2, 1, 1, 1)     # 1+sqrt 2, hits at 13 and 31
@example(-1, 1, 1, 1)    # 1+i, hits at 1093 and 3511
@example(-3, 0, 1, 1)    # a sixth root of unity: every prime is a hit
@example(13, 1, 2, 3)    # (2+sqrt 13)/3: 3a and 3b cancel in the norm
@example(5, 1, 2, 3)     # (1+2w)/3 = (2+sqrt 5)/3
@example(17, 3, 1, 2)    # 2 splits in Q(sqrt 17)
def test_quadratic_hits_match_the_ideal_route_at_every_p(d, a, b, den):
    # the predicate screens good primes; the rule it must match takes the
    # Fermat quotient at every admissible ideal of every p, bad or good
    assume(a or b)
    g = qelem(quadratic_field(d), a, b, den)
    got = search_range(wieferich_predicate(g), 2, 5000).hits
    want = [hit for p in oracles.primes_below(5000)
            if (hit := _hit_by_valuation(g, p)) is not None]
    assert got == want


@pytest.mark.parametrize("base, seen", [
    (qelem(K5, 0, 1), ["2i"]),
    (qelem(quadratic_field(2), 1, 1), ["13i", "31a", "31b"]),
], ids=["phi", "one-plus-sqrt-2"])
def test_quotients_run_only_at_bad_and_screened_primes(monkeypatch, base, seen):
    # phi: 2 is its one bad prime with an admissible ideal (5 ramifies),
    # and no good prime passes the screen.  1+sqrt 2: 2 ramifies, and the
    # screen passes exactly the hits 13 and 31.
    calls = []
    real = search.fermat_quotient_residue
    monkeypatch.setattr(search, "fermat_quotient_residue",
                        lambda g, P: calls.append(P.label()) or real(g, P))
    search_range(wieferich_predicate(base), 2, 3000)
    assert calls == seen


def _refuse(*args):
    raise AssertionError("this base must not reach this screen")


def test_wieferich_predicate_flags_a_screen_the_ideals_contradict(monkeypatch):
    # phi is a unit and takes unit_screen; 1+2*sqrt 2, of norm -7, takes
    # lucas_screen.  Neither is a hit at 3, so a screen passing it is a bug.
    for base, screen, other, bad in (
            (qelem(K5, 0, 1), "unit_screen", "lucas_screen", (2, 5)),
            (qelem(quadratic_field(2), 1, 2), "lucas_screen", "unit_screen", (2, 7))):
        pred = wieferich_predicate(base)
        with monkeypatch.context() as m:
            m.setattr(search, screen, _refuse)
            m.setattr(search, other, _refuse)
            for p in bad:  # no screen
                assert pred.test(p) == _hit_by_valuation(base, p), p
            m.setattr(search, screen, lambda *args: True)
            with pytest.raises(InvariantBreachError, match="p=3 passes"):
                pred.test(3)


def test_verify_takes_the_ideal_route_alone(monkeypatch):
    # 1+sqrt 2 is a unit with the hit 13; 2 in Q(sqrt 5) is no unit, and
    # 1093 is a hit, inert there
    for base, p, screen in ((qelem(quadratic_field(2), 1, 1), 13, "unit_screen"),
                            (qelem(K5, 2, 0), 1093, "lucas_screen")):
        pred = wieferich_predicate(base)
        hit = pred.test(p)
        assert hit is not None
        with monkeypatch.context() as m:
            m.setattr(search, screen, lambda *args: False)
            assert pred.test(p) is None
            assert pred.verify(hit) is True


def test_phi_scan_runs_one_half_length_chain_mod_p_squared_per_good_prime(monkeypatch):
    # work, not time: phi takes unit_screen, one Lucas chain mod p^2 over
    # (p - (5/p))/2 at each prime outside {2, 5}, and never lucas_screen
    from quadrec import wieferich
    asked, real = [], wieferich._lucas_v
    monkeypatch.setattr(wieferich, "_lucas_v",
                        lambda s, k, m: asked.append((k, m)) or real(s, k, m))
    monkeypatch.setattr(search, "lucas_screen", _refuse)
    search_range(wieferich_predicate(qelem(K5, 0, 1)), 2, 3000)
    assert asked == [((p - oracles.legendre(5, p)) // 2, p * p)
                     for p in oracles.primes_below(3000) if p not in (2, 5)]


@pytest.mark.parametrize("d, a, b, p, hit", [
    (2, 7, 5, 7, False),      # (1+sqrt 2)^3: 7 divides the trace 14
    (2, 7, 5, 5, False),      # 5 divides t^2 - 4N = 200
    (6, 5, 2, 5, False),      # 5+2*sqrt 6: 5 divides the trace 10
    (6, 49, 20, 7, True),     # (5+2*sqrt 6)^2: 7 divides the trace 98
    (7, 8, 3, 3, False),      # 8+3*sqrt 7: 3 divides t^2 - 4N = 252, not 28
    (7, 2024, 765, 3, True),  # (8+3*sqrt 7)^3
])
def test_unit_bases_send_the_primes_of_t_and_t2_minus_4n_to_the_ideal_route(
        monkeypatch, d, a, b, p, hit):
    # there s^2 - 4 = t^2*(t^2 - 4N) is no unit mod p, and the unit screen
    # passes p whatever the ideals say
    g = qelem(quadratic_field(d), a, b)
    t, n = 2 * a + g.field.omega_trace * b, int(field_norm(g))
    assert unit_screen(p, t, n, oracles.legendre(g.field.disc, p))
    pred = wieferich_predicate(g)
    monkeypatch.setattr(search, "unit_screen", _refuse)
    monkeypatch.setattr(search, "lucas_screen", _refuse)
    got = pred.test(p)
    assert got == _hit_by_valuation(g, p) and (got is not None) is hit


def test_torsion_units_of_q_i_keep_the_screen_at_every_odd_prime(monkeypatch):
    # +-sqrt(-1) has trace 0 and +-1 has t^2 = 4N, so t*(t^2 - 4N) = 0 must
    # not join the bad primes: every odd prime still goes through
    # lucas_screen, and is a hit, since the base has order dividing 4
    screened = []
    real = search.lucas_screen
    monkeypatch.setattr(search, "lucas_screen",
                        lambda p, *args: screened.append(p) or real(p, *args))
    monkeypatch.setattr(search, "unit_screen", _refuse)
    for a, b in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        screened.clear()
        hits = search_range(wieferich_predicate(qelem(quadratic_field(-1), a, b)),
                            2, 400).hits
        assert screened == oracles.primes_below(400)[1:]
        assert [hit["p"] for hit in hits] == screened


@settings(max_examples=30)
@given(st.integers(-60, 60).filter(bool), st.integers(1, 60))
@example(1, 1)
@example(-1, 1)
@example(-7, 7)
@example(3, 1)     # the hit 11
@example(-5, 49)   # support at 5 and 7
def test_rational_base_hits_match_the_ideal_route_and_plain_pow(a, b):
    from quadrec.wieferich import fermat_quotient_residue

    g = Fraction(a, b)
    got = search_range(wieferich_predicate(g), 2, 5000).hits
    by_ideal = []
    for p in oracles.primes_below(5000):
        (P,) = prime_ideals_above(None, p)
        if g.numerator % p and g.denominator % p and fermat_quotient_residue(g, P) == 0:
            by_ideal.append({"p": p, "ideals": [str(p)], "aggregate": True})
    by_pow = [{"p": p, "ideals": [str(p)], "aggregate": True} for p in
              oracles.rational_wieferich_primes(g.numerator, g.denominator, 5000)]
    assert got == by_ideal == by_pow


@pytest.mark.parametrize("base, d, hit", [
    (1, None, {"p": 15, "ideals": ["15"], "aggregate": True}),
    (-1, None, {"p": 91, "ideals": ["91"], "aggregate": True}),
    (as_element(1, K5), 5, {"p": 21, "ideals": ["21i"], "aggregate": True}),
])
def test_verify_rejects_a_hit_at_a_composite_p(base, d, hit):
    pred = wieferich_predicate(base)
    assert pred.params["d"] == d  # the field is read from the base
    # test trusts its p to be prime and would rebuild the tampered record
    assert pred.test(hit["p"]) == hit
    assert pred.verify(hit) is False


@pytest.mark.parametrize("hit", [
    {"p": 1, "pi_p": 1, "pi_p2": 1},     # Wall's test alone accepted this
    {"p": 15, "pi_p": 40, "pi_p2": 40},  # and raised a breach at this one
])
def test_wall_verify_rejects_a_hit_at_a_non_prime_p(hit):
    assert wall_predicate().verify(hit) is False


def test_wall_verify_rejects_a_prime_whose_periods_differ():
    assert wall_predicate().verify({"p": 7, "pi_p": 16, "pi_p2": 112}) is False


def test_wall_verify_asks_the_second_detector(monkeypatch):
    # Wall's test, patched to agree with the record, is overruled by
    # wss_divisibility_test(7), which is False
    monkeypatch.setattr(search, "wall_period_test",
                        lambda p: WallVerdict(p, 16, 16, True))
    assert wall_predicate().verify({"p": 7, "pi_p": 16, "pi_p2": 16}) is False


def test_resume_rejects_a_stored_hit_at_a_composite_p(tmp_path):
    pred = wieferich_predicate(1)
    path = tmp_path / "composite.ckpt"
    rec = {
        "version": 1,
        "config_hash": predicate_config_hash(pred, 2, 500),
        "range": [2, 500],
        "cursor": 100,
        "hits": [{"p": 15, "ideals": ["15"], "aggregate": True}],
        "stats": {"primes_scanned": 25},
    }
    path.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(CheckpointError, match="fails re-verification"):
        search_range(pred, 2, 500, str(path), resume=True)


@pytest.mark.parametrize("make, hi, config_hash, digest", [
    (lambda: wieferich_predicate(2), 20000, "49def3110e0eadc6", "4cdfba811adb72b4"),
    (lambda: wieferich_predicate(Fraction(-3, 7)), 5000,
     "9896a422669c6dbb", "58ab565e315d149c"),
    (wall_predicate, 5000, "1523644665af2ee7", "e39201ddda3913a3"),
    (lambda: wieferich_predicate(qelem(K5, 0, 1)), 20000,
     "105453c8bd995207", "5bdcc1331d1e2930"),
    (lambda: wieferich_predicate(qelem(quadratic_field(-1), 1, 1)), 5000,
     "c1684321189e56b6", "399eb09f84f96aa1"),
], ids=["base-2", "base-minus-3-over-7", "wall", "phi", "one-plus-i"])
def test_config_hash_and_checkpoint_bytes_are_pinned(tmp_path, make, hi,
                                                     config_hash, digest):
    # checkpoint files as the ideal route wrote them, byte for byte
    pred = make()
    path = str(tmp_path / "pin.ckpt")
    ck = search_range(pred, 2, hi, path, stop_after=300)
    while not ck.complete:
        ck = search_range(pred, 2, hi, path, resume=True, stop_after=700)
    assert predicate_config_hash(pred, 2, hi) == config_hash
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest()[:16] == digest


def test_interrupted_resume_is_byte_identical(tmp_path):
    pred = wieferich_predicate(2)
    lo, hi = 2, 20000
    straight = search_range(pred, lo, hi, str(tmp_path / "a.ckpt"))
    assert straight.complete

    path = str(tmp_path / "b.ckpt")
    ck = search_range(pred, lo, hi, path, stop_after=137)
    while not ck.complete:
        ck = search_range(pred, lo, hi, path, resume=True, stop_after=911)
    assert ck.line() == straight.line()
    # the final persisted line agrees too
    last = open(path).read().splitlines()[-1]
    assert last == straight.line()


def test_resume_rejects_config_mismatch(tmp_path):
    path = str(tmp_path / "c.ckpt")
    search_range(wieferich_predicate(2), 2, 500, path, stop_after=10)
    with pytest.raises(CheckpointError):
        search_range(wieferich_predicate(2), 2, 600, path, resume=True)
    with pytest.raises(CheckpointError):
        search_range(wieferich_predicate(3), 2, 500, path, resume=True)


def test_resume_survives_torn_tail(tmp_path):
    path = str(tmp_path / "d.ckpt")
    search_range(wieferich_predicate(2), 2, 4000, path, stop_after=100)
    with open(path, "a") as fh:
        fh.write('{"version":1,"config_hash":"dead')  # crash mid-write
    ck = search_range(wieferich_predicate(2), 2, 4000, path, resume=True)
    assert ck.complete
    assert [h["p"] for h in ck.hits] == [1093, 3511]


def test_resume_closes_a_torn_tail_before_the_next_record(tmp_path):
    pred = wieferich_predicate(2)
    straight = search_range(pred, 2, 50000, str(tmp_path / "a.ckpt"))
    path = tmp_path / "b.ckpt"
    search_range(pred, 2, 50000, str(path), stop_after=1000)
    with open(path, "a") as fh:  # two blank lines, then a crash mid-write
        fh.write('\n\n{"version": 1, "curs')
    search_range(pred, 2, 50000, str(path), resume=True)
    lines = path.read_text().split("\n")
    assert lines[-5:] == ["", "", '{"version": 1, "curs', straight.line(), ""]
    assert search._load_last_record(str(path)) == straight.record()


def test_resume_rejects_garbage_file(tmp_path):
    path = tmp_path / "e.ckpt"
    path.write_text("not json at all\n{}\n")
    with pytest.raises(CheckpointError):
        search_range(wieferich_predicate(2), 2, 500, str(path), resume=True)
    with pytest.raises(CheckpointError):
        search_range(wieferich_predicate(2), 2, 500, None, resume=True)


def test_resume_accepts_records_at_the_edges(tmp_path):
    # cursor = lo with nothing scanned yet, and a finished prime-free range
    pred = wieferich_predicate(2)
    path = tmp_path / "edge.ckpt"
    rec = {"version": 1, "config_hash": predicate_config_hash(pred, 2, 500),
           "range": [2, 500], "cursor": 2, "hits": [],
           "stats": {"primes_scanned": 0}}
    path.write_text(json.dumps(rec) + "\n")
    ck = search_range(pred, 2, 500, str(path), resume=True)
    assert (ck.cursor, ck.primes_scanned, ck.hits) == (500, 95, [])
    empty = str(tmp_path / "empty.ckpt")
    search_range(pred, 24, 29, empty)
    ck = search_range(pred, 24, 29, empty, resume=True)
    assert (ck.cursor, ck.primes_scanned) == (29, 0)


@pytest.mark.parametrize("scanned, hit_p, ok", [
    (98, 2, True),       # cursor - lo primes scanned, a hit at p = lo
    (99, None, False),   # one more than cursor - lo primes
    (25, 100, False),    # a hit at p = cursor
], ids=["edges-accepted", "scanned-past-cursor", "hit-at-cursor"])
def test_resume_state_edges(scanned, hit_p, ok):
    hits = [] if hit_p is None else [{"p": hit_p}]
    rec = {"cursor": 100, "hits": hits, "stats": {"primes_scanned": scanned}}
    if ok:
        assert search._resume_state(rec, 2, 500) == (100, hits, scanned)
    else:
        with pytest.raises(CheckpointError):
            search._resume_state(rec, 2, 500)


def test_resume_after_a_crash_between_flushes(tmp_path):
    # the crash comes after the first periodic record, so the resume starts
    # from a record that search_range wrote mid-scan
    pred = wieferich_predicate(2)
    lo, hi, crash_at = 2, 300_000, 20_500
    assert crash_at > search.FLUSH_EVERY
    straight = tmp_path / "a.ckpt"
    search_range(pred, lo, hi, str(straight))
    seen = []

    def crashing(p):
        seen.append(p)
        if len(seen) == crash_at:
            raise KeyboardInterrupt
        return pred.test(p)

    path = tmp_path / "b.ckpt"
    with pytest.raises(KeyboardInterrupt):
        search_range(SearchPredicate(pred.name, pred.params, crashing,
                                     pred.verify), lo, hi, str(path))
    assert len(path.read_text().splitlines()) == 1
    ck = search_range(pred, lo, hi, str(path), resume=True)
    assert ck.complete and ck.primes_scanned == 25_997
    assert (path.read_bytes().splitlines()[-1]
            == straight.read_bytes().splitlines()[-1])


def test_resume_reverifies_hits(tmp_path):
    pred = wieferich_predicate(2)
    path = tmp_path / "f.ckpt"
    rec = {
        "version": 1,
        "config_hash": predicate_config_hash(pred, 2, 500),
        "range": [2, 500],
        "cursor": 100,
        "hits": [{"p": 97, "ideals": ["97"], "aggregate": True}],  # fabricated
        "stats": {"primes_scanned": 25},
    }
    path.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(CheckpointError):
        search_range(pred, 2, 500, str(path), resume=True)


def test_fresh_run_truncates_stale_file(tmp_path):
    path = str(tmp_path / "g.ckpt")
    search_range(wieferich_predicate(2), 2, 2000, path)
    first = open(path).read()
    search_range(wieferich_predicate(2), 2, 2000, path)
    assert open(path).read() == first


@pytest.mark.parametrize("where", ["missing/x.ckpt", "."])
def test_unwritable_checkpoint_fails_before_the_scan(tmp_path, where):
    # a missing directory, or a directory where the file should be
    tested = []
    pred = SearchPredicate("count", {}, lambda p: tested.append(p),
                           lambda hit: True)
    path = str(tmp_path / where)
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        search_range(pred, 2, 5000, path)
    assert tested == []


def test_predicate_hash_stability():
    a = predicate_config_hash(wieferich_predicate(2), 2, 100)
    b = predicate_config_hash(wieferich_predicate(2), 2, 100)
    c = predicate_config_hash(wieferich_predicate(2), 2, 101)
    d = predicate_config_hash(wieferich_predicate(3), 2, 100)
    assert a == b and a != c and a != d


def test_predicate_hash_names_the_base_field():
    # w prints the same in every field, so only the field tells these apart
    ws = [qelem(quadratic_field(d), 0, 1) for d in (5, 13, 2, 3)]
    assert len({str(w) for w in ws}) == 1
    assert len({predicate_config_hash(wieferich_predicate(w), 2, 1000)
                for w in ws}) == 4


def test_custom_predicate_roundtrip(tmp_path):
    # a divisibility toy predicate: primes ending in 7
    pred = SearchPredicate(
        "ends-in-7", {},
        lambda p: {"p": p} if p % 10 == 7 else None,
        lambda hit: hit["p"] % 10 == 7,
    )
    path = str(tmp_path / "h.ckpt")
    ck = search_range(pred, 2, 100, path, stop_after=7)
    ck = search_range(pred, 2, 100, path, resume=True)
    assert [h["p"] for h in ck.hits] == [7, 17, 37, 47, 67, 97]
