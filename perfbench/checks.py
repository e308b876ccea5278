"""Independent checks of the workload outputs.

Like tests/oracles.py, every check here does its arithmetic on plain ints
and imports nothing from quadrec, with one exception: the scan-resume check
takes the config hash of its expected checkpoint line from
quadrec.search.predicate_config_hash.

oracle() precomputes what depends only on the plan, once per run.
check() turns one pass's outputs into a Tally.  A mismatch is counted, it
never aborts the run; corrupt() damages one result so that the self-test
can confirm that each checker counts it.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

from plan import (BATTERY, fib_matrix_pow, is_exact_fib_period,
                  prime_factors, primes_between)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass
class Tally:
    """One pass: operations run and failed, items attempted and failed, and
    useful results (primes scanned, primes certified, periods verified).

    An operation fails when it raises, exits nonzero or any of its output
    fails a check.  An item fails for the same reasons, and also when the
    program skips it (a certify index lost to FactorizationError)."""

    ops: int = 0
    ops_failed: int = 0
    items: int = 0
    items_failed: int = 0
    useful: int = 0

    def add_op(self, items: int, items_failed: int, useful: int, ok: bool):
        self.ops += 1
        self.ops_failed += not ok
        self.items += items
        self.items_failed += items_failed
        self.useful += useful


# ---------------------------------------------------------------------------
# plain-int arithmetic


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first 16 primes: a proof below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def field_params(d: int) -> tuple[int, int]:
    """(t, n) with w^2 = t*w - n for the integral basis element w of Q(sqrt(d))."""
    return (1, (1 - d) // 4) if d % 4 == 1 else (0, -d)


def pair_mul(x, y, t, n, m):
    (u1, v1), (u2, v2) = x, y
    return ((u1 * u2 - n * v1 * v2) % m, (u1 * v2 + u2 * v1 + t * v1 * v2) % m)


def pair_pow(x, k, t, n, m):
    acc, base = (1 % m, 0), (x[0] % m, x[1] % m)
    while k:
        if k & 1:
            acc = pair_mul(acc, base, t, n, m)
        base = pair_mul(base, base, t, n, m)
        k >>= 1
    return acc


def split_roots(t: int, n: int, p: int) -> list[int]:
    """Roots of x^2 - t x + n mod the prime p, ascending (the order in which
    quadrec labels the two primes above p 'a' and 'b')."""
    if p == 2:
        return [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
    s = sqrt_mod(t * t - 4 * n, p)
    inv2 = (p + 1) // 2
    return sorted({(t + s) * inv2 % p, (t - s) * inv2 % p})


def lift_root(c: int, t: int, n: int, p: int) -> int:
    """The root mod p^2 above the simple root c mod p (one Newton step)."""
    m = p * p
    return (c - (c * c - t * c + n) * pow(2 * c - t, -1, m)) % m


def first_return(coeffs, init, m: int) -> int:
    """Least k >= 1 at which the state of x_{k+r} = sum c_i x_{k+i} mod m
    returns to the initial state, by plain iteration."""
    start = tuple(x % m for x in init)
    k = 0
    if len(coeffs) == 1:
        (c,), (x,) = coeffs, start
        while True:
            x, k = c * x % m, k + 1
            if x == start[0]:
                return k
    if len(coeffs) == 2:
        (c0, c1), (x0, x1) = coeffs, start
        while True:
            x0, x1, k = x1, (c0 * x0 + c1 * x1) % m, k + 1
            if (x0, x1) == start:
                return k
    state = start
    while True:
        nxt = sum(c * x for c, x in zip(coeffs, state)) % m
        state = state[1:] + (nxt,)
        k += 1
        if state == start:
            return k


# ---------------------------------------------------------------------------
# oracles: expected results that depend only on the plan


def _wss_oracle(lo, hi):
    primes = primes_between(lo, hi)
    hits = set()
    for p in primes:
        if p in (2, 5):
            continue
        k = p - 1 if legendre(5, p) == 1 else p + 1
        if fib_matrix_pow(k, p * p)[1] == 0:  # F_k = 0 mod p^2
            hits.add(p)
    return {"primes": len(primes), "hits": hits}


def _phi_oracle(lo, hi):
    """Hits of the phi-base scan: primes P of Q(sqrt(5)) above p with
    phi^(N(P)-1) = 1 mod P^2, where phi = w and w^2 = w + 1."""
    t, n = field_params(5)
    primes = primes_between(lo, hi)
    hits = {}
    for p in primes:
        if p == 5:
            continue
        m = p * p
        if p % 5 in (1, 4):
            labels = [lbl for lbl, c in zip("ab", split_roots(t, n, p))
                      if pow(lift_root(c, t, n, p), p - 1, m) == 1]
            total = 2
        else:
            labels = ["i"] if pair_pow((0, 1), m - 1, t, n, m) == (1, 0) else []
            total = 1
        if labels:
            hits[p] = {"p": p, "ideals": [f"{p}{x}" for x in labels],
                       "aggregate": len(labels) == total}
    return {"primes": len(primes), "hits": hits}


def _resume_line(plan):
    from quadrec.search import predicate_config_hash

    lo, hi, base = plan["lo"], plan["hi"], plan["base"]
    primes = primes_between(lo, hi)
    hits = [{"p": p, "ideals": [str(p)], "aggregate": True}
            for p in primes if base % p and pow(base, p - 1, p * p) == 1]
    pred = SimpleNamespace(name="alpha-wieferich",
                           params={"base": str(base), "d": None})
    record = {"version": 1, "config_hash": predicate_config_hash(pred, lo, hi),
              "range": [lo, hi], "cursor": hi, "hits": hits,
              "stats": {"primes_scanned": len(primes)}}
    return {"line": json.dumps(record, sort_keys=True, separators=(",", ":")),
            "primes": len(primes)}


def _periods_oracle(plan):
    expected = {}
    for ti, p, label, e in plan["moduli"]:
        key = (ti, p ** e)
        if key not in expected:
            b = BATTERY[ti]
            expected[key] = first_return(b["coeffs"], b["init"], p ** e)
    return [expected[(ti, p ** e)] for ti, p, label, e in plan["moduli"]]


def witness_limit(base: dict) -> int:
    """Largest n with 2 * H(base)^n <= bound, where H = exp(Weil height)."""
    bound = base["bound"]
    if base["d"] is None:
        n = 0
        while 2 * base["a"] ** (n + 1) <= bound:
            n += 1
        return n
    t, nn = field_params(base["d"])
    root = math.sqrt(t * t - 4 * nn)
    conj = [base["a"] + base["b"] * (t + s * root) / 2 for s in (1, -1)]
    h = sum(math.log(max(1.0, abs(x))) for x in conj) / 2
    return int(math.floor((math.log(bound) - math.log(2)) / h + 1e-9))


def oracle(plan: dict):
    w = plan["workload"]
    if w == "scan":
        (wss, phi) = plan["cli"]
        return [_wss_oracle(int(wss[2]), int(wss[4])),
                _phi_oracle(int(phi[6]), int(phi[8]))]
    if w == "scan-resume":
        return _resume_line(plan)
    if w == "certify":
        return [witness_limit(b) for b in plan["bases"]]
    return _periods_oracle(plan)


# ---------------------------------------------------------------------------
# checks of one pass


def _parse_lines(out):
    if "error" in out or out.get("rc") != 0:
        return None
    try:
        return [json.loads(line) for line in out["stdout"].splitlines()]
    except json.JSONDecodeError:
        return None


def _scan_ok(kind, argv, exp, lines) -> bool:
    if not lines:
        return False
    lo, hi = (int(argv[2]), int(argv[4])) if kind == "wss" else \
        (int(argv[6]), int(argv[8]))
    *hits, summary = lines
    if summary != {"range": [str(lo), str(hi)], "hits": str(len(hits)),
                   "primes_scanned": str(exp["primes"])}:
        return False
    if kind == "wss":
        got = {int(h["p"]) for h in hits}
        return got == exp["hits"] and all(
            h["pi_p"] == h["pi_p2"]
            and is_exact_fib_period(int(h["pi_p"]), int(h["p"]))
            and is_exact_fib_period(int(h["pi_p2"]), int(h["p"]) ** 2)
            for h in hits)
    want = [{"p": str(p), "ideals": r["ideals"], "aggregate": r["aggregate"]}
            for p, r in sorted(exp["hits"].items())]
    return hits == want


def _check_scan(plan, orc, outcomes, final, tally):
    for kind, argv, exp, out in zip(("wss", "phi"), plan["cli"], orc, outcomes):
        ok = _scan_ok(kind, argv, exp, _parse_lines(out))
        tally.add_op(exp["primes"], 0 if ok else exp["primes"],
                     exp["primes"] if ok else 0, ok)


def _check_resume(plan, orc, outcomes, final, tally):
    calls_ok = all("error" not in o for o in outcomes) and \
        outcomes[-1].get("complete") is True
    ok = calls_ok and final == orc["line"]
    for out in outcomes[:-1]:
        tally.add_op(0, 0, 0, "error" not in out)
    tally.add_op(orc["primes"], 0 if ok else orc["primes"],
                 orc["primes"] if ok else 0, ok)


def _order_is(g, n, p) -> bool:
    return pow(g, n, p) == 1 and all(pow(g, n // r, p) != 1
                                     for r in prime_factors(n))


def _pair_order_is(g, n, t, nn, p) -> bool:
    return pair_pow(g, n, t, nn, p) == (1, 0) and all(
        pair_pow(g, n // r, t, nn, p) != (1, 0) for r in prime_factors(n))


def certified_ideals(base: dict, n: int, p: int, kind: str) -> int:
    """How many primes of the given kind above p have norm <= bound, give
    the base order exactly n and are not Wieferich for it."""
    a, b, d, bound = base["a"], base["b"], base["d"], base["bound"]
    if d is None:
        return int(kind == "rational" and p <= bound and _order_is(a, n, p)
                   and pow(a, p - 1, p * p) != 1)
    t, nn = field_params(d)
    disc = t * t - 4 * nn
    sym = (1 if disc % 8 == 1 else -1) if p == 2 else legendre(disc, p)
    if kind == "split" and sym == 1 and p <= bound:
        return sum(_order_is((a + b * c) % p, n, p)
                   and pow((a + b * lift_root(c, t, nn, p)) % (p * p),
                           p - 1, p * p) != 1
                   for c in split_roots(t, nn, p))
    if kind == "inert" and sym == -1 and p * p <= bound:
        return int(_pair_order_is((a, b), n, t, nn, p)
                   and pair_pow((a, b), p * p - 1, t, nn, p * p) != (1, 0))
    return 0


def _row_key(base: dict, row: dict, n_max: int):
    """(n, p, kind) of a well-formed row, or None."""
    try:
        n, p = int(row["n"]), int(row["p"])
    except (KeyError, TypeError, ValueError):
        return None
    d = base["d"]
    if (row.get("gamma") != base["literal"] or row.get("order_check") is not True
            or row.get("square_check") is not True
            or row.get("field_d") != (None if d is None else str(d))
            or not 1 <= n <= n_max or n % p == 0 or not is_probable_prime(p)):
        return None
    return n, p, row.get("ideal_kind")


def _check_certify(plan, orc, outcomes, final, tally):
    for base, n_max, out in zip(plan["bases"], orc, outcomes):
        lines = _parse_lines(out)
        if not lines:
            tally.add_op(n_max, n_max, 0, False)
            continue
        *rows, summary = lines
        skipped = summary.get("skipped")
        if (not isinstance(skipped, list)
                or not set(skipped) <= {str(n) for n in range(1, n_max + 1)}
                or summary.get("bound") != str(base["bound"])
                or summary.get("certified") != str(len(rows))):
            tally.add_op(n_max, n_max, 0, False)
            continue
        keys = [_row_key(base, row, n_max) for row in rows]
        groups = Counter(k for k in keys if k is not None)
        bad = {str(row.get("n")) for row, k in zip(rows, keys) if k is None}
        for (n, p, kind), count in groups.items():
            if count > certified_ideals(base, n, p, kind):
                bad.add(str(n))
        useful = sum(k is not None and str(k[0]) not in bad for k in keys)
        failed = min(n_max, len(bad | set(skipped)))
        tally.add_op(n_max, failed, useful, not bad)


def _check_periods(plan, orc, outcomes, final, tally):
    nf, nb = len(plan["moduli"]), len(plan["brute"])
    npi = len(plan["pisano"])
    expected = list(orc) + [orc[i] for i in plan["brute"]]
    for exp, got in zip(expected, outcomes[:nf + nb]):
        ok = got == exp
        tally.add_op(1, not ok, int(ok), ok)
    for m, got in zip(plan["pisano"], outcomes[nf + nb:nf + nb + npi]):
        ok = isinstance(got, int) and is_exact_fib_period(got, m)
        tally.add_op(1, not ok, int(ok), ok)
    for i, got in zip(plan["eigen"], outcomes[nf + nb + npi:]):
        ok = got == [orc[i], orc[i]]
        tally.add_op(1, not ok, int(ok), ok)


_CHECKS = {"scan": _check_scan, "scan-resume": _check_resume,
           "certify": _check_certify, "periods": _check_periods}


def check(plan: dict, orc, outcomes: list, final) -> Tally:
    tally = Tally()
    _CHECKS[plan["workload"]](plan, orc, outcomes, final, tally)
    return tally


def corrupt(plan: dict, outcomes: list, final):
    """One pass's outputs with a single result damaged."""
    outcomes = json.loads(json.dumps(outcomes))
    w = plan["workload"]
    if w == "scan-resume":
        return outcomes, final.replace('"cursor":', '"cursor":1', 1)
    if w == "periods":
        outcomes[0] = outcomes[0] + 1 if isinstance(outcomes[0], int) else 0
        return outcomes, final
    out = outcomes[0]
    lines = out.get("stdout", "").splitlines()
    if w == "scan":  # the first prime of the window reported as a hit
        p = primes_between(int(plan["cli"][0][2]), int(plan["cli"][0][4]))[0]
        lines.insert(0, json.dumps({"p": str(p), "pi_p": "1", "pi_p2": "1"}))
    else:  # a certificate row claiming the wrong order
        row = json.loads(lines[0])
        row["n"] = str(int(row["n"]) + 1)
        lines[0] = json.dumps(row)
    out["stdout"] = "\n".join(lines) + "\n"
    return outcomes, final
