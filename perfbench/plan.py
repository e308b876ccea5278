"""Seeded workload plans, in plain ints and strings.

A plan is everything a workload process needs to run: the CLI argument
lists and library calls, with every number drawn from the seed.  The same
seed gives the same plan.  Nothing here imports quadrec, so the plan (and
the oracle that checks it, in checks.py) cannot inherit a package bug.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("scan", "scan-resume", "certify", "periods")

PHI = "(1+sqrt(5))/2"

# Real quadratic bases for the second certify call, each with a bound picked
# so that every entry costs about the same and certifies about as many
# primes on the seed code, and none loses an index to FactorizationError.
# Fields are (literal, d, a, b, bound) with the base equal to a + b*w, where
# w is the integral basis element of Q(sqrt(d)).
CERTIFY_POOL = (
    ("1+sqrt(2)", 2, 1, 1, 10 ** 16),
    ("2+sqrt(2)", 2, 2, 1, 10 ** 18),
    ("(3+sqrt(13))/2", 13, 1, 1, 3 * 10 ** 18),
    ("2+sqrt(3)", 3, 2, 1, 10 ** 20),
)
# 2^102 <= 10^31 < 2^103: the bound admits the witness index n = 101, which
# the seed code skips after a long factorization attempt.
CERTIFY_BASE2_BOUND = 10 ** 31

# The battery of quadrec.periods.standard_battery(), as the integer
# recurrences x_{k+r} = sum c_i x_{k+i} that the oracle iterates, with the
# primes at which each tuple is degenerate.  The workload process checks the
# names against the library's battery before it runs.
BATTERY = (
    {"name": "fibonacci", "field_d": 5, "coeffs": (1, 1), "init": (0, 1),
     "degenerate": (5,)},
    {"name": "lucas", "field_d": 5, "coeffs": (1, 1), "init": (2, 1),
     "degenerate": (5,)},
    {"name": "(2,3;1,1)", "field_d": None, "coeffs": (-6, 5), "init": (2, 5),
     "degenerate": (2, 3)},
    {"name": "(2,3,5;1,1,1)", "field_d": None, "coeffs": (30, -31, 10),
     "init": (3, 10, 38), "degenerate": (2, 3, 5)},
    {"name": "(3;2)", "field_d": None, "coeffs": (3,), "init": (2,),
     "degenerate": (2, 3)},
)
PERIODS_NORM_BOUND = 3000
EIGEN_NORM_BOUND = 600


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by a plain sieve of [0, hi)."""
    if hi <= 2:
        return []
    s = bytearray([1]) * hi
    s[0] = s[1] = 0
    for p in range(2, math.isqrt(hi - 1) + 1):
        if s[p]:
            s[p * p::p] = bytearray(len(range(p * p, hi, p)))
    return [i for i in range(max(lo, 2), hi) if s[i]]


def _smallest_factor(n: int) -> int:
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return q
    return n


def prime_factors(n: int) -> list[int]:
    out = []
    while n > 1:
        q = _smallest_factor(n)
        out.append(q)
        while n % q == 0:
            n //= q
    return out


def fib_matrix_pow(k: int, m: int) -> tuple:
    """[[1,1],[1,0]]^k mod m as (a, b, c, d), by plain 2x2 products."""
    R, M = (1, 0, 0, 1), (1, 1, 1, 0)
    while k:
        if k & 1:
            R = _mat_mul(R, M, m)
        M = _mat_mul(M, M, m)
        k >>= 1
    return R


def _mat_mul(A, B, m):
    a, b, c, d = A
    x, y, z, w = B
    return ((a * x + b * z) % m, (a * y + b * w) % m,
            (c * x + d * z) % m, (c * y + d * w) % m)


def is_exact_fib_period(k: int, m: int) -> bool:
    """True iff k is the least period of the Fibonacci sequence mod m."""
    one = (1 % m, 0, 0, 1 % m)
    if k < 1 or fib_matrix_pow(k, m) != one:
        return False
    return all(fib_matrix_pow(k // r, m) != one for r in prime_factors(k))


def ideal_labels(field_d, p: int) -> list[tuple[str, int]]:
    """(label, residue degree) of the unramified primes above p, as
    quadrec.ring labels them; empty when p ramifies."""
    if field_d is None:
        return [(str(p), 1)]
    assert field_d == 5, "the battery only uses Q and Q(sqrt(5))"
    if p == 5:
        return []
    if p == 2 or p % 5 in (2, 3):
        return [(f"{p}i", 2)]
    return [(f"{p}a", 1), (f"{p}b", 1)]


def period_moduli() -> list[tuple[int, int, str, int]]:
    """(battery index, p, ideal label, e) for every non-degenerate unramified
    prime power of norm <= PERIODS_NORM_BOUND."""
    out = []
    for ti, tup in enumerate(BATTERY):
        for p in primes_between(2, PERIODS_NORM_BOUND + 1):
            if p in tup["degenerate"]:
                continue
            for label, f in ideal_labels(tup["field_d"], p):
                e = 1
                while p ** (f * e) <= PERIODS_NORM_BOUND:
                    out.append((ti, p, label, e))
                    e += 1
    return out


def _scan(rng: random.Random) -> dict:
    lo = 1_000_000 + rng.randrange(200_000)
    lo2 = 1_000_000 + rng.randrange(200_000)
    return {"cli": [
        ["search-wss", "--from", str(lo), "--to", str(lo + 200_000),
         "--workers", "1"],
        ["search-wieferich", "--base", PHI, "--field-d", "5",
         "--from", str(lo2), "--to", str(lo2 + 50_000), "--workers", "1"],
    ]}


def _scan_resume(rng: random.Random) -> dict:
    hi = 200_000 + rng.randrange(2_000)
    total = len(primes_between(2, hi))
    cuts = sorted(rng.sample(range(1, total), 10))
    # one fresh call, nine resumed calls that each pause, one that finishes
    stops = [b - a for a, b in zip([0] + cuts, cuts)] + [None]
    return {"base": 2, "lo": 2, "hi": hi, "stops": stops}


def _certify(rng: random.Random) -> dict:
    lit, d, a, b, bound = CERTIFY_POOL[rng.randrange(len(CERTIFY_POOL))]
    return {
        "cli": [["certify", "--base", "2",
                 "--bound", str(CERTIFY_BASE2_BOUND)],
                ["certify", "--base", lit, "--bound", str(bound)]],
        "bases": [{"literal": "2", "d": None, "a": 2, "b": 0,
                   "bound": CERTIFY_BASE2_BOUND},
                  {"literal": lit, "d": d, "a": a, "b": b, "bound": bound}],
    }


def _periods(rng: random.Random) -> dict:
    moduli = period_moduli()
    brute = sorted(rng.sample(range(len(moduli)), 400))
    small = [i for i, (ti, p, label, e) in enumerate(moduli)
             if p ** (e * (2 if label.endswith("i") else 1)) <= EIGEN_NORM_BOUND]
    eigen = sorted(rng.sample(small, 60))
    composites = []
    while len(composites) < 200:
        m = rng.randrange(100_000, 1_000_000)
        if m % 5 and _smallest_factor(m) < m:
            composites.append(m)
    # 5*q is ramified and degenerate at 5, so pisano() falls back to brute
    # force over all of 5q.  q is inert with the full period 2(q+1), which
    # fixes the brute-force length at 10(q+1) steps on every seed.
    while True:
        q = rng.randrange(1_000_000, 1_100_000)
        if q % 5 in (2, 3) and _smallest_factor(q) == q \
                and is_exact_fib_period(2 * (q + 1), q):
            break
    return {"moduli": moduli, "brute": brute, "eigen": eigen,
            "pisano": composites + [5 * q]}


_BUILDERS = {"scan": _scan, "scan-resume": _scan_resume,
             "certify": _certify, "periods": _periods}


def make_plan(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    plan = _BUILDERS[workload](rng)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
