"""Integer number theory: primality, factorization and the prime sieve.

factorize trial-divides below TRIAL_LIMIT and hands a larger composite
cofactor to the race of the stages in _STAGES.  The module also holds the
segmented sieve (iter_primes), Euler's totient, and the Kronecker symbol
and square roots modulo a prime that the prime ideals of ring.py read.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator

from .errors import FactorizationError, InvariantBreachError

# Trial division handles prime factors below this bound deterministically;
# beyond it the stages of _STAGES race under the one budget RHO_BUDGET.
TRIAL_LIMIT = 10 ** 6
_TRIAL_SQ = TRIAL_LIMIT ** 2
RHO_BUDGET = 2_000_000
SEGMENT = 1 << 16  # numbers per segment of the prime sieve; even

# Trial division by every prime through 61 runs first, so no Miller-Rabin
# base below is ever 0 mod n.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61)
# Miller-Rabin with bases (2, 7, 61) is a proven primality test below this
# bound (Jaeschke, Math. Comp. 61 (1993)); the bound itself is the first
# composite that passes all three, so the test must stay strict.
_MR_SMALL_BOUND = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)
# The first twelve prime bases are proven below this bound (Sorenson and
# Webster, Math. Comp. 86 (2017)).
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Beyond the proven bound: a fixed wider battery, deterministic but heuristic.
_MR_BASES_WIDE = _MR_BASES + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("the p-adic valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    """Primality by trial division through 61, then strong-probable-prime tests.

    The Miller-Rabin base set is picked by the size of n:
    (2, 7, 61) below 4,759,123,141 (Jaeschke 1993), the twelve primes through
    37 below 3.3e24 (Sorenson-Webster 2017); both are proofs.  Above that a
    fixed 25-base battery is deterministic but heuristic.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_SMALL_BOUND:
        bases = _MR_SMALL_BASES
    elif n < _MR_PROVEN_BOUND:
        bases = _MR_BASES
    else:
        bases = _MR_BASES_WIDE
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> Iterator[int]:
    """Brent's rho on composite odd n, run a doubling round per next().

    Yields the modular squarings each fruitless round spent, and returns a
    factor d > 1 of n (not n itself), or None after the first round that
    takes the total past budget, or when the parameter sweep ends.
    """
    used = 0
    for c in range(1, 64):
        y, m, g, q = 2, 128, 1, 1
        x = ys = y
        while True:
            x = y
            for _ in range(m):
                y = (y * y + c) % n
            k = 0
            while k < m and g == 1:
                ys = y
                for _ in range(min(128, m - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            if g != 1:
                break
            yield 2 * m
            used += 2 * m
            if used > budget:
                return None
            m *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    return None


# Prime powers raised per gcd in p-1 stage 1.
_PM1_BATCH = 256


def _pollard_pm1(n: int, bound: int, index: int) -> Iterator[int]:
    """Pollard's p-1 on composite n, run a batch per next().

    Starts from 3^(2*index), since a prime q in factorize's classes often
    has index | q - 1, and raises it to every prime power <= bound, taking
    one gcd per batch.  Once, right after the first batch that passes
    bound/20, the residue a feeds the stage-2 sweep (_pm1_sweep) over the
    primes from there to bound; when the sweep finds nothing, stage 1 goes
    on as before.  Yields the work each fruitless batch spent (exponent bits
    in stage 1, two products per prime in the sweep), at most about
    1.6 * bound in all, and returns a factor d > 1 of n (not n itself), or
    None when the primes run out or a single prime power reveals every
    factor of n at once.
    """
    a = pow(3, 2 * index, n)
    powers = _prime_powers(bound)
    swept = False
    while batch := list(itertools.islice(powers, _PM1_BATCH)):
        start, e = a, math.prod(batch)
        a = pow(a, e, n)
        g = math.gcd(a - 1, n)
        if g == 1:
            yield e.bit_length()
            if not swept and batch[-1] > bound // 20:
                swept = True
                g = yield from _pm1_sweep(n, a, batch[-1], bound)
                if g is not None:
                    return g
            continue
        if g == n:
            # two factors fell out in one batch: redo it a prime power at a time
            a = start
            for pk in batch:
                a = pow(a, pk, n)
                g = math.gcd(a - 1, n)
                if g > 1:
                    break
        return g if g < n else None
    return None


def _pm1_sweep(n: int, b: int, lo: int, hi: int) -> Iterator[int]:
    """p-1 stage 2 on composite n from the stage-1 residue b, by prime-gap
    continuation (Montgomery, Math. Comp. 48 (1987)).

    Finds a prime q of n with q - 1 | E * r for one prime r in (lo, hi],
    where b = 3^E.  x = b^r steps from prime to prime by the cached b^gap
    of each even gap, and the product of the x - 1 is taken mod n, with one
    gcd per _PM1_BATCH primes.  Yields 2 per prime of each fruitless batch
    and returns a factor d > 1 of n (not n itself), or None when a gcd is n
    or the primes run out.
    """
    r = lo | 1  # odd, so the gap from r to every prime above lo is even
    x, b2, acc = pow(b, r, n), b * b % n, 1
    steps = [1]  # steps[k] = b^(2k), the step across a gap of 2k
    primes = iter_primes(lo + 1, hi + 1)
    while batch := list(itertools.islice(primes, _PM1_BATCH)):
        halves = [(q - p) >> 1 for p, q in zip([r, *batch], batch)]
        r = batch[-1]
        while len(steps) <= max(halves):
            steps.append(steps[-1] * b2 % n)
        for step in map(steps.__getitem__, halves):
            x = x * step % n
            acc = acc * (x - 1) % n
        g = math.gcd(acc, n)
        if g != 1:
            return g if g < n else None
        yield 2 * len(batch)
    return None


# The race that splits a composite cofactor n above TRIAL_LIMIT, and the one
# place a stage is named.  Each factory builds a generator that yields the
# work of each fruitless step and returns a proper factor or None.  The
# stage that has spent less runs next (the first listed on a tie), so a
# split costs at most about twice what the cheaper stage needs: Brent's rho
# stops after the first doubling round that takes its modular squarings past
# RHO_BUDGET (2,096,896 of them at 2 * 10^6), and Pollard's p-1 after stage 1
# has raised through the prime powers up to B1 = RHO_BUDGET // 2 (exponent
# bits, a squaring each) and its one stage-2 sweep, from past B1/20 up to B1,
# has spent two products per prime: about 1.44 + 0.15 = 1.59 * B1 in all,
# within RHO_BUDGET.  Together that stays below 2 * RHO_BUDGET, so each stage
# runs every step it would run alone.  The race ends with FactorizationError
# when every stage has stopped or together they pass 2 * RHO_BUDGET.  The
# factories look RHO_BUDGET and the methods up at call time, so patching
# them on this module reaches the race.
_STAGES = (
    ("rho", lambda n, index: _pollard_brent(n, RHO_BUDGET)),
    ("p-1", lambda n, index: _pollard_pm1(n, RHO_BUDGET // 2, index)),
)


def _split(n: int, index: int) -> int:
    """A factor d > 1 of odd composite n, not n, from the race of _STAGES."""
    r = math.isqrt(n)
    if r * r == n:
        return r
    budget = RHO_BUDGET
    methods = {name: make(n, index) for name, make in _STAGES}
    spent = dict.fromkeys(methods, 0)
    while methods and sum(spent.values()) <= 2 * budget:
        name = min(methods, key=spent.__getitem__)
        try:
            spent[name] += next(methods[name])
        except StopIteration as stop:
            if stop.value is not None:
                return stop.value
            del methods[name]
    work = ", ".join(f"{name} {w}" for name, w in spent.items())
    raise FactorizationError(f"factorization budget {budget} exhausted on "
                             f"cofactor {n} (work spent: {work})")


@functools.lru_cache(maxsize=256)
def _trial_wheel(index: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Trial divisors for inputs whose prime factors q divide index or have
    q^2 = 1 (mod index): the primes tried first (2, 3, 5 and those of index),
    then the first wheel candidate and the cyclic gaps between candidates.

    Candidates are the m >= 7 prime to 30 with m^2 = 1 (mod index); they
    repeat with period lcm(30, index).  index = 1 gives the 30-wheel.
    """
    if index < 1:
        raise ValueError("factorize index must be a positive integer")
    first = (2, 3, 5)
    if index > 1:
        first = tuple(sorted(set(first) | set(factorize(index))))
    period = 30 * index // math.gcd(30, index)
    roots = [r for r in range(index) if r * r % index == 1 % index]
    cands = sorted(m for r in roots
                   for m in range(7 + (r - 7) % index, 7 + period, index)
                   if math.gcd(m, 30) == 1)
    gaps = [b - a for a, b in zip(cands, cands[1:])]
    gaps.append(cands[0] + period - cands[-1])
    return first, cands[0], tuple(gaps)


def factorize(n: int, index: int = 1) -> dict[int, int]:
    """Full prime factorization {p: e} of n >= 1.

    Trial division below TRIAL_LIMIT.  A composite cofactor above it goes to
    the race of _STAGES, and one that no stage splits within the budget
    raises FactorizationError rather than returning a guess.

    index states a fact about n: every prime factor q of n divides index or
    has q^2 = 1 (mod index).  The numerator of N(Phi_k(gamma)) satisfies it
    for index = k (a prime ideal above q that divides Phi_k(gamma) with
    q prime to k has norm q or q^2 = 1 mod k), and trial division then
    walks only those residue classes.  index = 1 claims nothing.  With
    index > 1 every returned factor is re-checked for primality and for the
    class rule, so a false claim raises InvariantBreachError instead of
    returning a wrong factorization.
    """
    if n < 1:
        raise ValueError("factorize is defined for positive integers")
    first, m, gaps = _trial_wheel(index)
    out: dict[int, int] = {}
    for p in first:
        if n % p == 0:
            out[p] = _vp(n, p)
            n //= p ** out[p]
    # m runs through the candidates while m <= min(sqrt(n), TRIAL_LIMIT - 1)
    lim = math.isqrt(n) if n < _TRIAL_SQ else TRIAL_LIMIT - 1
    while m <= lim:
        for gap in gaps:
            if not n % m:
                out[m] = _vp(n, m)
                n //= m ** out[m]
                lim = math.isqrt(n) if n < _TRIAL_SQ else TRIAL_LIMIT - 1
            m += gap
            if m > lim:
                break
    if n > 1:
        if m * m > n:
            out[n] = out.get(n, 0) + 1
        else:
            _factor_large(n, out, index)
    if index > 1:
        bad = [q for q in out
               if not ((index % q == 0 or q * q % index == 1) and is_prime(q))]
        if bad:
            raise InvariantBreachError(
                f"factors {bad} are not primes in the classes q | {index} "
                f"or q^2 = 1 (mod {index})"
            )
    return dict(sorted(out.items()))


def _factor_large(n: int, out: dict[int, int], index: int) -> None:
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _split(n, index)
    if not 1 < d < n:
        raise InvariantBreachError(f"split returned {d}, not a proper factor of {n}")
    _factor_large(d, out, index)
    _factor_large(n // d, out, index)


def euler_phi(n: int) -> int:
    """Euler totient, from the prime factorization."""
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def primes_below(n: int) -> list[int]:
    """All primes < n."""
    return list(iter_primes(2, n))


def _prime_segments(lo: int, hi: int) -> Iterator[Iterable[int]]:
    """The primes in [lo, hi), a segment at a time, sieved by primes_below.

    2 comes on its own; each segment marks only its odd numbers, one byte
    per odd number, and a segment starts odd because SEGMENT is even.
    """
    lo = max(lo, 2)
    if lo >= hi:
        return
    if lo == 2:
        yield (2,)
    base = primes_below(math.isqrt(hi - 1) + 1)[1:]
    for start in range(lo | 1, hi, SEGMENT):
        end = min(start + SEGMENT, hi)
        odds = range(start, end, 2)
        marks = bytearray([1]) * len(odds)
        for p in base:
            if p * p >= end:
                break
            # the first odd multiple of p in the segment, at or past p^2
            first = max(p * p, ((start + p - 1) // p | 1) * p)
            cross = range((first - start) >> 1, len(odds), p)
            marks[cross.start::p] = bytes(len(cross))
        yield itertools.compress(odds, marks)


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """Primes in [lo, hi) via a segmented sieve; memory stays O(SEGMENT)."""
    for primes in _prime_segments(lo, hi):
        yield from primes


def _prime_powers(bound: int) -> Iterator[int]:
    """The largest power <= bound of each prime <= bound, by ascending prime."""
    for p in itertools.chain.from_iterable(_prime_segments(2, bound + 1)):
        pk = p
        while pk * p <= bound:
            pk *= p
        yield pk


def kronecker(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for prime p."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    a = D % p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Square root of a quadratic residue a modulo an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise InvariantBreachError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
