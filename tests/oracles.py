"""Independent brute-force reference implementations for the test suite.

Everything here trades speed for obviousness; nothing imports from quadrec
except plain data types, so an error in the package cannot leak into its
own oracle.
"""
import math
from fractions import Fraction


def fib_mod(k: int, m: int) -> int:
    """F_k mod m by plain iteration, F_0 = 0, F_1 = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, (a + b) % m
    return a


def lucas_v(s: int, k: int, m: int) -> tuple[int, int]:
    """(V_k, V_(k+1)) mod m by plain iteration of V_(j+1) = s*V_j - V_(j-1),
    V_0 = 2, V_1 = s."""
    a, b = 2 % m, s % m
    for _ in range(k):
        a, b = b, (s * b - a) % m
    return a, b


def pisano_brute(m: int) -> int:
    """Period of F mod m by scanning for the first return of (0, 1)."""
    assert m >= 2
    a, b, k = 0, 1, 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if (a, b) == (0, 1):
            return k


def sequence_brute(coeffs, init, m: int, count: int) -> list[int]:
    """First `count` terms of x_{k+r} = sum c_i x_{k+i} (mod m)."""
    xs = [x % m for x in init]
    while len(xs) < count:
        nxt = sum(c * x for c, x in zip(coeffs, xs[-len(coeffs):])) % m
        xs.append(nxt)
    return xs[:count]


def order_brute(a: int, m: int) -> int:
    """Multiplicative order of a mod m by successive powers."""
    assert math.gcd(a, m) == 1
    x, k = a % m, 1
    while x != 1 % m:
        x = x * a % m
        k += 1
    return k


def primes_below(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if n <= 2:
        return []
    s = bytearray([1]) * n
    s[0] = s[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if s[p]:
            s[p * p::p] = bytearray(len(s[p * p::p]))
    return [i for i in range(n) if s[i]]


def is_prime_trial(n: int) -> bool:
    """Primality by trial division with every odd d <= sqrt(n)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def next_prime(n: int) -> int:
    """The least prime >= n, by trial division."""
    while not is_prime_trial(n):
        n += 1
    return n


def rational_wieferich_primes(a: int, b: int, bound: int) -> list[int]:
    """Primes p < bound, prime to a and b, with (a/b)^(p-1) = 1 mod p^2,
    tested as a^(p-1) = b^(p-1) mod p^2 with plain pow."""
    return [p for p in primes_below(bound)
            if a % p and b % p and pow(a, p - 1, p * p) == pow(b, p - 1, p * p)]


def phi_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def legendre(a: int, p: int) -> int:
    """(a/p) for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def unit_count_brute(p: int, e: int, t: int, n: int, inert: bool) -> int:
    """Count units of O/P^e by exhaustion over representatives.

    Single-coordinate rings count residues coprime to p; inert rings count
    pairs (u, v) whose norm u^2 + t u v + n v^2 is nonzero mod p.
    """
    pe = p ** e
    if not inert:
        return sum(1 for u in range(pe) if u % p != 0)
    cnt = 0
    for u in range(pe):
        for v in range(pe):
            if (u * u + t * u * v + n * v * v) % p != 0:
                cnt += 1
    return cnt


def pair_order_brute(u: int, v: int, p: int, e: int, t: int, n: int) -> int:
    """Order of u + v*w in (O/P^e)^x for an inert prime, by repeated products."""
    pe = p ** e
    cu, cv, k = u % pe, v % pe, 1
    while (cu, cv) != (1, 0):
        cu, cv = (cu * u - n * cv * v) % pe, (cu * v + u * cv + t * cv * v) % pe
        k += 1
        assert k <= pe * pe, "order search ran away"
    return k


def pair_add(x, y, m: int) -> tuple[int, int]:
    """(u1 + v1*w) + (u2 + v2*w) mod m, as a pair (u, v)."""
    return (x[0] + y[0]) % m, (x[1] + y[1]) % m


def pair_mul(x, y, t: int, n: int, m: int) -> tuple[int, int]:
    """(u1 + v1*w)(u2 + v2*w) mod m with w^2 = t*w - n, as a pair (u, v)."""
    (u1, v1), (u2, v2) = x, y
    return (u1 * u2 - n * v1 * v2) % m, (u1 * v2 + u2 * v1 + t * v1 * v2) % m


def norm_fraction(a: int, b: int, den: int, t: int, n: int) -> Fraction:
    """N((a + b w)/den) straight from the definition."""
    return Fraction(a * a + t * a * b + n * b * b, den * den)


def omega_poly(d: int) -> tuple[int, int]:
    """(t, n) with w^2 - t*w + n = 0 for the integral basis (1, w) of Q(sqrt d)."""
    return (1, (1 - d) // 4) if d % 4 == 1 else (0, -d)


def roots_of_omega_brute(d: int, m: int) -> list[int]:
    """Roots of w^2 - t*w + n mod m, ascending, by trying every residue."""
    t, n = omega_poly(d)
    return [r for r in range(m) if (r * r - t * r + n) % m == 0]


def split_valuation_brute(a: int, b: int, d: int, p: int, root: int,
                          limit: int = 10 ** 5):
    """v_P(a + b*w) for integral a + b*w != 0 at the split P with w = root mod p.

    The largest k with a + b*c_k = 0 (mod p^k), where c_k is the root mod
    p^k above root, found by enumeration; None once p^k would pass limit.
    """
    k = 0
    while True:
        pk = p ** (k + 1)
        if pk > limit:
            return None
        (c,) = [c for c in roots_of_omega_brute(d, pk) if c % p == root]
        if (a + b * c) % pk:
            return k
        k += 1
