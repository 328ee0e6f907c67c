"""Exact q-arithmetic: flag-variety point counts and fixed-vector dimensions.

All arithmetic is integer-exact; any inexact division aborts, since a silently
rounded quotient would corrupt every downstream valuation.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping

from .exceptions import DomainError
from .segments import Multisegment, _json_int, leq, statistic

DEFAULT_MAX_N = 12  # the largest n for parabolic_alternating_sum

# Past this many bits, str(x) costs more than joining its binary halves in
# decimal arithmetic: before 3.12 it is quadratic in the length (3.12's str
# joins halves itself, so the branch can go with 3.11).
_DECIMAL_SPLIT_BITS = 1 << 16


def _decimal(x: int) -> str:
    """str(x), whatever Python's int-to-str digit limit.

    Exact results can run past the default limit of 4300 digits.  Interpreters
    older than 3.10.7 have no limit and no setter.  Above _DECIMAL_SPLIT_BITS,
    x is split by bits down to 4096-bit pieces, which decimal rejoins exactly
    (Inexact is trapped) in time subquadratic in the length of x.
    """
    if x.bit_length() > _DECIMAL_SPLIT_BITS:
        import decimal

        ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact])
        powers: dict[int, decimal.Decimal] = {}

        def join(n: int, width: int) -> decimal.Decimal:  # 0 <= n < 2**width
            if width <= 4096:
                return decimal.Decimal(n)
            half = width // 2
            if half not in powers:
                powers[half] = ctx.power(2, half)
            high = ctx.multiply(join(n >> half, width - half), powers[half])
            return ctx.add(high, join(n & (1 << half) - 1, half))

        return ("-" if x < 0 else "") + str(join(abs(x), x.bit_length()))
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


# Miller-Rabin on the primes up to 41 decides primality exactly for every n
# below PRIME_TEST_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)); PRIME_TEST_LIMIT itself is a strong
# pseudoprime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly.

    Raises DomainError for n >= PRIME_TEST_LIMIT with no prime factor up to
    41: no test here decides those exactly in bounded time.
    """
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= PRIME_TEST_LIMIT:
        raise DomainError(
            f"cannot decide whether a {n.bit_length()}-bit number is prime: "
            f"primes are tested exactly below {PRIME_TEST_LIMIT}"
        )
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_root(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None; n >= 1.

    Below 2^32 the float estimate of the root is within 1e-4 of it.  Above,
    Newton's steps on integers fall monotonically to floor(n ** (1/k)) from
    any start above it: the float estimate raised by far more than its
    error, or a power of two.
    """
    log = math.log2(n) / k
    if log < 32:
        r = round(2.0**log)
    else:
        r = int(2.0**log * (1 + 1e-9)) + 1 if log < 1000 else 1 << math.ceil(log) + 1
        while True:
            y = ((k - 1) * r + n // r ** (k - 1)) // k
            if y >= r:
                break
            r = y
    return r if r**k == n else None


@dataclass(frozen=True)
class PrimePower:
    """A residue-field cardinality q = p^f."""

    p: int
    f: int

    def __post_init__(self):
        if not _is_prime(_json_int(self.p, "p")):
            raise DomainError(f"p must be prime, got {self.p}")
        if _json_int(self.f, "f") < 1:
            raise DomainError(f"f must be >= 1, got {self.f}")

    @property
    def q(self) -> int:
        return self.p**self.f

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p^f; rejects non-prime-powers.

        A prime p up to 41 is found by division.  Any other p is at least 43,
        so f < log_32(q), and p is the prime f-th root of q for one such f.
        """
        if q < 2:
            raise DomainError(f"q must be >= 2, got {q}")
        for p in _PRIME_BASES:
            if q % p == 0:
                f = 0
                m = q
                while m % p == 0:
                    m //= p
                    f += 1
                if m != 1:
                    raise DomainError(f"{q} is not a prime power")
                return cls(p, f)
        for f in range(q.bit_length() // 5, 0, -1):
            p = _exact_root(q, f)
            if p is not None and _is_prime(p):
                return cls(p, f)
        raise DomainError(f"{q} is not a prime power")


@dataclass(frozen=True)
class Composition:
    """An ordered list of positive parts summing to n."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))
        # type() rather than isinstance(): a bool is an int
        if not self.parts or not all(type(x) is int and x >= 1 for x in self.parts):
            need = ">= 1" if all(type(x) is int for x in self.parts) else "integers"
            # the parts as read, not a generator's repr
            read = parts if isinstance(parts, (list, tuple)) else self.parts
            raise DomainError(f"composition parts must be {need}, got {read!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)


def compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, by cut positions."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts = []
        run = 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield Composition(parts)


def q_factorial(n: int, q: int) -> int:
    """[n]_q! = prod_{k=1}^n (q^k - 1)/(q - 1)."""
    out = 1
    for k in range(1, n + 1):
        out *= (q**k - 1) // (q - 1)
    return out


def gaussian_flag_count(c: Composition, q: PrimePower) -> int:
    """Number of F_q-points of the flag variety P\\GL_n for the standard
    parabolic with Levi block sizes c, as an exact q-multinomial."""
    num = q_factorial(c.n, q.q)
    den = 1
    for part in c.parts:
        den *= q_factorial(part, q.q)
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"q-multinomial division inexact for {c.parts} at q={q.q}"
        )
    return quot


def steinberg_k1_dim(n: int, q: PrimePower) -> int:
    """q^(n(n-1)/2), the depth-one fixed-vector dimension of the Steinberg."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return q.q ** (n * (n - 1) // 2)


def parabolic_alternating_sum(n: int, q: PrimePower) -> int:
    """Signed sum of flag counts over all standard parabolics of GL_n.

    Equals steinberg_k1_dim(n, q); exposed separately so the identity can be
    checked rather than assumed.
    """
    if not 1 <= n <= DEFAULT_MAX_N:
        raise DomainError(f"n must be in [1, {DEFAULT_MAX_N}], got {n}")
    total = 0
    for c in compositions(n):
        sign = -1 if (n - len(c.parts)) % 2 else 1
        total += sign * gaussian_flag_count(c, q)
    return total


def _require_unramified(s: Multisegment) -> None:
    for seg in s:
        if seg.line.block_size != 1:
            raise DomainError(
                f"unramified support required: line {seg.line.line_id!r} "
                f"has block size {seg.line.block_size}"
            )


def _k1_dim_factors(s: Multisegment, q: PrimePower) -> tuple[int, int]:
    """(flag count, statistic) of an unramified multisegment, the factors of
    standard_module_k1_dim.  The q-multinomial is symmetric in its parts, so
    any order of the segment lengths gives the flag count."""
    _require_unramified(s)
    if not len(s):
        raise DomainError("empty multisegment has no ambient GL_n")
    return gaussian_flag_count(Composition(g.length for g in s), q), statistic(s)


def standard_module_k1_dim(s: Multisegment, q: PrimePower) -> int:
    """Depth-one fixed-vector dimension of the full induced module attached
    to an unramified multisegment: flag count times q^statistic."""
    flag, stat = _k1_dim_factors(s, q)
    return flag * q.q**stat


def vp(x: int, p: int) -> int:
    """Largest e with p^e dividing x; x must be nonzero."""
    if x == 0:
        raise DomainError("vp(0) is undefined")
    if not _is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    # p^(2^i) divides x for every i < len(powers) and no larger i, so
    # v_p(x) < 2^len(powers): its binary digits come out from the largest
    # power down, in O(log v_p) divisions.
    x = abs(x)
    powers = []
    power = p
    while x % power == 0:
        powers.append(power)
        power *= power
    e = 0
    for i in reversed(range(len(powers))):
        quot, rem = divmod(x, powers[i])
        if not rem:
            x = quot
            e += 1 << i
    return e


def valuation_statistic(x: int, q: PrimePower) -> int:
    """v_p(x) measured in units of v_p(q); x must be q-power-times-unit shaped."""
    e = vp(x, q.p)
    if e % q.f:
        raise DomainError(
            f"v_{q.p}({x}) = {e} is not divisible by f = {q.f}; "
            "value is not a q-power times a unit"
        )
    return e // q.f


def elementary_statistic_delta(a: int, b: int, c: int) -> int:
    """Statistic increase (a-c)(b-c) of merging lengths (a, b) with overlap c."""
    if a < 1 or b < 1:
        raise DomainError(f"lengths must be >= 1, got ({a}, {b})")
    if not 0 <= c < min(a, b):
        raise DomainError(f"overlap must satisfy 0 <= c < min(a, b), got c={c}")
    return (a - c) * (b - c)


def triangle_check(
    s: Multisegment,
    q: PrimePower,
    mults: Mapping[Multisegment, int],
    unit: int,
) -> bool:
    """Strict triangle inequality of v_p on the decomposition of the induced
    module: the sum unit*q^stat(s) + sum m(S')*q^stat(S') over strictly
    smaller S' keeps the valuation of the leading term."""
    if unit < 1 or unit % q.p == 0:
        raise DomainError(f"unit must be positive and coprime to p, got {unit}")
    _require_unramified(s)
    total = unit * q.q ** statistic(s)
    for key, m in mults.items():
        if m < 1:
            raise DomainError(f"multiplicities must be positive, got {m}")
        if key == s or not leq(key, s):
            raise DomainError("every key of mults must be strictly smaller than s")
        total += m * q.q ** statistic(key)
    return vp(total, q.p) == q.f * statistic(s)
