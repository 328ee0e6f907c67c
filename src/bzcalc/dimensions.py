"""Exact q-arithmetic: flag-variety point counts and fixed-vector dimensions.

All arithmetic is integer-exact; any inexact division aborts, since a silently
rounded quotient would corrupt every downstream valuation.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Mapping

from .exceptions import DomainError
from .segments import Multisegment, admissible_order, leq, statistic

DEFAULT_MAX_N = 12


def _alternating_sum_bound() -> int:
    """The largest n for parabolic_alternating_sum: BZ_MAX_N, or DEFAULT_MAX_N."""
    value = os.environ.get("BZ_MAX_N", DEFAULT_MAX_N)
    try:
        return int(value)
    except ValueError as exc:
        raise DomainError(f"BZ_MAX_N must be an integer, got {value!r}") from exc


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class PrimePower:
    """A residue-field cardinality q = p^f."""

    p: int
    f: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p}")
        if self.f < 1:
            raise DomainError(f"f must be >= 1, got {self.f}")

    @property
    def q(self) -> int:
        return self.p**self.f

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p^f; rejects non-prime-powers."""
        if q < 2:
            raise DomainError(f"q must be >= 2, got {q}")
        for p in range(2, q + 1):
            if q % p == 0:
                f = 0
                m = q
                while m % p == 0:
                    m //= p
                    f += 1
                if m != 1:
                    raise DomainError(f"{q} is not a prime power")
                return cls(p, f)
        raise DomainError(f"{q} is not a prime power")


@dataclass(frozen=True)
class Composition:
    """An ordered list of positive parts summing to n."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(int(x) for x in parts))
        if not self.parts or any(x < 1 for x in self.parts):
            raise DomainError(f"composition parts must be >= 1, got {parts!r}")

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


def parabolic_alternating_sum(n: int, q: PrimePower, max_n: int | None = None) -> int:
    """Signed sum of flag counts over all standard parabolics of GL_n.

    Equals steinberg_k1_dim(n, q); exposed separately so the identity can be
    checked rather than assumed.
    """
    bound = _alternating_sum_bound() if max_n is None else max_n
    if not 1 <= n <= bound:
        raise DomainError(f"n must be in [1, {bound}], got {n}")
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


def standard_module_k1_dim(s: Multisegment, q: PrimePower) -> int:
    """Depth-one fixed-vector dimension of the full induced module attached
    to an unramified multisegment: flag count times q^statistic."""
    _require_unramified(s)
    if not len(s):
        raise DomainError("empty multisegment has no ambient GL_n")
    comp = Composition(seg.length for seg in admissible_order(s))
    out = gaussian_flag_count(comp, q)
    for seg in s:
        out *= q.q ** (seg.length * (seg.length - 1) // 2)
    return out


def vp(x: int, p: int) -> int:
    """Largest e with p^e dividing x; x must be nonzero."""
    if x == 0:
        raise DomainError("vp(0) is undefined")
    if not _is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    e = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        e += 1
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
    for key, m in mults.items():
        if m < 1:
            raise DomainError(f"multiplicities must be positive, got {m}")
        if key == s or not leq(key, s):
            raise DomainError("every key of mults must be strictly smaller than s")
    total = unit * q.q ** statistic(s)
    for key, m in mults.items():
        total += m * q.q ** statistic(key)
    return vp(total, q.p) == q.f * statistic(s)
