"""Inertia-plus-monodromy shadows of multisegments and exact exp(N).

Monodromy is recorded as a Jordan partition; exp(N) is computed with exact
rationals, since counting nonzero entries after rounding would be meaningless.
The basis is the standard Jordan basis with blocks in descending size and
ones on the superdiagonal of each block.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exceptions import DomainError
from .segments import Multisegment

DEFAULT_EXP_BOUND = 64
_ZERO = Fraction(0)


@dataclass(frozen=True)
class JordanPartition:
    """A bag of Jordan block sizes, kept in canonical descending order."""

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        object.__setattr__(
            self, "blocks", tuple(sorted((int(b) for b in blocks), reverse=True))
        )
        if any(b < 1 for b in self.blocks):
            raise DomainError(f"block sizes must be >= 1, got {blocks!r}")

    @property
    def n(self) -> int:
        return sum(self.blocks)


@dataclass(frozen=True)
class WDShadow:
    """(restriction to inertia, monodromy) without the Frobenius action.

    Inertia is a bag of (label, dimension) summands; total dimension must
    match the partition size.
    """

    inertia: tuple[tuple[str, int], ...]
    partition: JordanPartition

    def __init__(self, inertia: Iterable[tuple[str, int]], partition: JordanPartition):
        object.__setattr__(
            self, "inertia", tuple(sorted((str(l), int(d)) for l, d in inertia))
        )
        object.__setattr__(self, "partition", partition)
        if sum(d for _, d in self.inertia) != partition.n:
            raise DomainError(
                f"inertia dimension {sum(d for _, d in self.inertia)} "
                f"does not match partition size {partition.n}"
            )


@dataclass(frozen=True)
class RationalMatrix:
    """A square matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        n = self.size
        a, b = self.entries, other.entries
        return RationalMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def sp_partition(n: int) -> JordanPartition:
    """The monodromy partition of a single length-n special block."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return JordanPartition((n,))


def wd_from_multisegment(s: Multisegment) -> WDShadow:
    """Each segment of length l on a block-m line contributes m Jordan blocks
    of size l and one inertia summand of dimension m*l."""
    blocks: list[int] = []
    inertia: list[tuple[str, int]] = []
    for seg in s:
        m = seg.line.block_size
        blocks.extend([seg.length] * m)
        inertia.append((seg.line.inertial_label, m * seg.length))
    return WDShadow(inertia, JordanPartition(blocks))


def direct_sum(a: WDShadow, b: WDShadow) -> WDShadow:
    return WDShadow(
        a.inertia + b.inertia,
        JordanPartition(a.partition.blocks + b.partition.blocks),
    )


def nilpotent_matrix(p: JordanPartition) -> RationalMatrix:
    """N in Jordan form: ones on the superdiagonal within each block."""
    n = p.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for size in p.blocks:
        for i in range(size - 1):
            rows[offset + i][offset + i + 1] = Fraction(1)
        offset += size
    return RationalMatrix(tuple(tuple(row) for row in rows))


def _times_nilpotent(rows: list[list[Fraction]], p: JordanPartition) -> list[list[Fraction]]:
    """rows @ N for N in Jordan form: within each block, column j + 1 takes
    column j and the block's first column becomes zero."""
    out = []
    for row in rows:
        shifted = [_ZERO] * len(row)
        offset = 0
        for size in p.blocks:
            shifted[offset + 1 : offset + size] = row[offset : offset + size - 1]
            offset += size
        out.append(shifted)
    return out


def exp_nilpotent(p: JordanPartition, max_size: int = DEFAULT_EXP_BOUND) -> RationalMatrix:
    """Exact exp(N) = sum_{k < n} N^k / k!, summed term by term.

    Each power N^k is N^(k-1) @ N, done as a column shift inside each Jordan
    block, so a term costs O(n^2).  Raises ArithmeticError unless N^n = 0.
    """
    n = p.n
    if n > max_size:
        raise DomainError(f"partition size {n} exceeds bound {max_size}")
    acc = [list(row) for row in RationalMatrix.identity(n).entries]
    power = [list(row) for row in acc]
    fact = 1
    for k in range(1, n):
        power = _times_nilpotent(power, p)
        fact *= k
        for acc_row, power_row in zip(acc, power):
            for j, x in enumerate(power_row):
                if x:
                    acc_row[j] += x / fact
    if any(any(row) for row in _times_nilpotent(power, p)):
        raise ArithmeticError(f"N^{n} does not vanish for blocks {p.blocks}")
    return RationalMatrix(tuple(tuple(row) for row in acc))


def nonzero_count(mat: RationalMatrix) -> int:
    """Number of nonzero entries of mat - id."""
    return sum(
        1
        for i, row in enumerate(mat.entries)
        for j, x in enumerate(row)
        if x != (1 if i == j else 0)
    )


def nonzero_count_exp(p: JordanPartition, max_size: int = DEFAULT_EXP_BOUND) -> int:
    """Number of nonzero entries of exp(N) - id, counted from the exact matrix."""
    return nonzero_count(exp_nilpotent(p, max_size=max_size))


def partition_statistic(p: JordanPartition) -> int:
    """Closed form sum of l(l-1)/2 over blocks; the contract for the count."""
    return sum(b * (b - 1) // 2 for b in p.blocks)


def monodromy_weight(s: Multisegment) -> int:
    """Sum of block_size * l(l-1)/2 over segments: the nonzero-entry count of
    the shadow's exp(N) - id, and the weighted statistic used for valuations."""
    return sum(
        seg.line.block_size * seg.length * (seg.length - 1) // 2 for seg in s
    )


# --- JSON form -------------------------------------------------------------


def partition_to_json(p: JordanPartition) -> dict:
    return {"blocks": list(p.blocks)}


def partition_from_json(doc: dict) -> JordanPartition:
    try:
        return JordanPartition(doc["blocks"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad partition {doc!r}: {exc}") from exc


def wd_to_json(w: WDShadow) -> dict:
    out = partition_to_json(w.partition)
    out["inertia"] = [{"label": l, "dim": d} for l, d in w.inertia]
    return out


def wd_from_json(doc: dict) -> WDShadow:
    try:
        inertia = [(e["label"], e["dim"]) for e in doc.get("inertia", [])]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad inertia data {doc!r}: {exc}") from exc
    return WDShadow(inertia, partition_from_json(doc))
