"""Inertia-plus-monodromy shadows of multisegments and exact exp(N).

Monodromy is recorded as a Jordan partition; exp(N) is computed with exact
rationals, since counting nonzero entries after rounding would be meaningless.
The basis is the standard Jordan basis with blocks in descending size and
ones on the superdiagonal of each block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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
        sizes = tuple(blocks)  # checked before sorting: a str does not sort with ints
        if not all(type(b) is int and b >= 1 for b in sizes):
            need = ">= 1" if all(type(b) is int for b in sizes) else "integers"
            read = blocks if isinstance(blocks, (list, tuple)) else sizes  # not a generator's repr
            raise DomainError(f"block sizes must be {need}, got {read!r}")
        object.__setattr__(self, "blocks", tuple(sorted(sizes, reverse=True)))

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
        pairs = tuple((str(l), d) for l, d in inertia)
        if not all(type(d) is int for _, d in pairs):
            raise DomainError(f"inertia dimensions must be integers, got {pairs!r}")
        object.__setattr__(self, "inertia", tuple(sorted(pairs)))
        object.__setattr__(self, "partition", partition)
        if sum(d for _, d in self.inertia) != partition.n:
            raise DomainError(
                f"inertia dimension {sum(d for _, d in self.inertia)} "
                f"does not match partition size {partition.n}"
            )


def wd_from_multisegment(s: Multisegment) -> WDShadow:
    """Each segment of length l on a block-m line contributes m Jordan blocks
    of size l and one inertia summand of dimension m*l."""
    n = s.total_size  # checked before every block is listed
    if n > DEFAULT_EXP_BOUND:
        raise DomainError(f"partition size {n} exceeds bound {DEFAULT_EXP_BOUND}")
    blocks: list[int] = []
    inertia: list[tuple[str, int]] = []
    for seg in s:
        m = seg.line.block_size
        blocks.extend([seg.length] * m)
        inertia.append((seg.line.inertial_label, m * seg.length))
    return WDShadow(inertia, JordanPartition(blocks))


def exp_nilpotent(p: JordanPartition) -> tuple[tuple[Fraction, ...], ...]:
    """Exact exp(N), written down block by block.

    N is in Jordan form, so N^k moves each block's basis k steps along its
    superdiagonal: inside a block of size b, exp(N) holds 1/k! on the k-th
    superdiagonal for k < b, and every entry outside the blocks is zero.
    """
    n = p.n
    if n > DEFAULT_EXP_BOUND:
        raise DomainError(f"partition size {n} exceeds bound {DEFAULT_EXP_BOUND}")
    coeffs = tuple(Fraction(1, factorial(k)) for k in range(max(p.blocks, default=0)))
    rows = []
    offset = 0
    for size in p.blocks:
        for r in range(size):
            rows.append(
                (_ZERO,) * (offset + r) + coeffs[: size - r] + (_ZERO,) * (n - offset - size)
            )
        offset += size
    return tuple(rows)


def nonzero_count(rows: tuple[tuple[Fraction, ...], ...]) -> int:
    """Number of nonzero entries of rows - id."""
    return sum(
        1
        for i, row in enumerate(rows)
        for j, x in enumerate(row)
        if x != (1 if i == j else 0)
    )


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


def wd_to_json(w: WDShadow) -> dict:
    return {
        "blocks": list(w.partition.blocks),
        "inertia": [{"label": l, "dim": d} for l, d in w.inertia],
    }
