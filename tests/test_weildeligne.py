import itertools
import math
import time
from fractions import Fraction

import pytest

from bzcalc.exceptions import DomainError
from bzcalc.segments import CuspidalLine, Multisegment, Segment, statistic
from bzcalc.weildeligne import (
    JordanPartition,
    WDShadow,
    exp_nilpotent,
    monodromy_weight,
    nonzero_count,
    partition_statistic,
    wd_from_multisegment,
    wd_to_json,
)

from conftest import ms


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for head in range(min(n, largest), 0, -1):
        for rest in partitions(n - head, head):
            yield (head,) + rest


# --- dense matrix oracle ----------------------------------------------------
#
# exp_nilpotent writes 1/k! on each Jordan block's k-th superdiagonal; these
# dense products check it from the definition.  A matrix is a tuple of rows.


def _identity(n):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def _matmul(x, y):
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _is_zero(mat):
    return all(x == 0 for row in mat for x in row)


def _nilpotent_matrix(p):
    """N in Jordan form: ones on the superdiagonal within each block."""
    n = p.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for size in p.blocks:
        for i in range(size - 1):
            rows[offset + i][offset + i + 1] = Fraction(1)
        offset += size
    return tuple(tuple(row) for row in rows)


def _rank(rows):
    """Row-reduction rank over exact rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _jordan_blocks_from_ranks(mat):
    """Recover block sizes of a nilpotent matrix from ranks of its powers."""
    n = len(mat)
    ranks = [n]
    power = _identity(n)
    for _ in range(n + 1):
        power = _matmul(power, mat)
        ranks.append(_rank(power))
    blocks = []
    for k in range(1, n + 1):
        count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        blocks.extend([k] * count)
    return JordanPartition(blocks)


class TestWdFromMultisegment:
    def test_full_segment_gives_one_block(self):
        assert wd_from_multisegment(ms((0, 4))).partition == JordanPartition((4,))

    def test_singletons_give_zero_monodromy(self):
        shadow = wd_from_multisegment(ms((0, 1), (1, 1), (2, 1)))
        assert shadow.partition == JordanPartition((1, 1, 1))
        assert nonzero_count(exp_nilpotent(shadow.partition)) == 0

    def test_block_two_line_duplicates_blocks(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3)])
        shadow = wd_from_multisegment(s)
        assert shadow.partition == JordanPartition((3, 3))
        assert shadow.inertia == (("ram", 6),)
        # independent check: Jordan type of id_2 (x) N_3 from ranks of powers
        n3 = _nilpotent_matrix(JordanPartition((3,)))
        kron = tuple(
            tuple(
                n3[i][j] if a == b else Fraction(0)
                for b in range(2)
                for j in range(3)
            )
            for a in range(2)
            for i in range(3)
        )
        assert _jordan_blocks_from_ranks(kron) == JordanPartition((3, 3))

    def test_size_at_the_bound(self):
        s = Multisegment([Segment(CuspidalLine("A", 32, "ram"), "c0", 0, 2)])
        assert wd_from_multisegment(s).partition == JordanPartition((2,) * 32)

    @pytest.mark.parametrize("block_size", [65, 10**9], ids=["65", "1e9"])
    def test_size_checked_before_blocks_are_listed(self, block_size):
        """A library call checks the total size itself: a line of block size
        10^9 is rejected at once, not after listing 10^9 Jordan blocks."""
        s = Multisegment([Segment(CuspidalLine("A", block_size, "ram"), "c0", 0, 1)])
        t0 = time.perf_counter()
        with pytest.raises(DomainError) as info:
            wd_from_multisegment(s)
        assert time.perf_counter() - t0 < 1.0
        assert str(info.value) == f"partition size {block_size} exceeds bound 64"


class TestExpNilpotent:
    def test_size_one_is_identity(self):
        mat = exp_nilpotent(JordanPartition((1,)))
        assert mat == ((Fraction(1),),)

    def test_size_two(self):
        mat = exp_nilpotent(JordanPartition((2,)))
        assert mat[0][1] == 1
        assert mat[0][0] == mat[1][1] == 1
        assert mat[1][0] == 0

    def test_size_three_has_exact_half(self):
        mat = exp_nilpotent(JordanPartition((3,)))
        assert mat[0][1] == mat[1][2] == 1
        assert mat[0][2] == Fraction(1, 2)

    def test_unipotent_upper_triangular(self):
        for blocks in partitions(6):
            mat = exp_nilpotent(JordanPartition(blocks))
            n = len(mat)
            for i in range(n):
                assert mat[i][i] == 1
                for j in range(i):
                    assert mat[i][j] == 0

    def test_exp_minus_id_nilpotent(self):
        p = JordanPartition((3, 2))
        mat = exp_nilpotent(p)
        n = p.n
        delta = tuple(
            tuple(mat[i][j] - (1 if i == j else 0) for j in range(n))
            for i in range(n)
        )
        power = _identity(n)
        for _ in range(n):
            power = _matmul(power, delta)
        assert _is_zero(power)

    def test_size_bound(self):
        with pytest.raises(DomainError):
            exp_nilpotent(JordanPartition((65,)))


def _dense_exp(p):
    """sum_{k < n} N^k / k! from dense products of _nilpotent_matrix."""
    n = p.n
    nmat = _nilpotent_matrix(p)
    acc = [list(row) for row in _identity(n)]
    power = _identity(n)
    for k in range(1, n):
        power = _matmul(power, nmat)
        for i in range(n):
            for j in range(n):
                acc[i][j] += power[i][j] / math.factorial(k)
    assert _is_zero(_matmul(power, nmat))
    return acc


class TestExpOracle:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense_series(self, n):
        for blocks in partitions(n):
            p = JordanPartition(blocks)
            mat = exp_nilpotent(p)
            assert isinstance(mat, tuple) and all(isinstance(row, tuple) for row in mat)
            assert len(mat) == n and all(len(row) == n for row in mat)
            assert [list(row) for row in mat] == _dense_exp(p)
            assert all(isinstance(x, Fraction) for row in mat for x in row)


class TestNonzeroCount:
    def test_examples(self):
        assert nonzero_count(exp_nilpotent(JordanPartition((1, 1, 1)))) == 0
        assert nonzero_count(exp_nilpotent(JordanPartition((3,)))) == 3
        assert nonzero_count(exp_nilpotent(JordanPartition((2, 1)))) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matrix_count_matches_closed_form(self, n):
        for blocks in partitions(n):
            p = JordanPartition(blocks)
            assert nonzero_count(exp_nilpotent(p)) == partition_statistic(p)

    def test_ties_count_to_multisegment_statistic(self):
        s = ms((0, 3), (1, 2))
        p = wd_from_multisegment(s).partition
        assert nonzero_count(exp_nilpotent(p)) == statistic(s) == monodromy_weight(s)

    def test_block_weighted_count(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3)])
        p = wd_from_multisegment(s).partition
        assert nonzero_count(exp_nilpotent(p)) == monodromy_weight(s) == 6


class TestShadowValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            WDShadow([("unr", 2)], JordanPartition((3,)))

    def test_nonpositive_block_rejected(self):
        with pytest.raises(DomainError):
            JordanPartition((2, 0))

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: JordanPartition((2.9, True)),
                "block sizes must be integers, got (2.9, True)",
            ),
            (lambda: JordanPartition((True,)), "block sizes must be integers, got (True,)"),
            (lambda: JordanPartition((2, "1")), "block sizes must be integers, got (2, '1')"),
            (
                lambda: WDShadow([("unr", 2.0)], JordanPartition((2,))),
                "inertia dimensions must be integers, got (('unr', 2.0),)",
            ),
            (
                lambda: WDShadow([("unr", True)], JordanPartition((1,))),
                "inertia dimensions must be integers, got (('unr', True),)",
            ),
            (
                lambda: WDShadow([("unr", "1"), ("ram", 1)], JordanPartition((1, 1))),
                "inertia dimensions must be integers, got (('unr', '1'), ('ram', 1))",
            ),
            # a generator is quoted by the sizes read from it, not by its repr
            (lambda: JordanPartition(b for b in [2, 0]), "block sizes must be >= 1, got (2, 0)"),
            (
                lambda: JordanPartition(b for b in [1.5]),
                "block sizes must be integers, got (1.5,)",
            ),
        ],
        ids=["block-float", "block-bool", "block-str", "dim-float", "dim-bool", "dim-str",
             "block-generator-zero", "block-generator-float"],
    )
    def test_non_integer_size_rejected(self, call, message):
        """A size that is not an int is rejected, never truncated by int()."""
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


class TestJson:
    def test_shadow_document(self):
        w = WDShadow([("unr", 1), ("ram", 3)], JordanPartition((2, 1, 1)))
        assert wd_to_json(w) == {
            "blocks": [2, 1, 1],
            "inertia": [{"label": "ram", "dim": 3}, {"label": "unr", "dim": 1}],
        }
