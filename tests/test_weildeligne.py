import itertools
import math
from fractions import Fraction

import pytest

from bzcalc.exceptions import DomainError
from bzcalc.segments import CuspidalLine, Multisegment, Segment, statistic
from bzcalc.weildeligne import (
    JordanPartition,
    RationalMatrix,
    WDShadow,
    direct_sum,
    exp_nilpotent,
    monodromy_weight,
    nilpotent_matrix,
    nonzero_count_exp,
    partition_from_json,
    partition_statistic,
    partition_to_json,
    sp_partition,
    wd_from_json,
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
    n = mat.size
    ranks = [n]
    power = RationalMatrix.identity(n)
    for _ in range(n + 1):
        power = power @ mat
        ranks.append(_rank(power.entries))
    blocks = []
    for k in range(1, n + 1):
        count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        blocks.extend([k] * count)
    return JordanPartition(blocks)


class TestSpPartition:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_single_block(self, n):
        assert sp_partition(n) == JordanPartition((n,))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sp_partition(0)


class TestWdFromMultisegment:
    def test_full_segment_gives_one_block(self):
        assert wd_from_multisegment(ms((0, 4))).partition == JordanPartition((4,))

    def test_singletons_give_zero_monodromy(self):
        shadow = wd_from_multisegment(ms((0, 1), (1, 1), (2, 1)))
        assert shadow.partition == JordanPartition((1, 1, 1))
        assert nonzero_count_exp(shadow.partition) == 0

    def test_block_two_line_duplicates_blocks(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3)])
        shadow = wd_from_multisegment(s)
        assert shadow.partition == JordanPartition((3, 3))
        assert shadow.inertia == (("ram", 6),)
        # independent check: Jordan type of id_2 (x) N_3 from ranks of powers
        n3 = nilpotent_matrix(JordanPartition((3,)))
        kron = RationalMatrix(
            tuple(
                tuple(
                    n3.entries[i][j] if a == b else Fraction(0)
                    for b in range(2)
                    for j in range(3)
                )
                for a in range(2)
                for i in range(3)
            )
        )
        assert _jordan_blocks_from_ranks(kron) == JordanPartition((3, 3))


class TestExpNilpotent:
    def test_size_one_is_identity(self):
        mat = exp_nilpotent(JordanPartition((1,)))
        assert mat.entries == ((Fraction(1),),)

    def test_size_two(self):
        mat = exp_nilpotent(JordanPartition((2,)))
        assert mat.entries[0][1] == 1
        assert mat.entries[0][0] == mat.entries[1][1] == 1
        assert mat.entries[1][0] == 0

    def test_size_three_has_exact_half(self):
        mat = exp_nilpotent(JordanPartition((3,)))
        assert mat.entries[0][1] == mat.entries[1][2] == 1
        assert mat.entries[0][2] == Fraction(1, 2)

    def test_unipotent_upper_triangular(self):
        for blocks in partitions(6):
            mat = exp_nilpotent(JordanPartition(blocks))
            n = mat.size
            for i in range(n):
                assert mat.entries[i][i] == 1
                for j in range(i):
                    assert mat.entries[i][j] == 0

    def test_exp_minus_id_nilpotent(self):
        p = JordanPartition((3, 2))
        mat = exp_nilpotent(p)
        n = p.n
        delta = RationalMatrix(
            tuple(
                tuple(
                    mat.entries[i][j] - (1 if i == j else 0) for j in range(n)
                )
                for i in range(n)
            )
        )
        power = RationalMatrix.identity(n)
        for _ in range(n):
            power = power @ delta
        assert power.is_zero()

    def test_size_bound(self):
        with pytest.raises(DomainError):
            exp_nilpotent(JordanPartition((65,)))


def _dense_exp(p):
    """sum_{k < n} N^k / k! from dense products of nilpotent_matrix."""
    n = p.n
    nmat = nilpotent_matrix(p)
    acc = [list(row) for row in RationalMatrix.identity(n).entries]
    power = RationalMatrix.identity(n)
    for k in range(1, n):
        power = power @ nmat
        for i in range(n):
            for j in range(n):
                acc[i][j] += power.entries[i][j] / math.factorial(k)
    assert (power @ nmat).is_zero()
    return acc


class TestExpOracle:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense_series(self, n):
        for blocks in partitions(n):
            p = JordanPartition(blocks)
            mat = exp_nilpotent(p)
            assert mat.size == n
            assert [list(row) for row in mat.entries] == _dense_exp(p)
            assert all(isinstance(x, Fraction) for row in mat.entries for x in row)


class TestNonzeroCount:
    def test_examples(self):
        assert nonzero_count_exp(JordanPartition((1, 1, 1))) == 0
        assert nonzero_count_exp(JordanPartition((3,))) == 3
        assert nonzero_count_exp(JordanPartition((2, 1))) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matrix_count_matches_closed_form(self, n):
        for blocks in partitions(n):
            p = JordanPartition(blocks)
            assert nonzero_count_exp(p) == partition_statistic(p)

    def test_ties_count_to_multisegment_statistic(self):
        s = ms((0, 3), (1, 2))
        p = wd_from_multisegment(s).partition
        assert nonzero_count_exp(p) == statistic(s) == monodromy_weight(s)

    def test_block_weighted_count(self):
        s = Multisegment([Segment(CuspidalLine("A", 2, "ram"), "c0", 0, 3)])
        p = wd_from_multisegment(s).partition
        assert nonzero_count_exp(p) == monodromy_weight(s) == 6


class TestDirectSum:
    def _shadow(self, blocks, label="unr"):
        return WDShadow([(label, sum(blocks))], JordanPartition(blocks))

    def test_example(self):
        out = direct_sum(self._shadow((3,)), self._shadow((1,)))
        assert out.partition == JordanPartition((3, 1))

    def test_identity(self):
        empty = WDShadow([], JordanPartition(()))
        x = self._shadow((2, 2))
        assert direct_sum(x, empty) == x

    def test_commutative_associative(self):
        a, b, c = self._shadow((3,)), self._shadow((2,), "x"), self._shadow((1, 1), "y")
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


class TestShadowValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            WDShadow([("unr", 2)], JordanPartition((3,)))


class TestJson:
    def test_partition_round_trip(self):
        p = JordanPartition((3, 1))
        assert partition_from_json(partition_to_json(p)) == p
        assert partition_to_json(p) == {"blocks": [3, 1]}

    def test_shadow_round_trip(self):
        w = WDShadow([("unr", 1), ("ram", 3)], JordanPartition((2, 1, 1)))
        assert wd_from_json(wd_to_json(w)) == w
