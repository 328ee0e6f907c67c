import contextlib
import itertools
import math
import random
import sys
import time

import pytest

from bzcalc.dimensions import (
    _DECIMAL_SPLIT_BITS,
    PRIME_TEST_LIMIT,
    Composition,
    PrimePower,
    compositions,
    elementary_statistic_delta,
    gaussian_flag_count,
    parabolic_alternating_sum,
    standard_module_k1_dim,
    steinberg_k1_dim,
    triangle_check,
    valuation_statistic,
    vp,
    _decimal,
    _exact_root,
    _is_prime,
)
from bzcalc.exceptions import DomainError
from bzcalc.family import iwahori_trace
from bzcalc.segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    downward_closure,
    statistic,
)

from conftest import ms, interval_decompositions

Q_LIST = [PrimePower.from_q(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]


# --- independent oracle: flags over a prime field by direct enumeration -----


def _span(vectors, p, n):
    space = {(0,) * n}
    frontier = list(space)
    while frontier:
        v = frontier.pop()
        for g in vectors:
            for k in range(1, p):
                w = tuple((v[i] + k * g[i]) % p for i in range(n))
                if w not in space:
                    space.add(w)
                    frontier.append(w)
    return frozenset(space)


def _subspaces(p, n):
    vectors = list(itertools.product(range(p), repeat=n))
    found = {}
    for gens in itertools.combinations(vectors, min(n, 3)):
        sp = _span(gens, p, n)
        found.setdefault(sp, None)
    for gens in itertools.combinations(vectors, 1):
        found.setdefault(_span(gens, p, n), None)
    found.setdefault(frozenset({(0,) * n}), None)
    return list(found)


def flag_count_bruteforce(parts, p):
    """Count chains of subspaces with the prescribed dimension jumps."""
    n = sum(parts)
    subspaces = _subspaces(p, n)
    dims = list(itertools.accumulate(parts))

    def count(level, current):
        if level == len(dims):
            return 1
        want = p ** dims[level]
        total = 0
        for sp in subspaces:
            if len(sp) == want and current <= sp:
                total += count(level + 1, sp)
        return total

    return count(0, frozenset({(0,) * n}))


class TestFlagCounts:
    def test_lines_in_dim_two_over_f3(self):
        assert flag_count_bruteforce((1, 1), 3) == 4
        assert gaussian_flag_count(Composition((1, 1)), PrimePower(3, 1)) == 4

    def test_planes_in_dim_three_over_f2(self):
        assert flag_count_bruteforce((2, 1), 2) == 7
        assert gaussian_flag_count(Composition((2, 1)), PrimePower(2, 1)) == 7

    def test_full_flags_in_dim_three_over_f2(self):
        assert flag_count_bruteforce((1, 1, 1), 2) == 21
        assert gaussian_flag_count(Composition((1, 1, 1)), PrimePower(2, 1)) == 21

    @pytest.mark.parametrize("q", Q_LIST)
    def test_trivial_parabolic(self, q):
        for n in (1, 3, 5):
            assert gaussian_flag_count(Composition((n,)), q) == 1

    def test_symmetric_in_composition_order(self):
        q = PrimePower(3, 1)
        for parts in itertools.permutations((1, 2, 3)):
            assert gaussian_flag_count(Composition(parts), q) == gaussian_flag_count(
                Composition((1, 2, 3)), q
            )

    @pytest.mark.parametrize("q", Q_LIST)
    def test_congruent_one_mod_p(self, q):
        for n in range(1, 7):
            for c in compositions(n):
                assert gaussian_flag_count(c, q) % q.p == 1


class TestSteinbergIdentity:
    def test_n_two_is_q(self):
        for q in Q_LIST:
            assert parabolic_alternating_sum(2, q) == q.q

    def test_n_three_q_two(self):
        q = PrimePower(2, 1)
        # 21 - 7 - 7 + 1
        assert parabolic_alternating_sum(3, q) == 8
        assert steinberg_k1_dim(3, q) == 8

    def test_n_one(self):
        for q in Q_LIST:
            assert parabolic_alternating_sum(1, q) == 1

    def test_steinberg_examples(self):
        assert steinberg_k1_dim(2, PrimePower(2, 1)) == 2
        assert steinberg_k1_dim(1, PrimePower(7, 1)) == 1

    def test_bound_enforced(self):
        with pytest.raises(DomainError):
            parabolic_alternating_sum(13, PrimePower(2, 1))


class TestStandardModuleDim:
    def test_single_length_two_segment(self):
        for q in Q_LIST:
            assert standard_module_k1_dim(ms((0, 2)), q) == q.q

    def test_two_singletons(self):
        assert standard_module_k1_dim(ms((0, 1), (1, 1)), PrimePower(3, 1)) == 4

    def test_mixed(self):
        assert standard_module_k1_dim(ms((0, 2), (2, 1)), PrimePower(2, 1)) == 14

    def test_twist_invariance(self):
        q = PrimePower(5, 1)
        a = ms((0, 2), (2, 1))
        b = ms((7, 2), (3, 1), coset="other")
        assert standard_module_k1_dim(a, q) == standard_module_k1_dim(b, q)

    def test_ramified_support_rejected(self):
        bad = Multisegment([Segment(CuspidalLine("A", 2), "c0", 0, 2)])
        with pytest.raises(DomainError):
            standard_module_k1_dim(bad, PrimePower(2, 1))


class TestValuations:
    def test_vp_examples(self):
        assert vp(8, 2) == 3
        assert vp(7, 2) == 0
        q = 4
        assert vp(q * (q**2 + q + 1), 2) == 2

    def test_vp_zero_rejected(self):
        with pytest.raises(DomainError):
            vp(0, 2)

    def test_valuation_statistic_examples(self):
        q4 = PrimePower(2, 2)
        assert valuation_statistic(84, q4) == 1
        assert valuation_statistic(PrimePower(3, 1).q + 1, PrimePower(3, 1)) == 0

    def test_non_q_shape_rejected(self):
        with pytest.raises(DomainError):
            valuation_statistic(2, PrimePower(2, 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_valuation_equals_statistic(self, n):
        for s in interval_decompositions(n):
            for q in Q_LIST:
                dim = standard_module_k1_dim(s, q)
                assert valuation_statistic(dim, q) == statistic(s)


def _vp_one_at_a_time(x: int, p: int) -> int:
    """v_p(x) by removing one factor of p per division: the oracle for vp."""
    e = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        e += 1
    return e


class TestVpOracle:
    """vp strips p, p^2, p^4, ... instead of one p at a time; the two agree."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65537])
    def test_random_unit_times_power(self, p):
        rng = random.Random(p)
        for _ in range(1000):
            v = rng.choice([rng.randrange(0, 70), rng.randrange(0, 600)])
            u = rng.randrange(1, 10 ** rng.randrange(1, 40))
            x = rng.choice([1, -1]) * u * p**v
            assert vp(x, p) == _vp_one_at_a_time(x, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_small_valuation(self, p):
        for v in range(300):
            for u in (1, p + 1, p * p - 1):
                assert vp(u * p**v, p) == _vp_one_at_a_time(u * p**v, p) == v

    def test_large_valuation_is_fast(self):
        x = 3 * 2**270_000 + 2**270_001
        t0 = time.perf_counter()
        assert vp(x, 2) == 270_000
        assert time.perf_counter() - t0 < 1.0

    def test_non_prime_rejected(self):
        with pytest.raises(DomainError):
            vp(12, 4)


@contextlib.contextmanager
def _digit_limit(limit):
    """Python's int-to-str digit limit set to limit (0: none) in the block;
    interpreters older than 3.10.7 have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(scope="class")
def decimal_cases():
    """(x, str(x)) for 0, +-1, +-(2^k +- 1) on both sides of the split
    threshold and of the 4096-bit pieces, and a random int of each bit length
    order up to 2 Mbit, either sign; str, with no digit limit, is the oracle."""
    rng = random.Random(20)
    xs = [0, 1, -1]
    for k in (4095, 4096, 4097, _DECIMAL_SPLIT_BITS - 1, _DECIMAL_SPLIT_BITS,
              _DECIMAL_SPLIT_BITS + 1):
        xs += [sign * (2**k + d) for sign in (1, -1) for d in (1, -1)]
    for e in range(1, 22):
        bits = rng.randrange(2 ** (e - 1), 2**e) + 1
        xs.append(rng.choice([1, -1]) * (rng.getrandbits(bits) | 1 << bits - 1))
    with _digit_limit(0):
        return [(x, str(x)) for x in xs]


class TestDecimal:
    """_decimal prints past the digit limit, through str up to the split
    threshold and through decimal above it."""

    def test_equals_str(self, decimal_cases):
        assert max(abs(x).bit_length() for x, _ in decimal_cases) > 1 << 20
        assert sum(abs(x).bit_length() > _DECIMAL_SPLIT_BITS for x, _ in decimal_cases) >= 10
        for x, text in decimal_cases:
            assert _decimal(x) == text

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_equals_str_under_the_lowest_digit_limit(self, decimal_cases):
        with _digit_limit(640):
            for x, text in decimal_cases:
                assert _decimal(x) == text
                assert sys.get_int_max_str_digits() == 640


class TestTriangleCheck:
    def test_worked_example(self):
        s = ms((0, 1), (1, 1))
        assert triangle_check(s, PrimePower(2, 1), {ms((0, 2)): 3}, 5)

    def test_empty_mults(self):
        assert triangle_check(ms((0, 3)), PrimePower(3, 1), {}, 1)

    def test_randomized(self):
        rng = random.Random(7)
        s = ms((0, 1), (1, 1), (2, 1))
        smaller = [t for t in downward_closure(s) if t != s]
        assert len(smaller) == 3
        q = PrimePower(3, 1)
        for _ in range(200):
            mults = {
                t: rng.randrange(1, 50)
                for t in smaller
                if rng.random() < 0.7
            }
            unit = rng.randrange(1, 100)
            if unit % 3 == 0:
                unit += 1
            assert triangle_check(s, q, mults, unit)

    def test_unit_must_be_coprime(self):
        with pytest.raises(DomainError):
            triangle_check(ms((0, 2)), PrimePower(2, 1), {}, 4)

    def test_keys_must_be_strictly_smaller(self):
        s = ms((0, 1), (1, 1))
        with pytest.raises(DomainError):
            triangle_check(s, PrimePower(2, 1), {s: 1}, 1)


class TestStatisticDelta:
    def test_examples(self):
        assert elementary_statistic_delta(2, 2, 1) == 1
        assert elementary_statistic_delta(2, 1, 0) == 2

    def test_degenerate_overlap_rejected(self):
        with pytest.raises(DomainError):
            elementary_statistic_delta(3, 2, 2)

    def test_matches_convexity(self):
        f = lambda x: x * (x - 1) // 2
        for a in range(1, 6):
            for b in range(1, 6):
                for c in range(0, min(a, b)):
                    expected = f(a + b - c) + f(c) - f(a) - f(b)
                    assert elementary_statistic_delta(a, b, c) == expected


class TestPrimePower:
    def test_from_q(self):
        assert PrimePower.from_q(16) == PrimePower(2, 4)
        assert PrimePower.from_q(9) == PrimePower(3, 2)

    def test_non_prime_power_rejected(self):
        with pytest.raises(DomainError):
            PrimePower.from_q(12)

    def test_composite_p_rejected(self):
        with pytest.raises(DomainError):
            PrimePower(4, 1)

    def test_compositions_count(self):
        for n in range(1, 8):
            assert len(list(compositions(n))) == 2 ** (n - 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PrimePower(2, 0), "f must be >= 1, got 0"),
        (lambda: Composition([0]), "composition parts must be >= 1, got [0]"),
        (lambda: Composition([1.5, 2]), "composition parts must be integers, got [1.5, 2]"),
        (lambda: Composition([True, 2]), "composition parts must be integers, got [True, 2]"),
        (lambda: Composition(["2"]), "composition parts must be integers, got ['2']"),
        (lambda: next(compositions(0)), "n must be >= 1, got 0"),
        (lambda: steinberg_k1_dim(0, PrimePower(2, 1)), "n must be >= 1, got 0"),
        (lambda: elementary_statistic_delta(0, 1, 0), "lengths must be >= 1, got (0, 1)"),
        (
            lambda: triangle_check(ms((0, 1), (1, 1)), PrimePower(2, 1), {ms((0, 2)): 0}, 1),
            "multiplicities must be positive, got 0",
        ),
        (lambda: iwahori_trace(ms((0, 1)), 0, 5), "n must be >= 1, got 0"),
        (lambda: PrimePower(2, 1.5), "f must be an integer, got 1.5"),
        (lambda: PrimePower(2, True), "f must be an integer, got True"),
        (lambda: PrimePower(2, "1"), "f must be an integer, got '1'"),
        (lambda: PrimePower(2.0, 1), "p must be an integer, got 2.0"),
        (lambda: PrimePower(True, 1), "p must be an integer, got True"),
        (lambda: PrimePower("2", 1), "p must be an integer, got '2'"),
        # a generator is quoted by the parts read from it, not by its repr
        (lambda: Composition(g for g in [0]), "composition parts must be >= 1, got (0,)"),
        (
            lambda: Composition(g for g in [2, 1.5]),
            "composition parts must be integers, got (2, 1.5)",
        ),
    ],
    ids=[
        "prime-power-f-zero", "composition-part-zero", "composition-part-float",
        "composition-part-bool", "composition-part-str", "compositions-of-zero",
        "steinberg-n-zero", "statistic-delta-length-zero", "triangle-multiplicity-zero",
        "iwahori-n-zero", "prime-power-f-float", "prime-power-f-bool", "prime-power-f-str",
        "prime-power-p-float", "prime-power-p-bool", "prime-power-p-str",
        "composition-generator-zero", "composition-generator-float",
    ],
)
def test_domain_error(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    """_is_prime is exact below PRIME_TEST_LIMIT, and from_q finds p without
    dividing by every number up to q."""

    def test_matches_trial_division(self):
        for n in range(-3, 20000):
            assert _is_prime(n) == _trial_division(n), n

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
            3825123056546413051,  # to the bases 2 ... 23
            318665857834031151167461,  # to the bases 2 ... 37
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)

    def test_known_primes(self):
        for n in (2**31 - 1, 1000000007, 2**61 - 1):
            assert _is_prime(n)

    @pytest.mark.parametrize("n", [PRIME_TEST_LIMIT, 2**89 - 1, 2**127 - 1])
    def test_past_the_limit_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match="cannot decide"):
            _is_prime(n)
        with pytest.raises(DomainError, match="cannot decide"):
            PrimePower(n, 1)

    def test_past_the_limit_with_a_small_factor_is_decided(self):
        assert not _is_prime(3 * PRIME_TEST_LIMIT)
        with pytest.raises(DomainError, match="not a prime power"):
            PrimePower.from_q(43 * 2**200)

    def test_exact_root(self):
        for k in range(1, 40):
            for r in (2, 43, 2**32 - 1, 2**32 + 1, 3**40, 10**30 + 7, 2**1100 + 1):
                assert _exact_root(r**k, k) == r
                if k > 1:
                    assert _exact_root(r**k - 1, k) is None
                    assert _exact_root(r**k + 1, k) is None

    def test_from_q_of_prime_powers(self):
        for p in (2, 3, 41, 43, 1009, 1000000007, 2**61 - 1):
            for f in (1, 2, 3, 7, 30):
                assert PrimePower.from_q(p**f) == PrimePower(p, f)
        for q in (43 * 47, (43 * 47) ** 3, 1009**2 * 1013, (2**61 - 1) * 43):
            with pytest.raises(DomainError, match="not a prime power"):
                PrimePower.from_q(q)

    @pytest.mark.parametrize(
        "q",
        [1000000007, 2**14000, 10007**1000, 43**2600 * 47, (2**61 - 1) ** 230],
        ids=["prime", "power-of-two", "power-of-10007", "no-root", "power-of-large-prime"],
    )
    def test_decided_in_under_a_second(self, q):
        # every q here has at most 4300 digits, as --q and JSON input do
        t0 = time.perf_counter()
        try:
            PrimePower.from_q(q)
        except DomainError:
            pass
        assert time.perf_counter() - t0 < 1.0
