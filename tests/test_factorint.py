import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import elltowers
from elltowers import factorint
from elltowers.factorint import (
    BLOCK_SIZE,
    DEFAULT_RHO_ITERATIONS,
    DETERMINISTIC_MR_BOUND,
    TRIAL_BOUND,
    FactoredInteger,
    _prime_blocks,
    _split_power,
    factor_kappa,
    integer_nth_root,
    is_certified_prime,
    is_probable_prime,
    ord_p,
    perfect_power,
)


def test_small_primality():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_certified_prime(n) == (n in primes)
    assert not is_certified_prime(1)
    assert not is_certified_prime(0)


def test_known_pseudoprime_traps():
    # strong pseudoprimes to single bases must still be rejected
    for n in (2047, 1373653, 25326001, 3215031751, 3474749660383):
        assert not is_certified_prime(n)


def test_large_table_primes():
    for p in (19441, 3295783, 886538753, 27744257, 22480434859526947):
        assert is_certified_prime(p)


def test_certified_range_guard():
    # numbers with small factors are still certified (division witness);
    # only candidates that would need Miller-Rabin past its proven range raise
    n = DETERMINISTIC_MR_BOUND + 1
    while any(n % p == 0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)):
        n += 1
    with pytest.raises(ValueError):
        is_certified_prime(n)
    assert is_certified_prime(DETERMINISTIC_MR_BOUND + 2) is False  # even
    # probable-prime check still answers above the bound
    assert isinstance(is_probable_prime(n), bool)


def test_ord_p():
    assert ord_p(48, 2) == 4
    assert ord_p(48, 3) == 1
    assert ord_p(-27, 3) == 3
    with pytest.raises(ValueError):
        ord_p(0, 2)
    assert ord_p(3 * 2**60000, 2) == 60000


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 10**30), st.sampled_from((2, 3, 5, 7, 101, 1000003)), st.integers(0, 300))
def test_split_power_matches_one_division_at_a_time(unit, p, e):
    n = unit * p**e
    naive_e, naive_rest = 0, n
    while naive_rest % p == 0:
        naive_e, naive_rest = naive_e + 1, naive_rest // p
    assert _split_power(n, p) == (naive_e, naive_rest)


def test_integer_nth_root():
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(10**30, 5) == 10**6
    rng = random.Random(0)
    for _ in range(50):
        b, k = rng.randint(2, 50), rng.randint(2, 7)
        n = b**k
        assert integer_nth_root(n, k) == b
        assert integer_nth_root(n - 1, k) == b - 1


def test_perfect_power():
    assert perfect_power(64) == (2, 6)
    assert perfect_power(3295783**2) == (3295783, 2)
    assert perfect_power(36) == (6, 2)
    assert perfect_power(12) is None
    assert perfect_power(2) is None


def test_integer_nth_root_near_exact_powers():
    # the float-seeded start must never fall below the root
    rng = random.Random(1)
    for _ in range(400):
        k = rng.choice((2, 3, 5, 7, 64, 500))
        bits = rng.choice([b for b in (8, 52, 53, 54, 200, 700) if b * k <= 30000])
        b = rng.randrange(2, 1 << bits)
        for n in (b**k - 1, b**k, b**k + 1):
            r = integer_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k, (b, k)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 10**5).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)),
       st.integers(2, 13), st.integers(-1, 1))
def test_integer_nth_root_brackets_the_root(n, k, near):
    # up to 10^5 bits, where one Newton step from the root of the top
    # bits lands on the root or one above it; near = 0 takes n as drawn,
    # +-1 moves it next to the k-th power of its root
    if near:
        n = max(0, integer_nth_root(n, k) ** k + near)
    r = integer_nth_root(n, k)
    assert r**k <= n < (r + 1) ** k


def _unfloored(n: int):
    """The plain search: every k up to the bit length."""
    best = None
    for k in range(2, n.bit_length() + 1):
        b = integer_nth_root(n, k)
        if b >= 2 and b**k == n:
            best = (b, k)
    return best


def test_perfect_power_with_a_floor_matches_the_plain_search():
    floor = TRIAL_BOUND + 1
    rough = [p for p in range(floor, floor + 400) if is_certified_prime(p)]
    rng = random.Random(5)
    for _ in range(60):
        n = math.prod(rng.choice(rough) ** rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        n **= rng.choice((1, 1, 2, 3, 6))
        assert perfect_power(n, floor) == _unfloored(n), n
    for b in (floor, rough[0], rough[0] * rough[1], rough[1] ** 3):
        for k in (2, 3, 4, 7, 12, 31):
            assert perfect_power(b**k, floor) == _unfloored(b**k), (b, k)
            assert perfect_power(b**k + 2, floor) is None
    assert perfect_power(rough[0] ** 12, floor) == (rough[0], 12)
    # a floor above the base is the caller's promise broken: nothing found
    assert perfect_power(rough[0] ** 5, rough[0] + 1) is None
    assert perfect_power(2**64) == (2, 64)


def test_rho_statistics():
    n = 1000000007 * 1000000009
    starved = factor_kappa(n, rho_iterations=10)
    assert starved.budget_exhausted and starved.rho_iterations == 10
    split = factor_kappa(n)
    assert split.complete and not split.budget_exhausted
    assert 0 < split.rho_iterations < DEFAULT_RHO_ITERATIONS
    assert split == FactoredInteger(n, split.factors)  # statistics take no part in equality
    # a probable prime past the proven range stays in the cofactor, budget untouched
    mersenne = 2**89 - 1
    kept = factor_kappa(4 * mersenne)
    assert kept.cofactor == mersenne and kept.factors == ((2, 2),)
    assert not kept.budget_exhausted and kept.rho_iterations == 0
    assert factor_kappa(2**10 * 3).rho_iterations == 0


def test_probable_prime_test_needs_the_budget():
    # a base of Miller-Rabin costs about bit_length products mod m, like
    # as many rho steps: a smaller budget leaves m unsplit, unexamined
    mersenne = 2**127 - 1
    short = factor_kappa(4 * mersenne, rho_iterations=100)
    assert short.cofactor == mersenne and short.factors == ((2, 2),)
    assert short.budget_exhausted and short.rho_iterations == 100
    enough = factor_kappa(4 * mersenne, rho_iterations=127)
    assert enough.cofactor == mersenne and not enough.budget_exhausted
    assert enough.rho_iterations == 0


def test_perfect_power_of_a_huge_number_is_quick():
    # a 140,000-bit number once took an integer root for each of its
    # ~7,000 candidate exponents; residue tests now rule almost all out
    rng = random.Random(3)
    big = rng.getrandbits(140_000) | 1
    start = time.perf_counter()
    assert perfect_power(big, TRIAL_BOUND + 1) is None
    p = 1_000_003
    assert perfect_power(p**6000, TRIAL_BOUND + 1) == (p, 6000)
    assert time.perf_counter() - start < 5
    for k in (2, 3, 4, 6, 9, 10, 25, 27, 32, 49):
        b = rng.randrange(2, 10**6)
        assert perfect_power(b**k) == _unfloored(b**k), (b, k)
        assert perfect_power(b**k * 3 + 1) == _unfloored(b**k * 3 + 1), (b, k)


def test_factor_one():
    f = factor_kappa(1)
    assert f.factors == () and f.cofactor == 1 and f.complete
    assert f.omega() == (0, True)


def test_factor_small():
    f = factor_kappa(48)
    assert f.factors == ((2, 4), (3, 1))
    assert f.complete


def test_factor_reference_tower_count():
    # 2^82 * 3^4 * 17^2 * 53^2 * 109^2 * 2269^2 * 4373^2 * 19441^2
    n = 2**82 * 3**4 * 17**2 * 53**2 * 109**2 * 2269**2 * 4373**2 * 19441**2
    f = factor_kappa(n)
    assert f.complete
    assert f.factors == ((2, 82), (3, 4), (17, 2), (53, 2), (109, 2),
                         (2269, 2), (4373, 2), (19441, 2))
    assert f.omega() == (8, True)


def test_factor_needs_rho_and_perfect_square():
    n = 2**22 * 17**2 * 1217**2 * 22480434859526947**2
    f = factor_kappa(n)
    assert f.complete
    assert (22480434859526947, 2) in f.factors


def test_budget_exhaustion_is_honest():
    # two 15-digit primes: rho with a tiny budget cannot split them
    n = 100000000000031 * 100000000000067
    f = factor_kappa(n, rho_iterations=10)
    assert not f.complete
    assert f.cofactor == n
    assert f.factors == ()
    count, exact = f.omega()
    assert not exact and count == 1  # lower bound only


def test_reconstruction_enforced():
    with pytest.raises(ValueError):
        FactoredInteger(10, ((2, 1),), 1)


def test_finalize_cofactor_keeps_lower_bound_honest():
    from elltowers.factorint import _finalize_cofactor

    # unsplit piece sharing a prime with the found factors gets stripped,
    # and a leftover that is a certifiable prime power is absorbed
    found = {3: 1, 7: 2}
    rest = _finalize_cofactor(3**2 * 11**2, found)
    assert rest == 1
    assert found == {3: 3, 7: 2, 11: 2}

    found = {5: 1}
    big = 100000000000031 * 100000000000067  # no certifiable split offered
    rest = _finalize_cofactor(5 * big, found)
    assert rest == big and found == {5: 2}


def test_factored_str():
    assert str(factor_kappa(405)) == "3^4 * 5"
    assert str(factor_kappa(1)) == "1"


def test_decimal_str_matches_str():
    # 0, +-1, +-(10^k +- 1) across the leaf size (10^1234 is the first
    # power of ten past DECIMAL_LEAF_BITS = 4096 bits) and random
    # integers of 10^3 to 2 * 10^5 digits, against str(int) with its
    # digit limit lifted
    leaf_digits = math.ceil(factorint.DECIMAL_LEAF_BITS * math.log10(2))
    cases = [0, 1, -1]
    for k in range(leaf_digits - 2, leaf_digits + 2):
        cases += [s * (10**k + d) for s in (1, -1) for d in (1, -1)]
    rng = random.Random(31)
    cases += [rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)
              for digits in (1000, 4000, 25000, 200000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in cases:
            assert factorint.decimal_str(n) == str(n), n.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)


# -- batched trial division ---------------------------------------------------------

def _reference_factor(n: int, trial_bound: int, rho_iterations: int) -> FactoredInteger:
    """Oracle: one remainder per 6k +- 1 wheel candidate up to the bound,
    stopping once the candidate squared exceeds what is left; sympy
    factors the rest.  Without a rho budget only the perfect-power stage
    can split that rest, so unless it is a prime power it stays whole."""
    found, rest = {}, n
    candidates = [2, 3] + [k + d for k in range(5, trial_bound + 1, 6) for d in (0, 2)]
    for p in candidates:
        if p > trial_bound or p * p > rest:
            break
        while rest % p == 0:
            found[p] = found.get(p, 0) + 1
            rest //= p
    tail = sympy.factorint(rest)
    if rho_iterations == 0 and len(tail) > 1:
        return FactoredInteger(n, tuple(sorted(found.items())), rest)
    for p, e in tail.items():
        found[p] = found.get(p, 0) + e
    return FactoredInteger(n, tuple(sorted(found.items())))


def _assert_matches_wheel(n: int) -> FactoredInteger:
    """factor_kappa agrees with the oracle at the trial bound in force
    with no rho budget, where the trial stage alone decides what is
    found, and with the default one."""
    bound = factorint.TRIAL_BOUND
    for rho in (0, DEFAULT_RHO_ITERATIONS):
        got = factor_kappa(n, rho_iterations=rho)
        assert got == _reference_factor(n, bound, rho), (n, bound, rho)
    return got


def _sieve(bound: int) -> list[int]:
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\0\0"
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in range(bound + 1) if flags[p]]


@pytest.mark.parametrize("bound", [1, 2, 100, 1000, 1009, TRIAL_BOUND])
def test_prime_blocks_hold_the_primes_up_to_the_bound(bound):
    blocks = _prime_blocks(bound)
    assert [p for _, block in blocks for p in block] == _sieve(bound)
    for product, block in blocks:
        assert 0 < len(block) <= BLOCK_SIZE and product == math.prod(block)
    assert all(len(block) == BLOCK_SIZE for _, block in blocks[:-1])


def _block_edges() -> list[int]:
    blocks = _prime_blocks(TRIAL_BOUND)
    return sorted({blocks[k][1][j] for k in (0, 1, 150, -2, -1) for j in (0, -1)})


def test_block_edge_primes_match_the_wheel():
    edges = _block_edges()
    assert edges[0] == 2 and edges[-1] == 999983  # the largest prime <= 10**6
    cases = [
        math.prod(edges),
        math.prod(edges) * 1000003,  # the first prime above the bound
        edges[1] * edges[2],  # the last prime of block 0 times the first of block 1
        2 * 999983,  # stops after block 0 with a prime below the bound left
        999983 * 1000003,
        1000003**2,
    ]
    for n in cases:
        _assert_matches_wheel(n)


def test_prime_powers_match_the_wheel():
    edges = _block_edges()
    for n in (2**200, 3**50, edges[1] ** 7, edges[2] ** 5 * edges[-2] ** 3,
              999983**4, 2**82 * 999983**2 * 1000003**3):
        _assert_matches_wheel(n)


def test_leftover_primes_below_the_bound_squared():
    big = sympy.prevprime(TRIAL_BOUND**2)  # 999999999989
    for n in (big, 2**10 * big, 999983 * big, 1000003 * big):
        f = _assert_matches_wheel(n)
        assert f.complete and (big, 1) in f.factors


@pytest.mark.parametrize("bound", [100, 1000, 1009])
def test_non_default_trial_bounds_match_the_wheel(bound, monkeypatch):
    # factor_kappa reads the bound when called
    monkeypatch.setattr(factorint, "TRIAL_BOUND", bound)
    rng = random.Random(bound)
    small = _sieve(1100)
    cases = [sympy.prevprime(bound**2), 2 * sympy.prevprime(bound**2), 1009**2 * 1013,
             97 * 101 * 997 * 1009, 1013 * 1019]
    for _ in range(40):
        smooth = math.prod(rng.choice(small) ** rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        cases.append(smooth * rng.choice((1, 1000003, 999999999989)))
    for n in cases:
        _assert_matches_wheel(n)


def test_prime_table_is_not_built_at_import():
    src = str(Path(elltowers.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import elltowers.cli, elltowers.factorint as f; "
            "print(f._prime_blocks.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"
