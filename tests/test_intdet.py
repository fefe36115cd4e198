import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elltowers.intdet import bareiss_det, det_int, det_mod, hadamard_bound_bits, multimodular_det


def _random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_known_small_determinants():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_row_swap_sign():
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_engines_agree_on_random_matrices():
    rng = random.Random(7)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(10):
            m = _random_matrix(rng, n)
            assert bareiss_det(m) == multimodular_det(m)


def test_dispatcher_threshold(monkeypatch):
    import elltowers.intdet as intdet

    rng = random.Random(1)
    for n in (6, intdet.BAREISS_THRESHOLD, intdet.BAREISS_THRESHOLD + 1):
        m = _random_matrix(rng, n)
        assert multimodular_det(m) == bareiss_det(m)
        engines = []
        monkeypatch.setattr(intdet, "bareiss_det", lambda rows: engines.append("bareiss") or 0)
        monkeypatch.setattr(intdet, "multimodular_det", lambda rows: engines.append("mm") or 0)
        det_int(m)
        monkeypatch.undo()
        assert engines == ["bareiss" if n <= intdet.BAREISS_THRESHOLD else "mm"]


def test_rejects_non_square():
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])


def test_det_mod_matches_exact():
    rng = random.Random(3)
    p = 1073741789  # prime below 2**30
    for n in (2, 4, 7):
        m = _random_matrix(rng, n, -50, 50)
        exact = bareiss_det(m)
        assert det_mod(np.array(m, dtype=np.int64), [p]) == [exact % p]


def test_hadamard_bound_dominates():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, -20, 20)
        d = bareiss_det(m)
        if d:
            assert abs(d).bit_length() <= hadamard_bound_bits(m)


def test_hadamard_bound_is_taken_from_the_exact_norm_product():
    # every row has squared norm 3: |det| <= 3**32 < 2**51, where rounding
    # each row's norm up to its bit length would give 2**64
    n = 64
    m = [[1 if (j - i) % n < 3 else 0 for j in range(n)] for i in range(n)]
    bits = hadamard_bound_bits(m)
    assert bits <= 52
    assert 3**32 < 1 << bits
    assert abs(det_int(m)).bit_length() <= bits


def test_multimodular_large_entries():
    # entries big enough that a wrong bound or overflow would corrupt CRT
    rng = random.Random(5)
    m = [[rng.randint(-(10**12), 10**12) for _ in range(4)] for _ in range(4)]
    assert multimodular_det(m) == bareiss_det(m)


def test_multimodular_uses_the_fewest_primes_for_the_hadamard_bound(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes_for_bound

    rng = random.Random(3)
    n = intdet.BAREISS_THRESHOLD + 1
    m = [[rng.randint(-1, 1) if abs(i - j) <= 3 else 0 for j in range(n)] for i in range(n)]
    used = []
    real_det_mod = intdet.det_mod

    def recording_det_mod(matrix, qs):
        used.extend(qs)
        return real_det_mod(matrix, qs)

    monkeypatch.setattr(intdet, "det_mod", recording_det_mod)
    assert det_int(m) == bareiss_det(m)
    assert used == primes_for_bound(1 << hadamard_bound_bits(m))


def test_multimodular_stacks_stay_below_the_entry_limit(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes_for_bound

    rng = random.Random(29)
    real_det_mod = intdet.det_mod
    for n in (40, 100, 182):
        m = [[5 if i == j else rng.randint(-1, 1) if abs(i - j) <= 2 else 0 for j in range(n)]
             for i in range(n)]
        stacks = []

        def recording_det_mod(matrix, qs):
            stacks.append(list(qs))
            return real_det_mod(matrix, qs)

        monkeypatch.setattr(intdet, "det_mod", recording_det_mod)
        assert multimodular_det(m) == bareiss_det(m)
        qs = primes_for_bound(1 << hadamard_bound_bits(m))
        per_stack = max(1, intdet.STACK_ENTRIES // (n * n))
        sizes = [len(s) for s in stacks]
        assert [q for s in stacks for q in s] == qs
        assert len(stacks) == -(-len(qs) // per_stack)
        assert max(sizes) <= per_stack and max(sizes) - min(sizes) <= 1


# -- the stacked elimination ------------------------------------------------------

def _images(m, qs):
    return [bareiss_det(m) % q for q in qs]


def test_stack_pivots_per_image():
    from elltowers.multimodular import primes

    rng = random.Random(17)
    qs = primes(3)
    n = 9
    m = _random_matrix(rng, n, -30, 30)
    # the leading entry vanishes mod qs[1] only, and the leading 2x2
    # minor mod qs[2] only, so each image swaps rows at its own step
    m[0][0] = qs[1] * 3
    m[1][1] = m[0][1] * m[1][0] * pow(m[0][0], -1, qs[2]) % qs[2]
    assert m[0][0] % qs[2] and (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % qs[2] == 0
    assert det_mod(np.array(m, dtype=np.int64), qs) == _images(m, qs)


def test_stack_image_zero_while_others_are_not():
    from elltowers.multimodular import primes

    rng = random.Random(19)
    qs = primes(4)
    n = 8
    # a column that vanishes mod qs[2] only
    m = _random_matrix(rng, n, -40, 40)
    for i in range(n):
        m[i][3] = qs[2] * rng.randint(-2, 2)
    got = det_mod(np.array(m, dtype=np.int64), qs)
    assert got == _images(m, qs) and got[2] == 0 and all(got[k] for k in (0, 1, 3))
    # det = +-qs[1]: unimodular transforms of diag(qs[1], 1, ..., 1)
    m = [[qs[1] if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    assert abs(bareiss_det(m)) == qs[1]
    got = det_mod(np.array(m, dtype=np.int64), qs)
    assert got == _images(m, qs) and got[1] == 0 and all(got[k] for k in (0, 2, 3))


def test_stack_worst_case_magnitudes_past_the_lazy_bound():
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    qs = primes(3)
    n = intdet.LAZY + 3
    for q in qs:
        # M = L U mod q with every multiplier and every pivot-row entry
        # at (q-1)/2: each rank-1 update subtracts ((q-1)/2)**2 from
        # every trailing entry, the largest growth balanced residues
        # allow, LAZY times before the first reduction
        h = (q - 1) // 2
        low = [[1 if i == j else h if j < i else 0 for j in range(n)] for i in range(n)]
        up = [[h if j >= i else 0 for j in range(n)] for i in range(n)]
        m = [[sum(low[i][k] * up[k][j] for k in range(min(i, j) + 1)) % q for j in range(n)]
             for i in range(n)]
        m = [[x - q if x > h else x for x in row] for row in m]
        assert det_mod(np.array(m, dtype=np.int64), qs) == _images(m, qs)
        assert pow(h, n, q) == bareiss_det(m) % q


def test_entries_beyond_int64_stay_exact():
    import elltowers.intdet as intdet

    rng = random.Random(23)
    n = intdet.BAREISS_THRESHOLD + 4
    m = _random_matrix(rng, n)
    for _ in range(10):
        m[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(2**63, 2**90)
    assert det_int(m) == multimodular_det(m) == bareiss_det(m)
    qs = [1073741789, 1073741783]
    assert det_mod(np.array(m, dtype=object), qs) == _images(m, qs)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_int_matches_bareiss_across_the_threshold(data):
    import elltowers.intdet as intdet

    t = intdet.BAREISS_THRESHOLD
    n = data.draw(st.one_of(st.integers(1, 6), st.integers(t - 2, t + 6)), label="order")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    zeros = data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="zero fraction")
    bound = data.draw(st.sampled_from([1, 9, 2**40]), label="entry bound")
    m = [[0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(n)]
         for _ in range(n)]
    assert det_int(m) == bareiss_det(m) == multimodular_det(m)


# -- the shared prime pool and CRT ------------------------------------------------

def test_prime_pool_is_the_previous_prime_chain():
    from elltowers.factorint import previous_prime
    from elltowers.multimodular import primes

    chain, q = [], 1 << 30
    for _ in range(40):
        q = previous_prime(q)
        chain.append(q)
    assert primes(40) == chain


def test_prime_pool_per_modulus():
    from elltowers.factorint import is_certified_prime
    from elltowers.multimodular import primes

    for m in (4, 9, 625, 2401):
        qs = primes(25, m)
        assert qs == sorted(qs, reverse=True) and len(set(qs)) == 25
        assert all(q % m == 1 and q < 1 << 30 and is_certified_prime(q) for q in qs)
        # nothing skipped between the ceiling and the last prime handed out
        assert sum(is_certified_prime(c) for c in range(qs[-1], 1 << 30, m)) == 25


def test_crt_symmetric_representative():
    from elltowers.multimodular import crt, primes_for_bound

    rng = random.Random(2)
    for _ in range(50):
        x = rng.randint(-(10**80), 10**80)
        qs = primes_for_bound(10**80, 27)
        assert crt([x % q for q in qs], qs) == x
    assert crt([0, 0], [5, 7]) == 0
    assert crt([34], [37]) == -3


def test_int64_code_refuses_large_moduli():
    with pytest.raises(ValueError):
        det_mod(np.eye(2, dtype=np.int64), [(1 << 30) + 3])
