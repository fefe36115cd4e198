import random

import pytest

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


def test_dispatcher_threshold():
    rng = random.Random(1)
    m = _random_matrix(rng, 6)
    assert det_int(m) == det_int(m, bareiss_threshold=0) == bareiss_det(m)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])


def test_det_mod_matches_exact():
    import numpy as np

    rng = random.Random(3)
    p = 1073741789  # prime below 2**30
    for n in (2, 4, 7):
        m = _random_matrix(rng, n, -50, 50)
        exact = bareiss_det(m)
        assert det_mod(np.array(m, dtype=np.int64), p) == exact % p


def test_hadamard_bound_dominates():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, -20, 20)
        d = bareiss_det(m)
        if d:
            assert abs(d).bit_length() <= hadamard_bound_bits(m)


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

    def recording_det_mod(matrix, q):
        used.append(q)
        return real_det_mod(matrix, q)

    monkeypatch.setattr(intdet, "det_mod", recording_det_mod)
    assert det_int(m) == bareiss_det(m)
    assert used == primes_for_bound(1 << hadamard_bound_bits(m))


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
    import numpy as np

    with pytest.raises(ValueError):
        det_mod(np.eye(2, dtype=np.int64), (1 << 30) + 3)
