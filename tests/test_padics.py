import pytest
from hypothesis import given, strategies as st

from elltowers import (
    AmbiguousBranchError,
    Multigraph,
    NonResidueError,
    PrecisionError,
    TruncatedPadic,
    VoltageAssignment,
    padic_sqrt,
)


def test_residue_normalized_into_range():
    x = TruncatedPadic(5, 3, -1)
    assert x.residue == 124
    assert TruncatedPadic(5, 3, 130).residue == 5


def test_reduce_and_truncate():
    x = TruncatedPadic.from_integer(47, 3, 4)
    assert x.residue == 47  # 47 < 3^4: nothing truncated
    assert TruncatedPadic.from_integer(47, 3, 2) == TruncatedPadic(3, 2, 47 % 9)
    assert x.reduce(2) == 47 % 9
    assert x.reduce(0) == 0
    with pytest.raises(PrecisionError):
        x.reduce(5)
    with pytest.raises(ValueError):
        x.reduce(-1)


def test_digits():
    x = TruncatedPadic.from_integer(18, 3, 4)  # 18 = 0*1 + 0*3 + 2*9
    assert x.digits() == [0, 0, 2, 0]
    assert TruncatedPadic(3, 4, 0).digits() == [0, 0, 0, 0]
    assert str(x) == "0.020 (base 3)"


def test_mixed_primes_rejected():
    # a tower's voltages all live in Z_ell for its one ell
    bouquet = Multigraph.bouquet(2)
    with pytest.raises(ValueError, match="voltage prime"):
        VoltageAssignment.from_padics(bouquet, [TruncatedPadic(3, 2, 1), TruncatedPadic(5, 2, 1)])
    with pytest.raises(ValueError, match="one precision"):
        VoltageAssignment.from_padics(bouquet, [TruncatedPadic(3, 2, 1), TruncatedPadic(3, 3, 1)])


# -- square roots -------------------------------------------------------------

def test_sqrt17_in_z2_branch_1_mod_8():
    # 9^2 = 81 = 17 mod 32, and the digit string starts 1.0010
    root = padic_sqrt(17, 2, 5, branch=1)
    assert root.residue == 9
    assert root.digits() == [1, 0, 0, 1, 0]


def test_sqrt17_deeper_precision_consistent():
    r5 = padic_sqrt(17, 2, 5, branch=1)
    r8 = padic_sqrt(17, 2, 8, branch=1)
    assert (r8.residue * r8.residue - 17) % 2**8 == 0
    assert r8.reduce(5) == r5.residue
    other = padic_sqrt(17, 2, 8, branch=7)
    assert (other.residue + r8.residue) % 2**8 == 0  # the two roots are negatives


def test_sqrt_identity():
    assert padic_sqrt(1, 7, 3, branch=1).residue == 1
    assert padic_sqrt(1, 2, 4, branch=1).residue == 1


def test_sqrt_2_mod_49():
    root = padic_sqrt(2, 7, 2, branch=3)
    assert root.residue == 10  # 10^2 = 100 = 2 mod 49
    assert pow(root.residue, 2, 49) == 2


@pytest.mark.parametrize("d,ell", [(3, 5), (2, 2), (5, 2), (0, 3), (10, 5)])
def test_sqrt_non_residues_rejected(d, ell):
    with pytest.raises(NonResidueError):
        padic_sqrt(d, ell, 4, branch=1)


def test_sqrt_branch_required_and_checked():
    with pytest.raises(AmbiguousBranchError):
        padic_sqrt(17, 2, 5)
    with pytest.raises(NonResidueError):
        padic_sqrt(2, 7, 2, branch=1)  # 1 is not a root of 2 mod 7


@given(st.sampled_from([3, 5, 7, 13]), st.integers(1, 200), st.data())
def test_sqrt_squares_back(ell, base, data):
    d = base
    if d % ell == 0 or pow(d, (ell - 1) // 2, ell) != 1:
        return
    branch = data.draw(st.sampled_from([1, -1]))
    # find one root mod ell by brute force (ell is small)
    b = next(x for x in range(1, ell) if x * x % ell == d % ell)
    root = padic_sqrt(d, ell, 6, branch=b * branch % ell)
    assert (root.residue**2 - d) % ell**6 == 0
