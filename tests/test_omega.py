from elltowers import GenPoly, Tower, classify_omega, strip_cyclotomics
from elltowers.cli import DEFAULT_BUDGET_MS, _factorization_dict, _level_rows
from elltowers.corpus import CORPUS
from elltowers.intpoly import IntPoly, cyclotomic
from elltowers.omega import BOUNDED, INAPPLICABLE, UNBOUNDED
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import reciprocal

TOWERS = {e.name: Tower(build_assignment(parse_tower_spec(e.spec))) for e in CORPUS}


# -- cyclotomic stripping --------------------------------------------------------

def test_strip_theta_u1():
    u1 = (cyclotomic(3) * cyclotomic(3)).scale(-2)
    factors, rest = strip_cyclotomics(u1)
    assert factors == ((3, 2),)
    assert rest.coeffs == (-2,)


def test_strip_quartic_with_no_unit_roots():
    u1 = IntPoly((-1, -4, -10, -4, -1))
    factors, rest = strip_cyclotomics(u1)
    assert factors == ()
    assert rest == u1


def test_strip_constant():
    factors, rest = strip_cyclotomics(IntPoly((7,)))
    assert factors == () and rest.coeffs == (7,)


def test_strip_mixed_product():
    u1 = cyclotomic(4) * cyclotomic(6) * cyclotomic(6) * IntPoly((3, 1, 3))
    factors, rest = strip_cyclotomics(u1)
    assert dict(factors) == {4: 1, 6: 2}
    assert rest == IntPoly((3, 1, 3))


# -- classification ---------------------------------------------------------------

def test_classify_corpus_verdicts():
    for entry in CORPUS:
        assert classify_omega(TOWERS[entry.name].f).verdict == entry.verdict


def test_classify_bouquet4_details():
    cls = classify_omega(TOWERS["bouquet4-ell3"].f)
    assert cls.verdict == UNBOUNDED
    assert cls.unit_root_multiplicity == 2
    assert cls.content == -2
    assert cls.non_cyclotomic_part == IntPoly((1, 3, 1))
    assert cls.content_primes == (2,)


def test_classify_theta_details():
    cls = classify_omega(TOWERS["theta-ell5"].f)
    assert cls.verdict == BOUNDED
    assert cls.cyclotomic_factors == ((3, 2),)
    assert cls.non_cyclotomic_part.coeffs == (1,)
    assert cls.content == -2


def test_classify_inapplicable_for_padic_voltages():
    cls = classify_omega(TOWERS["bouquet2-sqrt17-ell2"].f)
    assert cls.verdict == INAPPLICABLE
    assert cls.non_cyclotomic_part is None


def reconstruct_u(cls) -> IntPoly:
    """content * (T-1)^m * prod Phi_d^mult * non_cyclotomic_part."""
    out = IntPoly((cls.content,))
    for _ in range(cls.unit_root_multiplicity):
        out = out * IntPoly((-1, 1))
    for d, mult in cls.cyclotomic_factors:
        for _ in range(mult):
            out = out * cyclotomic(d)
    return out * cls.non_cyclotomic_part


def test_reconstruction_invariant():
    for name in ("bouquet3-ell5", "bouquet4-ell3", "theta-ell5",
                 "bouquet4-ell3-skew", "parallel4-ell2"):
        t = TOWERS[name]
        cls = classify_omega(t.f)
        u, _b = t.f.integerize()
        assert reconstruct_u(cls) == u


def test_verdict_invariances():
    for name in ("bouquet4-ell3", "theta-ell5"):
        f = TOWERS[name].f
        v = classify_omega(f).verdict
        assert classify_omega(reciprocal(f)).verdict == v
        for k in (5, -3):
            assert classify_omega(f * GenPoly.constant(f.ell, f.precision, k)).verdict == v


def test_every_mu_positive_prime_divides_content():
    from elltowers.genpoly import mu_invariant

    for entry in CORPUS:
        f = TOWERS[entry.name].f
        if not f.integral:
            continue
        u, _ = f.integerize()
        content = u.content()
        for p in (2, 3, 5, 7, 11, 13):
            if mu_invariant(f, p)[0] > 0:
                assert content % p == 0


# -- omega sequences, from the CLI's level rows ------------------------------------

def omegas(name, depth, budget_ms=DEFAULT_BUDGET_MS):
    """(omega, omega_is_lower_bound) of kappa_0..kappa_depth as count --json reports them."""
    rows = _level_rows(TOWERS[name], depth, budget_ms)
    return [(doc["omega"], doc["omega_is_lower_bound"])
            for doc in (_factorization_dict(fact) for _, _, fact in rows)]


def test_omega_sequence_bouquet4():
    # kappa_0 = 1 has omega 0
    assert omegas("bouquet4-ell3", 4) == [(w, False) for w in (0, 2, 3, 5, 8)]


def test_omega_sequence_theta_bounded():
    assert omegas("theta-ell5", 4) == [(w, False) for w in (1, 3, 3, 3, 3)]


def test_omega_sequence_bouquet3():
    assert omegas("bouquet3-ell5", 2) == [(0, False), (2, False), (2, False)]


def test_omega_sequence_honest_under_budget():
    # with no budget, level 7's piece keeps the composite 1518337^2 * 27744257^2
    starved = omegas("bouquet2-sqrt17-ell2", 7, budget_ms=0)
    full = omegas("bouquet2-sqrt17-ell2", 7)
    assert starved[7] == (6, True) and full[7] == (7, False)
    for (low, flagged), (exact, _) in zip(starved, full):
        assert low <= exact  # a lower bound stays a lower bound
        assert flagged or low == exact


def test_unbounded_towers_grow_on_computed_rows():
    for name, depth in (("bouquet4-ell3", 4), ("parallel4-ell2", 6)):
        exact = [w for w, lower in omegas(name, depth) if not lower]
        tail = exact[1:]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert tail[-1] > tail[0]
