"""kappa_n's factorisation assembled from the factored level pieces.

By the product identity ell^n kappa_n = kappa_0 N_1 ... N_n, the CLI
factors kappa_0 and each level norm once (through the real-subfield
norm M_i, N_i = M_i^2, when ell^i > 2) and builds every kappa_n's
factorisation from them.
The oracle is factor_kappa run on kappa_n itself: wherever that is
complete, the assembled row must be the same factorisation.
"""

import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import elltowers.cli as cli_mod
from elltowers.analysis import DisconnectedTowerError, Tower, level_norm
from elltowers.cli import DEFAULT_BUDGET_MS, RHO_ITERATIONS_PER_MS, _level_piece, _level_rows, main
from elltowers.corpus import CORPUS, THETA_ELL5
from elltowers.factorint import factor_kappa, ord_p
from elltowers.genpoly import GenPoly
from elltowers.towerspec import build_assignment, parse_tower_spec


def corpus_tower(name):
    entry = next(e for e in CORPUS if e.name == name)
    return Tower(build_assignment(parse_tower_spec(entry.spec)))


def check_rows(tower, levels, budget_ms):
    """Every row is an honest factorisation of kappa_n and equals the
    direct one whenever that is complete; returns the rows."""
    rows = _level_rows(tower, levels, budget_ms)
    per_level = max(budget_ms * RHO_ITERATIONS_PER_MS // (levels + 1), 1)
    for n, kappa, fact in rows:
        assert kappa == tower.kappa(n) and fact.value == kappa
        primes = [p for p, _ in fact.factors]
        assert dict(fact.factors).get(tower.ell, 0) == ord_p(kappa, tower.ell)
        assert all(e > 0 for _, e in fact.factors)
        assert all(math.gcd(fact.cofactor, p) == 1 for p in primes)
        assert fact.complete == (fact.cofactor == 1)
        assert fact.omega() == (len(primes) + (fact.cofactor != 1), fact.cofactor == 1)
        assert 0 <= fact.rho_iterations <= per_level
        direct = factor_kappa(kappa, rho_iterations=per_level)
        if direct.complete:
            assert fact == direct, (n, fact, direct)
    return rows


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_rows_match_direct_factorisation(entry):
    tower = Tower(build_assignment(parse_tower_spec(entry.spec)))
    rows = check_rows(tower, entry.depth, DEFAULT_BUDGET_MS)
    for n, _, fact in rows:
        assert fact.complete and dict(fact.factors) == entry.kappa_factors[n]


@st.composite
def integral_towers(draw):
    """Integral voltage specs on 1-2 vertices, ell in {2, 3, 5}."""
    ell = draw(st.sampled_from([2, 3, 5]))
    names = ["v1", "v2"][: draw(st.integers(1, 2))]
    edges = [{"tail": draw(st.sampled_from(names)), "head": draw(st.sampled_from(names)),
              "voltage": str(draw(st.integers(-6, 6)))}
             for _ in range(draw(st.integers(len(names) + 1, 4)))]
    return {"ell": ell, "precision": 5, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=20)
@given(integral_towers())
def test_random_tower_rows_match_direct_factorisation(doc):
    try:
        tower = Tower(build_assignment(parse_tower_spec(doc)), mt_check_level=1)
    except DisconnectedTowerError:
        assume(False)
    check_rows(tower, 5, budget_ms=50)


def test_level_pieces():
    sqrt17 = corpus_tower("bouquet2-sqrt17-ell2")
    assert sqrt17.level_norm(1) == 8  # m = 2: N_1 = f_1(-1), not a square
    assert _level_piece(sqrt17, 1) == (8, 1)
    parallel = corpus_tower("parallel4-ell2")
    assert parallel.level_norm(1) == 16  # a square, but m = 2 takes N_1 whole
    assert _level_piece(parallel, 1) == (16, 1)
    assert _level_piece(parallel, 2) == (16, 2)  # N_2 = 256 = M_2^2
    theta = corpus_tower("theta-ell5")
    assert _level_piece(theta, 0) == (theta.kappa(0), 1)
    assert _level_piece(theta, 1) == (20, 2)


class NormTower:
    """What _level_rows reads of a tower, for any f: kappa_n from the
    product identity over a base count divisible by ell^levels."""

    def __init__(self, f: GenPoly, kappa_0: int):
        self.f, self.ell, self.kappa_0 = f, f.ell, kappa_0

    def real_norm(self, i):
        return level_norm(self.f, i)

    norm_power = Tower.norm_power
    level_norm = Tower.level_norm

    def kappa(self, n):
        prod = self.kappa_0 * math.prod(self.level_norm(i) for i in range(1, n + 1))
        kappa, rem = divmod(abs(prod), self.ell**n)
        assert rem == 0
        return kappa


def test_square_pieces_double_their_exponents():
    # f = 2 at ell = 3: N_i = 2^phi(3^i) = M_i^2 with M_i = 2^(phi(3^i)/2)
    tower = NormTower(GenPoly.constant(3, 2, 2), 3**2)
    rows = check_rows(tower, 2, DEFAULT_BUDGET_MS)
    assert [_level_piece(tower, i) for i in (1, 2)] == [(2, 2), (8, 2)]
    assert [fact.factors for _, _, fact in rows] == [((3, 2),), ((2, 2), (3, 1)), ((2, 8),)]


def test_cofactors_stay_coprime_to_later_primes(monkeypatch):
    # with no rho budget level 1 leaves p * q * r unsplit; level 2's piece
    # 2p lists p, which must then leave the running cofactor
    p, q, r = 100000000000031, 100000000000067, 100000000000097
    stub = NormTower(GenPoly.constant(2, 2, 1), 1)
    stub.real_norm = {1: 2 * p * q * r, 2: 2 * p}.get  # N_2 = (2p)^2
    monkeypatch.setattr(cli_mod, "factor_kappa",
                        lambda n, rho_iterations: factor_kappa(n, rho_iterations=0))
    rows = [fact for _, _, fact in _level_rows(stub, 2, DEFAULT_BUDGET_MS)]
    assert rows[1].factors == () and rows[1].cofactor == p * q * r
    assert rows[1].budget_exhausted
    assert rows[2].factors == ((2, 1), (p, 3)) and rows[2].cofactor == q * r
    assert rows[2].omega() == (3, False) and not rows[2].budget_exhausted
    # a cofactor left prime once the listed primes are out is absorbed
    stub.real_norm = {1: 2 * p * q, 2: 2 * p}.get
    rows = [fact for _, _, fact in _level_rows(stub, 2, DEFAULT_BUDGET_MS)]
    assert rows[1].cofactor == p * q
    assert rows[2].factors == ((2, 1), (p, 3), (q, 1)) and rows[2].complete


def test_report_factors_one_piece_per_level(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(n, **kwargs):
        calls.append(n)
        return factor_kappa(n, **kwargs)

    monkeypatch.setattr(cli_mod, "factor_kappa", counting)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(THETA_ELL5.spec))
    for levels in (0, 2, 4):
        calls.clear()
        assert main(["report", str(path), "--levels", str(levels), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        tower = Tower(build_assignment(parse_tower_spec(THETA_ELL5.spec)))
        assert calls == [_level_piece(tower, n)[0] for n in range(levels + 1)]
        assert [row["rho_iterations"] for row in doc["levels"]] == [0] * (levels + 1)
        assert not any(row["budget_exhausted"] for row in doc["levels"])
