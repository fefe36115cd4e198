"""The two routes of the level norm, each against the other and the
subresultant.

level_norm returns M_i, the norm from the real subfield (N_i = M_i^2
for ell^i > 2).  Integral towers take it from F_q[x]/(V) (the ring
route) once h = phi(ell^i)/2 reaches RING_THRESHOLD, and from the roots
of unity of F_q (the evaluation route) below it.  Both routes are valid
at every level of an integral tower, so patching the threshold runs
either one anywhere: each is the other's oracle, sign included, and the
subresultant Res(Phi_(ell^i), f_i) = N_i is the oracle of both.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from elltowers import analysis, multimodular
from elltowers.analysis import DisconnectedTowerError, Tower, level_norm
from elltowers.cli import main
from elltowers.corpus import CORPUS
from elltowers.genpoly import GenPoly, determinant, voltage_matrix
from elltowers.intpoly import IntPoly, cyclotomic, dickson, real_form, resultant
from elltowers.towerspec import build_assignment, parse_tower_spec

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def corpus_spec(name):
    return next(e for e in CORPUS if e.name == name).spec


def routes(f: GenPoly, i: int) -> tuple[int, int]:
    """(ring, evaluation): M_i from each route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "RING_THRESHOLD", 0)
        ring = level_norm(f, i)
        mp.setattr(analysis, "RING_THRESHOLD", float("inf"))
        evaluation = level_norm(f, i)
    return ring, evaluation


def subresultant(f: GenPoly, i: int) -> int:
    reduced = f.reduce_level(i)
    return 0 if reduced.is_zero else resultant(cyclotomic(f.ell**i), reduced)


def check_level(f: GenPoly, i: int) -> int:
    """Both routes agree and square to the subresultant; returns M_i."""
    ring, evaluation = routes(f, i)
    assert ring == evaluation, (f, i)
    assert (ring * ring if f.ell**i > 2 else ring) == subresultant(f, i), (f, i)
    return ring


def laurent(ell: int, coeffs: dict[int, int]) -> GenPoly:
    """The integral GenPoly sum c_e T^e; precision 6 leaves room to lift."""
    return GenPoly(ell, 6, tuple(coeffs.items()), integral=True)


# Deepest level whose subresultant stays cheap: Phi of degree <= 110.
DEPTH = {2: 6, 3: 4, 5: 3, 7: 2, 11: 2}


@st.composite
def integral_specs(draw):
    """Integer voltages in [-20, 20] on 1-3 vertices, ell in 2..11."""
    ell = draw(st.sampled_from(sorted(DEPTH)))
    names = ["v1", "v2", "v3"][: draw(st.integers(1, 3))]
    edges = [{"tail": draw(st.sampled_from(names)), "head": draw(st.sampled_from(names)),
              "voltage": str(draw(st.integers(-20, 20)))}
             for _ in range(draw(st.integers(len(names), len(names) + 2)))]
    return {"ell": ell, "precision": 1, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=80)
@given(integral_specs())
def test_ring_route_matches_evaluation_and_subresultant(doc):
    f = determinant(voltage_matrix(build_assignment(parse_tower_spec(doc))))
    for i in range(1, DEPTH[doc["ell"]] + 1):
        check_level(f, i)


def compose(p: IntPoly, q: IntPoly) -> IntPoly:
    """p(q), by Horner's rule."""
    out = IntPoly(())
    for c in reversed(p.coeffs):
        out = out * q + IntPoly((c,))
    return out


def test_dickson_and_real_cyclotomics():
    # D_e(T + 1/T) = T^e + T^-e; Psi_m has the roots 2 cos(2 pi k / m)
    assert [dickson(e).coeffs for e in range(5)] == [
        (2,), (0, 1), (-2, 0, 1), (0, -3, 0, 1), (2, 0, -4, 0, 1)]
    assert real_form(cyclotomic(3)).coeffs == (1, 1)
    assert real_form(cyclotomic(4)).coeffs == (0, 1)
    assert real_form(cyclotomic(8)).coeffs == (-2, 0, 1)
    assert real_form(cyclotomic(9)).coeffs == (1, -3, 0, 1)
    # the Dickson steps of the ring route: Psi_(ell^i) = Psi_(ell^j)(D_(ell^(i-j)))
    for ell, j, i in ((2, 2, 5), (3, 1, 3), (5, 1, 2), (7, 1, 2)):
        psi = real_form(cyclotomic(ell**i))
        assert psi.degree == cyclotomic(ell**i).degree // 2 and psi.leading == 1
        assert compose(real_form(cyclotomic(ell**j)), dickson(ell ** (i - j))) == psi
        assert compose(dickson(ell), dickson(ell ** (i - j - 1))) == dickson(ell ** (i - j))


def test_linear_v():
    # b = 1: f = 3 - T - 1/T, V = 3 - x
    f = laurent(5, {0: 3, 1: -1, -1: -1})
    assert [check_level(f, i) for i in (1, 2, 3)][0] == 11
    g = laurent(2, {0: 3, 1: -1, -1: -1})
    for i in range(1, 5):
        check_level(g, i)


def test_constant_f():
    # b = 0: M_i = c^h, sign included
    for c in (7, -7):
        f = laurent(5, {0: c})
        assert [check_level(f, i) for i in (1, 2)] == [c**2, c**10]


def test_ell_2_at_levels_1_to_3():
    # level 1 is N_1 = f(-1); level 2 takes Psi_4 = x with no Dickson
    # step, level 3 one step D_2 = x^2 - 2
    f = determinant(voltage_matrix(build_assignment(parse_tower_spec(
        corpus_spec("parallel4-ell2")))))
    assert [check_level(f, i) for i in (1, 2, 3)] == [16, 16, 136]
    odd = laurent(2, {0: 5, 1: 2, -1: 2, 3: -1, -3: -1})  # b = 3 against h = 1, 2
    for i in (1, 2, 3):
        check_level(odd, i)


def test_lead_divisible_by_the_first_pool_prime(monkeypatch):
    # lc(V) = 1048573, the largest prime below 2^20: with the pool
    # starting there, the ring route must skip it (F_q[x]/(V) needs
    # lc(V) invertible) and still take enough primes for the bound
    lead = 1048573
    monkeypatch.setattr(multimodular, "PRIME_CEILING", lead + 1)
    assert multimodular.primes(1) == [lead]
    f = laurent(3, {0: 5, 2: lead, -2: lead, 1: 1, -1: 1})
    assert real_form(f.integerize()[0]).leading == lead
    for i in (2, 3):
        check_level(f, i)


def test_vanishing_norm_is_a_disconnected_tower(monkeypatch):
    # 1 + T + 1/T vanishes at the primitive cube roots of unity: V = 1 + x = Psi_3
    t = Tower(build_assignment(parse_tower_spec(corpus_spec("bouquet4-ell3"))))
    t.f = laurent(3, {0: 1, 1: 1, -1: 1})
    assert routes(t.f, 1) == (0, 0)
    for threshold in (0, float("inf")):
        monkeypatch.setattr(analysis, "RING_THRESHOLD", threshold)
        with pytest.raises(DisconnectedTowerError, match="level 1 norm vanishes"):
            t.real_norm(1)


def test_deep_levels_take_the_ring_route(monkeypatch):
    calls = []
    real = analysis._ring_norm

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(analysis, "_ring_norm", spy)
    t = Tower(build_assignment(parse_tower_spec(corpus_spec("bouquet4-ell3"))))
    t.kappa(7)
    # h = 3^(i-1) reaches RING_THRESHOLD = 128 at level 6
    assert analysis.RING_THRESHOLD == 128 and calls == [6, 7]


@pytest.mark.parametrize("doc, levels", [
    (json.loads((DEMOS / "bouquet4_ell3.json").read_text()), 11),
    (corpus_spec("parallel4-ell2"), 16),
], ids=["bouquet4_ell3", "parallel4-ell2"])
def test_count_runs_past_the_old_prime_pool_wall(tmp_path, capsys, doc, levels):
    # primes q = 1 (mod ell^i) below 2^30 ran out at 3^10 and 2^16
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(doc))
    assert main(["count", str(spec), "--levels", str(levels), "--budget-ms", "1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["levels"]
    assert [row["n"] for row in rows] == list(range(levels + 1))
