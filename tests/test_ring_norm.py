"""The Graeffe engine of the integral level norm, against the evaluation
route and the subresultant.

level_norm returns M_i, the norm from the real subfield (N_i = M_i^2
for ell^i > 2).  Integral towers take it exactly over Z by Graeffe
root-powering; the evaluation route (a product over the roots of unity
of F_q, recombined by CRT), which ell-adic towers take, is valid at
every level of an integral tower too, so it is the oracle of the sign,
and the subresultant Res(Phi_(ell^i), f_i) = N_i is the oracle of both.
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
from elltowers.intpoly import IntPoly, cyclotomic, real_form, resultant
from elltowers.towerspec import build_assignment, parse_tower_spec

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def corpus_spec(name):
    return next(e for e in CORPUS if e.name == name).spec


def tower_f(doc) -> GenPoly:
    return determinant(voltage_matrix(build_assignment(parse_tower_spec(doc))))


def evaluation(f: GenPoly, i: int) -> int:
    """M_i by the evaluation route, which integral towers no longer take."""
    reduced, m = f.reduce_level(i), f.ell**i
    if reduced.is_zero:
        return 0
    if m == 2:
        return reduced(-1)
    h = (f.ell - 1) * m // f.ell // 2
    return analysis._evaluation_norm(reduced, f.ell, m, h, sum(map(abs, reduced.coeffs)) ** h)


def subresultant(f: GenPoly, i: int) -> int:
    reduced = f.reduce_level(i)
    return 0 if reduced.is_zero else resultant(cyclotomic(f.ell**i), reduced)


def check_level(f: GenPoly, i: int) -> int:
    """Graeffe equals the evaluation route and squares to the
    subresultant; returns M_i."""
    root = level_norm(f, i)
    assert root == evaluation(f, i), (f, i)
    assert (root * root if f.ell**i > 2 else root) == subresultant(f, i), (f, i)
    return root


def laurent(ell: int, coeffs: dict[int, int]) -> GenPoly:
    """The integral GenPoly sum c_e T^e; precision 6 leaves room to lift."""
    return GenPoly(ell, 6, tuple(coeffs.items()), integral=True)


# Deepest level whose subresultant stays cheap: Phi of degree <= 110.
DEPTH = {2: 6, 3: 4, 5: 3, 7: 2}


@st.composite
def integral_specs(draw):
    """Integer voltages in [-20, 20] on 1-3 vertices, ell in 2..7."""
    ell = draw(st.sampled_from(sorted(DEPTH)))
    names = ["v1", "v2", "v3"][: draw(st.integers(1, 3))]
    edges = [{"tail": draw(st.sampled_from(names)), "head": draw(st.sampled_from(names)),
              "voltage": str(draw(st.integers(-20, 20)))}
             for _ in range(draw(st.integers(len(names), len(names) + 2)))]
    return {"ell": ell, "precision": 1, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=80)
@given(integral_specs())
def test_graeffe_matches_evaluation_and_subresultant(doc):
    f = tower_f(doc)
    for i in range(1, DEPTH[doc["ell"]] + 1):
        check_level(f, i)


def test_dickson_and_real_cyclotomics():
    # real_form(T^(2e) + 1) = D_e, with D_e(T + 1/T) = T^e + T^-e;
    # Psi_m = real_form(Phi_m) has the roots 2 cos(2 pi k / m)
    dickson = [real_form(IntPoly((1,) + (0,) * (2 * e - 1) + (1,))).coeffs for e in range(1, 5)]
    assert dickson == [(0, 1), (-2, 0, 1), (0, -3, 0, 1), (2, 0, -4, 0, 1)]
    assert real_form(cyclotomic(3)).coeffs == (1, 1)
    assert real_form(cyclotomic(4)).coeffs == (0, 1)
    assert real_form(cyclotomic(8)).coeffs == (-2, 0, 1)
    assert real_form(cyclotomic(9)).coeffs == (1, -3, 0, 1)
    # with q: U = (T - 2)(T - 3)(T - 6/2)(T - 6/3) pairs r with 6/r, and
    # V(y) = (y - 5)^2 has the roots r + 6/r
    u = IntPoly((36, -60, 37, -10, 1))
    assert real_form(u, 6).coeffs == (25, -10, 1)


def test_linear_v():
    # b = 1: f = 3 - T - 1/T, V = 3 - x
    f = laurent(5, {0: 3, 1: -1, -1: -1})
    assert [check_level(f, i) for i in (1, 2, 3)][0] == 11
    g = laurent(2, {0: 3, 1: -1, -1: -1})
    for i in range(1, 5):
        check_level(g, i)


def test_ell_2_odd_b_sign():
    # from level 3 to 2 the step f(T) f(-T) = (-1)^b f'(T^2) carries a
    # sign, which odd b leaves in M_i
    f = laurent(2, {0: 3, 1: -1, -1: -1})
    assert [check_level(f, i) for i in range(2, 6)] == [3, 7, 47, 2207]
    cube = laurent(2, {0: 45, 1: -30, -1: -30, 2: 9, -2: 9, 3: -1, -3: -1})  # (3 - x)^3
    assert [check_level(cube, i) for i in range(2, 5)] == [27, 343, 103823]


def test_constant_f():
    # b = 0: M_i = c^h, sign included
    for c in (7, -7):
        f = laurent(5, {0: c})
        assert [check_level(f, i) for i in (1, 2)] == [c**2, c**10]


def test_zero_f():
    for ell in (2, 3, 5):
        f = GenPoly.zero(ell, 6)
        assert [level_norm(f, i) for i in range(4)] == [1, 0, 0, 0]


def test_ell_2_at_levels_1_to_3():
    # level 1 is N_1 = f(-1); level 2 is f(sqrt(-1)) with no Graeffe
    # step, level 3 one step
    f = tower_f(corpus_spec("parallel4-ell2"))
    assert [check_level(f, i) for i in (1, 2, 3)] == [16, 16, 136]
    odd = laurent(2, {0: 5, 1: 2, -1: 2, 3: -1, -3: -1})  # b = 3 against h = 1, 2
    for i in (1, 2, 3):
        check_level(odd, i)


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_scaled_route_with_a_non_unit_lead(ell):
    # lc(U) = 6 and 1048573: the steps run on c^(2b-1) U(T / c), and the
    # one exact division by a power of c^(ell^(i-1)) undoes the scaling;
    # b = 2 and 3 sit on both sides of (ell - 1)/2 = 2, 3, 5, 6
    for lead, b in ((6, 2), (-6, 3), (1048573, 2)):
        coeffs = {0: 5, 1: 1, -1: 1, b: lead, -b: lead}
        f = laurent(ell, coeffs)
        for i in (1, 2):
            assert level_norm(f, i) == evaluation(f, i), (lead, b, i)
        assert level_norm(f, 1) ** 2 == subresultant(f, 1)


def test_vanishing_norm_is_a_disconnected_tower():
    # 1 + T + 1/T vanishes at the primitive cube roots of unity: V = 1 + x = Psi_3
    t = Tower(build_assignment(parse_tower_spec(corpus_spec("bouquet4-ell3"))))
    t.f = laurent(3, {0: 1, 1: 1, -1: 1})
    assert level_norm(t.f, 1) == evaluation(t.f, 1) == 0
    with pytest.raises(DisconnectedTowerError, match="level 1 norm vanishes"):
        t.real_norm(1)


def test_theta_at_ell_101():
    # Psi_101 has degree 50 against b = 1: the norm is taken over V~
    doc = json.loads((DEMOS / "theta_ell5.json").read_text())
    doc["ell"] = 101
    f = tower_f(doc)
    assert level_norm(f, 2) == evaluation(f, 2)
    assert level_norm(f, 1) == evaluation(f, 1)


def test_integral_levels_draw_no_primes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an integral level norm drew on the prime pools")

    for module, name in ((multimodular, "primes"), (analysis, "_evaluation_norm"),
                         (analysis, "resultant")):
        monkeypatch.setattr(module, name, refuse)
    t = Tower(build_assignment(parse_tower_spec(corpus_spec("bouquet4-ell3"))),
              mt_check_level=0)
    assert [t.real_norm(i) for i in (1, 2)] == [12, 408]
    assert t.real_norm(8).bit_length() > 3000


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
