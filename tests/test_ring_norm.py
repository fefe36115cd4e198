"""The norm-step engine of the level norm, against the evaluation
oracle and the subresultant.

level_norm returns M_i, the norm from the real subfield (N_i = M_i^2
for ell^i > 2).  Every tower takes it exactly over Z by norm steps down
the cyclotomic tower, on elements packed into one integer each.  The
evaluation oracle (util.evaluation_norm: a product over the roots of
unity of F_q, recombined by CRT) is valid for every tower below its
prime-pool wall, so it is the oracle of the sign, and the subresultant
Res(Phi_(ell^i), f_i) = N_i is the oracle of both.  For integral
towers at odd ell, the scaled Graeffe route (util.scaled_graeffe_norm:
power sums, then one resultant) shares no slots or widths with the
norm steps, and is cheap at levels the evaluation oracle cannot reach.
"""

import importlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from elltowers import analysis, intdet
from elltowers.analysis import Tower, level_norm
from elltowers.cli import main
from elltowers.corpus import CORPUS
from elltowers.genpoly import GenPoly, determinant, voltage_matrix
from elltowers.intpoly import IntPoly, cyclotomic, pack, real_form, resultant, unpack
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import (draw_voltage, evaluation_norm as evaluation, fold_by_chunks, scaled_graeffe_norm,
                  scaled_real_form)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos" / "specs"


def corpus_spec(name):
    return next(e for e in CORPUS if e.name == name).spec


def tower_f(doc) -> GenPoly:
    return determinant(voltage_matrix(build_assignment(parse_tower_spec(doc))))


def subresultant(f: GenPoly, i: int) -> int:
    reduced = f.reduce_level(i)
    return 0 if reduced.is_zero else resultant(cyclotomic(f.ell**i), reduced)


def check_level(f: GenPoly, i: int) -> int:
    """The engine equals the evaluation oracle and squares to the
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
    # the oracle's form in y = T + q/T: U = (T - 2)(T - 3)(T - 6/2)(T -
    # 6/3) pairs r with 6/r, and V(y) = (y - 5)^2 has the roots r + 6/r
    u = IntPoly((36, -60, 37, -10, 1))
    assert scaled_real_form(u, 6).coeffs == (25, -10, 1)


def test_linear_v():
    # b = 1: f = 3 - T - 1/T, V = 3 - x
    f = laurent(5, {0: 3, 1: -1, -1: -1})
    assert [check_level(f, i) for i in (1, 2, 3)][0] == 11
    g = laurent(2, {0: 3, 1: -1, -1: -1})
    for i in range(1, 5):
        check_level(g, i)


def integral_engine(f: GenPoly, i: int) -> int:
    """M_i by the norm steps on U = T^b f (analysis._integral_norm), also
    at the levels that level_norm sends to the term steps, where U spans
    phi(ell^i) or more; level_norm itself at ell^i = 2."""
    return level_norm(f, i) if f.ell**i == 2 else analysis._integral_norm(*f.integerize(), f.ell, i)


def check_integral(f: GenPoly, i: int) -> int:
    """check_level, and the integral engine gives the same M_i."""
    root = check_level(f, i)
    assert integral_engine(f, i) == root, (f, i)
    return root


def test_ell_2_odd_b_sign():
    # from level 3 to 2 the step f(T) f(-T) = (-1)^b f'(T^2) carries a
    # sign, which odd b leaves in M_i
    f = laurent(2, {0: 3, 1: -1, -1: -1})
    assert [check_integral(f, i) for i in range(2, 6)] == [3, 7, 47, 2207]
    cube = laurent(2, {0: 45, 1: -30, -1: -30, 2: 9, -2: 9, 3: -1, -3: -1})  # (3 - x)^3
    assert [check_integral(cube, i) for i in range(2, 5)] == [27, 343, 103823]
    # b = 5, 7, 9, 11 against phi(2^i) <= 2b: the integral engine starts
    # U = T^b f however wide it is, so the sign applies from the first step
    for b in (5, 7, 9, 11):
        g = laurent(2, {0: 7, 1: -2, -1: -2, b: 1, -b: 1})
        for i in range(2, 6):
            check_integral(g, i)


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
    # lc(U) = 6 and 1048573; b = 2 and 3 sit on both sides of (ell - 1)/2
    # = 2, 3, 5, 6
    for lead, b in ((6, 2), (-6, 3), (1048573, 2)):
        coeffs = {0: 5, 1: 1, -1: 1, b: lead, -b: lead}
        f = laurent(ell, coeffs)
        for i in (1, 2):
            assert level_norm(f, i) == evaluation(f, i), (lead, b, i)
        assert level_norm(f, 1) ** 2 == subresultant(f, 1)


def test_vanishing_norm_is_an_internal_error():
    # 1 + T + 1/T vanishes at the primitive cube roots of unity: V = 1 + x =
    # Psi_3.  No voltage determinant of a tower that tower_problems accepts
    # does, so a vanishing norm there is a broken invariant
    t = Tower(build_assignment(parse_tower_spec(corpus_spec("bouquet4-ell3"))))
    t.f = laurent(3, {0: 1, 1: 1, -1: 1})
    assert level_norm(t.f, 1) == evaluation(t.f, 1) == 0
    with pytest.raises(ArithmeticError, match="level 1 norm vanishes"):
        t.real_norm(1)


def test_theta_at_ell_101():
    # Psi_101 has degree 50 against b = 1: the norm is taken over V~
    doc = json.loads((DEMOS / "theta_ell5.json").read_text())
    doc["ell"] = 101
    f = tower_f(doc)
    assert level_norm(f, 2) == evaluation(f, 2)
    assert level_norm(f, 1) == evaluation(f, 1)


def refuse_primes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a level norm drew on the prime pools")

    for module, name in ((intdet, "primes"), (analysis, "resultant")):
        monkeypatch.setattr(module, name, refuse)


def test_integral_levels_draw_no_primes(monkeypatch):
    refuse_primes(monkeypatch)
    t = Tower(build_assignment(parse_tower_spec(corpus_spec("bouquet4-ell3"))),
              mt_check_level=0)
    assert [t.real_norm(i) for i in (1, 2)] == [12, 408]
    assert t.real_norm(8).bit_length() > 3000


# Deepest level of the ell-adic draws: the evaluation oracle takes about
# 0.02 s at 2^11, 0.04 s at 3^6, and less at 5^4 and 7^3.
ADIC_DEPTH = {2: 11, 3: 6, 5: 4, 7: 3}


@st.composite
def adic_specs(draw, depths=ADIC_DEPTH):
    """ell-adic towers (sqrt and padic voltages) on 1-2 vertices, ell and
    the deepest precision from depths (by default ell in 2..7)."""
    ell = draw(st.sampled_from(sorted(depths)))
    precision = draw(st.integers(1, depths[ell]))
    names = ["v1", "v2"][: draw(st.integers(1, 2))]
    edges = [{"tail": draw(st.sampled_from(names)), "head": draw(st.sampled_from(names)),
              "voltage": draw_voltage(draw, ell, precision, ("padic", "sqrt"))}
             for _ in range(draw(st.integers(len(names), 3)))]
    return {"ell": ell, "precision": precision, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=60)
@given(adic_specs())
def test_adic_steps_match_evaluation_and_subresultant(doc):
    # the subresultant only while Phi_(ell^i) has degree <= 54
    f = tower_f(doc)
    for i in range(1, doc["precision"] + 1):
        root = level_norm(f, i)
        assert root == evaluation(f, i), (doc, i)
        if f.ell**i <= 81:
            assert (root * root if f.ell**i > 2 else root) == subresultant(f, i), (doc, i)


@settings(deadline=None, max_examples=40)
@given(adic_specs({11: 2, 13: 2}))
def test_adic_steps_at_ell_11_and_13(doc):
    # every ell >= 5 slot is as narrow as the slot rule allows; the
    # subresultant against Phi_169, of degree 156, still takes milliseconds
    f = tower_f(doc)
    for i in range(1, doc["precision"] + 1):
        check_level(f, i)


def adic(ell: int, precision: int, coeffs: dict[int, int]) -> GenPoly:
    """The ell-adic GenPoly sum c_e T^e, exponents taken mod ell^precision."""
    return GenPoly(ell, precision, tuple(coeffs.items()))


@pytest.mark.parametrize("ell, depth", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_widths_hold_large_coefficients(ell, depth):
    # 24 loops on one voltage a: f = 50 - 24 (T^a + T^-a) - (T + 1/T) and
    # its square, with ||f||_1 = 100 and at most 10^4, a small (few slots:
    # the integral towers step unfolded) or with digits at every level;
    # and c + T + 1/T, whose conjugates all lie within 4 of ||f||_1 =
    # |c| + 2: its largest coefficient fills a slot of the rule's width at
    # ell = 2 and 3, and comes within 3 to 6 bits of it, less than the
    # ell bits between the widths _norm_step accepts, at ell = 5 and 7
    shapes = [{0: 1000, 1: 1, -1: 1}, {0: -4097, 1: 1, -1: 1}]
    for a in (2, 1 + 2 * ell**4 + ell ** (depth - 1)):
        loops = {0: 50, a: -24, -a: -24, 1: -1, -1: -1}
        square = {}
        for e1, c1 in loops.items():
            for e2, c2 in loops.items():
                square[e1 + e2] = square.get(e1 + e2, 0) + c1 * c2
        shapes += [loops, square]
    for coeffs in shapes:
        # an integral f packs U = T^b f, dense up to its large exponent
        for integral in (False, True):
            f = GenPoly(ell, depth + 4, tuple(coeffs.items()), integral)
            for i in range(1, depth + 1):
                assert level_norm(f, i) == evaluation(f, i), (coeffs, integral, i)


@pytest.mark.parametrize("ell, c", [(2, 1000), (3, -1000), (5, 13)])
def test_slot_rule_is_tight(ell, c):
    # the constant c steps to c^ell, the rule's bound |c|^ell, from level
    # j to j - 1: the rule's width reads it back, and the next narrower
    # width that _norm_step accepts (a multiple of ell for ell >= 5)
    # misreads it; 13^5 has 19 bits, so its width 20 is not rounded up
    j = 3 if ell == 2 else 2  # the steps stop at level 2 for ell = 2
    phi = (ell - 1) * ell ** (j - 2)
    w = analysis._width(abs(c), ell)
    assert w == (abs(c) ** ell).bit_length() + 1

    def step(w):
        block = w * ell ** (j - 2)
        p = analysis._norm_step([c] + [0] * (ell - 1), w, block)
        return unpack(analysis._fold(p, ell, block), w, phi)

    assert step(w) == [c**ell] + [0] * (phi - 1)
    assert step(w - (1 if ell <= 3 else ell)) != [c**ell] + [0] * (phi - 1)


def test_unfolded_widths_hold_the_product_bound():
    # an unfolded step packs U at the width of ||U||_1^ell, which bounds
    # every coefficient of U'; here E = (1, 1, 1, 1, 1, 1), O alternates,
    # and the coefficients of U' stay far below ||U||_1^2
    f = laurent(2, {0: -1, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1, 4: -1, -4: -1, 5: 1, -5: 1})
    for i in range(2, 8):
        check_level(f, i)


@pytest.mark.parametrize("ell, loops", [(2, (1, 13, 29)), (2, (1, 12, 30)), (3, (1, 13, 29)),
                                        (3, (2, 20, 40))])
def test_wide_integral_u_starts_unfolded(ell, loops):
    # U = T^b f has 2b + 1 = 59 to 81 coefficients, more than phi(ell^i)
    # at every level here: level_norm folds f's terms, and the integral
    # engine, taken directly, folds every step's product; b = 29 is odd,
    # so at ell = 2 the sign (-1)^b applies from the first step on
    f = tower_f({"ell": ell, "precision": 1, "vertices": ["v"],
                 "edges": [{"tail": "v", "head": "v", "voltage": str(a)} for a in loops]})
    assert f.integerize()[0].degree == 2 * max(loops)
    for i in range(1, 5 if ell == 2 else 4):
        assert (ell - 1) * ell ** (i - 1) < 2 * max(loops)
        check_integral(f, i)


@pytest.mark.parametrize("ell, i", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4)])
def test_terms_fold_below_phi(ell, i):
    # Phi_(ell^i)(T) = Phi_(ell^(i-1))(T^ell) for i >= 2: the class C_r of
    # the terms with e = r (mod ell), packed at slot e // ell, folds on its
    # own at the first step's block, below phi(ell^i) / ell slots, and
    # sum_r T^r C_r(T^ell) is the remainder of the dense reduction by
    # Phi_(ell^i).  Phi_ell(T) is no Phi_1(T^ell): level 1 folds nothing,
    # as its read sums the exponents mod ell, and those sums differ from
    # the remainder's by a multiple of Phi_ell = 1 + T + ... + T^(ell-1)
    m = ell**i
    terms = [(e, (-1) ** e * (e + 2)) for e in range(0, m, max(1, m // 7))] + [(m - 1, 5), (m - 1, 2)]
    rem = IntPoly.from_pairs(terms).divmod_by_monic(cyclotomic(m))[1]
    if i == 1:
        sums = [sum(c for e, c in terms if e == d) for d in range(ell)]
        assert len({s - c for s, c in zip(sums, rem.coeffs + (0,) * ell)}) == 1
        return
    w = analysis._width(sum(abs(c) for _, c in terms), ell)
    block = w * ell ** (i - 2)
    classes = [unpack(analysis._fold(pack(((e // ell, c) for e, c in terms if e % ell == r), w),
                                     ell, block), w, ell ** (i - 1)) for r in range(ell)]
    assert not any(any(c[(ell - 1) * ell ** (i - 2):]) for c in classes)
    assert IntPoly.from_pairs((r + ell * k, c) for r, c_r in enumerate(classes)
                              for k, c in enumerate(c_r)) == rem


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 200), st.data())
def test_fold_matches_the_chunk_by_chunk_fold(ell, block, data):
    # signed p both inside the span of ell blocks and up to three spans
    # past it (more than one pass of the X^ell - 1 reduction), folded
    # in turn with another block so that the kept constants change
    span = ell * block
    other = data.draw(st.integers(1, 200), label="other block")
    for _ in range(4):
        bits = data.draw(st.one_of(st.integers(0, span), st.integers(span, 4 * span)), label="bits")
        p = data.draw(st.integers(0, 2**bits), label="p") * data.draw(st.sampled_from([1, -1]))
        assert analysis._fold(p, ell, block) == fold_by_chunks(p, ell, block), (p, ell, block)
        assert analysis._fold(p, ell, other) == fold_by_chunks(p, ell, other), (p, ell, other)


def test_irrational_last_element_raises():
    # level_norm refuses f not fixed by T -> 1/T; past that check, the
    # last norm step of 2 + T leaves an irrational part
    for ell, i in ((2, 4), (3, 2), (5, 1), (5, 3), (7, 2)):
        with pytest.raises(ArithmeticError, match="irrational part"):
            analysis._adic_norm(adic(ell, 4, {0: 2, 1: 1}).level_terms(i), ell, i)


REPRO_2 = {"ell": 2, "precision": 24, "vertices": ["v"], "edges": [
    {"tail": "v", "head": "v", "voltage": "1"},
    {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 17, "branch": 1}},
    {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 41, "branch": 3}}]}
REPRO_3 = {"ell": 3, "precision": 14, "vertices": ["v"], "edges": [
    {"tail": "v", "head": "v", "voltage": "1"},
    {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 7, "branch": 1}},
    {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 10, "branch": 1}}]}

REPRO_5 = {"ell": 5, "precision": 8, "vertices": ["v"], "edges": [
    {"tail": "v", "head": "v", "voltage": "1"},
    {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 11, "branch": 1}},
    {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 19, "branch": 2}}]}


@pytest.mark.parametrize("doc, wall", [(REPRO_2, 16), (REPRO_3, 10), (REPRO_5, 7)],
                         ids=["ell2", "ell3", "ell5"])
def test_adic_levels_past_the_old_prime_pool_wall(monkeypatch, doc, wall):
    # primes q = 1 (mod ell^i) below 2^30 ran out at 2^16, 3^10 and 5^7;
    # the last level before that still matches evaluation, and from there
    # the product identity divides by ell at every level with no prime drawn
    f = tower_f(doc)
    assert level_norm(f, wall - 1) == evaluation(f, wall - 1)
    refuse_primes(monkeypatch)
    t = Tower(build_assignment(parse_tower_spec(doc)), mt_check_level=0)
    assert t.kappa(wall) > 0


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


def integral_corpus_f(ell):
    """f of the integral corpus towers with this ell."""
    fs = [tower_f(e.spec) for e in CORPUS]
    return [f for f in fs if f.integral and f.ell == ell]


def test_norm_steps_match_the_scaled_route_deep():
    # the scaled Graeffe route (power sums, then Res(Psi_3, V)) shares no
    # slots or widths with the norm steps, and is cheap at levels the
    # evaluation oracle cannot reach
    for f in integral_corpus_f(3):
        for i in range(1, 12):
            assert level_norm(f, i) == scaled_graeffe_norm(*f.integerize(), 3, i), (f, i)


# Deepest level of the scaled-route property per ell: at ell = 31 and 101
# level 2 is one norm step and the last read.
SCALED_DEPTH = {5: 3, 7: 2, 11: 2, 13: 2, 31: 2, 101: 2}


def spec(ell, vertices, edges):
    """A tower spec with integer voltages, edges as (tail, head, voltage)."""
    return {"ell": ell, "precision": 1, "vertices": vertices,
            "edges": [{"tail": t, "head": h, "voltage": str(a)} for t, h, a in edges]}


@st.composite
def integral_specs_past_3(draw):
    """Integer voltages in [-6, 6] on 1-3 vertices, ell in SCALED_DEPTH;
    the first edge is repeated up to twice, so that U's lead is often not
    a unit."""
    ell = draw(st.sampled_from(sorted(SCALED_DEPTH)))
    names = ["v1", "v2", "v3"][: draw(st.integers(1, 3))]
    edges = [(draw(st.sampled_from(names)), draw(st.sampled_from(names)), draw(st.integers(-6, 6)))
             for _ in range(draw(st.integers(len(names), len(names) + 2)))]
    return spec(ell, names, edges + edges[:1] * draw(st.integers(0, 2)))


@settings(deadline=None, max_examples=60)
@given(integral_specs_past_3())
@example(spec(7, ["v"], [("v", "v", 3), ("v", "v", 3), ("v", "v", 1)]))  # lc(U) = -2
@example(spec(101, ["v1", "v2"], [("v1", "v2", 4), ("v1", "v2", 4), ("v1", "v2", -4),
                                   ("v2", "v2", 1)]))  # lc(U) = -2, U of degree 16
@example(spec(31, ["v1", "v2", "v3"], [("v1", "v2", -3), ("v2", "v3", -2), ("v1", "v2", 2),
                                       ("v1", "v2", 6), ("v3", "v3", -6)]))  # U of degree 30: a folded step
def test_level_norm_matches_the_scaled_route(doc):
    # the packed loop against the scaled route on integral towers with
    # ell >= 5, unit leads and others
    f = tower_f(doc)
    u, b = f.integerize()
    assume(u.degree > 0)  # a constant f takes no norm step
    event("unit lead" if abs(u.leading) == 1 else "non-unit lead")
    for i in range(1, SCALED_DEPTH[doc["ell"]] + 1):
        assert level_norm(f, i) == scaled_graeffe_norm(u, b, doc["ell"], i), (doc, i)


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 101])
def test_psi_norm_matches_galois_doubling(ell):
    # Res(Psi_ell, Y) against the exact Galois doubling on random real y
    # of every top component from 0 (Y constant) to (ell - 1)/2 (Y of
    # Psi_ell's degree), with components of up to 2 and up to 64 bits,
    # and on y = 0
    rng, h = random.Random(ell), ell // 2
    assert analysis._psi_norm([0] * (h + 1), ell) == analysis._real_norm([0] * (h + 1), ell) == 0
    for top in range(h + 1):
        for bits in (2, 64):
            y = [rng.randint(-(2**bits), 2**bits) for _ in range(top)]
            y += [rng.choice((-1, 1)) * rng.randint(1, 2**bits)] + [0] * (h - top)
            assert analysis._psi_norm(y, ell) == analysis._real_norm(y, ell), (ell, y)


@st.composite
def real_elements(draw):
    """(ell, y) for a real y = sum_(d < ell) y_|d| omega^d of any top
    component, y = 0 included, with components of a few bits or of
    seventy."""
    ell = draw(st.sampled_from([5, 7, 11, 13, 31, 101]))
    h = ell // 2
    top = draw(st.integers(-1, h))
    bits = draw(st.sampled_from([2, 70]))
    component = st.integers(-(2**bits), 2**bits)
    y = draw(st.lists(component, min_size=top + 1, max_size=top + 1))
    if top >= 0 and not y[top]:
        y[top] = 1
    return ell, y + [0] * (h - top)


@settings(max_examples=200, deadline=None)
@given(real_elements())
def test_both_real_norms_agree_with_their_sign(ell_and_y):
    # _exact_norm picks one of the two by ell alone, so the crossover can
    # move without moving a value: Galois doubling and Res(Psi_ell, Y)
    # agree on every real y, zero and sign included
    ell, y = ell_and_y
    norm = analysis._real_norm(y, ell)
    event("negative" if norm < 0 else "zero" if norm == 0 else "positive")
    assert norm == analysis._psi_norm(y, ell) == analysis._exact_norm(y, ell)


def test_psi_is_the_real_form_of_phi():
    # the closed form U_h + U_(h-1) against real_form(Phi_ell) of the
    # Dickson recurrence, for every odd prime below 300
    primes = [p for p in range(3, 300, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]
    assert len(primes) == 61
    for ell in primes:
        assert analysis._psi(ell) == real_form(cyclotomic(ell)), ell


def width_slack(f: GenPoly, i: int, norm) -> int:
    """bits(M_i) + 64 + bits(M_i) // 8 less the widest slot of the norm
    steps of M_i = norm(f, i): the slots grow with the norm, not with a
    loose bound."""
    widths, step = [], analysis._norm_step

    def record(classes, w, block):
        widths.append(w)
        return step(classes, w, block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_norm_step", record)
        bits = abs(norm(f, i)).bit_length()
    return bits + 64 + bits // 8 - max(widths, default=0)


def test_widths_follow_the_norm_on_the_corpus():
    for ell, depth in ((2, 14), (3, 10)):
        for f in integral_corpus_f(ell):
            for i in range(1, depth + 1):
                assert width_slack(f, i, level_norm) >= 0, (f, i)


def benchmark_ops(monkeypatch, workload):
    """The operations of round 0 of a seed-1 run of a benchmark workload."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads").run_ops(workload, 1, 1)[0]


@pytest.mark.parametrize("workload", ["integral_deep", "cover_check", "report_cli"])
def test_widths_follow_the_norm_on_the_benchmark_towers(monkeypatch, workload):
    for op in benchmark_ops(monkeypatch, workload):
        f = tower_f(op.doc)
        if f.integral and f.ell <= 3:
            for i in range(1, op.levels + 1):
                assert width_slack(f, i, level_norm) >= 0, (op.label, i)


@st.composite
def bouquets_and_thetas(draw):
    """An integral bouquet (2-4 loops) or theta (three edges v1 -> v2),
    voltages in [-30, 30], ell in {2, 3}; a unit voltage (a unit
    difference on the theta) keeps every level norm nonzero.  f depends
    only on |a| for a loop and on the differences on a theta, so the
    whole domain can be run: its least slack to level 12 (ell = 2) and 8
    (ell = 3) is 4 bits, on loops 27, 27, 27 and a unit at ell = 3,
    level 5, where the loops of 27 set the products over the cosets of
    the ninth roots of unity far apart."""
    ell = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        names, volts = ["v"], draw(st.lists(st.integers(-30, 30), min_size=2, max_size=4))
        assume(any(a % ell for a in volts))
    else:
        names, volts = ["v1", "v2"], draw(st.lists(st.integers(-30, 30), min_size=3, max_size=3))
        assume((volts[0] - volts[1]) % ell or (volts[0] - volts[2]) % ell)
    edges = [{"tail": names[0], "head": names[-1], "voltage": str(a)} for a in volts]
    return {"ell": ell, "precision": 1, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=60)
@given(bouquets_and_thetas())
def test_widths_follow_the_norm(doc):
    # the integral engine's widths; level_norm sends a U that spans
    # phi(ell^i) to the term steps, sized by f's 1-norm alone
    f = tower_f(doc)
    for i in range(1, (12 if doc["ell"] == 2 else 8) + 1):
        assert width_slack(f, i, integral_engine) >= 0, (doc, i)
