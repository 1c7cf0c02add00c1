"""Pins the benchmark's closed-form oracle and its independent evaluator to
hand-worked cases.  Run with ``python3 -m pytest bench``."""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import verbalclosure as vc  # noqa: E402
from checks import (  # noqa: E402
    EquationFile,
    ProductGroup,
    check_report,
    check_retraction,
    check_witness,
)
from family import Spec, expected, make_spec  # noqa: E402

TWO_DINF = Spec("two-dinf", (("DInf",), ("DInf",)),
                (("a1", 3), ("a2", 5)), (("b1", 1), ("b2", 1)))
RETRACT = Spec("retract", (("DInf",), ("DInf",)),
               (("a1", 1), ("a2", 5)), (("b1", 1), ("b2", 1)))
TORSION = Spec("torsion", (("DInf",), ("ZedMod", 3)),
               (("a1", 3),), (("b1", 1),))


def _verdict(spec):
    return vc.analyze(vc.GroupSpec.from_text(spec.text()))


def _images(verdict):
    group = verdict.spec.group
    return {name: verdict.retraction.apply(group.generator_element(name))
            for name in group.generators}


def test_oracle_two_dinf_witness():
    exp = expected(TWO_DINF)
    assert not exp.retract
    assert exp.c_rank == 4
    assert exp.contents == {3, 5}
    assert exp.rhs_exponent == 2 ** 17


def test_oracle_odd_torsion():
    exp = expected(TORSION)
    assert (exp.c_rank, exp.torsion_order) == (2, 3)
    assert exp.rhs_exponent == 96  # 2 * 2^(2^2) * 3


def test_oracle_unit_exponent_retracts():
    assert expected(RETRACT).retract


def test_spec_text_round_trips_through_the_parser():
    spec = vc.GroupSpec.from_text(TORSION.text())
    assert spec.to_text() == TORSION.text()


def test_dihedral_products_by_hand():
    g = ProductGroup((("DInf",), ("DInf",)))
    a1, b1 = g.generator("a1"), g.generator("b1")
    # a b a^2 = a a^-2 b = a^-1 b
    assert g.mul(g.mul(a1, b1), g.pow(a1, 2)) == ((-1, 1), (0, 0))
    # a^3 * a^2 b = a^5 b, a reflection: its own inverse, square trivial
    r = g.mul(g.pow(a1, 3), g.mul(g.pow(a1, 2), b1))
    assert r == ((5, 1), (0, 0))
    assert g.inv(r) == r and g.pow(r, 2) == g.identity
    assert g.inv(g.pow(a1, 4)) == ((-4, 0), (0, 0))
    # factors commute
    a2 = g.generator("a2")
    assert g.mul(a1, a2) == g.mul(a2, a1) == ((1, 0), (1, 0))


def test_cyclic_factors_by_hand():
    g = ProductGroup((("Zed",), ("ZedMod", 4)))
    t1, c2 = g.generator("t1"), g.generator("c2")
    assert g.mul(g.pow(t1, 3), g.pow(c2, 3)) == (3, 3)
    assert g.pow(c2, 4) == g.identity
    assert g.inv(g.mul(t1, c2)) == (-1, 3)


HAND_EQUATION = """(equation (c-rank 1) (torsion 1) (n 1) (filler 0)
  (k 1)
 (nodes
  (n0 (gen x1))
  (n1 (gen y))
  (n2 (inv n0))
  (n3 (cat n0 n1 n2))
  (n4 (pow n3 3))
 )
 (lhs n4)
 (rhs a -6))
"""


def test_equation_file_by_hand():
    eq = EquationFile(HAND_EQUATION)
    assert len(eq.nodes) == 5 and eq.rhs_exponent == -6
    dinf = ProductGroup((("DInf",),)).factors[0]
    # (b a^2 b^-1)^3 = a^-6
    assert eq.evaluate(dinf, {"x1": (0, 1), "y": (2, 0)}) == (-6, 0)
    # with x = a the conjugation is trivial: (a^2)^3
    assert eq.evaluate(dinf, {"x1": (1, 0), "y": (2, 0)}) == (6, 0)


def test_program_equation_reads_back_like_the_program_wrote_it():
    equation = _verdict(TWO_DINF).equation
    text = vc.serialize_equation(equation)
    eq = EquationFile(text)
    rhs = equation.rhs_exponent
    assert eq.rhs_exponent == rhs == 2 ** 17
    assert len(eq.nodes) == text.count("\n  (n")


# Assertions below name only plain values: a failing assertion on a program
# object would make pytest print its repr, which flattens the word DAG.


def test_witness_check_accepts_program_output_and_rejects_a_bad_solution():
    for spec in (TWO_DINF, TORSION):
        v = _verdict(spec)
        text = vc.serialize_equation(v.equation)
        rows, solution, m = v.certificate.rows, v.solution, v.data.c_rank
        good = check_witness(spec, text, solution, rows, m)
        assert good == []
        # with every square slot trivial the left-hand side is trivial
        one = v.spec.group.identity
        bad = {k: g if k.startswith("x") else one
               for k, g in solution.items()}
        wrong_value = check_witness(spec, text, bad, rows, m)
        assert len(wrong_value) == 1
        missing_row = check_witness(spec, text, solution, rows[1:], m)
        assert len(missing_row) == 1


def test_retraction_check_accepts_program_output_and_rejects_bad_images():
    v = _verdict(RETRACT)
    images = _images(v)
    group = v.spec.group
    good = check_retraction(RETRACT, images)
    assert good == []
    # sending b1 to the identity keeps the relations but moves b
    moved = check_retraction(RETRACT, dict(images, b1=group.identity))
    assert any("fix a and b" in p for p in moved)
    # a2 is not in H
    outside = check_retraction(
        RETRACT, dict(images, a2=group.generator_element("a2")))
    assert any("outside H" in p for p in outside)


def test_report_check_names_the_spec_not_the_dag():
    exp = expected(TWO_DINF)
    payload = {"verdict": "Retract", "c_rank": 4, "torsion_order": 1}
    problems = check_report(TWO_DINF, payload, exp, verify=False)
    assert problems and all("a = a1^3*a2^5" in p for p in problems)
    assert max(len(p) for p in problems) < 200


def test_oracle_agrees_with_the_program_on_random_specs():
    rng = random.Random(5)
    kinds = [("DInf",), ("DInf", "odd"), ("DInf", "Zed"), ("DInf", "even"),
             ("DInf", "DInf"), ("DInf", "even", "even")]
    for i in range(24):
        spec = make_spec(rng, f"r{i}", rng.choice(kinds), i % 2 == 0)
        exp = expected(spec)
        v = _verdict(spec)
        retract, m = v.is_retract, v.data.c_rank
        assert (retract, m) == (exp.retract, exp.c_rank), spec.text()
        if not retract:
            rhs, ks = v.equation.rhs_exponent, v.equation.k_values
            assert rhs == exp.rhs_exponent, spec.text()
            assert {abs(k) for k in ks if k} == exp.contents, spec.text()
