"""Tests for ambient groups, spec parsing, and the analyzer pipeline."""

import contextlib
import operator
import random
import sys
import time
import tracemalloc
from argparse import Namespace
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, compress

import pytest

import verbalclosure.ambient as ambient
import verbalclosure.words as words
from verbalclosure import dihedral, involutions
from verbalclosure.ambient import (
    AmbientGroup,
    DInf,
    GroupSpec,
    NormalizationFailure,
    NotAnInvolution,
    NotInfiniteOrder,
    NotInQ,
    NotInverted,
    SpecParseError,
    Zed,
    ZedMod,
    analyze,
    build_retraction,
    g_solution,
    image_of_a_squared,
    lhs_value_in_closed_form,
    parse_factor,
    parse_word,
    square_data,
    validate_spec,
    verify_retraction,
    verify_solution_closed_form,
    verify_solution_in_G,
    word_to_text,
)
from verbalclosure.cli import build_report
from verbalclosure.dihedral import IDENTITY, DihedralElement, certify_no_solution
from verbalclosure.lattice import (
    AbelianPresentation,
    Lattice,
    eye,
    mat_mul,
    mat_vec,
    smith_normal_form,
    snf_diagonal,
    vec_sub,
)
from verbalclosure.words import (
    Equation,
    UnboundGenerator,
    build_witness_equation,
    parse_equation,
    serialize_equation,
    x_var,
    y_var,
)

from util import (
    construction_products,
    count_calls,
    dag_nodes,
    randint_element,
    reference_evaluate_word,
    reference_verify_retraction,
    workload_specs,
)


def spec4():
    return validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))


# -- parsing ----------------------------------------------------------------


def test_parse_word():
    assert parse_word("a1^3*a2^5") == (("a1", 3), ("a2", 5))
    assert parse_word('"b1*b2"') == (("b1", 1), ("b2", 1))
    assert parse_word("1") == ()
    assert parse_word("t1^-2") == (("t1", -2),)
    with pytest.raises(SpecParseError):
        parse_word("a1^")
    with pytest.raises(SpecParseError):
        parse_word("a1**b2")
    with pytest.raises(SpecParseError):  # an Arabic-Indic 5
        parse_word("a1^\u0665")
    assert word_to_text((("a1", 3), ("b1", 1))) == "a1^3*b1"
    assert word_to_text(()) == "1"


def test_parse_factor():
    assert parse_factor("DInf") == DInf()
    assert parse_factor("Zed") == Zed()
    assert parse_factor("ZedMod(6)") == ZedMod(6)
    for bad in ("Free", "", " ", "ZedMod(\u0666)"):
        with pytest.raises(SpecParseError):
            parse_factor(bad)


def test_spec_from_text_variants():
    text = """
    # a comment
    groupspec v1
    factors = [DInf, DInf]
    b = b1*b2
    a = a1^3*a2^5
    """
    spec = GroupSpec.from_text(text)
    assert spec.factors == (DInf(), DInf())
    assert spec.a_word == (("a1", 3), ("a2", 5))
    one_line = ('groupspec v1\nfactors = [DInf, ZedMod(3)]; b = "b1"; '
                'a = "a1"\n')
    spec2 = GroupSpec.from_text(one_line)
    assert spec2.factors == (DInf(), ZedMod(3))
    # round trip through to_text
    spec3 = GroupSpec.from_text(spec.to_text())
    assert spec3.factors == spec.factors
    assert spec3.a_word == spec.a_word and spec3.b_word == spec.b_word


def test_spec_from_text_errors():
    with pytest.raises(SpecParseError):
        GroupSpec.from_text("factors = [DInf]\nb = b1\na = a1\n")
    with pytest.raises(SpecParseError):
        GroupSpec.from_text("groupspec v2\nfactors = [DInf]\nb = b1\na = a1\n")
    with pytest.raises(SpecParseError):
        GroupSpec.from_text("groupspec v1\nfactors = [DInf]\nb = b1\n")
    with pytest.raises(SpecParseError):
        GroupSpec.from_text("groupspec v1\nfactors = [DInf]\nnonsense\n"
                            "b = b1\na = a1\n")


# -- group arithmetic -------------------------------------------------------


# each factor type alone, at the modulus-1 and odd/even edges of ZedMod
SINGLE_FACTORS = [[DInf()], [Zed()], [ZedMod(1)], [ZedMod(2)], [ZedMod(3)],
                  [ZedMod(4)]]


def factor_ids(factors):
    return "-".join(map(str, factors))


@pytest.mark.parametrize(
    "factors", SINGLE_FACTORS + [[DInf(), Zed(), ZedMod(6)]], ids=factor_ids)
def test_ambient_group_axioms(factors):
    group = AmbientGroup(factors)
    rng = random.Random(10)
    for _ in range(100):
        x = group.random_element(rng, 10)
        y = group.random_element(rng, 10)
        z = group.random_element(rng, 10)
        assert group.mul(group.mul(x, y), z) == group.mul(x, group.mul(y, z))
        assert group.mul(x, group.inv(x)) == group.identity
        assert group.mul(x, group.identity) == x
        assert group.pow(x, 3) == group.mul(group.mul(x, x), x)
        assert group.pow(x, -2) == group.inv(group.mul(x, x))


def test_generator_elements():
    group = AmbientGroup([DInf(), Zed(), ZedMod(6)])
    assert group.generator_element("a1") == (DihedralElement(1, 0), 0, 0)
    assert group.generator_element("b1") == (DihedralElement(0, 1), 0, 0)
    assert group.generator_element("t2") == (DihedralElement(0, 0), 1, 0)
    assert group.generator_element("c3") == (DihedralElement(0, 0), 0, 1)
    with pytest.raises(SpecParseError):
        group.generator_element("a2")


def test_evaluate_word_is_the_product_of_whole_tuples():
    # each term goes into its own factor's coordinate; the factors commute,
    # so that is the product of whole tuples, on words that repeat a
    # generator, mix a DInf factor's a and b, and have exponents that are
    # negative, zero or past a modulus
    group = AmbientGroup([DInf(), Zed(), ZedMod(6), ZedMod(5), DInf(),
                          ZedMod(1), ZedMod(2)])
    names = sorted(group.generators)
    rng = random.Random(35)
    for _ in range(500):
        word = []
        for _ in range(rng.randint(0, 8)):
            name = rng.choice(names)
            word += [(name, rng.randint(-13, 13))] * rng.choice((1, 1, 2))
        assert group.evaluate_word(word) == reference_evaluate_word(group,
                                                                   word)
    word = (("a1", 3), ("b1", 1), ("a1", -1), ("c3", 7), ("t2", -4))
    assert group.evaluate_word(word) == (DihedralElement(4, 1), -4, 1, 0,
                                         IDENTITY, 0, 0)
    for name in ("a2", "t1", "x9"):
        with pytest.raises(SpecParseError) as got:
            group.evaluate_word((("a1", 1), (name, 2)))
        with pytest.raises(SpecParseError) as want:
            group.generator_element(name)
        assert str(got.value) == str(want.value)


def test_validate_spec_errors():
    with pytest.raises(NotAnInvolution):
        validate_spec(GroupSpec([DInf()], "a1", "a1"))
    with pytest.raises(NotInfiniteOrder):
        validate_spec(GroupSpec([DInf()], "b1", "b1"))
    with pytest.raises(NotInverted):
        validate_spec(GroupSpec([DInf(), Zed()], "b1", "t2"))
    # valid: the Zed coordinate of a is zero
    validate_spec(GroupSpec([DInf(), Zed()], "b1", "a1"))


# -- square subgroup --------------------------------------------------------


def test_square_data_coordinates():
    spec = spec4()
    data = square_data(spec)
    assert data.c_names == ["a1", "b1", "a2", "b2"]
    assert data.presentation.free_rank == 2
    assert data.presentation.torsion_order == 1
    assert image_of_a_squared(spec, data) == (3, 5)


def test_square_data_odd_and_even_torsion():
    spec = validate_spec(GroupSpec([DInf(), ZedMod(3), ZedMod(4)],
                                   "b1", "a1"))
    data = square_data(spec)
    # odd modulus: no quotient generator, full factor is the square subgroup
    assert data.c_names == ["a1", "b1", "c3"]
    assert data.presentation.torsion_order == 3 * 2
    assert data.presentation.invariant_factors == [6]  # Z/3 + Z/2 = Z/6
    # 2 generates Z/3, so the odd residue 1 has a square-subgroup coordinate
    g = spec.group
    elt = g.identity[:1] + (1, 0)
    assert data.q_coordinates(elt) == (0, 2, 0)
    with pytest.raises(NotInQ):
        # generator of the even cyclic factor: odd residue, not a square
        data.q_coordinates(g.generator_element("c3"))
    with pytest.raises(NotInQ):
        data.q_coordinates(g.generator_element("a1"))


@pytest.mark.parametrize(
    "factors", SINGLE_FACTORS + [[DInf(), Zed(), ZedMod(4), ZedMod(5)]],
    ids=factor_ids)
def test_every_square_lies_in_q(factors):
    rng = random.Random(14)
    # Q and G/Q depend on the factors only, not on the words a and b
    data = square_data(GroupSpec(factors, "1", "1"))
    group = data.spec.group
    for _ in range(200):
        g = group.random_element(rng, 30)
        sq = group.mul(g, g)
        data.q_coordinates(sq)  # must not raise
        assert data.coset_bits(sq) == (0,) * data.c_rank


SQUARE_FACTORS = [DInf(), Zed()] + [ZedMod(k) for k in (1, 2, 3, 4, 6, 8)]


@pytest.mark.parametrize("factor", SQUARE_FACTORS, ids=str)
def test_square_coordinate_is_the_q_coordinate_of_the_square(factor):
    # the closed form against the factor's own product and Q-coordinate
    if isinstance(factor, ZedMod):
        boundary = list(range(factor.modulus))
    elif isinstance(factor, DInf):
        boundary = [DihedralElement(t, e) for t in (0, 1, -1, 2, -2, 10 ** 30)
                    for e in (0, 1)]
    else:
        boundary = [0, 1, -1, 2, -2, 10 ** 30, -10 ** 30 - 1]
    rng = random.Random(str(factor))
    drawn = [factor.random_element(rng, 1000) for _ in range(300)]
    for x in boundary + drawn:
        assert (factor.square_coordinate(x)
                == factor.q_coordinate(factor.mul(x, x))), x


@pytest.mark.parametrize("factor", SQUARE_FACTORS, ids=str)
def test_random_element_keeps_the_randint_stream(factor):
    # one-argument randrange consumes the bits of the equivalent randint
    # draw, so a seed gives every sampled check the randint samples
    for seed in range(5):
        for bound in (0, 1, 25, 100):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(40):
                assert (factor.random_element(rng, bound)
                        == randint_element(factor, ref, bound))
            assert rng.getstate() == ref.getstate()


def all_factor_types_spec():
    # every factor type, with an even and an odd modulus; a witness
    return validate_spec(GroupSpec([DInf(), Zed(), ZedMod(4), ZedMod(3)],
                                   "b1*c3^2", "a1^3"))


def test_action_matrices_match_conjugation():
    # the reference for square_data's factor-by-factor matrices: conjugate
    # each coordinate's generator as a full n-tuple.  In ZedMod(2) and
    # ZedMod(1) the Q coordinate is trivial: conjugation gives coordinate
    # 0 there and the matrix 1, the same endomorphism of Q, so a trivial
    # coordinate is compared modulo the relations and every other exactly
    trivial = validate_spec(GroupSpec([DInf(), ZedMod(2), ZedMod(1)],
                                      "b1*c2", "a1"))
    for spec in (spec4(), all_factor_types_spec(), trivial):
        data = square_data(spec)
        group = spec.group
        n = len(spec.factors)
        exact = [f.q_order != 1 for f in spec.factors]
        roots = [group.generator_element(f"{f.q_letter}{l}")
                 for l, f in enumerate(spec.factors, start=1)]
        assert len(data.module.actions) == data.c_rank
        for d, A in zip(data.d_elements, data.module.actions):
            assert mat_mul(A, A) == eye(n)
            for l, root in enumerate(roots):
                s = group.mul(root, root)
                conj = group.mul(group.mul(d, s), group.inv(d))
                col = data.q_coordinates(conj)
                unit = tuple(1 if i == l else 0 for i in range(n))
                got = mat_vec(A, unit)
                assert data.presentation.in_relation_lattice(vec_sub(got, col))
                assert [*compress(got, exact)] == [*compress(col, exact)]


def test_square_data_validates_without_products_or_membership(monkeypatch):
    # every action is +-1-diagonal, so it squares to I and commutes with
    # the others exactly, and it is constant on each relation's support:
    # validation makes no product and no membership test, with a trivial
    # coordinate (ZedMod(2)) as with a nontrivial one (ZedMod(4)).  The
    # free actions and the eigensplit are read off the actions' rows, so
    # building the module makes no product either
    members = count_calls(monkeypatch, AbelianPresentation, "in_relation_lattice")
    products = construction_products(monkeypatch)
    specs = [validate_spec(GroupSpec([DInf(), DInf(), last], "b1*b2",
                                     "a1^3*a2^5"))
             for last in (ZedMod(2), ZedMod(4))]
    for spec in specs + [all_factor_types_spec()]:
        assert square_data(spec).module.c_rank == sum(
            len(f.quotient_letters) for f in spec.factors)
    assert (members, products) == ([], [])


def test_square_data_and_g_solution_make_no_ambient_products(monkeypatch):
    # the action and the square roots come from each factor's own
    # arithmetic, with no n-tuple product
    spec = all_factor_types_spec()
    verdict = analyze(spec)
    assert not verdict.is_retract
    calls = [count_calls(monkeypatch, AmbientGroup, name)
             for name in ("mul", "inv")]
    data = square_data(spec)
    solution = g_solution(verdict.equation, data, verdict.report)
    assert calls == [[], []]
    assert verify_solution_in_G(verdict.equation, solution, spec)


def test_coset_bits():
    spec = spec4()
    data = square_data(spec)
    group = spec.group
    assert data.coset_bits(spec.h_b) == (0, 1, 0, 1)
    assert data.coset_bits(spec.h_a) == (1, 0, 1, 0)
    assert data.coset_bits(group.identity) == (0, 0, 0, 0)
    # bits are a homomorphism to C
    rng = random.Random(3)
    for _ in range(50):
        g = group.random_element(rng, 10)
        h = group.random_element(rng, 10)
        gh = tuple(a ^ b for a, b in zip(data.coset_bits(g),
                                         data.coset_bits(h)))
        assert data.coset_bits(group.mul(g, h)) == gh


# -- analyzer ---------------------------------------------------------------


def test_analyze_witness_case():
    verdict = analyze(spec4())
    assert verdict.kind == "not-verbally-closed"
    eq = verdict.equation
    assert eq.rhs_exponent == 2 ** 17
    assert sorted(eq.contents.values()) == [3, 5]
    assert verdict.certificate.is_valid()
    assert verify_solution_in_G(eq, verdict.solution, verdict.spec)


def test_verdict_repr_is_bounded_by_the_dag():
    verdict = analyze(spec4())
    assert len(repr(verdict)) <= 10 * dag_nodes(verdict.equation.lhs)


def test_analyze_retract_cases():
    for b, a in [("b1", "a1"), ("b1*b2", "a1*a2^5"), ("b1*b2", "a1^4*a2")]:
        spec = validate_spec(GroupSpec([DInf(), DInf()], b, a))
        verdict = analyze(spec)
        assert verdict.is_retract, (b, a)
        rho = verdict.retraction
        assert rho.apply(spec.h_a) == spec.h_a
        assert rho.apply(spec.h_b) == spec.h_b
        assert verify_retraction(rho, spec, samples=300, bound=25, seed=2)


def test_retract_at_c_rank_10_decides_quickly():
    # is_simple stops at the witness (character 1, resp. 256, of 1024), and
    # each projection costs m = 10 matrix products, not 2^10
    b = "b1*b2*b3*b4*b5"
    for a, label, functional in [
            ("a1^3*a2^5*a3^7*a4^9*a5", "chi(+++++++++-)", (0, 0, 0, 0, 1)),
            ("a1*a2^3*a3^5*a4^7*a5^9", "chi(+-++++++++)", (1, 0, 0, 0, 0))]:
        t0 = time.perf_counter()
        spec = validate_spec(GroupSpec([DInf()] * 5, b, a))
        verdict = analyze(spec)
        elapsed = time.perf_counter() - t0
        assert verdict.is_retract, a
        rho = verdict.retraction
        assert rho.data.c_rank == 10
        assert rho.sign_character.label() == label
        assert rho.functional == functional
        assert elapsed < 10.0, (a, elapsed)


def test_retract_enumerates_no_listing_of_c(monkeypatch):
    # a Retract reads the eigensplit table and its witness character only,
    # so it builds no 2^m listing of C, even at c_rank 24
    import verbalclosure.ambient
    import verbalclosure.involutions

    def refuse(m):
        raise AssertionError(f"listed C at c_rank {m}")

    for name in ["enumerate_characters", "enumerate_group_elements"]:
        monkeypatch.setattr(verbalclosure.involutions, name, refuse)
    cases = [
        (5, "a1^3*a2^5*a3^7*a4^9*a5", "chi(+++++++++-)", (0, 0, 0, 0, 1)),
        (5, "a1*a2^3*a3^5*a4^7*a5^9", "chi(+-++++++++)", (1, 0, 0, 0, 0)),
        (12, "a1*" + "*".join(f"a{j}^{2 * j + 1}" for j in range(2, 13)),
         "chi(+-" + "+" * 22 + ")", (1,) + (0,) * 11)]
    for n, a, label, functional in cases:
        b = "*".join(f"b{j}" for j in range(1, n + 1))
        verdict = analyze(validate_spec(GroupSpec([DInf()] * n, b, a)))
        assert verdict.is_retract, a
        rho = verdict.retraction
        assert rho.data.c_rank == 2 * n
        assert rho.sign_character.label() == label
        assert rho.functional == functional


def test_witness_lists_no_coset_words(monkeypatch):
    # a witness derives its coset words from c_rank where a level reads
    # them, so analyze and the report (without --verify) list no element
    # or character of C and read no coset word, even at c_rank 16
    import verbalclosure.ambient
    import verbalclosure.dihedral
    import verbalclosure.involutions
    import verbalclosure.words
    from verbalclosure.ambient import SquareData

    def refuse(*args):
        raise AssertionError("listed C")

    # dihedral and ambient import these by name
    for module, name in [
            (verbalclosure.involutions, "enumerate_characters"),
            (verbalclosure.involutions, "enumerate_group_elements"),
            (verbalclosure.dihedral, "enumerate_group_elements"),
            (verbalclosure.words, "coset_words_of"),
            (verbalclosure.ambient, "coset_words_of")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(SquareData, "coset_words", property(refuse))
    spec = validate_spec(GroupSpec([DInf(), DInf()] + [ZedMod(2)] * 12,
                                   "b1*b2", "a1^3*a2^5"))
    verdict = analyze(spec)
    assert verdict.data.c_rank == 16 and not verdict.is_retract
    # the report prints the right-hand side a^(2^65538) in decimal, past
    # Python's default limit on str(int), where build_report still raises
    # ValueError from c_rank 14; the limit is lifted only inside this guard,
    # so that it reaches the report's code
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines, payload, code = build_report(verdict, Namespace(verify=False))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 10 and payload["certificate_valid"] is True
    assert "  every other character (65534): k=0" in lines


def _dinf_spec(n, a1):
    # [DInf]*n with b = b1*...*bn and a = a1^a1 * a2^5 * a3^7 * ...
    a = "*".join([f"a1^{a1}"] + [f"a{j}^{2 * j + 1}" for j in range(2, n + 1)])
    b = "*".join(f"b{j}" for j in range(1, n + 1))
    return validate_spec(GroupSpec([DInf()] * n, b, a))


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on str(int) for the block: a witness report
    prints its right-hand side, about 0.3 * 2^m digits, in decimal, past
    the limit from c_rank 14 on."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_counts_grow_with_c_rank(monkeypatch):
    # deterministic counts, not wall times.  A Retract's Smith forms and
    # Characters grow by the same step with each step in m.  A witness
    # builds objects only for its f nonzero components: on
    # [DInf, DInf] x ZedMod(2)^(m - 4), f = 2 at every m, `analyze` plus
    # `build_report` build f ComponentWitnesses (is_simple), f
    # CertificateRows and 2f Characters (one in each per component), as
    # many at m = 16 as at m = 4, and the text report has f + 1 component
    # lines and f + 1 certificate rows
    import verbalclosure.involutions as involutions
    import verbalclosure.lattice as lattice
    from verbalclosure.dihedral import CertificateRow
    from verbalclosure.involutions import Character, ComponentWitness

    # involutions imports smith_normal_form by name
    snf = [count_calls(monkeypatch, module, "smith_normal_form")
           for module in (lattice, involutions)]
    built = [count_calls(monkeypatch, cls, name)
             for cls, name in ((Character, "__post_init__"),
                               (ComponentWitness, "__init__"),
                               (CertificateRow, "__init__"))]

    def counts(spec):
        for calls in snf + built:
            calls.clear()
        verdict = analyze(spec)
        lines = None
        if not verdict.is_retract:
            with _unlimited_int_digits():
                lines, _, _ = build_report(verdict, Namespace(verify=False))
        return verdict, sum(map(len, snf)), [len(b) for b in built], lines

    retract = []
    for n in (4, 8, 12):
        verdict, forms, (chars, _, _), _ = counts(_dinf_spec(n, 1))
        assert verdict.is_retract
        retract.append((forms, chars))
    (f0, c0), (f1, c1), (f2, c2) = retract
    assert f2 - f1 == f1 - f0 > 0 and c2 - c1 == c1 - c0 > 0
    for m in (4, 6, 8, 16):
        spec = validate_spec(GroupSpec([DInf(), DInf()] + [ZedMod(2)] * (m - 4),
                                       "b1*b2", "a1^3*a2^5"))
        verdict, _, objects, lines = counts(spec)
        assert not verdict.is_retract and verdict.data.c_rank == m
        assert verdict.data.presentation.free_rank == 2
        assert objects == [4, 2, 2], m
        i = lines.index("component contents by character:")
        j = lines.index("no-solution certificate:")
        assert len(lines[i + 1:j - 1]) == 3 and lines[j - 2].startswith(
            f"  every other character ({(1 << m) - 2}):")
        assert len(lines[j + 1:-1]) == 3 and lines[-2].startswith(
            f"  every other delta ({(1 << m) - 2})")


def test_retract_at_c_rank_64_decides_quickly():
    # every product follows the nonzero entries of the diagonal actions
    # and of the projectors, so [DInf]*32 decides in well under a second
    spec = _dinf_spec(32, 1)
    t0 = time.perf_counter()
    verdict = analyze(spec)
    elapsed = time.perf_counter() - t0
    assert verdict.is_retract and verdict.data.c_rank == 64
    rho = verdict.retraction
    assert rho.sign_character.label() == "chi(+-" + "+" * 62 + ")"
    assert rho.functional == (1,) + (0,) * 31
    assert rho.torsion_invariants == [2] * 62
    assert elapsed < 5.0, elapsed


def test_many_factor_retract_is_proven_without_products(monkeypatch):
    # DInf and 60 Zed: 61 coordinates and c_rank 62.  The module's laws
    # are read off its +-1 diagonals, with no product and no membership
    # test, its free actions and eigensplit off its rows, with no product,
    # and the retraction fixes a and b
    members = count_calls(monkeypatch, AbelianPresentation, "in_relation_lattice")
    products = construction_products(monkeypatch)
    spec = validate_spec(GroupSpec([DInf()] + [Zed()] * 60, "b1", "a1"))
    verdict = analyze(spec)
    assert verdict.is_retract and verdict.data.c_rank == 62
    rho = verdict.retraction
    assert rho.apply(spec.h_a) == spec.h_a and rho.apply(spec.h_b) == spec.h_b
    assert (members, products) == ([], [])


def test_many_factor_analyze_shares_the_action_rows():
    # DInf and 200 Zed (c_rank 202): each action differs from the identity
    # in one row and the module shares the rest with square_data, so the
    # peak stays near one 201 x 201 identity.  Copying every row of every
    # action peaked at 70.5 MiB
    spec = validate_spec(GroupSpec([DInf()] + [Zed()] * 200, "b1", "a1"))
    tracemalloc.start()
    try:
        verdict = analyze(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_retract and verdict.data.c_rank == 202
    assert peak < 16 << 20, peak


def test_analyze_makes_no_fraction_on_integer_specs(monkeypatch):
    # the decision solves integer numerators in 2^m-scaled lattices, so
    # an all-integer spec constructs no Fraction, for either verdict
    specs = [(_dinf_spec(2, 1), True), (_dinf_spec(2, 3), False),
             (_dinf_spec(4, 1), True)]
    made = count_calls(monkeypatch, Fraction, "__new__")
    for spec, retract in specs:
        assert analyze(spec).is_retract == retract
    assert made == []


def test_build_retraction_solves_once(monkeypatch):
    # the functional's n entries are read off the eigenlattice's one Smith
    # form by one product, so a Retract makes one solve at every rank.
    # Neither the decision nor the functional reads a lattice's basis, so
    # none is built
    for n in (2, 4, 16):
        spec = _dinf_spec(n, 1)
        data = square_data(spec)
        a_sq = image_of_a_squared(spec, data)
        chi = data.module.is_simple(a_sq).witness_character
        solves = count_calls(monkeypatch, Lattice, "_solve")
        rho = build_retraction(spec, data, a_sq, chi)
        monkeypatch.undo()
        assert len(solves) == 1, n
        assert rho.functional == (1,) + (0,) * (n - 1)
        lattices = data.module._lattices.values()
        assert lattices and not any("basis" in vars(L) for L in lattices)


def test_build_retraction_checks_the_commutators(monkeypatch):
    # (-4, 1) sends a^2 = (1, 5) to 1 but the commutator of the lifts a2
    # and b2, which is a2^2 in the second factor, to 1 as well, so the
    # kernel subgroup is not abelian modulo the kernel of (-4, 1)
    spec = _dinf_spec(2, 1)
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    chi = data.module.is_simple(a_sq).witness_character
    assert data.module._complement_data(a_sq, chi) == (1, 0)
    monkeypatch.setattr(data.module, "_complement_data",
                        lambda q, chi: (-4, 1))
    with pytest.raises(AssertionError, match="not abelian"):
        build_retraction(spec, data, a_sq, chi)


@pytest.mark.parametrize("factors, commutators", [
    ([DInf(), DInf(), Zed(), ZedMod(4)], 1),
    ([DInf()] + [Zed()] * 200, 0),
])
def test_build_retraction_reads_the_commutators_of_lifts_that_share_a_factor(
        monkeypatch, factors, commutators):
    # chi negates b1 alone, so each lift is one generator other than b1,
    # on its own factor: of a1, a2, b2, t3 and c4 only a2 and b2 share a
    # factor, and of a1 and 200 t's none do.  The lifts are indexed by
    # factor, so only those pairs are visited, and a commutator, the one
    # use of a factor's inv, is formed for each
    spec = validate_spec(GroupSpec(factors, "b1", "a1"))
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    chi = data.module.is_simple(a_sq).witness_character
    assert chi.signs.count(-1) == 1
    inverses = [count_calls(monkeypatch, cls, "inv")
                for cls in (DInf, Zed, ZedMod)]
    build_retraction(spec, data, a_sq, chi)
    assert sum(map(len, inverses)) == commutators


def test_build_retraction_rejects_a_map_that_moves_a(monkeypatch):
    # (2, 0) sends a^2 = (1, 5) to 2, so the built map sends a to a^2: the
    # one exact guard on rho(a) and rho(b) refuses it, naming both images
    spec = _dinf_spec(2, 1)
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    chi = data.module.is_simple(a_sq).witness_character
    assert data.module._complement_data(a_sq, chi) == (1, 0)
    monkeypatch.setattr(data.module, "_complement_data",
                        lambda q, chi: (2, 0))
    with pytest.raises(NormalizationFailure,
                       match=r"sends a to \(.*\) and b to \(.*\)"):
        build_retraction(spec, data, a_sq, chi)


def test_build_retraction_runs_one_smith_form(monkeypatch):
    # the complement is the functional alone: its one Smith form is the
    # one-row Bezout form, its check is three identities with none, and no
    # kernel basis and no AbelianPresentation is built on the way to the
    # verdict.  The basis and the torsion invariants are derived on read
    import verbalclosure.ambient as ambient
    import verbalclosure.involutions as involutions
    import verbalclosure.lattice as lattice

    spec = _dinf_spec(2, 1)
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    chi = data.module.is_simple(a_sq).witness_character
    presentations = count_calls(monkeypatch, AbelianPresentation, "__init__")
    snf = [count_calls(monkeypatch, module, "smith_normal_form")
           for module in (lattice, involutions)]
    kernels = [count_calls(monkeypatch, module, "kernel_basis")
               for module in (lattice, ambient)]
    rho = build_retraction(spec, data, a_sq, chi)
    assert presentations == [] and sum(map(len, kernels)) == 0
    assert sum(map(len, snf)) == 1
    data.module._check_complement(a_sq, rho.functional, chi)
    assert sum(map(len, snf)) == 1
    assert analyze(spec).is_retract and sum(map(len, kernels)) == 0
    assert rho.torsion_invariants == [2, 2]
    assert rho.complement_basis == [(0, 1)]


def _power(rng, name, e):
    """name^e, one time in four written unreduced as name^(e+k)*name^-k."""
    if rng.random() < 0.25:
        k = rng.randint(1, 3)
        return f"{name}^{e + k}*{name}^{-k}"
    return f"{name}^{e}"


def _random_retract_specs(rng, count):
    """Retract specs of DInf, Zed and ZedMod factors: a reflection shift
    a_j^s * b_j in b on the DInf factors where a translates, a reflection
    a_j^s * b_j in a on some DInf factors where b is trivial, the
    involution c_j^(k/2) of an even ZedMod factor in a or b, and powers of
    a_j written unreduced, as in a1^2*a1^-1."""
    specs = []
    while len(specs) < count:
        kinds = [rng.choice(("DInf", "DInf", "Zed", "ZedMod"))
                 for _ in range(rng.randint(1, 4))]
        kinds[rng.randrange(len(kinds))] = "DInf"
        factors, a, b = [], [], []
        for j, kind in enumerate(kinds, 1):
            if kind == "DInf":
                factors.append(DInf())
                p = rng.randint(-3, 3)
                reflection = _power(rng, f"a{j}", rng.randint(-3, 3)) + f"*b{j}"
                if p:
                    a.append(_power(rng, f"a{j}", p))
                if p or rng.random() < 0.5:
                    b.append(reflection)
                elif rng.random() < 0.5:
                    a.append(reflection)
            elif kind == "Zed":
                factors.append(Zed())
            else:
                k = rng.randint(1, 8)
                factors.append(ZedMod(k))
                for word in (a, b):
                    if k % 2 == 0 and rng.random() < 0.5:
                        word.append(f"c{j}^{k // 2}")
        if not b:  # b has a reflection wherever a translates
            continue
        spec = GroupSpec(factors, "*".join(b), "*".join(a))
        if not spec.group.has_infinite_order(spec.h_a):
            continue
        verdict = analyze(validate_spec(spec))
        if verdict.is_retract:
            specs.append(verdict)
    return specs


def test_torsion_invariants_match_the_kernel_presentation():
    # the reference is the presentation Z^(1+r) / [-t | 2I] of the kernel
    # subgroup modulo the complement, over a^2 and the r lifts g_i, with t_i
    # the functional on g_i^2 read as a whole element.  On a Retract some
    # t_i is odd, so its invariant factors are r - 1 twos
    seen = set()
    for verdict in _random_retract_specs(random.Random(37), 80):
        rho, data = verdict.retraction, verdict.data
        chi, d = rho.sign_character, data.d_elements
        group = verdict.spec.group
        pivot = chi.signs.index(-1)
        lifts = [group.mul(d[pivot], d[j]) if s == -1 else d[j]
                 for j, s in enumerate(chi.signs) if j != pivot]
        r = len(lifts)
        rows = [(-reference_translation(rho, g),)
                + tuple(2 if k == i else 0 for k in range(r))
                for i, g in enumerate(lifts)]
        kernel = AbelianPresentation(1 + r, rows)
        assert kernel.free_rank == 1
        assert rho.torsion_invariants == kernel.invariant_factors, verdict.spec
        seen.update(type(f).__name__ for f in verdict.spec.factors)
        seen.add(verdict.data.c_rank)
    assert seen >= {"Zed", "ZedMod", 2, 3, 4, 5, 6}


def test_complement_basis_spans_q_with_a_squared():
    # the spanning check that the complement once ran on every Retract, now
    # a test of the derived basis: a^2, the basis and the relations of Q
    # stack to a matrix whose Smith form has n ones and otherwise zeros
    for verdict in _random_retract_specs(random.Random(43), 40):
        rho, pres = verdict.retraction, verdict.data.presentation
        basis = rho.complement_basis
        assert len(basis) == pres.rank - 1
        assert all(sum(map(operator.mul, rho.functional, v)) == 0
                   for v in basis)
        stacked = ([list(verdict.a_squared)] + [list(v) for v in basis]
                   + [list(r) for r in pres.relations])
        diag = snf_diagonal(smith_normal_form(stacked)[1])
        assert diag.count(1) == pres.rank and set(diag) <= {0, 1}, \
            verdict.spec


def _in_h(group, a, b, g):
    """Whether g = a^n b^e for some integers n and e, read on a factor where
    a translates (and b, which inverts a, reflects)."""
    i = next(j for j, x in enumerate(a) if isinstance(x, DihedralElement)
             and x.translation and not x.flip)
    p, s = a[i].translation, b[i].translation
    t, e = g[i].translation, g[i].flip
    if (t - s * e) % p:
        return False
    return group.mul(group.pow(a, (t - s * e) // p), group.pow(b, e)) == g


def _word_value(group, word, images):
    """The value of a (generator, exponent) word at the given images."""
    value = group.identity
    for name, e in word:
        value = group.mul(value, group.pow(images[name], e))
    return value


def test_random_retractions_are_exact_retractions_onto_h():
    # rho on G's generators, checked exactly: each image is a^t or a^t b;
    # the images satisfy G's defining relations, b_j^2 = (a_j b_j)^2 = 1,
    # c_j^k = 1 and commuting factors; and at them the words of a and b
    # evaluate to a and b, so rho is a homomorphism fixing H
    verdicts = _random_retract_specs(random.Random(41), 60)
    shapes = set()
    for verdict in verdicts:
        spec, rho = verdict.spec, verdict.retraction
        group = spec.group
        one, a, b = group.identity, spec.h_a, spec.h_b
        images = {name: rho.apply(group.generator_element(name))
                  for name in group.generators}
        for name, image in images.items():
            assert _in_h(group, a, b, image), (spec, name)
        for j, f in enumerate(spec.factors, 1):
            if isinstance(f, DInf):
                ra, rb = images[f"a{j}"], images[f"b{j}"]
                assert group.mul(rb, rb) == one, (spec, j)
                assert group.pow(group.mul(ra, rb), 2) == one, (spec, j)
            elif isinstance(f, ZedMod):
                assert group.pow(images[f"c{j}"], f.modulus) == one, (spec, j)
        for x, y in combinations(images, 2):
            if group.generators[x] != group.generators[y]:
                assert group.mul(images[x], images[y]) == \
                    group.mul(images[y], images[x]), (spec, x, y)
        assert _word_value(group, spec.a_word, images) == a, spec
        assert _word_value(group, spec.b_word, images) == b, spec
        if any(isinstance(x, DihedralElement) and x.flip for x in a):
            shapes.add("reflection in a")
        names = [name for name, _ in spec.a_word + spec.b_word]
        if len(set(names)) < len(names):
            shapes.add("unreduced word")
    assert shapes == {"reflection in a", "unreduced word"}


def test_witness_at_c_rank_10_decides_quickly():
    # the split of a^2 visits only its 5 nonzero components of 1024, and the
    # witness DAG (about 4^10 nodes) is built only when the lhs is read
    t0 = time.perf_counter()
    spec = validate_spec(GroupSpec([DInf()] * 5, "b1*b2*b3*b4*b5",
                                   "a1^3*a2^5*a3^7*a4^9*a5^2"))
    verdict = analyze(spec)
    elapsed = time.perf_counter() - t0
    assert verdict.kind == "not-verbally-closed"
    assert len(verdict.report.components) == 1024
    assert sorted(w.content for w in verdict.report.components
                  if w.content) == [2, 3, 5, 7, 9]
    assert verdict.certificate.is_valid()
    assert elapsed < 10.0, elapsed


def test_g_solution_matches_paper_assignment():
    spec = spec4()
    data = square_data(spec)
    verdict = analyze(spec)
    sol = verdict.solution
    group = spec.group
    assert sol["x1"] == group.generator_element("a1")
    assert sol["x2"] == group.generator_element("b1")
    assert sol["x3"] == group.generator_element("a2")
    assert sol["x4"] == group.generator_element("b2")
    nontrivial = {k: v for k, v in sol.items()
                  if k.startswith("y") and v != group.identity}
    assert set(nontrivial.values()) == {group.generator_element("a1"),
                                        group.generator_element("a2")}


def test_verify_solution_rejects_wrong_assignments():
    spec = spec4()
    verdict = analyze(spec)
    eq = verdict.equation
    group = spec.group
    all_identity = {name: group.identity for name in eq.variables()}
    perturbed = dict(verdict.solution)
    # swap the two square roots
    ys = [k for k, v in perturbed.items()
          if k.startswith("y") and v != group.identity]
    perturbed[ys[0]], perturbed[ys[1]] = perturbed[ys[1]], perturbed[ys[0]]
    for check in (verify_solution_in_G, verify_solution_closed_form):
        assert not check(eq, all_identity, spec)
        assert not check(eq, perturbed, spec)


def test_verify_solution_needs_only_the_live_variables():
    # the towers of zero-content characters are raised to the filler 0, so
    # their y-variables are never read; every other variable still is
    spec = spec4()
    verdict = analyze(spec)
    eq = verdict.equation
    live, dead = [], []
    for ci in range(eq.c_size):
        (live if ci in eq.contents else dead).append(y_var(ci))
    partial = {name: value for name, value in verdict.solution.items()
               if name not in dead}
    for check in (verify_solution_in_G, verify_solution_closed_form):
        assert check(eq, partial, spec)
        for name in ["x1", "x4", live[0], live[-1]]:
            missing = {k: v for k, v in partial.items() if k != name}
            with pytest.raises(UnboundGenerator):
                check(eq, missing, spec)


def _reads(eq, assignment, spec, check):
    """The variables that check reads from assignment, in order."""
    read = []

    class Recorder(dict):
        def __getitem__(self, name):
            read.append(name)
            return super().__getitem__(name)

    check(eq, Recorder(assignment), spec)
    return read


def test_closed_form_reads_the_variables_in_evaluation_order():
    for filler in (0, 2):
        verdict = analyze(all_factor_types_spec(), filler=filler)
        eq, spec = verdict.equation, verdict.spec
        assert (_reads(eq, verdict.solution, spec,
                       verify_solution_closed_form)
                == _reads(eq, verdict.solution, spec, verify_solution_in_G))


@pytest.mark.parametrize("seed", [101, 102, 103, 104])
def test_closed_form_agrees_on_the_check_witnesses(seed):
    witnesses = 0
    for text in workload_specs("check", seed):
        spec = validate_spec(GroupSpec.from_text(text))
        for filler in (0, 2):
            verdict = analyze(spec, filler=filler)
            if verdict.is_retract:
                break
            witnesses += 1
            eq, solution = verdict.equation, verdict.solution
            assert verify_solution_closed_form(eq, solution, spec)
            assert verify_solution_in_G(eq, solution, spec)
            assert (lhs_value_in_closed_form(eq, solution, spec)
                    == eq.lhs_value(solution, spec.group.ops))
    assert witnesses == 12


# witness specs over every factor type, with a torsion coordinate of each
# kind: odd, even, and trivial (ZedMod(1), ZedMod(2))
CLOSED_FORM_SPECS = [
    ([DInf(), DInf()], "b1*b2", "a1^3*a2^5"),
    ([DInf(), ZedMod(4), DInf(), Zed()], "b1*b3", "a1^3*c2^2*a3^5"),
    ([DInf(), ZedMod(3), ZedMod(2), ZedMod(1), Zed(), DInf()], "b1*b6*c3",
     "a1^4*a6^9"),
    ([Zed(), DInf(), ZedMod(6)], "a2*b2", "a2^2*c3^3"),
]


@pytest.mark.parametrize("factors, b, a", CLOSED_FORM_SPECS,
                         ids=["-".join(map(str, f))
                              for f, _, _ in CLOSED_FORM_SPECS])
def test_closed_form_value_is_the_evaluated_value(factors, b, a):
    # random x's and y's, so the characters that the x's select and the
    # coordinates that survive vary; torsion 1 and random exponents, so
    # the torsion coordinates survive too
    spec = validate_spec(GroupSpec(factors, b, a))
    group = spec.group
    m = analyze(spec).equation.c_rank
    rng = random.Random(f"{b}:{a}")
    nontrivial = set()
    for _ in range(40):
        torsion, filler = rng.choice((1, 3)), rng.choice((0, 2, -5))
        ks = [rng.choice((0, 0, 3, -4, 7)) for _ in range(1 << m)]
        eq = Equation(c_rank=m, torsion_order=torsion, filler=filler,
                      contents={ci: k for ci, k in enumerate(ks) if k})
        assignment = {name: group.random_element(rng, 5)
                      for name in eq.variables()}
        value = eq.lhs_value(assignment, group.ops)
        assert lhs_value_in_closed_form(eq, assignment, spec) == value
        nontrivial.update(j for j, (f, x) in enumerate(zip(factors, value))
                          if x != f.identity)
    # 2^(2^m) kills a coordinate of even order
    assert nontrivial == {j for j, f in enumerate(factors)
                          if f.q_order is None or f.q_order % 2
                          and f.q_order > 1}


def _witness_tampers(verdict):
    """(name, assignment) for a wrong lift, a y moved to another
    character and each x with its flip toggled in a DInf factor."""
    spec, solution, eq = verdict.spec, verdict.solution, verdict.equation
    group = spec.group
    live = sorted(eq.contents)
    dead = [ci for ci in range(eq.c_size) if ci not in eq.contents]
    y = y_var(live[0])
    wrong_lift = dict(solution)
    wrong_lift[y] = group.mul(solution[y], solution[y])  # twice the lift
    moved = dict(solution)
    moved[y], moved[y_var(dead[0])] = group.identity, solution[y]
    out = [("wrong lift", wrong_lift), ("moved y", moved)]
    for j, f in enumerate(spec.factors):
        if isinstance(f, DInf):
            flip = group.generator_element(f"b{j + 1}")
            for i in range(eq.c_rank):
                toggled = dict(solution)
                toggled[f"x{i + 1}"] = group.mul(solution[f"x{i + 1}"], flip)
                out.append((f"x{i + 1} flip in factor {j + 1}", toggled))
    return out


@pytest.mark.parametrize("factors, b, a", CLOSED_FORM_SPECS[:2],
                         ids=["-".join(map(str, f))
                              for f, _, _ in CLOSED_FORM_SPECS[:2]])
def test_closed_form_rejects_tampered_solutions(factors, b, a):
    verdict = analyze(validate_spec(GroupSpec(factors, b, a)))
    spec, eq = verdict.spec, verdict.equation
    for name, assignment in _witness_tampers(verdict):
        assert not verify_solution_closed_form(eq, assignment, spec), name
        assert not verify_solution_in_G(eq, assignment, spec), name


@pytest.mark.parametrize("level", [0, 1, -1])
def test_closed_form_rejects_a_wrong_level_sign(monkeypatch, level):
    # a tower whose sign at one level disagrees with its character sends
    # every coordinate to 0 there
    verdict = analyze(spec4())
    eq, spec = verdict.equation, verdict.spec
    assert verify_solution_closed_form(eq, verdict.solution, spec)
    levels = ambient._levels

    def tampered(index, m):
        out = list(levels(index, m))
        e, sign = out[level]
        out[level] = e, -sign
        return iter(out)

    monkeypatch.setattr(ambient, "_levels", tampered)
    assert not verify_solution_closed_form(eq, verdict.solution, spec)


def test_closed_form_evaluates_a_given_lhs():
    verdict = analyze(spec4())
    spec, eq = verdict.spec, verdict.equation
    given = parse_equation(serialize_equation(eq))
    assert verify_solution_closed_form(given, verdict.solution, spec)
    all_identity = {name: spec.group.identity for name in eq.variables()}
    assert not verify_solution_closed_form(given, all_identity, spec)


def test_a_zero_content_under_filler_0_is_a_dead_term():
    # with filler 0, a zero entry of `contents` gives its term the exponent
    # 0: it is no live term, so no valuation reads its variables, and the
    # equation has the value of the one without the entry
    spec = GroupSpec([Zed()], "t1", "t1")
    eq = Equation(c_rank=1, torsion_order=1, filler=0, contents={1: 0})
    assert list(eq.live_terms()) == [] and eq.used_exponent(1) == 0
    ops = spec.group.ops
    assert eq.lhs_value({}, ops) == spec.group.identity
    assert lhs_value_in_closed_form(eq, {}, spec) == spec.group.identity
    live = Equation(c_rank=1, torsion_order=1, filler=0, contents={0: 3, 1: 0})
    alone = Equation(c_rank=1, torsion_order=1, filler=0, contents={0: 3})
    assert list(live.live_terms()) == [(0, 3)]
    assignment = {x_var(0): (1,), y_var(0): (5,)}
    value = alone.lhs_value(assignment, ops)
    assert value != spec.group.identity
    assert live.lhs_value(assignment, ops) == value
    assert lhs_value_in_closed_form(live, assignment, spec) == value


def test_a_parsed_equation_is_valued_from_its_dag_not_its_header():
    # a (k ...) header line that no longer matches the nodes changes no
    # value: a WordEquation is valued from its DAG, while the recipe with
    # the header's content would fail
    verdict = analyze(spec4())
    spec, eq, solution = verdict.spec, verdict.equation, verdict.solution
    text = serialize_equation(eq)
    ci = min(eq.contents)
    ks = list(eq.k_values)
    ks[ci] += 2
    header = f"  (k{''.join(' ' + str(k) for k in eq.k_values)})\n"
    assert text.count(header) == 1
    parsed = parse_equation(text.replace(
        header, f"  (k{''.join(' ' + str(k) for k in ks)})\n"))
    assert parsed.k_values == tuple(ks) != eq.k_values
    assert verify_solution_closed_form(parsed, solution, spec)
    assert verify_solution_in_G(parsed, solution, spec)
    changed = replace(eq, contents={**eq.contents, ci: ks[ci]})
    assert not verify_solution_closed_form(changed, solution, spec)


def test_c_rank_22_witness_holds_no_table_of_its_characters(monkeypatch):
    # [DInf]*11 has 2^22 characters and 11 nonzero contents: the recipe and
    # its certificate hold the contents, and one row each, not a 2^22
    # table (64.5 MB and a 12,583,031-character repr when they did)
    n = 11
    spec = validate_spec(GroupSpec(
        [DInf()] * n, "*".join(f"b{i + 1}" for i in range(n)),
        "*".join(f"a{i + 1}^{2 * i + 3}" for i in range(n))))
    data = square_data(spec)
    report = data.module.is_simple(image_of_a_squared(spec, data))
    for module in (involutions, dihedral):
        monkeypatch.setattr(module, "enumerate_group_elements", None)
    tracemalloc.start()
    try:
        eq = build_witness_equation(report, 1, 1, data.c_rank)
        cert = certify_no_solution(eq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert eq.c_rank == 22 and len(eq.contents) == n
    assert len(cert.listed) == n and cert.remainder == (1 << 22) - n
    assert len(repr(eq)) < 2000
    # with filler 0 each value reads the levels of the live towers only (a
    # dead tower's y is unassigned, and reading it raises).  The x's are
    # the identity and each live y is a, nonzero in all n coordinates:
    # `lhs_value` reads one tower per live term, the closed form one
    # `_levels` per live term and coordinate, and each stops at once
    levels = [count_calls(monkeypatch, module, "_levels")
              for module in (words, ambient)]
    group = spec.group
    assignment = {x_var(j): group.identity for j in range(eq.c_rank)}
    assignment.update((y_var(ci), spec.h_a) for ci in eq.contents)
    assert eq.lhs_value(assignment, group.ops) == group.identity
    assert lhs_value_in_closed_form(eq, assignment, spec) == group.identity
    assert [len(calls) for calls in levels] == [n, n * n]


def test_closed_form_at_c_rank_16_is_quick(monkeypatch):
    # evaluating the 8 live towers through all 2^16 levels, on integers of
    # up to 2^16 bits, took about 19 s
    n = 8
    spec = validate_spec(GroupSpec(
        [DInf()] * n, "*".join(f"b{i + 1}" for i in range(n)),
        "*".join(f"a{i + 1}^{2 * i + 3}" for i in range(n))))
    verdict = analyze(spec)
    calls = [count_calls(monkeypatch, AmbientGroup, name)
             for name in ("mul", "inv")]
    t0 = time.perf_counter()
    assert verify_solution_closed_form(verdict.equation, verdict.solution,
                                       spec)
    elapsed = time.perf_counter() - t0
    assert calls == [[], []]
    assert elapsed < 2.0, elapsed


def test_the_package_has_no_square_root_error():
    # a witness has one square per character, and every element of Q is the
    # square of one factor-wise power, so no element lacks a square root
    import verbalclosure
    assert not hasattr(verbalclosure, "NoSquareRoot")
    assert not hasattr(verbalclosure.ambient, "NoSquareRoot")


def test_retraction_projection_case():
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1", "a1"))
    verdict = analyze(spec)
    rho = verdict.retraction
    group = spec.group
    # the retraction is the projection onto the first factor
    rng = random.Random(9)
    for _ in range(100):
        g = group.random_element(rng, 20)
        expect = (g[0], DihedralElement(0, 0))
        assert rho.apply(g) == expect


def test_retraction_kills_zed_factor():
    spec = validate_spec(GroupSpec([DInf(), Zed()], "b1", "a1"))
    verdict = analyze(spec)
    t1 = spec.group.generator_element("t2")
    assert verdict.retraction.apply(t1) == spec.group.identity
    assert verify_retraction(verdict.retraction, spec, samples=300, bound=25,
                             seed=4)


def test_retraction_with_torsion_factors():
    for factor in (ZedMod(3), ZedMod(4)):
        spec = validate_spec(GroupSpec([DInf(), factor], "b1", "a1"))
        verdict = analyze(spec)
        assert verdict.is_retract
        assert verify_retraction(verdict.retraction, spec, samples=300,
                                 bound=25, seed=5)


def test_verify_retraction_rejects_broken_map():
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1", "a1"))
    verdict = analyze(spec)
    rho = verdict.retraction
    broken = type(rho)(spec=spec, data=rho.data,
                       sign_character=rho.sign_character,
                       functional=tuple(2 * x for x in rho.functional))
    assert not verify_retraction(broken, spec, samples=50, bound=10, seed=0)

    class Collapse:
        def apply(self, g):
            return spec.group.identity

    assert not verify_retraction(Collapse(), spec, samples=10, bound=5,
                                 seed=0)


def test_verify_retraction_tests_idempotence_on_its_own():
    # a rho whose images are a true retraction's, so every homomorphism
    # comparison passes, but whose a^t·b^s on the factors it reads is
    # a^(t+1)·b^s there, not the element that image reads as (t, s): only
    # rho(rho(g)) = rho(g) fails
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1*a2^5"))
    rho = analyze(spec).retraction
    elements = []

    class Shifted:
        apply, reads, image_on_reads = rho.apply, rho.reads, rho.image_on_reads

        def element_on_reads(self, t, s):
            elements.append((t, s))
            return rho.element_on_reads(t + 1, s)

    assert verify_retraction(rho, spec, samples=50, bound=20, seed=2)
    assert not verify_retraction(Shifted(), spec, samples=50, bound=20,
                                 seed=2)
    assert len(elements) == 1  # the first sample's idempotence comparison


# Retract specs shaped like the benchmark's generated family: a reflection
# shift a_i^s * b_i in b, and the involution c_j^(k/2) of an even ZedMod
# factor in a or b
APPLY_SPECS = [
    ([DInf(), DInf()], "a1^2*b1*b2", "a1^3*a2^-1"),
    ([DInf(), Zed()], "a1^-3*b1", "a1^-1"),
    ([DInf(), ZedMod(5)], "b1", "a1"),
    ([DInf(), ZedMod(6)], "a1^2*b1*c2^3", "a1*c2^3"),
    ([DInf(), DInf(), ZedMod(4)], "a1*b1*a2^-3*b2*c3^2", "a1^5*a2^-1"),
    ([DInf(), Zed(), ZedMod(3), ZedMod(8)], "a1^4*b1*c4^4", "a1^-1*c4^4"),
    ([DInf(), DInf(), DInf()], "b1*a2*b2*b3", "a1^3*a2*a3^-7"),
    ([Zed(), DInf(), ZedMod(2), DInf()], "b2*c3*a4^-2*b4", "a2^7*a4"),
]


def reference_translation(rho, x):
    """The functional on the Q-coordinates of x^2, read as a whole element."""
    group = rho.spec.group
    coords = rho.data.q_coordinates(group.mul(x, x))
    return sum(l * c for l, c in zip(rho.functional, coords))


def reference_apply(rho, g):
    """rho(g) composed from whole-element maps: the sign of g's coset under
    the witness character, and `reference_translation`."""
    spec, data = rho.spec, rho.data
    group = spec.group
    if rho.sign_character.on_element(data.coset_bits(g)) == 1:
        return group.pow(spec.h_a, reference_translation(rho, g))
    shifted = group.mul(g, spec.h_b)
    return group.mul(group.pow(spec.h_a, reference_translation(rho, shifted)),
                     spec.h_b)


@pytest.mark.parametrize("factors, b, a", APPLY_SPECS,
                         ids=["-".join(map(str, f)) for f, _, _ in APPLY_SPECS])
def test_retraction_apply_matches_the_composed_reference(factors, b, a):
    spec = validate_spec(GroupSpec(factors, b, a))
    verdict = analyze(spec)
    assert verdict.is_retract
    rho = verdict.retraction
    group = spec.group
    rng = random.Random(f"{b}:{a}")
    signs = set()
    for _ in range(500):
        g = group.random_element(rng, 40)
        assert rho.apply(g) == reference_apply(rho, g)
        signs.add(rho.sign_character.on_element(verdict.data.coset_bits(g)))
    assert signs == {1, -1}  # both branches of apply were compared


@pytest.fixture(scope="module")
def wide_retracts():
    """(spec, retraction) of DInf with 200 Zed and of 64 DInf, the wide
    Retracts of CI; each retraction reads its first factor alone."""
    cases = [
        ([DInf()] + [Zed()] * 200, "b1", "a1"),
        ([DInf()] * 64, "*".join(f"b{i}" for i in range(1, 65)),
         "*".join(["a1"] + [f"a{i}^{2 * i + 1}" for i in range(2, 65)])),
    ]
    specs = [validate_spec(GroupSpec(*case)) for case in cases]
    return [(spec, analyze(spec).retraction) for spec in specs]


@pytest.mark.parametrize("samples", [0, 1, 7, 60])
def test_verify_retraction_makes_one_product_per_sample(monkeypatch,
                                                        wide_retracts,
                                                        samples):
    # image reads rho.reads alone, one factor here, so a sample forms g,
    # h, gh and rho(g) there only: one product of that factor's per sample
    # for gh, no product or power in G, and no element drawn or built on
    # any other factor, however many there are.  rho binds its own
    # arithmetic when it is built, so the counters see the check's draws
    # and products
    for spec, rho in wide_retracts:
        assert rho.reads == (0,)
        group_ops = [count_calls(monkeypatch, AmbientGroup, name)
                     for name in ("mul", "pow", "random_element")]
        draws = [count_calls(monkeypatch, cls, "random_element")
                 for cls in (DInf, Zed)]
        products = [count_calls(monkeypatch, cls, "mul")
                    for cls in (DInf, Zed)]
        powers = count_calls(monkeypatch, Zed, "pow")
        elements = count_calls(monkeypatch, DihedralElement, "__init__")
        assert verify_retraction(rho, spec, samples=0, bound=100, seed=3)
        fixed = len(elements)  # rho(a) and rho(b), whole elements
        assert verify_retraction(rho, spec, samples=samples, bound=100,
                                 seed=3)
        assert [len(calls) for calls in group_ops] == [0, 0, 0]
        assert [len(calls) for calls in draws] == [2 * samples, 0]
        assert [len(calls) for calls in products] == [samples, 0]
        assert powers == []
        # per sample g, h, gh, a^t and a^t·b, and one g·b per image in
        # chi's odd branch
        assert len(elements) - 2 * fixed <= 9 * samples
        monkeypatch.undo()


def tampered(rho, **changes):
    """rho with its functional or sign character replaced."""
    fields = dict(spec=rho.spec, data=rho.data,
                  sign_character=rho.sign_character,
                  functional=rho.functional)
    fields.update(changes)
    return type(rho)(**fields)


def _tampered_copies(rho):
    """rho with the functional doubled, with a coefficient put where the
    functional is 0, and with each letter's sign flipped in the sign
    character.  apply reads the functional only where it is nonzero, so a
    coefficient put where the true one is 0 must be read, and rejected.  A
    factor whose Q coordinate is trivial (ZedMod(1), ZedMod(2)) reads 0
    from every square, so a coefficient there changes nothing, and none is
    put there."""
    copies = [tampered(rho, functional=tuple(2 * l for l in rho.functional))]
    for j, (f, l) in enumerate(zip(rho.spec.factors, rho.functional)):
        if not l and f.q_order != 1:
            functional = list(rho.functional)
            functional[j] = 1
            copies.append(tampered(rho, functional=tuple(functional)))
    signs = rho.sign_character.signs
    for i in range(len(signs)):
        flipped = signs[:i] + (-signs[i],) + signs[i + 1:]
        copies.append(tampered(
            rho, sign_character=type(rho.sign_character)(flipped)))
    return copies


@pytest.mark.parametrize("factors, b, a", APPLY_SPECS,
                         ids=["-".join(map(str, f)) for f, _, _ in APPLY_SPECS])
def test_verify_retraction_rejects_a_tampered_functional_or_sign(factors, b,
                                                                 a):
    spec = validate_spec(GroupSpec(factors, b, a))
    rho = analyze(spec).retraction
    assert verify_retraction(rho, spec, samples=300, bound=25, seed=1)
    for broken in _tampered_copies(rho):
        assert not verify_retraction(broken, spec, samples=300, bound=25,
                                     seed=1), (broken.functional,
                                               broken.sign_character)


def _record_draws(monkeypatch):
    """Make random.Random record the k of each of its getrandbits(k) calls,
    for the rest of the test; returns the list they are appended to."""
    calls = []

    class Recording(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Recording)
    return calls


def _check_against_the_reference(calls, rho, spec, **sampling):
    """verify_retraction's bool, asserting that it and the reference in G
    return the same bool after the same getrandbits calls."""
    calls.clear()
    got = verify_retraction(rho, spec, **sampling)
    drawn = calls[:]
    calls.clear()
    want = reference_verify_retraction(rho, spec, **sampling)
    assert (got, drawn) == (want, calls), (spec, rho.functional,
                                           rho.sign_character)
    return got


def test_verify_retraction_matches_the_reference_in_g(monkeypatch):
    # comparing exponent pairs in H, on the factors rho reads, keeps every
    # comparison's truth value, tampered maps included: the same bool as
    # the reference that compares whole elements of G, after the same
    # draws, on true and broken retractions alike, and on broken ones that
    # fix a and b, so fail inside the sampling loop
    verdicts = [analyze(validate_spec(GroupSpec(factors, b, a)))
                for factors, b, a in APPLY_SPECS]
    verdicts += _random_retract_specs(random.Random(47), 20)
    calls = _record_draws(monkeypatch)
    outcomes, failed_in_loop = set(), 0
    for verdict in verdicts:
        spec, rho = verdict.spec, verdict.retraction
        for candidate in [rho] + _tampered_copies(rho):
            for seed in range(4):
                got = _check_against_the_reference(
                    calls, candidate, spec, samples=50, bound=100, seed=seed)
                outcomes.add(got)
                failed_in_loop += (not got
                                   and candidate.apply(spec.h_a) == spec.h_a
                                   and candidate.apply(spec.h_b) == spec.h_b)
    assert outcomes == {True, False} and failed_in_loop


# Retracts that read one factor, whose unread factors take every shape of
# draw: a DInf's two, a Zed's, ZedMod(1), ZedMod(2), odd and even ZedMods
# and moduli past 2^32, before and after the factor read
STREAM_SPECS = [
    ([DInf(), DInf()], "b1", "a1"),
    ([Zed(), DInf(), Zed()], "b2", "a2"),
    ([DInf(), ZedMod(1), ZedMod(2), ZedMod(5)], "b1", "a1"),
    ([ZedMod(3), DInf(), ZedMod(2 ** 40 + 7), ZedMod(2 ** 33 + 2)],
     f"b2*c4^{2 ** 32 + 1}", "a2"),
]


@pytest.mark.parametrize("bound", [0, 100, 2 ** 40 + 3])
@pytest.mark.parametrize("factors, b, a", STREAM_SPECS,
                         ids=["-".join(map(str, f)) for f, _, _ in STREAM_SPECS])
def test_verify_retraction_skips_the_unread_draws_bit_for_bit(
        monkeypatch, factors, b, a, bound):
    # an unread factor builds no element but makes its draws' getrandbits
    # calls, so the true map and each tampered one, whose reads differ,
    # see the samples of the reference, which draws every factor whole.
    # A bound past 2^32 makes each translation draw take two 32-bit words
    spec = validate_spec(GroupSpec(factors, b, a))
    rho = analyze(spec).retraction
    assert len(rho.reads) == 1
    calls = _record_draws(monkeypatch)
    widest = 0
    for candidate in [rho] + _tampered_copies(rho):
        for seed in range(3):
            _check_against_the_reference(calls, candidate, spec, samples=30,
                                         bound=bound, seed=seed)
            widest = max([widest, *calls])
    # every modulus was drawn, past 32 bits where one is
    assert widest == max(n.bit_length() for f in factors
                         for n in f.draw_moduli(bound))


def test_verdict_invariance_under_factor_reorder_and_inverse():
    cases = [
        ("b1*b2", "a1^3*a2^5"),
        ("b1*b2", "a1*a2^5"),
        ("b1*b2", "a1^2*a2^3"),
    ]
    for b, a in cases:
        base = analyze(validate_spec(GroupSpec([DInf(), DInf()], b, a))).kind
        # swap the two factors (rename generators 1 <-> 2)
        swapped_b = b.replace("b1", "bX").replace("b2", "b1").replace("bX", "b2")
        swapped_a = a.replace("a1", "aX").replace("a2", "a1").replace("aX", "a2")
        k2 = analyze(validate_spec(
            GroupSpec([DInf(), DInf()], swapped_b, swapped_a))).kind
        assert k2 == base
        # replace a by its inverse
        inv_a = "*".join(f"{name}^{-e}" for name, e in parse_word(a))
        k3 = analyze(validate_spec(GroupSpec([DInf(), DInf()], b, inv_a))).kind
        assert k3 == base


def test_simple_iff_retraction_builds():
    rng = random.Random(19)
    for _ in range(20):
        p = rng.randint(-5, 5)
        q = rng.randint(-5, 5)
        if p == 0 and q == 0:
            continue
        a = f"a1^{p}*a2^{q}" if q else f"a1^{p}"
        if p == 0:
            a = f"a2^{q}"
        spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", a))
        data = square_data(spec)
        rep = data.module.is_simple(image_of_a_squared(spec, data))
        if rep.simple:
            rho = build_retraction(spec, data, image_of_a_squared(spec, data),
                                   rep.witness_character)
            assert rho.apply(spec.h_a) == spec.h_a
        else:
            verdict = analyze(spec)
            assert verdict.kind == "not-verbally-closed"

