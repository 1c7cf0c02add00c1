"""Tests for ambient groups, spec parsing, and the analyzer pipeline."""

import contextlib
import random
import sys
import time
from argparse import Namespace
from fractions import Fraction
from itertools import compress

import pytest

from verbalclosure.ambient import (
    AmbientGroup,
    DInf,
    GroupSpec,
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
    parse_factor,
    parse_word,
    square_data,
    validate_spec,
    verify_retraction,
    verify_solution_in_G,
    word_to_text,
)
from verbalclosure.cli import build_report
from verbalclosure.dihedral import DihedralElement
from verbalclosure.lattice import (
    AbelianPresentation,
    Lattice,
    eye,
    mat_mul,
    mat_vec,
    vec_sub,
)
from verbalclosure.words import UnboundGenerator, y_var

from util import count_calls, dag_nodes, randint_element


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
    assert word_to_text((("a1", 3), ("b1", 1))) == "a1^3*b1"
    assert word_to_text(()) == "1"


def test_parse_factor():
    assert parse_factor("DInf") == DInf()
    assert parse_factor("Zed") == Zed()
    assert parse_factor("ZedMod(6)") == ZedMod(6)
    with pytest.raises(SpecParseError):
        parse_factor("Free")


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


def test_trivial_coordinates_validate_exactly(monkeypatch):
    # every action squares to I as an integer matrix, so validation tests
    # only that each action preserves each relation: one membership test
    # per action per relation, with a trivial coordinate as with ZedMod(4)
    calls = count_calls(monkeypatch, AbelianPresentation, "in_relation_lattice")
    for last in (ZedMod(2), ZedMod(4)):
        calls.clear()
        square_data(validate_spec(GroupSpec([DInf(), DInf(), last],
                                            "b1*b2", "a1^3*a2^5")))
        assert len(calls) == 5, last


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
    assert sorted(k for k in eq.k_values if k) == [3, 5]
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
    # form by one product, so a Retract makes one solve at every rank
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


def test_build_retraction_checks_the_commutators(monkeypatch):
    # (-4, 1) sends a^2 = (1, 5) to 1 but the commutator of the lifts a2
    # and b2, which is a2^2 in the second factor, to 1 as well, so the
    # kernel subgroup is not abelian modulo the kernel of (-4, 1)
    spec = _dinf_spec(2, 1)
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    chi = data.module.is_simple(a_sq).witness_character
    basis, lam = data.module._complement_data(a_sq, chi)
    assert lam == (1, 0)
    monkeypatch.setattr(data.module, "_complement_data",
                        lambda q, chi: (basis, (-4, 1)))
    with pytest.raises(AssertionError, match="not abelian"):
        build_retraction(spec, data, a_sq, chi)


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
    assert not verify_solution_in_G(eq, all_identity, spec)
    perturbed = dict(verdict.solution)
    # swap the two square roots
    ys = [k for k, v in perturbed.items()
          if k.startswith("y") and v != group.identity]
    perturbed[ys[0]], perturbed[ys[1]] = perturbed[ys[1]], perturbed[ys[0]]
    assert not verify_solution_in_G(eq, perturbed, spec)


def test_verify_solution_needs_only_the_live_variables():
    # the towers of zero-content characters are raised to the filler 0, so
    # their y-variables are never read; every other variable still is
    spec = spec4()
    verdict = analyze(spec)
    eq = verdict.equation
    live, dead = [], []
    for ci, k in enumerate(eq.k_values):
        (live if k else dead).append(y_var(ci))
    partial = {name: value for name, value in verdict.solution.items()
               if name not in dead}
    assert verify_solution_in_G(eq, partial, spec)
    for name in ["x1", live[0]]:
        missing = {k: v for k, v in partial.items() if k != name}
        with pytest.raises(UnboundGenerator):
            verify_solution_in_G(eq, missing, spec)


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
                       functional=tuple(2 * x for x in rho.functional),
                       complement_basis=rho.complement_basis,
                       torsion_invariants=rho.torsion_invariants)
    assert not verify_retraction(broken, spec, samples=50, bound=10, seed=0)

    class Collapse:
        def apply(self, g):
            return spec.group.identity

    assert not verify_retraction(Collapse(), spec, samples=10, bound=5,
                                 seed=0)


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
    if data.sign_of(rho.sign_character, g) == 1:
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
        assert rho.translation_of(g) == reference_translation(rho, g)
        signs.add(verdict.data.sign_of(rho.sign_character, g))
    assert signs == {1, -1}  # both branches of apply were compared


@pytest.mark.parametrize("samples", [0, 1, 7, 60])
def test_verify_retraction_makes_two_products_per_sample(monkeypatch,
                                                         samples):
    # rho is applied factor by factor: the only products in G are the two
    # comparisons' gh and rho(g)rho(h)
    for factors, b, a in APPLY_SPECS:
        spec = validate_spec(GroupSpec(factors, b, a))
        rho = analyze(spec).retraction
        muls = count_calls(monkeypatch, AmbientGroup, "mul")
        pows = count_calls(monkeypatch, AmbientGroup, "pow")
        assert verify_retraction(rho, spec, samples=samples, bound=100,
                                 seed=3)
        assert (len(muls), len(pows)) == (2 * samples, 0), (b, a)
        monkeypatch.undo()


def tampered(rho, **changes):
    """rho with its functional or sign character replaced."""
    fields = dict(spec=rho.spec, data=rho.data,
                  sign_character=rho.sign_character,
                  functional=rho.functional,
                  complement_basis=rho.complement_basis,
                  torsion_invariants=rho.torsion_invariants)
    fields.update(changes)
    return type(rho)(**fields)


@pytest.mark.parametrize("factors, b, a", APPLY_SPECS,
                         ids=["-".join(map(str, f)) for f, _, _ in APPLY_SPECS])
def test_verify_retraction_rejects_a_tampered_functional_or_sign(factors, b,
                                                                 a):
    # apply reads the functional only where it is nonzero: a coefficient
    # put where the true one is 0 must be read, and rejected.  A factor
    # whose Q coordinate is trivial (ZedMod(1), ZedMod(2)) reads 0 from
    # every square, so a coefficient there changes nothing
    spec = validate_spec(GroupSpec(factors, b, a))
    rho = analyze(spec).retraction
    assert verify_retraction(rho, spec, samples=300, bound=25, seed=1)
    for j, (f, l) in enumerate(zip(spec.factors, rho.functional)):
        if l or f.q_order == 1:
            continue
        functional = list(rho.functional)
        functional[j] = 1
        broken = tampered(rho, functional=tuple(functional))
        assert not verify_retraction(broken, spec, samples=300, bound=25,
                                     seed=1), j
    # one letter's sign flipped in the sign character
    signs = rho.sign_character.signs
    for i in range(len(signs)):
        flipped = signs[:i] + (-signs[i],) + signs[i + 1:]
        broken = tampered(rho, sign_character=type(rho.sign_character)(flipped))
        assert not verify_retraction(broken, spec, samples=300, bound=25,
                                     seed=1), i


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
