"""Tests for infinite dihedral arithmetic and no-solution certificates."""

import os
import random
from dataclasses import replace
from itertools import cycle, islice, product

import pytest

from util import (
    canonical_coset_words,
    count_calls,
    evaluate_v_closed_form,
    full_certificate_rows,
    full_component_table,
)

from verbalclosure import dihedral, involutions
from verbalclosure.ambient import DInf, GroupSpec, analyze, validate_spec
from verbalclosure.dihedral import (
    A,
    B,
    DIHEDRAL_OPS,
    CertificateRow,
    DihedralElement,
    IDENTITY,
    InvalidEquation,
    NoSolutionCertificate,
    _row,
    below,
    certify_no_solution,
    character_of_substitution,
    draw_element,
    spot_check_no_solution,
)
from verbalclosure.involutions import (
    Character,
    InvolutionModule,
    c_bits,
    c_index,
    enumerate_characters,
    enumerate_group_elements,
)
from verbalclosure.lattice import AbelianPresentation
from verbalclosure.words import (
    Equation,
    Gen,
    build_v_chi,
    build_witness_equation,
    coset_words_of,
    evaluate,
    parse_equation,
    serialize_equation,
    skew_commutator,
)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def rand_elt(rng, bound=20):
    return DihedralElement(rng.randint(-bound, bound), rng.randint(0, 1))


def test_presentation_relations():
    assert B * B == IDENTITY
    assert B * A * B == A.inverse()
    assert A * A.inverse() == IDENTITY
    assert DihedralElement(3, 1) * DihedralElement(4, 1) == DihedralElement(-1, 0)


def test_group_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (rand_elt(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == IDENTITY
        assert x.inverse() * x == IDENTITY
        assert x * IDENTITY == x


def test_pow_and_canonical_form():
    rng = random.Random(2)
    for _ in range(50):
        x = rand_elt(rng)
        acc = IDENTITY
        for e in range(7):
            assert x ** e == acc
            acc = acc * x
        assert x ** -3 == (x.inverse()) ** 3
    assert repr(DihedralElement(2, 1)) == "a^2*b"
    assert repr(IDENTITY) == "1"


def test_character_of_substitution():
    assert character_of_substitution((0, 1, 0)) == Character((1, -1, 1))
    assert character_of_substitution(()) == Character(())
    # flip pattern i selects character i, which the certificate relies on
    for m in range(6):
        assert [character_of_substitution(d)
                for d in product((0, 1), repeat=m)] == enumerate_characters(m)


def test_skew_commutator_dihedral_law():
    # f(c, s, y) over D_inf with y a translation: doubles the exponent when
    # the conjugation sign of c matches s, cancels to 1 otherwise
    rng = random.Random(6)
    for _ in range(100):
        y = DihedralElement(2 * rng.randint(-10, 10), 0)
        c = rand_elt(rng)
        for s in (1, -1):
            w = skew_commutator(Gen("c"), s, Gen("y"))
            val = evaluate(w, {"c": c, "y": y}, DIHEDRAL_OPS)
            conj_sign = -1 if c.flip else 1
            if conj_sign == s:
                assert val == y * y
            else:
                assert val == IDENTITY


def test_closed_form_matches_dag_m2():
    m = 2
    coset_words = canonical_coset_words(m)
    rng = random.Random(12)
    for signs in product((1, -1), repeat=m):
        chi = Character(signs)
        v = build_v_chi(chi, coset_words)
        for delta in product((0, 1), repeat=m):
            for _ in range(10):
                ks = [rng.randint(-20, 20) for _ in range(m)]
                l = rng.randint(-20, 20)
                assignment = {f"x{j + 1}": DihedralElement(ks[j], delta[j])
                              for j in range(m)}
                assignment["y"] = DihedralElement(2 * l, 0)
                got = evaluate(v, assignment, DIHEDRAL_OPS)
                assert got == evaluate_v_closed_form(chi, delta, 2 * l)


def test_closed_form_selection():
    chi = Character((1, -1))
    assert evaluate_v_closed_form(chi, (0, 1), 6) == DihedralElement(6 << 4, 0)
    assert evaluate_v_closed_form(chi, (1, 1), 6) == IDENTITY
    assert evaluate_v_closed_form(chi, (0, 0), 6) == IDENTITY


def _witness_equation(filler=0, torsion=1):
    pres = AbelianPresentation(2, [])
    mod = InvolutionModule(pres, [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]])
    rep = mod.is_simple((2, 3))
    return build_witness_equation(rep, 1, torsion, 2, filler=filler)


def test_certificate_valid_and_table():
    eq = _witness_equation()
    cert = certify_no_solution(eq)
    assert cert.is_valid()
    assert len(cert.rows) == 4
    # one listed row per nonzero content, 2 and 3 at the matching flip
    # patterns, and the filler's row for the 2 others
    assert [(r.delta, r.effective_exponent) for r in cert.listed] == [
        ((0, 1), 3), ((1, 0), 2)]
    assert (cert.filler, cert.remainder) == (0, 2)
    table = cert.to_table().splitlines()
    assert len(table) == 3
    assert table[0].startswith("delta=(0,1)  chi(+-)  values in <a^")
    assert table[2] == ("every other delta (2)  values in {1}  "
                        f"obstruction: identity != a^{eq.rhs_exponent}")
    for r in cert.rows:
        if r.effective_exponent:
            assert r.subgroup_exponent == eq.rhs_exponent * r.effective_exponent
    filled = certify_no_solution(_witness_equation(filler=2))
    assert filled.is_valid()
    assert filled.to_table().splitlines()[2] == (
        f"every other delta (2)  values in <a^{2 * eq.rhs_exponent}>  "
        f"obstruction: a^{eq.rhs_exponent} not in <a^{2 * eq.rhs_exponent}> "
        "since 2*l = 1 has no integer solution")


def test_certificate_detects_tampering():
    eq = _witness_equation()
    cert = certify_no_solution(eq)
    cert.listed[0].target_exponent += 1
    assert not cert.is_valid()
    cert2 = certify_no_solution(eq)
    cert2.listed.pop()
    assert not cert2.is_valid()
    cert3 = certify_no_solution(eq)
    cert3.listed[0].subgroup_exponent += eq.rhs_exponent
    assert not cert3.is_valid()


@pytest.mark.parametrize("tamper", [
    "remainder+1", "remainder-1", "duplicated delta", "delta outside C",
    "filler 1", "filler -1", "filler 0 with rhs 0"])
def test_compact_certificate_detects_tampering(tamper):
    cert = certify_no_solution(_witness_equation())
    assert cert.is_valid()
    if tamper.startswith("remainder"):
        cert.remainder += 1 if tamper.endswith("+1") else -1
    elif tamper == "duplicated delta":
        # the count still adds up: a copy of a listed row stands in for a
        # pattern of the remainder
        cert.listed.append(replace(cert.listed[0]))
        cert.remainder -= 1
    elif tamper == "delta outside C":
        cert.listed[0].delta = (0, 1, 0)
    elif tamper.startswith("filler 0"):
        # every listed row restated for rhs 0; the remainder's values are 1,
        # which is the target 1 = a^0
        for row in cert.listed:
            row.target_exponent = row.subgroup_exponent = 0
        cert.rhs_exponent = 0
        cert.filler = 0
    else:
        cert.filler = int(tamper.split()[1])
    assert not cert.is_valid()


@pytest.mark.parametrize("remainder", [0, 1])
def test_certificate_rejects_target_a_to_the_0(remainder):
    # a^0 = 1 lies in every <a^(0*k)>, so the identity solves the equation,
    # whatever the rows' exponents and the filler
    listed = [_row((0,), 3, 0), _row((1,), 2, 0)][:2 - remainder]
    cert = NoSolutionCertificate(listed=listed, c_rank=1, rhs_exponent=0,
                                 filler=2, remainder=remainder)
    assert not cert.is_valid()
    for row in listed:
        row.target_exponent = 4
        row.subgroup_exponent = 4 * row.effective_exponent
    cert.rhs_exponent = 4
    assert cert.is_valid()


def test_derived_tables_match_the_full_loops():
    # report.components and cert.rows are built on read from the nonzero
    # components; they equal, field by field, the tables that one loop over
    # every character and every flip pattern makes
    for case in ("two_factor_witness", "zed_witness", "zedmod_witness",
                 "rank6_verify"):
        with open(os.path.join(GOLDEN, case + ".spec")) as fh:
            spec = GroupSpec.from_text(fh.read())
        for filler in (0, 2):
            verdict = analyze(spec, filler=filler)
            m = verdict.data.c_rank
            components = verdict.report.components
            assert len(components) == 1 << m
            assert components == full_component_table(verdict.data.module,
                                                       verdict.a_squared)
            rows = verdict.certificate.rows
            assert len(rows) == 1 << m
            assert rows == full_certificate_rows(verdict.equation), (case,
                                                                    filler)


def test_certificate_rejects_unit_exponent():
    eq = _witness_equation()
    hacked = replace(eq, contents={**eq.contents, 0: 1})
    with pytest.raises(InvalidEquation):
        certify_no_solution(hacked)
    # a unit filler stands for every vanishing character's exponent
    eq.filler = 1
    with pytest.raises(InvalidEquation):
        certify_no_solution(eq)


def test_a_zero_content_takes_the_filler_in_the_certificate():
    # a zero entry of `contents` is not a row of effective exponent 0: its
    # term has the filler as exponent, as in `used_exponent`, `lhs_value`
    # and the written file.  With a unit filler the equation is solvable
    eq = Equation(c_rank=1, torsion_order=1, filler=1, contents={0: 0, 1: 0})
    assert [eq.used_exponent(i) for i in range(2)] == [1, 1]
    assert not spot_check_no_solution(eq, 10, 200)
    with pytest.raises(InvalidEquation):
        certify_no_solution(eq)
    eq = Equation(c_rank=1, torsion_order=1, filler=2, contents={1: 0})
    cert = certify_no_solution(eq)
    assert cert.is_valid()
    assert (cert.listed, cert.remainder, eq.used_exponent(1)) == ([], 2, 2)
    assert cert.to_table() == (
        "every other delta (2)  values in <a^16>  obstruction: a^8 not in "
        "<a^16> since 2*l = 1 has no integer solution")


@pytest.mark.parametrize("m", range(7))
def test_every_reader_numbers_c_by_c_bits(monkeypatch, m):
    # elements, characters, coset words, certificate rows and the spot
    # check's flip patterns all number C by c_bits and c_index
    size = 1 << m
    elements = enumerate_group_elements(m)
    characters = enumerate_characters(m)
    coset_words = coset_words_of(m)
    for e in range(size):
        bits = c_bits(e, m)
        assert len(bits) == m and c_index(bits) == e
        assert elements[e] == bits
        assert characters[e].index == e
        assert characters[e].signs == tuple(-1 if b else 1 for b in bits)
        assert coset_words[e] == tuple(j for j in range(m) if bits[j])
    eq = Equation(c_rank=m, torsion_order=1, filler=0,
                  contents=dict.fromkeys(range(size), 2))
    assert [row.delta for row in certify_no_solution(eq).listed] == [
        c_bits(i, m) for i in range(size)]
    # with no content and the filler 0 the left-hand side is 1, so every
    # trial runs and draws its m flips, then no y
    trials = 2 * size + 3
    calls = count_calls(monkeypatch, dihedral, "draw_element")
    empty = Equation(c_rank=m, torsion_order=1, filler=0, contents={})
    assert spot_check_no_solution(empty, bound=10, trials=trials)
    flips = [args[2] for args in calls]
    assert flips == [b for i in range(trials) for b in c_bits(i % size, m)]


def test_certificate_reprs_print_long_exponents_by_bit_length():
    # a c_rank-14 witness's exponents pass Python's 4,300-digit limit on
    # str(int); small ones print as the dataclass repr always did
    row = CertificateRow(delta=(1,), matched_character=Character((-1,)),
                         effective_exponent=3,
                         subgroup_exponent=3 * 2 ** 20000,
                         target_exponent=2 ** 20000,
                         obstruction="nonunit-multiplier")
    assert repr(row) == (
        "CertificateRow(delta=(1,), matched_character=Character(signs=(-1,)), "
        "effective_exponent=3, subgroup_exponent=<20002-bit int>, "
        "target_exponent=<20001-bit int>, obstruction='nonunit-multiplier')")
    cert = NoSolutionCertificate(listed=[row], c_rank=1,
                                 rhs_exponent=2 ** 20000, filler=0,
                                 remainder=1)
    assert repr(cert) == (f"NoSolutionCertificate(listed=[{row!r}], c_rank=1, "
                          "rhs_exponent=<20001-bit int>, filler=0, "
                          "remainder=1)")
    small = certify_no_solution(_witness_equation())
    assert repr(small.rows[1]) == (
        "CertificateRow(delta=(0, 1), matched_character=Character(signs="
        "(1, -1)), effective_exponent=%d, subgroup_exponent=%d, "
        "target_exponent=%d, obstruction='%s')" % (
            small.rows[1].effective_exponent, small.rows[1].subgroup_exponent,
            small.rhs_exponent, small.rows[1].obstruction))


def test_spot_check_finds_no_solution():
    eq = _witness_equation()
    assert spot_check_no_solution(eq, bound=10, trials=400, seed=0)
    # deterministic in the seed
    assert spot_check_no_solution(eq, bound=10, trials=100, seed=5) == \
        spot_check_no_solution(eq, bound=10, trials=100, seed=5)


def test_spot_check_detects_solvable_equation():
    # an "equation" whose lhs can hit the rhs: single character, k = 1,
    # so the word tower is the full doubling and y = a solves it
    from verbalclosure.words import Pow, Gen as G, Concat, WordEquation

    m = 1
    coset_words = canonical_coset_words(m)
    chi = Character((-1,))
    block = Pow(Concat((Pow(G("y_1_1"), 2),)), 1)
    v = build_v_chi(chi, coset_words, y_word=block)
    eq = WordEquation(lhs=Concat((Pow(v, 1),)), rhs_exponent=2 * (1 << 2),
                      c_rank=1, torsion_order=1, filler=0, k_values=(0, 1))
    # delta = (1,) with y = a gives a^(2*4) = rhs; the sampler must find it
    assert not spot_check_no_solution(eq, bound=3, trials=2000, seed=0)


@pytest.mark.parametrize("rhs_exponent, trials", [(8, 200), (0, 1)])
def test_spot_check_detects_a_solvable_recipe(rhs_exponent, trials):
    # the same equation as a recipe, evaluated with no word built: its one
    # live tower, of the nontrivial character, takes y = a to a^8 when x1
    # flips.  When x1 = a^t does not flip, as in the first trial, the tower
    # dies at its first level, so the left-hand side is 1.  With torsion
    # order 0 the y-block is 1 as well, and 1 = a^0 is solved at once
    eq = Equation(c_rank=1, torsion_order=rhs_exponent // 8, filler=0,
                  contents={1: 1})
    assert eq.rhs_exponent == rhs_exponent
    assert repr(eq) == (f"Equation(c_rank=1, torsion_order={rhs_exponent // 8}"
                        ", filler=0, contents={1: 1})")
    assert not spot_check_no_solution(eq, bound=3, trials=trials, seed=0)
    x1 = DihedralElement(2, 0)
    for y in (A, DihedralElement(3, 1)):
        assert eq.lhs_value({"x1": x1, "y_1_1": y}, DIHEDRAL_OPS) == IDENTITY
    assert eq.lhs_value({"x1": B, "y_1_1": A},
                        DIHEDRAL_OPS) == DihedralElement(rhs_exponent, 0)


def test_draw_element_keeps_the_randint_stream():
    # the spot check's x and y draws, each against the equivalent randint
    # draw: the same elements from the same bits
    for seed in range(5):
        for bound in (0, 1, 25, 100):
            rng, ref = random.Random(seed), random.Random(seed)
            for flip in (None, 0, 1) * 10:
                t = ref.randint(-bound, bound)
                e = ref.randint(0, 1) if flip is None else flip
                assert draw_element(rng, bound, flip) == DihedralElement(t, e)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("filler, live", [(0, 2), (2, 16)])
def test_spot_check_draws_only_the_variables_it_reads(monkeypatch, filler,
                                                      live):
    # a trial draws each x's translation, then a y's translation and flip
    # on its first read: with filler 0 only the 2 y's of the m = 4
    # witness's nonzero components are read, with filler 2 all 16; a parsed
    # equation reads the same ones.  Each draw is one `below` call
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
    eq = analyze(spec, filler=filler).equation
    parsed = parse_equation(serialize_equation(eq))
    draws = count_calls(monkeypatch, dihedral, "below")
    for equation in (eq, parsed):
        draws.clear()
        assert spot_check_no_solution(equation, bound=10, trials=8)
        assert len(draws) == 8 * (eq.c_rank + 2 * live)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 201, 256, 257, 2 ** 64,
                               2 ** 64 + 1])
def test_below_draws_as_randrange(n):
    # getrandbits(n.bit_length()) until below n is randrange(n)'s draw:
    # the same values from the same bits, and the same state after
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert below(rng, n) == ref.randrange(n)
        assert rng.getstate() == ref.getstate()


def _drawn_flip_patterns(monkeypatch, eq, trials):
    """The x flip patterns that a spot check of eq draws, trial by trial."""
    calls = count_calls(monkeypatch, dihedral, "draw_element")
    result = spot_check_no_solution(eq, bound=10, trials=trials, seed=3)
    flips = [args[2] for args in calls if len(args) == 3]
    m = eq.c_rank
    return result, [tuple(flips[i:i + m]) for i in range(0, len(flips), m)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_spot_check_cycles_the_flip_patterns_in_enumeration_order(
        monkeypatch, m):
    # trial i takes the bits of i mod 2^m, first generator highest: the
    # old cycle through the enumerated patterns, with no list built.  With
    # every k and the filler 0 the left-hand side is 1, so every trial runs
    trials = 2 * (1 << m) + 3
    old = list(islice(cycle(product((0, 1), repeat=m)), trials))
    eq = Equation(c_rank=m, torsion_order=1, filler=0, contents={})
    _, patterns = _drawn_flip_patterns(monkeypatch, eq, trials)
    assert patterns == old


def test_spot_check_builds_no_list_of_flip_patterns(monkeypatch):
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
    eq = analyze(spec, filler=2).equation
    expected = _drawn_flip_patterns(monkeypatch, eq, 40)
    monkeypatch.undo()

    def refuse(m):
        raise AssertionError("the spot check listed every flip pattern")

    monkeypatch.setattr(dihedral, "enumerate_group_elements", refuse)
    monkeypatch.setattr(involutions, "enumerate_group_elements", refuse)
    assert eq.c_rank == 4
    assert _drawn_flip_patterns(monkeypatch, eq, 40) == expected
    assert expected[0] is True
