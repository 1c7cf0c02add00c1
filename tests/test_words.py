"""Tests for word DAGs, evaluation, the commutator tower and equations."""

import gc
import itertools
import random
import sys

import pytest

from util import (
    canonical_coset_words,
    count_calls,
    dag_nodes,
    evaluate_v_closed_form,
    flatten,
    witness_equation,
)

import verbalclosure.words as words
from verbalclosure import (
    DInf,
    GroupSpec,
    Zed,
    ZedMod,
    analyze,
    validate_spec,
    verify_solution_in_G,
)
from verbalclosure.ambient import g_solution
from verbalclosure.dihedral import (
    DIHEDRAL_OPS,
    IDENTITY,
    DihedralElement,
    character_of_substitution,
    spot_check_no_solution,
)
from verbalclosure.involutions import (
    Character,
    InvolutionModule,
    enumerate_characters,
    enumerate_group_elements,
)
from verbalclosure.lattice import AbelianPresentation
from verbalclosure.words import (
    Concat,
    CountingOps,
    Equation,
    Gen,
    GroupOps,
    Inv,
    NotAWitness,
    Pow,
    UnboundGenerator,
    WordEquation,
    build_v_chi,
    build_w_chi,
    build_witness_equation,
    coset_words_of,
    evaluate,
    parse_equation,
    postorder,
    serialize_chunks,
    serialize_equation,
    skew_commutator,
    y_var,
)

INT_OPS = GroupOps(mul=lambda a, b: a + b, inv=lambda a: -a, identity=0)
# permutations of 7 points, composed right to left
PERM_OPS = GroupOps(mul=lambda p, q: tuple(p[i] for i in q),
                    inv=lambda p: tuple(sorted(range(7), key=p.__getitem__)),
                    identity=tuple(range(7)))


def random_word(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Gen(rng.choice(names))
    kind = rng.randrange(3)
    if kind == 0:
        return Inv(random_word(rng, names, depth - 1))
    if kind == 1:
        return Concat(tuple(random_word(rng, names, depth - 1)
                            for _ in range(rng.randint(0, 3))))
    return Pow(random_word(rng, names, depth - 1), rng.randint(-3, 3))


def test_evaluate_matches_letterwise_oracle():
    rng = random.Random(4)
    names = ["u", "v", "w"]
    for _ in range(60):
        word = random_word(rng, names, 3)
        assignment = {n: DihedralElement(rng.randint(-5, 5), rng.randint(0, 1))
                      for n in names}
        got = evaluate(word, assignment, DIHEDRAL_OPS)
        want = DIHEDRAL_OPS.identity
        for name, sign in flatten(word):
            g = assignment[name]
            want = want * (g if sign == 1 else g.inverse())
        assert got == want


def test_too_large_guard():
    w = Gen("a")
    for _ in range(40):
        w = Pow(w, 2)
    assert w.length == 2 ** 40
    assert Pow(w, 0).length == 0
    # evaluation is cheap
    assert evaluate(w, {"a": 1}, INT_OPS) == 2 ** 40


def test_unbound_generator():
    with pytest.raises(UnboundGenerator):
        evaluate(Gen("zz"), {}, INT_OPS)
    # a zero power is the identity whatever its base, which is never read
    assert evaluate(Pow(Gen("zz"), 0), {}, INT_OPS) == 0
    with pytest.raises(UnboundGenerator):
        evaluate(Pow(Gen("zz"), 2), {}, INT_OPS)


def test_evaluation_cost_is_dag_sized():
    # shared subterm evaluated once; Pow uses square-and-multiply
    ops = CountingOps(INT_OPS)
    base = Concat((Gen("a"), Gen("a")))
    w = Concat((base, base, base))
    assert evaluate(w, {"a": 1}, ops) == 6
    assert ops.count <= 8
    ops2 = CountingOps(INT_OPS)
    assert evaluate(Pow(Gen("a"), 2 ** 30), {"a": 1}, ops2) == 2 ** 30
    assert ops2.count <= 2 * 31
    # a base under a zero power and a nonzero one is still evaluated, once:
    # 2 operations for the base, 3 for its cube, 2 for the outer product
    ops3 = CountingOps(INT_OPS)
    assert evaluate(Concat((Pow(base, 0), Pow(base, 3))), {"a": 1}, ops3) == 6
    assert ops3.count == 7


def test_skew_commutator_shape():
    body = Gen("y")
    c = Gen("c")
    w = skew_commutator(c, 1, body)
    assert flatten(w) == [("y", 1), ("c", 1), ("y", 1), ("c", -1)]
    w2 = skew_commutator(c, -1, body)
    assert flatten(w2) == [("y", 1), ("c", 1), ("y", -1), ("c", -1)]
    with pytest.raises(ValueError):
        skew_commutator(c, 0, body)


def test_w_chi_collapses_on_central_values():
    # with all conjugators evaluated to the identity, w_chi(y) = y^(2^|C|)
    for m in (1, 2):
        elements = enumerate_group_elements(m)
        chi = Character((1,) * m)
        w = build_w_chi(chi, [Concat(()) for _ in elements])
        val = evaluate(w, {"y": 1}, INT_OPS)
        assert val == 1 << (1 << m)


def test_w_chi_node_count_small():
    chi = Character((1, -1, 1, -1))
    elements = enumerate_group_elements(4)
    w = build_w_chi(chi, [Concat(()) for _ in elements])
    assert w.length > 10 ** 4  # flattened length is exponential
    seen = set()

    def count(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in getattr(node, "parts", ()):
            count(child)
        if hasattr(node, "child"):
            count(node.child)
        if hasattr(node, "base"):
            count(node.base)

    count(w)
    assert len(seen) < 200  # DAG stays small


def _nonsimple_report():
    # Z^2 swap-free module with two independent sign actions: (2,0)+(0,3)
    pres = AbelianPresentation(2, [])
    mod = InvolutionModule(pres, [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]])
    rep = mod.is_simple((2, 3))
    assert not rep.simple
    return mod, rep


def test_build_witness_equation_shape():
    mod, rep = _nonsimple_report()
    eq = build_witness_equation(rep, 1, 1, 2)
    assert eq.rhs_exponent == 2 * (1 << 4) * 1
    assert eq.c_rank == 2 and eq.c_size == 4
    assert sorted(k for k in eq.k_values if k) == [2, 3]
    names = eq.variables()
    assert "x1" in names and "x2" in names
    assert y_var(0) == "y_0_1" and y_var(0) in names
    assert len(names) == 2 + 4


def test_build_witness_equation_preconditions():
    mod, rep = _nonsimple_report()
    with pytest.raises(ValueError):
        build_witness_equation(rep, 1, 1, 2, filler=1)
    # one square per character: n = 1 is the only number of squares
    for n in (0, 2):
        with pytest.raises(ValueError):
            build_witness_equation(rep, n, 1, 2)
    simple_rep = InvolutionModule(
        AbelianPresentation(1, []), [[[-1]]]).is_simple((1,))
    assert simple_rep.simple
    with pytest.raises(NotAWitness):
        build_witness_equation(simple_rep, 1, 1, 1)


def test_used_exponent_and_filler():
    mod, rep = _nonsimple_report()
    eq = build_witness_equation(rep, 1, 1, 2, filler=2)
    for ci, k in enumerate(eq.k_values):
        assert eq.used_exponent(ci) == (k if k else 2)


def test_v_chi_substitution_recovers_w_chi():
    # substituting coset products for the x's gives the same value as
    # substituting the products directly into w_chi
    rng = random.Random(8)
    m = 2
    elements = enumerate_group_elements(m)
    coset_words = canonical_coset_words(m)
    for signs in [(1, 1), (1, -1), (-1, -1)]:
        chi = Character(signs)
        v = build_v_chi(chi, coset_words)
        for _ in range(5):
            xs = {f"x{j + 1}": DihedralElement(rng.randint(-4, 4),
                                               rng.randint(0, 1))
                  for j in range(m)}
            y = DihedralElement(2 * rng.randint(-4, 4), 0)
            assignment = dict(xs)
            assignment["y"] = y
            got = evaluate(v, assignment, DIHEDRAL_OPS)
            c_vals = []
            for idx in coset_words:
                g = DIHEDRAL_OPS.identity
                for j in idx:
                    g = g * xs[f"x{j + 1}"]
                c_vals.append(g)
            w = build_w_chi(chi, [Gen(f"c{t}") for t in range(len(elements))])
            direct = evaluate(
                w, {**{f"c{t}": c_vals[t] for t in range(len(c_vals))},
                    "y": y}, DIHEDRAL_OPS)
            assert got == direct


def test_serialization_round_trip_preserves_sharing():
    mod, rep = _nonsimple_report()
    eq = build_witness_equation(rep, 1, 3, 2, filler=0)
    text = serialize_equation(eq)
    eq2 = parse_equation(text)
    assert serialize_equation(eq2) == text  # byte-identical round trip
    assert eq2.rhs_exponent == eq.rhs_exponent
    assert eq2.k_values == eq.k_values
    assert eq2.torsion_order == 3
    # same value under evaluation
    rng = random.Random(3)
    assignment = {name: DihedralElement(rng.randint(-3, 3), rng.randint(0, 1))
                  for name in eq.variables()}
    assert (evaluate(eq.lhs, assignment, DIHEDRAL_OPS)
            == evaluate(eq2.lhs, assignment, DIHEDRAL_OPS))


def test_serialization_of_a_deep_tower():
    # a tower over 2^9 group elements nests 512 levels deep, past the
    # default recursion limit of a recursive walk
    m = 9
    coset_words = canonical_coset_words(m)
    eq = WordEquation(lhs=build_v_chi(Character((-1,) * m), coset_words),
                      rhs_exponent=2, c_rank=m, torsion_order=1, filler=0,
                      k_values=(0,) * (1 << m))
    text = serialize_equation(eq)
    eq2 = parse_equation(text)
    assert serialize_equation(eq2) == text
    assert eq2.lhs.length == eq.lhs.length


@pytest.fixture(scope="module")
def witness_m4():
    """The verdict of the c_rank-4 witness spec a = a1^3*a2^5 over 2xDInf."""
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
    return spec, analyze(spec)


def _given(eq, lhs):
    """The WordEquation of eq's fields with `lhs` given as its DAG."""
    return WordEquation(lhs=lhs, rhs_exponent=eq.rhs_exponent,
                        c_rank=eq.c_rank, torsion_order=eq.torsion_order,
                        filler=eq.filler, k_values=eq.k_values)


@pytest.mark.parametrize("m", range(7))
def test_coset_words_are_derived_from_c_rank(m):
    assert coset_words_of(m) == canonical_coset_words(m)


@pytest.mark.parametrize("m", range(6))
def test_levels_read_the_character_by_index(m):
    # index i is the i-th character of enumerate_characters, and each
    # level's sign is its value on that level's element, innermost last
    elements = list(enumerate(enumerate_group_elements(m)))
    for i, chi in enumerate(enumerate_characters(m)):
        assert chi.index == i
        assert list(words._levels(i, m)) == [
            (e, chi.on_element(bits)) for e, bits in reversed(elements)]


def test_witness_lhs_is_built_on_each_read(witness_m4, monkeypatch):
    towers = count_calls(monkeypatch, words, "_tower")
    verdict = analyze(witness_m4[0])
    eq = verdict.equation
    # the recipe prints its fields: the nonzero contents, no DAG
    assert repr(eq) == ("Equation(c_rank=4, torsion_order=1, filler=0, "
                        "contents={1: 5, 4: 3})")
    assert repr(eq) in repr(verdict)
    assert towers == []
    # the same equation with its lhs built eagerly through build_v_chi
    coset_words = canonical_coset_words(eq.c_rank)
    terms = []
    for ci, chi in enumerate(enumerate_characters(eq.c_rank)):
        squares = Concat((Pow(Gen(y_var(ci)), 2),))
        v = build_v_chi(chi, coset_words,
                        y_word=Pow(squares, eq.torsion_order))
        terms.append(Pow(v, eq.used_exponent(ci)))
    eager = serialize_equation(_given(eq, Concat(tuple(terms))))
    towers.clear()
    assert serialize_equation(eq) == eager
    assert towers == []
    # every read builds every tower again, and keeps none of them
    lhs = eq.lhs
    assert len(towers) == 1 << eq.c_rank
    assert eq.lhs is not lhs
    assert len(towers) == 2 << eq.c_rank
    assert serialize_equation(_given(eq, lhs)) == eager


def test_verify_builds_no_tower(witness_m4, monkeypatch):
    towers = count_calls(monkeypatch, words, "_tower")
    walks = count_calls(monkeypatch, words, "postorder")
    spec = witness_m4[0]
    for filler, count, in_g, in_dinf in [(0, 271, 173, 4), (2, 2027, 201, 32)]:
        towers.clear()
        walks.clear()
        verdict = analyze(spec, filler=filler)
        eq = verdict.equation
        assert verify_solution_in_G(eq, verdict.solution, spec)
        assert spot_check_no_solution(eq, bound=10, trials=8)
        assert towers == [] and walks == []
        # the full lhs builds every tower
        lhs = eq.lhs
        assert len(towers) == 1 << eq.c_rank
        d_values = {name: DihedralElement(3, 1) for name in eq.variables()}
        results = []
        for value in (eq.lhs_value, lambda *args: evaluate(lhs, *args)):
            ops = CountingOps(spec.group.ops)
            dops = CountingOps(DIHEDRAL_OPS)
            results.append((value(verdict.solution, ops), ops.count,
                            value(d_values, dops), dops.count))
        recipe, dag = results
        assert recipe[0::2] == dag[0::2]
        assert dag[1] == dag[3] == count
        # in G the solution's live towers run every level: one product per
        # coset word and three per level, against the DAG's Concat of c and
        # four products per level, and the filler's towers, whose y is 1,
        # stop at their y-block.  Over D-infinity every y = a^3*b squares to
        # 1, so every tower stops there: 2 products a term
        assert (recipe[1], recipe[3]) == (in_g, in_dinf)


WRITER_SPECS = [
    ([DInf(), DInf()], "b1*b2", "a1^3*a2^5"),
    ([DInf(), ZedMod(6)], "b1", "a1^3"),
    ([DInf(), Zed(), ZedMod(4)], "b1", "a1^3"),
    ([DInf()] * 3, "b1*b2*b3", "a1^3*a2^5*a3^7"),
]


# n is the one square per character that the written header records
@pytest.mark.parametrize("n", [1])
@pytest.mark.parametrize("filler", [0, 2, -3])
@pytest.mark.parametrize("factors, b, a", WRITER_SPECS,
                         ids=["2xDInf", "DInf-Z6", "DInf-Z-Z4", "3xDInf"])
def test_witness_writer_matches_the_walk(factors, b, a, filler, n):
    _, _, eq = witness_equation(validate_spec(GroupSpec(factors, b, a)),
                                filler=filler)
    written = serialize_equation(eq)
    assert f") (n {n}) (filler {filler})\n" in written.partition("(k")[0]
    # the same left-hand side, written by the generic walk
    walked = serialize_equation(_given(eq, eq.lhs))
    assert written == walked
    assert serialize_equation(eq) == walked
    parsed = parse_equation(walked)
    assert type(parsed) is WordEquation
    assert serialize_equation(parsed) == walked


def test_written_exponents_follow_k_values(witness_m4):
    # the recipe keeps no exponents of its own: after its contents change,
    # the written (k ...) header and the term exponents still agree
    eq = analyze(witness_m4[0]).equation
    eq.contents = {**eq.contents, 0: 7}
    assert eq.k_values[0] == 7
    parsed = parse_equation(serialize_equation(eq))
    assert parsed.k_values == eq.k_values
    assert [term.exp for term in parsed.lhs.parts] == [
        eq.used_exponent(ci) for ci in range(1 << eq.c_rank)]
    assert parsed.lhs.parts[0].exp == 7


# n is the one square per character, the one y each character's block reads
@pytest.mark.parametrize("n", [1])
@pytest.mark.parametrize("filler", [0, 2])
@pytest.mark.parametrize("factors, b, a", WRITER_SPECS,
                         ids=["2xDInf", "DInf-Z6", "DInf-Z-Z4", "3xDInf"])
def test_lhs_value_matches_the_dag_and_the_written_file(factors, b, a,
                                                       filler, n):
    spec = validate_spec(GroupSpec(factors, b, a))
    data, report, eq = witness_equation(spec, filler=filler)
    parsed = parse_equation(serialize_equation(eq))
    group = spec.group
    rng = random.Random(11)
    solution = g_solution(eq, data, report)
    # the m x's, then n = 1 y per character, still spelled y_{ci}_1
    m = eq.c_rank
    assert list(solution) == eq.variables() == (
        [f"x{j + 1}" for j in range(m)]
        + [f"y_{ci}_{n}" for ci in range(eq.c_size)])
    perturbed = {name: group.mul(value, group.random_element(rng, 3))
                 for name, value in solution.items()}
    in_g = [eq.lhs_value(solution, group.ops)]
    assert in_g[0] == group.pow(spec.h_a, eq.rhs_exponent)
    in_g.append(eq.lhs_value(perturbed, group.ops))
    for lhs in (eq.lhs, parsed.lhs):
        assert in_g == [evaluate(lhs, solution, group.ops),
                        evaluate(lhs, perturbed, group.ops)]
    for delta in [(0,) * m, (1,) * m, (1,) + (0,) * (m - 1),
                  tuple(rng.randint(0, 1) for _ in range(m))]:
        assignment = {f"x{j + 1}": DihedralElement(rng.randint(-5, 5), d)
                      for j, d in enumerate(delta)}
        assignment.update(
            (name, DihedralElement(rng.randint(-5, 5), rng.randint(0, 1)))
            for name in eq.variables() if name not in assignment)
        value = eq.lhs_value(assignment, DIHEDRAL_OPS)
        assert value == evaluate(eq.lhs, assignment, DIHEDRAL_OPS)
        assert value == evaluate(parsed.lhs, assignment, DIHEDRAL_OPS)
    # G and D-infinity act on an abelian normal subgroup, where the order of
    # a tower's outer levels cannot show; in S_7 it can
    perms = {name: tuple(rng.sample(range(7), 7)) for name in eq.variables()}
    value = eq.lhs_value(perms, PERM_OPS)
    assert value != PERM_OPS.identity
    assert value == evaluate(eq.lhs, perms, PERM_OPS)
    assert value == evaluate(parsed.lhs, perms, PERM_OPS)


def _first_identity_levels(lhs, assignment, ops):
    """Per term of a witness's built lhs with a nonzero exponent, the number
    of levels of its tower before the first identity body, 0 for an
    identity y-block, or None when no body is the identity.  Each level's
    value is the product of its four parts, read off the DAG, with its
    body's value known."""
    stops = []
    for term in lhs.parts:
        if not term.exp:
            continue
        # a level is Concat((body, c, body^sign, c^-1)); the y-block is a Pow
        levels = [term.base]
        while type(levels[-1]) is Concat:
            levels.append(levels[-1].parts[0])
        values = [evaluate(levels.pop(), assignment, ops)]
        for level in reversed(levels):
            body, value = level.parts[0], ops.identity
            for p in level.parts:
                if p is body:
                    v = values[-1]
                elif p.children == (body,):  # Inv(body)
                    v = ops.inv(values[-1])
                else:
                    v = evaluate(p, assignment, ops)
                value = ops.mul(value, v)
            values.append(value)
        stops.append(values.index(ops.identity)
                     if ops.identity in values else None)
    return stops


# the elements of S_4 on the points 0-3 of S_7, where many bodies die
S4_IN_S7 = [p + (4, 5, 6) for p in itertools.permutations(range(4))]


@pytest.mark.parametrize("filler", [0, 2])
@pytest.mark.parametrize("factors, b, a", WRITER_SPECS[:2],
                         ids=["2xDInf", "DInf-Z6"])
def test_lhs_value_stops_at_the_first_identity_level(factors, b, a, filler):
    # the recipe stops each tower at its first identity body and drops the
    # term: on assignments whose bodies die at the y-block, at the first
    # levels, later or never, its value is still the DAG's
    eq = witness_equation(validate_spec(GroupSpec(factors, b, a)),
                          filler=filler)[2]
    lhs = eq.lhs
    rng = random.Random(f"{b}:{a}:{filler}")
    stops = {"D-infinity": set(), "S_4": set()}
    for _ in range(40):
        dihedral = {name: DihedralElement(rng.randint(-2, 2),
                                          rng.randint(0, 1))
                    for name in eq.variables()}
        perms = {name: rng.choice(S4_IN_S7) for name in eq.variables()}
        for group, assignment, ops in [("D-infinity", dihedral, DIHEDRAL_OPS),
                                       ("S_4", perms, PERM_OPS)]:
            value = eq.lhs_value(assignment, ops)
            assert value == evaluate(lhs, assignment, ops)
            stops[group].update(_first_identity_levels(lhs, assignment, ops))
    # bodies died at the y-block, at each of the first two levels, and
    # not at all; in S_4 at the same places and later
    assert {0, 1, 2, None} <= stops["D-infinity"]
    assert {0, 1, 2} <= stops["S_4"]
    assert max(s for s in stops["S_4"] if s is not None) > 2


def test_lhs_follows_the_fields_it_was_built_from(witness_m4):
    # lhs is built from the current fields on each read, so after any of
    # them changes it agrees with the written file and with lhs_value
    eq = analyze(witness_m4[0]).equation
    rng = random.Random(5)
    for change in [{"contents": {**eq.contents, 0: 7}},
                   {"torsion_order": 3}, {"filler": 2}]:
        for field, value in change.items():
            setattr(eq, field, value)
        parsed = parse_equation(serialize_equation(eq))
        # in the translations only the trivial character's tower, the
        # first term, survives
        assignment = {name: DihedralElement(rng.randint(1, 5), 0)
                      for name in eq.variables()}
        value = evaluate(eq.lhs, assignment, DIHEDRAL_OPS)
        assert value == evaluate(parsed.lhs, assignment, DIHEDRAL_OPS)
        assert value == eq.lhs_value(assignment, DIHEDRAL_OPS)
        assert value != IDENTITY
    assert eq.lhs.parts[0].exp == 7


def test_reprs_print_long_integers_by_bit_length():
    # in decimal these pass Python's 4,300-digit limit on str(int)
    big = Pow(Gen("y"), 2 ** 20000)
    assert repr(big) == "Pow(exp=<20001-bit int>, length=<20001-bit int>)"
    assert repr(Inv(big)) == "Inv(length=<20001-bit int>)"
    assert repr(Concat((big, big))) == (
        "Concat(2 parts, length=<20002-bit int>)")
    assert repr(Pow(Gen("y"), -2 ** 20000)) == (
        "Pow(exp=<-20001-bit int>, length=<20001-bit int>)")
    assert repr(Pow(Gen("y"), -3)) == "Pow(exp=-3, length=3)"
    eq = WordEquation(lhs=big, rhs_exponent=2 ** 20000, c_rank=0,
                      torsion_order=1, filler=0, k_values=(0,))
    assert repr(eq) == (
        "WordEquation(lhs=Pow(exp=<20001-bit int>, length=<20001-bit int>), "
        "rhs_exponent=<20001-bit int>, c_rank=0, "
        "torsion_order=1, filler=0, k_values=(0,))")
    # a c_rank-14 tower: its length 3 * 2^(2^14) - 2 has 4,933 digits
    tower = build_w_chi(Character((-1,) * 14), [Gen("c")] * (1 << 14))
    assert tower.length == 3 * 2 ** (1 << 14) - 2
    assert repr(tower) == "Concat(4 parts, length=<16386-bit int>)"


def test_witness_text_streams_tower_by_tower():
    # c_rank 8: 256 towers, a 14,396,844-byte file.  Each chunk holds at
    # most a tower's text, so a writer never holds more than about
    # 1/2^m of the file at once
    spec = validate_spec(GroupSpec([DInf()] * 4, "b1*b2*b3*b4",
                                   "a1^3*a2^5*a3^7*a4^9"))
    eq = analyze(spec).equation
    m = eq.c_rank
    total = longest = chunks = 0
    for chunk in serialize_chunks(eq):
        total += len(chunk)
        longest = max(longest, len(chunk))
        chunks += 1
    assert total == 14_396_844
    assert chunks > 1 << m
    assert longest <= 2 * total / (1 << m)


def _frame_equations(m):
    """Three recipes of c_rank m that differ in torsion order, filler and
    contents: a negative, a large and no nonzero content."""
    last = (1 << m) - 1
    return [Equation(c_rank=m, torsion_order=1, filler=0, contents={last: -5}),
            Equation(c_rank=m, torsion_order=3, filler=2,
                     contents={0: 7, last: 2 ** 70 + 1}),
            Equation(c_rank=m, torsion_order=15, filler=-3, contents={})]


@pytest.mark.parametrize("m", range(8))
def test_written_frames_are_shared_across_equations(m, monkeypatch):
    # frames hold no torsion order and no exponent: equations of one
    # c_rank, written in either order from a cold start, each get the text
    # of their own walked DAG
    monkeypatch.setattr(words, "_held_frames", {})
    eqs = _frame_equations(m)
    walked = [serialize_equation(_given(eq, eq.lhs)) for eq in eqs]
    for order in (eqs, eqs[::-1]):
        words._held_frames.clear()
        for eq in order:
            assert serialize_equation(eq) == walked[eqs.index(eq)]
        assert list(words._held_frames) == ([m] if m <= 6 else [])
    for eq, text in zip(eqs, walked):
        parsed = parse_equation(text)
        assert ((parsed.c_rank, parsed.torsion_order, parsed.filler,
                 parsed.k_values, parsed.rhs_exponent)
                == (eq.c_rank, eq.torsion_order, eq.filler, eq.k_values,
                    eq.rhs_exponent))


def test_held_frames_stay_under_the_cap(monkeypatch):
    # c_rank 7 and 8 are written from frames made tower by tower and not
    # kept; the frames of every c_rank up to 6 together stay under 1 MB
    monkeypatch.setattr(words, "_held_frames", {})
    for m in range(9):
        for _ in serialize_chunks(_frame_equations(m)[1]):
            pass
    held = words._held_frames
    assert sorted(held) == list(range(words._HELD_C_RANK + 1)) == list(range(7))
    size = 0
    for frames in held.values():
        root_line, _ = frames[-1]
        size += sys.getsizeof(root_line) + sum(
            sys.getsizeof(head) + sys.getsizeof(tower)
            for head, tower in frames[:-1])
    assert size < 1_000_000


@pytest.mark.parametrize("matching", [True, False])
def test_evaluate_a_deep_tower(matching):
    # 2^10 nested commutators: a recursive walk exceeds the recursion limit
    m = 10
    coset_words = canonical_coset_words(m)
    delta = (1, 0) * (m // 2)
    chi = character_of_substitution(delta)
    if not matching:
        chi = Character((-chi.signs[0],) + chi.signs[1:])
    assignment = {f"x{j + 1}": DihedralElement(j - 3, delta[j])
                  for j in range(m)}
    assignment["y"] = DihedralElement(6, 0)
    got = evaluate(build_v_chi(chi, coset_words), assignment, DIHEDRAL_OPS)
    assert got == evaluate_v_closed_form(chi, delta, 6)


def test_evaluate_leaves_no_garbage():
    # values are freed by reference counting alone, with no cycle collector
    word = Concat((Gen("a"), Inv(Gen("a"))))
    gc.collect()
    gc.disable()
    try:
        assert evaluate(word, {"a": 2}, INT_OPS) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_postorder_lists_each_node_once_children_first(witness_m4):
    _, verdict = witness_m4
    lhs = verdict.equation.lhs
    order = postorder(lhs)
    position = {id(w): i for i, w in enumerate(order)}
    assert len(position) == len(order) == dag_nodes(lhs)
    for i, w in enumerate(order):
        assert all(position[id(c)] < i for c in w.children)
    assert order[-1] is lhs


def test_operation_count_of_the_m4_witness(witness_m4):
    # with the default filler 0 only the towers of the two characters with
    # nonzero content are evaluated; a nonzero filler evaluates all 16
    spec, verdict = witness_m4
    for witness, count in [(verdict, 271), (analyze(spec, filler=2), 2027)]:
        eq = witness.equation
        ops = CountingOps(spec.group.ops)
        evaluate(eq.lhs, witness.solution, ops)
        assert ops.count == count
        dops = CountingOps(DIHEDRAL_OPS)
        evaluate(eq.lhs,
                 {name: DihedralElement(3, 1) for name in eq.variables()}, dops)
        assert dops.count == count


def test_parse_ignores_layout_and_rejects_other_text(witness_m4):
    text = serialize_equation(witness_m4[1].equation)
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    reflowed = "".join(t + ("\n\t" if i % 7 == 0 else " " * (1 + i % 3))
                       for i, t in enumerate(tokens))
    assert reflowed != text
    assert serialize_equation(parse_equation(reflowed)) == text
    for bad in ["", "(lhs n0)", "(equation (nodes (n0 (gen x1) ) )",
                text[:len(text) // 2],
                text.replace("(gen y_0_1)", "(gen)"),
                text.replace("(gen y_0_1)", "(hen y_0_1)"),
                # trailing text, an unknown field, a repeated field, an
                # extra atom, a missing field, k of the wrong length, and
                # a token in place of the nodes field's closing parenthesis
                text + " (lhs n7) junk",
                text.replace("(n 1)", "(n 1) (bogus 1)"),
                # any number of squares per character but one
                text.replace("(n 1)", "(n 0)"),
                text.replace("(n 1)", "(n 2)"),
                text.replace("(filler 0)", "(filler 0) (filler 2)"),
                text.replace("(rhs a 131072)", "(rhs a 3 131072)"),
                # a right-hand side in a generator other than a
                text.replace("(rhs a 131072)", "(rhs b 131072)"),
                text.replace(" (lhs n1480)", ""),
                text.replace("(k 0 5", "(k 5"),
                text.replace(" )\n (lhs", " junk\n (lhs")]:
        assert bad != text
        with pytest.raises(ValueError):
            parse_equation(bad)
