"""Tests for character decomposition of modules with commuting involutions."""

import random
from fractions import Fraction

import pytest

from util import (
    SemidirectGroup,
    count_calls,
    random_decomposable_module,
    random_module,
)

from verbalclosure.ambient import (
    DInf,
    GroupSpec,
    image_of_a_squared,
    square_data,
    validate_spec,
)
from verbalclosure.involutions import (
    Character,
    ComponentWitness,
    InvolutionModule,
    NotEpimorphism,
    NotSimple,
    enumerate_characters,
    enumerate_group_elements,
    factor_through,
    project,
    project_via_epimorphism,
)
from verbalclosure.lattice import (
    AbelianPresentation,
    Lattice,
    content_and_primitive_part,
    eye,
    mat_mul,
    mat_vec,
    membership_solve,
)


def swap_module():
    """Z^2 with a single involution exchanging the coordinates."""
    return InvolutionModule(AbelianPresentation(2, []), [[[0, 1], [1, 0]]])


def test_character_enumeration_order():
    chars = enumerate_characters(2)
    assert [c.signs for c in chars] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert chars[0].signs == (1, 1)
    assert chars[3].label() == "chi(--)"
    assert enumerate_group_elements(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_character_values():
    chi = Character((1, -1, -1))
    assert chi.on_element((0, 0, 0)) == 1
    assert chi.on_element((0, 1, 1)) == 1
    assert chi.on_element((1, 1, 0)) == -1
    with pytest.raises(ValueError):
        Character((1, 0))


@pytest.mark.parametrize("signs", [(1, 0), (1, 2), (0,), (-1, -2), (2, 1),
                                   (1, -1, 0.5), ("+", -1), (None,)])
def test_character_rejects_bad_signs(signs):
    with pytest.raises(ValueError):
        Character(signs)


def test_character_accepts_what_equals_a_sign():
    # signs are tested by equality, as `s in (1, -1)` tests them: True and
    # 1.0 equal 1; the empty tuple is the one character of the trivial C
    for signs in [(True, -1), (1.0, -1.0), (), (1, -1) * 8]:
        assert Character(signs).signs == signs


def test_swap_module_projection_values():
    mod = swap_module()
    plus, minus = mod.characters
    assert project(mod, (2, 5), plus) == (Fraction(7, 2), Fraction(7, 2))
    assert project(mod, (2, 5), minus) == (Fraction(-3, 2), Fraction(3, 2))
    # components sum back to the element
    assert tuple(a + b for a, b in zip(project(mod, (2, 5), plus),
                                       project(mod, (2, 5), minus))) == (2, 5)


def test_swap_module_eigenlattices():
    mod = swap_module()
    plus, minus = mod.characters
    Lp = mod.eigenlattice(plus)
    assert Lp.integer_coordinates((Fraction(1, 2), Fraction(1, 2))) is not None
    assert Lp.integer_coordinates((1, 1)) is not None
    assert Lp.integer_coordinates((1, 0)) is None
    Lm = mod.eigenlattice(minus)
    assert Lm.integer_coordinates((Fraction(1, 2), Fraction(-1, 2))) is not None


def test_swap_module_simplicity_characterization():
    mod = swap_module()
    for x in range(-6, 7):
        for y in range(-6, 7):
            expect = abs(x + y) == 1 or abs(x - y) == 1
            assert mod.is_simple((x, y)).simple == expect, (x, y)


def test_simplicity_report_contents():
    mod = swap_module()
    rep = mod.is_simple((2, 5))
    assert not rep.simple
    by_char = {w.character: w for w in rep.components}
    plus, minus = mod.characters
    assert by_char[plus].content == 7
    assert by_char[minus].content == 3  # content is non-negative by convention
    # lifts project onto the primitive directions
    for w in rep.components:
        if w.content:
            v = project(mod, (2, 5), w.character)
            u = project(mod, w.lift, w.character)
            assert tuple(w.content * x for x in u) in (
                v, tuple(-x for x in v))
    rep2 = mod.is_simple((1, 0))
    assert rep2.simple
    assert rep2.witness_character in mod.characters


def test_torsion_element_reports_nonsimple():
    pres = AbelianPresentation(2, [(0, 2)])
    mod = InvolutionModule(pres, [[[-1, 0], [0, 1]]])
    rep = mod.is_simple((0, 1))
    assert not rep.simple
    assert all(w.content == 0 for w in rep.components)


def test_projector_algebra_on_random_modules():
    rng = random.Random(42)
    modules = [random_module(rng) for _ in range(25)]
    modules += [random_module(rng, m=m) for m in (3, 4) for _ in range(5)]
    for mod in modules:
        f = mod.group.free_rank
        size = 1 << mod.c_rank
        idn = [[size if i == j else 0 for j in range(f)] for i in range(f)]
        total = [[0] * f for _ in range(f)]
        for chi in mod.characters:
            N = _split_entry(mod, chi)
            # idempotence: (N/2^m)^2 = N/2^m
            assert mat_mul(N, N) == [[size * x for x in row] for row in N]
            for i in range(f):
                for j in range(f):
                    total[i][j] += N[i][j]
            # eigenvector law: A_c N = chi(c) N on the free quotient
            for jgen in range(mod.c_rank):
                A = mod.free_actions[jgen]
                s = chi.signs[jgen]
                assert mat_mul(A, N) == [[s * x for x in row] for row in N]
        assert total == idn  # resolution of the identity


def _split_entry(mod, chi):
    """The `_eigensplit` entry of chi, 2^m e_chi (zero when chi is absent)."""
    f = mod.group.free_rank
    return mod._split.get(chi.signs, [[0] * f for _ in range(f)])


def _sign_product(mod, chi):
    """Reference numerator: prod over all c in C of (I + chi(c) A_c), which
    is 2^|C| e_chi, by plain matrix products without the module's
    eigensplit."""
    f = mod.group.free_rank
    M = eye(f)
    for bits in enumerate_group_elements(mod.c_rank):
        A, s = eye(f), 1
        for Aj, sj, b in zip(mod.free_actions, chi.signs, bits):
            if b:
                A, s = mat_mul(A, Aj), s * sj
        M = mat_mul(M, [[int(i == j) + s * A[i][j] for j in range(f)]
                        for i in range(f)])
    return M


def _simplicity_by_projection(mod, q):
    """Reference for is_simple: project q onto every character in turn, as
    (simple, witness character, components).  It reads the same eigensplit
    as is_simple, which the test pins separately against `_sign_product`."""
    components = []
    for chi in mod.characters:
        v = mod.project_free(q, chi)
        if not any(v):
            components.append(ComponentWitness(chi, 0, (0,) * mod.group.rank))
            continue
        L = mod.eigenlattice_free(chi)
        k, u = content_and_primitive_part(v, L)
        if k == 1:
            return True, chi, None
        components.append(ComponentWitness(chi, k, membership_solve(L, u)))
    return False, None, components


def test_is_simple_split_matches_per_character_projection():
    rng = random.Random(2024)
    verdicts = set()
    zero_characters = 0
    for m in (1, 2, 3, 4):
        for _ in range(12):
            mod = random_module(rng, m=m)
            shift = mod.c_size - m
            for chi in mod.characters:
                M = _sign_product(mod, chi)
                zero_characters += not any(map(any, M))
                assert [[x << shift for x in row]
                        for row in _split_entry(mod, chi)] == M, (m, chi)
            n = mod.group.rank
            for q in [(0,) * n] + [tuple(rng.randint(-5, 5) for _ in range(n))
                                   for _ in range(4)]:
                rep = mod.is_simple(q)
                assert (rep.simple, rep.witness_character, rep.components) \
                    == _simplicity_by_projection(mod, q), (m, q)
                verdicts.add(rep.simple)
    assert verdicts == {True, False}
    assert zero_characters  # characters with a zero eigenspace are covered


def test_is_simple_solves_once_per_nonzero_component(monkeypatch):
    # one membership solve gives both the content and the lift of a
    # component: 2 solves for the 2 nonzero components of a1^3*a2^5
    spec = validate_spec(GroupSpec([DInf(), DInf()], "b1*b2", "a1^3*a2^5"))
    data = square_data(spec)
    a_sq = image_of_a_squared(spec, data)
    solves = count_calls(monkeypatch, Lattice, "_solve")
    report = data.module.is_simple(a_sq)
    assert [(w.character.label(), w.content) for w in report.components
            if w.content] == [("chi(+++-)", 5), ("chi(+-++)", 3)]
    assert len(solves) == 2


def test_projector_orthogonality():
    rng = random.Random(17)
    modules = [random_module(rng) for _ in range(10)]
    modules += [random_module(rng, m=m) for m in (3, 4) for _ in range(3)]
    for mod in modules:
        f = mod.group.free_rank
        zero = [[0] * f for _ in range(f)]
        for i, chi in enumerate(mod.characters):
            for chj in mod.characters[i + 1:]:
                prod = mat_mul(_split_entry(mod, chi), _split_entry(mod, chj))
                assert prod == zero


def test_component_identity_on_random_modules():
    rng = random.Random(7)
    for _ in range(25):
        mod = random_module(rng)
        n = mod.group.rank
        for _ in range(3):
            q = tuple(rng.randint(-6, 6) for _ in range(n))
            assert mod.verify_component_identity(q)


def test_component_identity_rejects_non_involutions():
    # the projections of any matrices sum back to 2^m q, so only the
    # eigenvector law can catch these
    mod = InvolutionModule(AbelianPresentation(2, []),
                           [[[2, 1], [0, 3]], [[5, -1], [7, 1]]], check=False)
    for q in [(1, 0), (3, -4), (2, 5)]:
        assert not mod.verify_component_identity(q)


def test_complement_properties():
    mod = swap_module()
    rep = mod.is_simple((1, 0))
    chi = rep.witness_character
    basis, lam = mod._complement_data((1, 0), chi)
    assert sum(l * x for l, x in zip(lam, (1, 0))) == 1
    # invariance under every action
    for A in mod.actions:
        for b in basis:
            img = mat_vec(A, b)
            assert sum(l * x for l, x in zip(lam, img)) == 0
    with pytest.raises(NotSimple):
        mod._complement_data((2, 5), mod.characters[0])


# Frozen outputs of the lattice paths that the benchmark workloads never
# reach: there every action matrix is diagonal and every nonzero eigenlattice
# has rank 1.  For each module: the `Lattice.from_generators` basis of every
# eigenlattice in free coordinates, then for each vector x of PINNED_X cut to
# the module's rank: is_simple(2x)'s table ("content: lift" per character),
# and for simple x its witness character and complement functional.
PINNED_X = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, -1, 3), (3, -1, 2, 1),
            (2, 5, 1, -1)]
PINNED_LATTICES = {
    "swap": (
        {"chi(+)": ["1/2 1/2"], "chi(-)": ["1/2 -1/2"]},
        [
            ("2: 1 0; 2: 1 0", "chi(+)", "1 1"),
            ("2: 1 0; 2: -1 0", "chi(+)", "1 1"),
            ("6: 1 0; 2: -1 0", "chi(-)", "-1 1"),
            ("4: 1 0; 8: 1 0", None, None),
            ("14: 1 0; 6: -1 0", None, None),
        ]),
    3: (
        {"chi(+)": ["1/2 1/2 1", "0 0 1"], "chi(-)": ["1/2 -1/2 -1"]},
        [
            ("2: 1 0 0 0; 0: 0 0 0 0", "chi(+)", "1 0 -2 0"),
            ("2: 0 1 0 0; 2: 0 1 0 0", "chi(+)", "0 1 1 0"),
            ("2: 3 1 0 0; 6: 0 1 0 0", "chi(+)", "0 1 1 0"),
            ("2: -1 1 0 0; 6: 0 -1 0 0", "chi(+)", "0 1 1 0"),
            ("12: 0 1 0 0; 8: 0 1 0 0", None, None),
        ]),
    11: (
        {"chi(++)": ["0 0 1", "1 0 0"], "chi(+-)": ["0 1 -3"],
         "chi(-+)": [], "chi(--)": []},
        [
            ("2: 1 0 0 0; 0: 0 0 0 0; 0: 0 0 0 0; 0: 0 0 0 0", "chi(++)", "1 0 3 0"),
            ("2: 0 1 0 0; 0: 0 0 0 0; 0: 0 0 0 0; 0: 0 0 0 0", "chi(++)", "0 1 0 0"),
            ("4: -1 1 0 0; 2: 0 0 -1 0; 0: 0 0 0 0; 0: 0 0 0 0", "chi(+-)", "0 0 -1 0"),
            ("2: 9 -1 0 0; 4: 0 0 1 0; 0: 0 0 0 0; 0: 0 0 0 0", "chi(++)", "0 -1 0 0"),
            ("10: 1 1 0 0; 2: 0 0 1 0; 0: 0 0 0 0; 0: 0 0 0 0", "chi(+-)", "0 0 1 0"),
        ]),
    19: (
        {"chi(+)": ["1/2 0 1/2", "0 1 0"], "chi(-)": ["1/2 0 -1/2"]},
        [
            ("2: 1 0 0; 2: 1 0 0", "chi(+)", "1 0 1"),
            ("2: 0 1 0; 0: 0 0 0", "chi(+)", "0 1 0"),
            ("4: 0 1 0; 4: 1 0 0", None, None),
            ("2: 5 -1 0; 2: 1 0 0", "chi(+)", "0 -1 0"),
            ("2: 3 5 0; 2: 1 0 0", "chi(+)", "2 -1 2"),
        ]),
}


def test_rank_two_lattice_paths_are_pinned():
    def fmt(v):
        return " ".join(str(x) for x in v)

    for key, (bases, rows) in PINNED_LATTICES.items():
        mod = (swap_module() if key == "swap"
               else random_module(random.Random(key)))
        n = mod.group.rank
        assert {chi.label(): [fmt(b) for b in mod.eigenlattice_free(chi).basis]
                for chi in mod.characters} == bases, key
        for x, (table, witness, lam) in zip(PINNED_X, rows):
            x = x[:n]
            rep = mod.is_simple(tuple(2 * a for a in x))
            assert "; ".join(f"{w.content}: {fmt(w.lift)}"
                             for w in rep.components) == table, (key, x)
            rep = mod.is_simple(x)
            assert (rep.witness_character.label() if rep.simple
                    else None) == witness, (key, x)
            if rep.simple:
                _, got = mod._complement_data(x, rep.witness_character)
                assert fmt(got) == lam, (key, x)


def test_complement_on_random_simple_elements():
    rng = random.Random(77)
    found = 0
    while found < 10:
        mod = random_module(rng)
        n = mod.group.rank
        q = tuple(rng.randint(-4, 4) for _ in range(n))
        rep = mod.is_simple(q)
        if not rep.simple:
            continue
        found += 1
        basis, _ = mod._complement_data(q, rep.witness_character)
        # q together with the complement spans Q (checked internally too);
        # complement really excludes q
        gens = list(basis) + [list(r) for r in mod.group.relations]
        assert membership_solve(Lattice.from_generators(gens), q) is None


def test_validation_rejects_bad_actions():
    pres = AbelianPresentation(2, [])
    with pytest.raises(ValueError):
        InvolutionModule(pres, [[[2, 0], [0, 1]]])  # not an involution
    with pytest.raises(ValueError):
        InvolutionModule(pres, [[[0, 1], [1, 0]],
                                [[1, 0], [0, -1]]])  # do not commute
    pres2 = AbelianPresentation(2, [(0, 3)])
    with pytest.raises(ValueError):
        # sends the relation (0,3) to (3,0), outside the relation lattice
        InvolutionModule(pres2, [[[0, 1], [1, 0]]])


def test_validation_accepts_laws_that_hold_only_modulo_relations():
    # Q = Z + Z/2: A^2 = diag(1, 9) and AB != BA as integer matrices, but
    # every column of A^2 - I and of AB - BA is a multiple of (0, 2)
    pres = AbelianPresentation(2, [(0, 2)])
    A = [[1, 0], [0, 3]]
    B = [[1, 0], [1, 1]]
    assert mat_mul(A, A) != eye(2)
    assert mat_mul(A, B) != mat_mul(B, A)
    mod = InvolutionModule(pres, [A, B])
    assert mod.c_rank == 2
    assert mod.free_actions == [[[1]], [[1]]]


def test_validation_rejects_torsion_only_mismatch():
    # Q = Z + Z/4: A^2 - I has the column (0, 3), zero in the free
    # coordinate and outside the relation lattice in the torsion one
    pres = AbelianPresentation(2, [(0, 4)])
    with pytest.raises(ValueError, match="not an involution"):
        InvolutionModule(pres, [[[1, 0], [0, 2]]])


def test_project_via_epimorphism_matches_components():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        m, m_hat = rng.choice([(2, 1), (3, 2), (4, 2), (4, 3)])
        mod = random_decomposable_module(rng, m=m_hat,
                                        free_rank=rng.randint(1, 3))
        # random surjective phi: source generators -> target elements
        while True:
            phi = [tuple(rng.randint(0, 1) for _ in range(m_hat))
                   for _ in range(m)]
            from verbalclosure.involutions import _gf2_rank

            if _gf2_rank([list(b) for b in phi]) == m_hat:
                break
        n = mod.group.rank
        q = tuple(rng.randint(-5, 5) for _ in range(n))
        for chi in enumerate_characters(m):
            got = project_via_epimorphism(mod, phi, q, chi)
            chi_hat = factor_through(chi, phi, m_hat)
            if chi_hat is None:
                assert all(x == 0 for x in got)
            else:
                assert got == mod.project(q, chi_hat)
            checked += 1
    assert checked >= 100


def test_project_via_epimorphism_rejects_nonsurjective():
    rng = random.Random(2)
    mod = random_decomposable_module(rng, m=2, free_rank=2)
    phi = [(1, 0), (1, 0), (0, 0)]  # misses the second target generator
    with pytest.raises(NotEpimorphism):
        project_via_epimorphism(mod, phi, (1, 0), Character((1, 1, 1)))


def test_semidirect_group_is_a_group():
    rng = random.Random(13)
    for _ in range(10):
        mod = random_module(rng)
        G = SemidirectGroup(mod)
        n = mod.group.rank
        elts = []
        for _ in range(4):
            q = [rng.randint(-4, 4) for _ in range(n)]
            bits = tuple(rng.randint(0, 1) for _ in range(mod.c_rank))
            elts.append((tuple(mod.group.canonical(q)), bits))
        for x in elts:
            assert G.mul(x, G.inv(x)) == G.identity
            assert G.mul(G.identity, x) == x
            for y in elts:
                for z in elts:
                    assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
