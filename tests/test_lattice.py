"""Tests for exact integer/rational linear algebra and presented groups."""

import random
from fractions import Fraction

import pytest

from util import count_calls

from verbalclosure.lattice import (
    AbelianPresentation,
    Lattice,
    NotInLattice,
    content_and_primitive_part,
    eye,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_vec,
    membership_solve,
    smith_normal_form,
    snf_diagonal,
    vec_sub,
)


def _det(M):
    n = len(M)
    work = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(col + 1, n):
            f = work[i][col]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return det


def _random_nonsingular(rng, n, denominators=(1,)):
    while True:
        M = [[Fraction(rng.randint(-6, 6), rng.choice(denominators))
              for _ in range(n)] for _ in range(n)]
        if _det(M) != 0:
            return M


def test_smith_normal_form_random():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1
        diag = snf_diagonal(D)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_smith_normal_form_fixture():
    # the 1x2 row (3, 5) has gcd 1
    _, D, _ = smith_normal_form([[3, 5]])
    assert snf_diagonal(D) == [1]
    _, D, _ = smith_normal_form([[4, 6], [2, 2]])
    diag = snf_diagonal(D)
    assert diag == [2, 2]


def test_kernel_basis_saturated():
    rng = random.Random(5)
    for _ in range(40):
        r = rng.randint(1, 3)
        c = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        basis = kernel_basis(M, cols=c)
        for v in basis:
            assert all(x == 0 for x in mat_vec(M, v))
        # random integer kernel vectors lie in the integer span
        if basis:
            L = Lattice.from_generators(basis)
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                v = tuple(sum(k * b[i] for k, b in zip(coeffs, basis))
                          for i in range(c))
                assert L.integer_coordinates(v) is not None
    assert kernel_basis([], cols=3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_membership_solve_over_generators_roundtrip():
    rng = random.Random(9)
    for trial in range(150):
        g = rng.randint(1, 4)
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(g)]
        if trial % 3 == 1:  # zero generators among the others
            for i in rng.sample(range(g), rng.randint(1, g)):
                gens[i] = (0,) * n
        elif trial % 3 == 2:  # rational entries
            gens = [tuple(Fraction(x, rng.choice((1, 2, 3))) for x in v)
                    for v in gens]
        coeffs = [rng.randint(-5, 5) for _ in range(g)]
        target = tuple(sum(c * v[i] for c, v in zip(coeffs, gens))
                       for i in range(n))
        got = membership_solve(Lattice.from_generators(gens), target)
        assert got is not None
        back = tuple(sum(c * v[i] for c, v in zip(got, gens))
                     for i in range(n))
        assert back == target


def test_membership_solve_over_generators_rejects_outsiders():
    L = Lattice.from_generators([(2, 0), (0, 2)])
    assert membership_solve(L, (1, 0)) is None
    assert membership_solve(L, (2, 3)) is None
    empty = Lattice.from_generators([])
    assert membership_solve(empty, (0, 0)) == ()
    assert membership_solve(empty, (1, 0)) is None


def test_lattice_coordinates():
    assert Lattice([(1, 1), (1, -1)]).coordinates((2, 5)) == (
        Fraction(7, 2), Fraction(-3, 2))
    assert Lattice([(1, 0), (0, 1)]).coordinates((4, -2)) == (4, -2)
    assert Lattice([(1, 0)]).coordinates((0, 1)) is None


def test_lattice_coordinates_round_trip():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        # the first k rows of a nonsingular matrix are independent, and
        # row k (when there is one) is off their rational span
        M = _random_nonsingular(rng, n, denominators=(1, 1, 2, 3))
        B = M[:k]
        L = Lattice(B)
        c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(k))
        v = tuple(sum(x * b[i] for x, b in zip(c, B)) for i in range(n))
        assert L.coordinates(v) == c
        if k < n:
            assert L.coordinates(M[k]) is None
        with pytest.raises(ValueError):
            Lattice(B + [v])


def test_lattice_from_generators_spans_same_lattice():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = rng.randint(1, 5)
        gens = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                      for _ in range(n)) for _ in range(g)]
        L = Lattice.from_generators(gens)
        for v in gens:
            assert L.integer_coordinates(v) is not None
        for b in L.basis:
            c = membership_solve(L, b)
            assert tuple(sum(x * v[i] for x, v in zip(c, gens))
                         for i in range(n)) == b


def test_lattice_runs_one_elimination(monkeypatch):
    # basis, coordinates, content and membership all read the Smith form
    # that found the basis
    import verbalclosure.lattice as lat

    calls = count_calls(monkeypatch, lat, "smith_normal_form")
    gens = [(Fraction(1, 2), Fraction(1, 2), 0), (0, 0, 0),
            (Fraction(1, 2), Fraction(-1, 2), 0), (1, 0, 0)]
    L = Lattice.from_generators(gens)
    assert L.integer_coordinates((2, 5, 0)) is not None
    assert L.integer_coordinates((Fraction(1, 3), 0, 0)) is None
    assert content_and_primitive_part((3, 3, 0), L) == (6, (
        Fraction(1, 2), Fraction(1, 2), 0))
    c = membership_solve(L, (2, 5, 0))
    assert tuple(sum(x * v[i] for x, v in zip(c, gens))
                 for i in range(3)) == (2, 5, 0)
    assert membership_solve(L, (0, 0, 1)) is None
    assert len(calls) == 1


def test_membership_solve_fixture():
    closure = Lattice.from_generators(
        [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2))])
    assert membership_solve(closure, (2, 5)) == (7, -3)
    assert membership_solve(closure, (Fraction(1, 2), Fraction(3, 2))) == (2, -1)
    assert membership_solve(closure, (Fraction(1, 3), 0)) is None


def test_content_and_primitive_part():
    L = Lattice([(1, 0), (0, 1)])
    k, u = content_and_primitive_part((4, 6), L)
    assert k == 2 and u == (2, 3)
    k, u = content_and_primitive_part((3, 5), L)
    assert k == 1 and u == (3, 5)
    k, u = content_and_primitive_part((0, 0), L)
    assert k == 0
    with pytest.raises(NotInLattice):
        content_and_primitive_part((Fraction(1, 2), 0), L)


def test_mat_inv_unimodular_is_integral():
    U = [[1, 2], [0, 1]]
    assert mat_inv(U) == [[1, -2], [0, 1]]
    with pytest.raises(ValueError):
        mat_inv([[1, 2], [2, 4]])


def test_mat_inv_random():
    rng = random.Random(17)
    fractional = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        A = [[int(x) for x in row] for row in _random_nonsingular(rng, n)]
        inv = mat_inv(A)
        assert mat_mul(A, inv) == eye(n)
        # integral entries come back as ints
        assert all(type(x) is int or x.denominator > 1
                   for row in inv for x in row)
        fractional += any(isinstance(x, Fraction) for row in inv for x in row)
    assert fractional > 10  # non-unimodular inputs are covered


def _mat_mul_reference(A, B):
    """Triple-loop product of an r x k and a k x c matrix."""
    rows, inner = len(A), len(B)
    cols = len(B[0]) if inner else 0
    C = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                C[i][j] += A[i][k] * B[k][j]
    return C


def test_mat_mul_matches_triple_loop():
    # the products skip zero entries, so half the shapes are mostly zeros
    rng = random.Random(17)

    def entry(rational, sparse):
        x = 0 if sparse and rng.random() < 0.7 else rng.randint(-9, 9)
        return Fraction(x, rng.randint(1, 6)) if rational else x

    def matrix(r, c, rational, sparse):
        return [[entry(rational, sparse) for _ in range(c)] for _ in range(r)]

    # (rows of A, rows of B, columns of B): 0-row A, 0-row B, 0-column B,
    # then random shapes up to 5 x 5
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (2, 0, 0)]
    while len(shapes) < 200:
        shapes.append(tuple(rng.randint(1, 5) for _ in range(3)))
    for t, (r, k, c) in enumerate(shapes):
        rational, sparse = t % 2 == 1, t % 4 >= 2
        A = matrix(r, k, rational, sparse)
        B = matrix(k, c, rational, sparse)
        assert mat_mul(A, B) == _mat_mul_reference(A, B)
        v = [row[0] for row in matrix(k, 1, rational, sparse)]
        assert mat_vec(A, v) == tuple(
            sum(a * x for a, x in zip(row, v)) for row in A)


def test_integer_input_makes_no_fraction(monkeypatch):
    # ints stay ints: an integer lattice, its basis, its integral solves
    # and its generator coordinates construct no Fraction; a lattice
    # divided by 2 makes them only where an entry is odd
    made = count_calls(monkeypatch, Fraction, "__new__")
    gens = [(2, 4, 0), (0, 2, 2), (2, 6, 2), (4, 0, 0)]
    L = Lattice.from_generators(gens)
    assert membership_solve(L, (6, 14, 2)) is not None
    assert L.generator_coordinates() == [
        list(L.integer_coordinates(g)) for g in gens]
    assert all(type(x) is int for b in L.basis for x in b)
    assert content_and_primitive_part((4, 8, 0), L)[1] == (2, 4, 0)
    assert made == []
    half = L.divided(2)
    assert all(type(x) is int for g in half.generators for x in g)
    assert made == []
    assert half.integer_coordinates((1, 1, 0)) is None
    assert made  # the non-integral coordinate


def test_entries_must_be_ints_or_fractions():
    # integral Fractions become ints in the eliminated rows; any other
    # number is refused by name rather than converted
    L = Lattice.from_generators([(Fraction(4), Fraction(2)), (0, Fraction(6))])
    assert all(type(x) is int for row in L._rows for x in row)
    with pytest.raises(TypeError, match="1.5"):
        Lattice.from_generators([(1, 0), (1.5, 2)])
    with pytest.raises(TypeError, match="0.5"):
        content_and_primitive_part((0.5, 0), L)


def test_divided_lattice_shares_the_smith_form(monkeypatch):
    # L / c is the lattice of the generators over c, with the same basis
    # over c, coordinates, membership coefficients and generator
    # coordinates, and runs no elimination of its own
    import verbalclosure.lattice as lat

    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(1, 4)
        gens = [tuple(rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        if trial % 2:
            gens = [tuple(Fraction(x, rng.choice((1, 2))) for x in v)
                    for v in gens]
        c = rng.choice((2, 4, 8, 3))
        L = Lattice.from_generators(gens)
        calls = count_calls(monkeypatch, lat, "smith_normal_form")
        D = L.divided(c)
        assert calls == []
        monkeypatch.undo()
        ref = Lattice.from_generators(
            [tuple(Fraction(x) / c for x in v) for v in gens])
        assert D.generators == ref.generators
        assert D.basis == ref.basis == [
            tuple(Fraction(x) / c for x in b) for b in L.basis]
        assert D.generator_coordinates() == ref.generator_coordinates() \
            == L.generator_coordinates()
        for _ in range(4):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            v = tuple(sum(k * g[i] for k, g in zip(coeffs, gens))
                      for i in range(n))
            w = tuple(Fraction(x) / c for x in v)
            assert D.coordinates(w) == ref.coordinates(w) == L.coordinates(v)
            assert membership_solve(D, w) == membership_solve(ref, w) \
                == membership_solve(L, v)


def test_generator_coordinates_match_per_generator_solves():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = [tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 3)))
                      for _ in range(n)) for _ in range(rng.randint(1, 5))]
        L = Lattice.from_generators(gens)
        assert L.generator_coordinates() == [
            list(L.integer_coordinates(g)) for g in gens]
        B = Lattice(L.basis)  # a lattice built from its basis
        assert B.generator_coordinates() == eye(len(L.basis))


def test_presentation_free_part():
    # Z^3 / (0,0,2): free rank 2, torsion Z/2
    P = AbelianPresentation(3, [(0, 0, 2)])
    assert P.free_rank == 2
    assert P.torsion_order == 2
    assert P.invariant_factors == [2]
    assert P.free_coordinates((0, 0, 2)) == (0, 0)
    # torsion elements are exactly those with zero free coordinates
    assert not any(P.free_coordinates((0, 0, 1)))
    assert any(P.free_coordinates((1, 0, 0)))
    # lift is a section of the projection
    for v in [(1, 0), (0, 1), (3, -4)]:
        assert P.free_coordinates(P.lift_free(v)) == v


def test_presentation_equality_and_canonical():
    P = AbelianPresentation(2, [(0, 3)])
    # elements are equal when their difference lies in the relation lattice
    assert P.in_relation_lattice(vec_sub((1, 1), (1, 4)))
    assert not P.in_relation_lattice(vec_sub((1, 1), (1, 3)))
    assert P.canonical((0, 3)) == P.canonical((0, 0))
    rng = random.Random(3)
    for _ in range(30):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (v[0], v[1] + 3 * rng.randint(-3, 3))
        assert P.canonical(v) == P.canonical(w)


def test_presentation_mixed_invariants():
    P = AbelianPresentation(3, [(2, 0, 0), (0, 4, 0)])
    assert P.free_rank == 1
    assert sorted(P.invariant_factors) == [2, 4]
    assert P.torsion_order == 8
    assert P.in_relation_lattice((2, 0, 0))
    assert P.in_relation_lattice((2, 4, 0))
    assert not P.in_relation_lattice((1, 0, 0))
    assert not P.in_relation_lattice((0, 0, 1))


def test_presentation_no_relations():
    P = AbelianPresentation(2, [])
    assert P.free_rank == 2
    assert P.torsion_order == 1
    assert P.free_coordinates((3, 5)) in [(3, 5), (5, 3), (-3, 5), (3, -5),
                                          (-3, -5), (-5, 3), (5, -3), (-5, -3)]
    # projection composed with lift is the identity on free coordinates
    assert P.free_coordinates(P.lift_free((3, 5))) == (3, 5)
