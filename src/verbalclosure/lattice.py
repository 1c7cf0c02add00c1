"""Exact integer and rational linear algebra.

Matrices are lists of lists of Python ints (arbitrary precision), row-major.
Vectors are tuples of ints or Fractions.  Nothing here ever touches floating
point: primitivity and content computations are only meaningful exactly.

Products skip zero entries: each row of A adds only the rows of B that its
nonzero entries select, and of those only their nonzero entries, so the
cost follows the nonzero entries.  A quotient is an int wherever the
division is exact, so integer input makes no Fraction.

The Smith normal form is the one elimination routine.  The inverse, kernels
and the presentations of finitely generated abelian groups are read off it.
A lattice runs it once, on its generators, and reads its basis, independence
check, coordinates and integer membership off that one form.
Rational input is scaled once by a common denominator, so the elimination
itself stays in integers.  Scaling does not change the form's U and V, so a
lattice divided by an integer shares its Smith form.
"""

from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import mul


class NotInLattice(ValueError):
    """Vector has non-integral coordinates relative to a lattice basis."""


# ---------------------------------------------------------------------------
# small matrix/vector helpers


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """A B, each row of A adding only the rows of B that its nonzero
    entries select, and of each such row only its nonzero entries."""
    width = len(B[0]) if B else 0
    cols = range(width)
    picks = range(len(B))
    out = []
    for row in A:
        acc = [0] * width
        for k in compress(picks, row):
            a, brow = row[k], B[k]
            for j in compress(cols, brow):
                acc[j] += a * brow[j]
        out.append(acc)
    return out


def mat_vec(A, v):
    """A v, each row summing over its nonzero entries only."""
    return tuple(sum(map(mul, compress(row, row), compress(v, row)))
                 for row in A)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _ratio(x, d):
    """x / d exactly: an int when d divides x, else a Fraction."""
    return x // d if x % d == 0 else Fraction(x, d)


def _integral(rows):
    """Rows of ints and Fractions scaled by their least common denominator,
    as (integer rows, denominator)."""
    try:
        denom = lcm(*(x.denominator for v in rows for x in v))
    except AttributeError:
        bad = next(x for v in rows for x in v if not hasattr(x, "denominator"))
        raise TypeError(f"entry {bad!r} is not an int or a Fraction") from None
    return [[x.numerator * (denom // x.denominator) for x in v]
            for v in rows], denom


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(M):
    """Diagonalise an integer matrix by unimodular row and column operations.

    Args:
      M: an integer matrix given as a list of rows (may be empty or have
        zero columns).

    Returns:
      A triple (U, D, V) of integer matrices with U * M * V = D, U and V
      unimodular (determinant +-1), D diagonal with non-negative entries
      satisfying the divisibility chain d1 | d2 | ...

    The pivot at each step is an entry of smallest absolute value in the
    remaining block, which keeps intermediate coefficients moderate.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    A = [list(row) for row in M]
    U = eye(r)
    V = eye(c)

    def row_sub(i, k, q):
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_sub(j, k, q):
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        # move a smallest nonzero entry of the remaining block to (t, t)
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])

        while True:
            for i in range(t + 1, r):
                while A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_sub(i, t, q)
                    if A[i][t] != 0:
                        row_swap(i, t)
            for j in range(t + 1, c):
                while A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_sub(j, t, q)
                    if A[t][j] != 0:
                        col_swap(j, t)
            if any(A[i][t] != 0 for i in range(t + 1, r)):
                continue
            # pivot must divide every entry of the remaining block
            bad = None
            p = A[t][t]
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if A[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)

        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1

    return U, A, V


def snf_diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def mat_inv(A):
    """Exact inverse of a square integer matrix, read off its Smith form:
    U A V = D gives A^-1 = V D^-1 U.

    Raises ValueError if the matrix is singular.  Entries of the result are
    ints when they happen to be integral; for unimodular input every
    invariant factor is 1 and the inverse is the integer product V U.
    """
    U, D, V = smith_normal_form(A)
    diag = snf_diagonal(D)
    if 0 in diag:
        raise ValueError("matrix is singular")
    # l A^-1 = V diag(l / d) U is integral for l the lcm of the factors
    l = lcm(*diag)
    VD = [[x * (l // d) for x, d in zip(row, diag)] for row in V]
    return [[_ratio(x, l) for x in row] for row in mat_mul(VD, U)]


def kernel_basis(M, cols=None):
    """Basis of the saturated integer kernel {x : M x = 0} of an integer matrix.

    Returns a list of integer vectors of length `cols` (needed when M has no
    rows).  The basis spans all integer solutions because it consists of
    columns of a unimodular matrix.
    """
    r = len(M)
    if r == 0:
        if cols is None:
            raise ValueError("cols required for a matrix with no rows")
        return [tuple(row) for row in eye(cols)]
    c = len(M[0])
    _, D, V = smith_normal_form(M)
    diag = snf_diagonal(D)
    free = [j for j in range(c) if j >= len(diag) or diag[j] == 0]
    return [tuple(V[i][j] for i in range(c)) for j in free]


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """A finitely generated subgroup of a rational vector space.

    A lattice keeps its generators, a Z-basis of their span (tuples of ints
    and Fractions, linearly independent over the rationals) and the Smith
    form U R V = D of the integer rows R = denom Mg of its generators Mg.
    That form is the only elimination a lattice runs: basis coordinates,
    content and integer membership over the generators are all read off it
    by one solve.
    """

    def __init__(self, basis):
        """The lattice with this basis, which is also its generators.
        Raises ValueError when the basis vectors are linearly dependent."""
        self._eliminate(basis)
        if self.rank < len(self.generators):
            raise ValueError("basis vectors are linearly dependent")
        self.basis = self.generators
        self._to_basis = self._u  # c B = v reads c = s U

    @classmethod
    def from_generators(cls, generators, dim=None):
        """Extract a Z-basis of the span of possibly dependent generators.

        With U R V = D for the generators' integer rows R, the rows of
        U R = D V^-1 at the nonzero invariant factors, over denom, are that
        basis B.  Then I (denom B) V = D over the rank, so the one Smith
        form of the generators is that of the basis too, and its s are
        basis coordinates.  `dim` is not read; the benchmark's tracer
        passes it.
        """
        L = cls.__new__(cls)
        L._eliminate(generators)
        L.basis = [tuple(_ratio(x, L._denom) for x in row)
                   for row in mat_mul(L._u[:L.rank], L._rows)]
        L._to_basis = None  # c B = v reads c = s
        return L

    def _eliminate(self, generators):
        """Keep the generators, their integer rows R = denom Mg and the
        Smith form U R V = D."""
        gens = [tuple(v) for v in generators]
        if any(len(v) != len(gens[0]) for v in gens):
            raise ValueError("vectors of unequal length")
        self._rows, self._denom = _integral(gens)
        self._u, D, self._v = smith_normal_form(self._rows)
        self._diag = [d for d in snf_diagonal(D) if d]
        self.generators = gens

    def divided(self, c):
        """This lattice scaled by 1/c for an integer c > 0, with no second
        elimination: Mg / c has the integer rows R over denom * c, and the
        Smith form of R is already known."""
        L = Lattice.__new__(Lattice)
        L._rows, L._u, L._v, L._diag = self._rows, self._u, self._v, self._diag
        L._to_basis = self._to_basis
        L._denom = self._denom * c
        L.generators = [tuple(_ratio(x, c) for x in v) for v in self.generators]
        L.basis = [tuple(_ratio(x, c) for x in v) for v in self.basis]
        return L

    @property
    def rank(self):
        return len(self._diag)

    def _solve(self, v):
        """The s with s D = (denom v) V over the rank, or None when v is
        outside the rational span: x Mg = v reads s D = (denom v) V with
        x = s U, so v is in the span iff (v V)_j = 0 past the rank.  An
        integral s_j is an int."""
        if not self.generators:
            return None if any(v) else []
        (w,), e = _integral([v])  # w = e v
        t = mat_mul([w], self._v)[0]
        if any(t[self.rank:]):
            return None
        return [_ratio(x * self._denom, e * d) for x, d in zip(t, self._diag)]

    def coordinates(self, v):
        """Rational coordinates of v in the basis, or None if v is outside
        the rational span."""
        s = self._solve(v)
        if s is None:
            return None
        if self._to_basis is not None:
            s = mat_mul([s], self._to_basis)[0]
        return tuple(s)

    def integer_coordinates(self, v):
        coords = self.coordinates(v)
        if coords is None or any(x.denominator != 1 for x in coords):
            return None
        return tuple(int(x) for x in coords)

    def generator_coordinates(self):
        """The basis coordinates of every generator, one integer row each,
        with no solve: R V = U^-1 D vanishes past the rank, so row i of
        R V over the d_j is the s of generator i."""
        rows = [[x // d for x, d in zip(row, self._diag)]
                for row in mat_mul(self._rows, self._v)]
        if self._to_basis is not None:
            rows = mat_mul(rows, self._to_basis)
        return rows

    def __repr__(self):
        return f"Lattice({self.basis!r})"


def membership_solve(L, v):
    """Integer coefficients expressing v over L's generators, or None if v
    is not in the lattice.  The generators are the ones given to
    `Lattice.from_generators`, or the basis for a lattice built from one.
    Read off the lattice's one Smith form as s U over the rank."""
    s = L._solve(v)
    if s is None or any(x.denominator != 1 for x in s):
        return None
    return tuple(mat_mul([s], L._u)[0])


def content_and_primitive_part(v, L):
    """Write v = k * u with u primitive in the lattice L and k >= 0.

    Returns (0, zero vector) for v = 0.  Raises NotInLattice when v has
    non-integral coordinates relative to the basis of L.
    """
    v = tuple(v)
    coords = L.integer_coordinates(v)
    if coords is None:
        raise NotInLattice(f"{v} is not in the lattice")
    k = gcd(*coords)
    return k, tuple(_ratio(x, k) for x in v) if k else v


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class AbelianPresentation:
    """A finitely generated abelian group Z^rank / (row span of relations).

    Elements are integer coordinate vectors over the formal generators.
    Smith normal form of the relation matrix is computed once and cached; it
    yields the invariant factors, the torsion order and an integer projection
    onto the free part (used to realise the rational quotient space).
    """

    def __init__(self, rank, relations=()):
        self.rank = rank
        self.relations = [tuple(row) for row in relations]
        for row in self.relations:
            if len(row) != rank:
                raise ValueError("relation length does not match rank")
        # relators as columns: the relation lattice is their integer span
        B = [[row[i] for row in self.relations] for i in range(rank)]
        if not self.relations:
            B = [[] for _ in range(rank)]
        U, D, _ = smith_normal_form(B)
        diag = snf_diagonal(D)
        self.snf_diagonal = diag
        self.invariant_factors = [d for d in diag if d not in (0, 1)]
        order = 1
        for d in self.invariant_factors:
            order *= d
        self.torsion_order = order
        self.free_indices = [i for i in range(rank)
                             if i >= len(diag) or diag[i] == 0]
        self.free_rank = len(self.free_indices)
        self._u = U
        # projection to free coordinates; the lift back inverts U when first
        # read, and a presentation read only for its invariants never does
        self._proj = [U[i] for i in self.free_indices]

    @cached_property
    def _uinv(self):
        return mat_inv(self._u) if self.rank else []

    @cached_property
    def _lift(self):
        return [[self._uinv[i][j] for j in self.free_indices]
                for i in range(self.rank)]

    def free_coordinates(self, vec):
        """Image of an element in Z^free_rank, killing torsion exactly."""
        return mat_vec(self._proj, vec)

    def lift_free(self, fvec):
        """A preferred ambient representative of a free-coordinate vector."""
        return mat_vec(self._lift, fvec)

    def in_relation_lattice(self, vec):
        y = mat_vec(self._u, vec)
        for i in range(self.rank):
            d = self.snf_diagonal[i] if i < len(self.snf_diagonal) else 0
            if d == 0:
                if y[i] != 0:
                    return False
            elif y[i] % d != 0:
                return False
        return True

    def canonical(self, vec):
        """Unique representative of the element modulo the relation lattice."""
        y = list(mat_vec(self._u, vec))
        for i in range(min(self.rank, len(self.snf_diagonal))):
            d = self.snf_diagonal[i]
            if d != 0:
                y[i] %= d
        return mat_vec(self._uinv, y)

    def __repr__(self):
        return (f"AbelianPresentation(rank={self.rank}, "
                f"relations={self.relations!r})")
