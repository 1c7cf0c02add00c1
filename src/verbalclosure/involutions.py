"""Modules over finite elementary abelian 2-groups.

A rank-m elementary abelian 2-group C acts on a finitely generated abelian
group Q through one integer involution matrix per generator.  This module
computes sign characters of C, the rational eigenprojections of elements of
Q, the eigencomponent lattices, the simplicity test that drives the whole
retract-or-witness decision, and invariant complements for simple elements.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .lattice import (
    AbelianPresentation,
    Lattice,
    content_and_primitive_part,
    eye,
    is_zero_vector,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_vec,
    membership_solve,
    smith_normal_form,
    snf_diagonal,
    vec_sub,
)


class NotSimple(ValueError):
    """Complement construction requires a simple element with the given witness."""


class NotEpimorphism(ValueError):
    """The generator images do not generate the target 2-group."""


@dataclass(frozen=True)
class Character:
    """A homomorphism from C to {+1, -1}, given by its values on generators."""

    signs: tuple

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("character signs must be +1 or -1")

    @property
    def rank(self):
        return len(self.signs)

    def on_element(self, bits):
        """Value on the element of C given by a generator-exponent bit tuple."""
        value = 1
        for s, b in zip(self.signs, bits):
            if b:
                value *= s
        return value

    def is_trivial(self):
        return all(s == 1 for s in self.signs)

    def label(self):
        return "chi(" + "".join("+" if s == 1 else "-" for s in self.signs) + ")"

    def __mul__(self, other):
        return Character(tuple(a * b for a, b in zip(self.signs, other.signs)))


def enumerate_characters(m):
    """All 2^m characters, lexicographic on sign vectors with +1 before -1."""
    return [Character(signs) for signs in product((1, -1), repeat=m)]


def enumerate_group_elements(m):
    """All elements of C as generator bit tuples, lexicographic with 0 before 1."""
    return list(product((0, 1), repeat=m))


@dataclass
class ComponentWitness:
    """Non-simplicity data for one character: component = content * direction,
    and an ambient lift of the direction back into Q."""

    character: Character
    content: int
    lift: tuple  # integer vector in Q, zero for a vanishing component


@dataclass
class SimplicityReport:
    simple: bool
    witness_character: Character = None
    primitive_direction: tuple = None  # rational vector, ambient coordinates
    components: list = None  # list of ComponentWitness, non-simple only


class InvolutionModule:
    """A finitely generated abelian group together with commuting involutions.

    `group` presents Q over ambient generators; `actions` holds one integer
    matrix per generator of C, acting on ambient coordinate columns.  The
    matrices must square to the identity, commute pairwise, and preserve the
    relation lattice -- all modulo the relations of Q.
    """

    def __init__(self, group: AbelianPresentation, actions, check=True):
        self.group = group
        self.actions = [[list(row) for row in A] for A in actions]
        self.c_rank = len(actions)
        self.elements = enumerate_group_elements(self.c_rank)
        self.characters = enumerate_characters(self.c_rank)
        if check:
            self._validate()
        # induced action on the free quotient, where the involutions commute
        # exactly and all projection algebra happens
        f = group.free_rank
        n = group.rank
        proj = group._proj
        lift = group._lift
        self.free_actions = []
        for A in self.actions:
            AG = mat_mul(A, lift) if n else []
            self.free_actions.append(mat_mul(proj, AG) if f else [])
        self._projectors = {}
        self._eigenlattices = {}

    # -- validation ---------------------------------------------------------

    def _validate(self):
        g = self.group
        n = g.rank
        ident = eye(n)
        for idx, A in enumerate(self.actions):
            if len(A) != n or any(len(row) != n for row in A):
                raise ValueError(f"action {idx} is not {n}x{n}")
            for rel in g.relations:
                img = mat_vec(A, rel)
                if not g.in_relation_lattice(img):
                    raise ValueError(f"action {idx} does not preserve the relations")
            A2 = mat_mul(A, A)
            for col in range(n):
                d = vec_sub(tuple(A2[i][col] for i in range(n)),
                            tuple(ident[i][col] for i in range(n)))
                if not g.in_relation_lattice(d):
                    raise ValueError(f"action {idx} is not an involution on Q")
        for i in range(self.c_rank):
            for j in range(i + 1, self.c_rank):
                AB = mat_mul(self.actions[i], self.actions[j])
                BA = mat_mul(self.actions[j], self.actions[i])
                for col in range(n):
                    d = vec_sub(tuple(AB[r][col] for r in range(n)),
                                tuple(BA[r][col] for r in range(n)))
                    if not g.in_relation_lattice(d):
                        raise ValueError(f"actions {i} and {j} do not commute on Q")

    # -- basic operator algebra --------------------------------------------

    @property
    def c_size(self):
        return 1 << self.c_rank

    def element_matrix(self, bits):
        """Induced free-coordinate matrix of the element of C given by bits."""
        M = eye(self.group.free_rank)
        for A, b in zip(self.free_actions, bits):
            if b:
                M = mat_mul(M, A)
        return M

    def projector_numerator(self, chi):
        """The integer matrix prod_{c in C} (I + chi(c) A_c) on free coords,
        2^{|C|} times the projector.  For commuting involutions it equals the
        m-generator `_sign_product` shifted left by |C| - m bits."""
        if chi not in self._projectors:
            M = _sign_product(self.free_actions, chi.signs, self.group.free_rank)
            shift = self.c_size - self.c_rank
            self._projectors[chi] = [[x << shift for x in row] for row in M]
        return self._projectors[chi]

    def project_free(self, q, chi):
        """Eigencomponent of an ambient integer vector, in free coordinates."""
        num = self.projector_numerator(chi)
        fq = self.group.free_coordinates(q)
        # the numerator product over all |C| = 2^m elements carries a factor
        # 2^|C| relative to the averaging projector
        scale = Fraction(1, 1 << self.c_size)
        return tuple(scale * x for x in mat_vec(num, fq))

    def project(self, q, chi):
        """The chi-component of q as a rational vector in ambient coordinates."""
        return self.group.lift_free(self.project_free(q, chi))

    # -- lattices -----------------------------------------------------------

    def eigenlattice_free(self, chi):
        if chi not in self._eigenlattices:
            n = self.group.rank
            gens = []
            for i in range(n):
                e = tuple(1 if j == i else 0 for j in range(n))
                gens.append(self.project_free(e, chi))
            self._eigenlattices[chi] = Lattice.from_generators(
                gens, dim=self.group.free_rank)
        return self._eigenlattices[chi]

    def eigenlattice(self, chi):
        """Z-basis of the lattice of chi-components of Q, ambient coordinates."""
        L = self.eigenlattice_free(chi)
        return Lattice([self.group.lift_free(v) for v in L.basis])

    def fixed_sublattice(self, chi):
        """Basis of {q in Q : cq = chi(c) q for all c}, modulo torsion."""
        f = self.group.free_rank
        stacked = []
        for j in range(self.c_rank):
            A = self.free_actions[j]
            s = chi.signs[j]
            for i in range(f):
                stacked.append([A[i][k] - (s if i == k else 0) for k in range(f)])
        basis = kernel_basis(stacked, cols=f)
        return Lattice([self.group.lift_free(v) for v in basis])

    # -- simplicity ---------------------------------------------------------

    def is_simple(self, q):
        """Decide whether some chi-component of q is primitive in its lattice.

        Returns at the first primitive component in enumeration order.  For
        non-simple q, every character gets its content k (0 for a vanishing
        component) and a lift into Q of the primitive direction.

        q is split one generator at a time: level j applies (I + A_j) and
        (I - A_j) to each vector of level j - 1 and drops the zero ones.
        The m-th level holds prod_j (I + chi_j A_j) q = 2^m e_chi q for the
        characters chi with a nonzero component, in enumeration order.  A
        level has at most f nonzero vectors (distinct joint eigenspaces), so
        the split costs at most f * m matrix-vector products, and
        eigenlattices are built only for the nonzero components.
        """
        fq = self.group.free_coordinates(q)
        level = [((), fq)] if any(fq) else []
        for A in self.free_actions:
            split = []
            for signs, w in level:
                Aw = mat_vec(A, w)
                for s in (1, -1):
                    child = tuple(x + s * y for x, y in zip(w, Aw))
                    if any(child):
                        split.append((signs + (s,), child))
            level = split
        scale = Fraction(1, 1 << self.c_rank)
        components = {}  # chi -> (content, primitive part), nonzero only
        for signs, w in level:
            chi = Character(signs)
            v = tuple(scale * x for x in w)
            k, u = content_and_primitive_part(v, self.eigenlattice_free(chi))
            if k == 1:
                return SimplicityReport(simple=True, witness_character=chi,
                                        primitive_direction=self.group.lift_free(v))
            components[chi] = k, u
        zero = (0,) * self.group.rank
        table = []
        for chi in self.characters:
            k, u = components.get(chi, (0, None))
            # the eigenlattice's generators are the projections of the unit
            # vectors, so the coefficients lift u back into Q
            lift = membership_solve(self.eigenlattice_free(chi), u) if k else zero
            if lift is None:
                raise AssertionError("primitive part escaped its own lattice")
            table.append(ComponentWitness(chi, k, lift))
        return SimplicityReport(simple=False, components=table)

    # -- complements --------------------------------------------------------

    def _complement_data(self, q, chi):
        """Invariant complement M with Q = <q> + M (direct), plus the integer
        functional on ambient coordinates whose kernel is M.

        Construction: extend the chi-component of q to a basis of the
        eigenlattice; the functional reads off the coefficient of that basis
        vector.  Raises NotSimple unless the component is primitive.
        """
        v = self.project_free(q, chi)
        L = self.eigenlattice_free(chi)
        coords = None if is_zero_vector(v) else L.integer_coordinates(v)
        if coords is None or len(coords) == 0:
            raise NotSimple("element has no primitive component at this character")
        g = 0
        for x in coords:
            g = gcd(g, abs(x))
        if g != 1:
            raise NotSimple("component is not primitive at this character")
        k = len(coords)
        # complete the coordinate row to a unimodular matrix W with W[0] = coords
        _, D, V = smith_normal_form([list(coords)])
        assert snf_diagonal(D) == [1]
        W = mat_inv(V)
        if W[0] != list(coords):
            W[0] = [-x for x in W[0]]
        assert W[0] == list(coords)
        Winv = mat_inv(W)
        n = self.group.rank
        functional = []
        for g in L.generators:  # the projection of each unit vector
            ci = L.integer_coordinates(g)
            functional.append(sum(ci[t] * Winv[t][0] for t in range(k)))
        lam = tuple(functional)
        basis = kernel_basis([list(lam)], cols=n)
        self._check_complement(q, lam, basis)
        return basis, lam

    def _check_complement(self, q, lam, basis):
        g = self.group
        n = g.rank
        assert sum(l * x for l, x in zip(lam, q)) == 1
        stacked = [list(q)] + [list(b) for b in basis] + [list(r) for r in g.relations]
        _, D, _ = smith_normal_form(stacked)
        diag = snf_diagonal(D)
        if not (len([d for d in diag if d == 1]) == n and all(d in (0, 1) for d in diag)):
            raise AssertionError("complement does not span Q together with q")
        for A in self.actions:
            for b in basis:
                img = mat_vec(A, b)
                if sum(l * x for l, x in zip(lam, img)) != 0:
                    raise AssertionError("complement is not invariant")

    def complement(self, q, chi):
        """Generators of an invariant complement M with Q = <q> (+) M.

        Precondition: q is simple with witness chi (NotSimple otherwise).
        The returned vectors span M together with all torsion of Q.
        """
        basis, _ = self._complement_data(q, chi)
        return [tuple(b) for b in basis]

    # -- identities ---------------------------------------------------------

    def verify_component_identity(self, q):
        """Self-check: the characterwise projections of q sum back to q
        (modulo torsion).  Holds for every valid module; used as an oracle."""
        f = self.group.free_rank
        fq = self.group.free_coordinates(q)
        total = tuple(Fraction(0) for _ in range(f))
        for chi in self.characters:
            num = self.projector_numerator(chi)
            total = tuple(a + b for a, b in zip(total, mat_vec(num, fq)))
        target = tuple(Fraction(1 << self.c_size) * x for x in fq)
        return total == target

    def is_decomposable(self):
        """Whether Q modulo torsion is the direct sum of its eigencomponent
        sublattices.  In free coordinates the image of Q is the full integer
        lattice, so this reduces to integrality of every generator component."""
        n = self.group.rank
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            for chi in self.characters:
                v = self.project_free(e, chi)
                if any(Fraction(x).denominator != 1 for x in v):
                    return False
        return True


def project(module, q, chi):
    return module.project(q, chi)


def project_via_epimorphism(target_module, phi, q, chi):
    """Projection of q through a surjection of 2-groups.

    `phi` gives, for each generator of the source group C, the image element
    of the target group as a bit tuple.  The result equals the component of q
    at the unique factoring character when chi factors through phi, and is
    zero otherwise.  Raises NotEpimorphism when the images fail to generate
    the target group.  The product over all 2^m source elements is
    2^{2^m - m} times the `_sign_product` over the m generator images, so
    the latter is divided by 2^m.
    """
    m = chi.rank
    if len(phi) != m:
        raise ValueError("phi must assign an image to every source generator")
    if _gf2_rank([list(bits) for bits in phi]) != target_module.c_rank:
        raise NotEpimorphism("generator images do not span the target group")
    M = _sign_product([target_module.element_matrix(bits) for bits in phi],
                      chi.signs, target_module.group.free_rank)
    fq = target_module.group.free_coordinates(q)
    return target_module.group.lift_free(
        tuple(Fraction(x, 1 << m) for x in mat_vec(M, fq)))


def _sign_product(matrices, signs, f):
    """The f x f integer matrix prod_j (I + s_j A_j).  For m commuting
    involutions A_j it is 2^m times the projector onto their common
    (s_1, ..., s_m)-eigenspace, and the product over all 2^m elements of the
    group they generate is 2^{2^m - m} times it."""
    M = eye(f)
    for A, s in zip(matrices, signs):
        M = mat_mul(M, [[(1 if i == j else 0) + s * A[i][j] for j in range(f)]
                        for i in range(f)])
    return M


def factor_through(chi, phi, m_hat):
    """The character of the target group with chi = chi_hat o phi, or None."""
    for chi_hat in enumerate_characters(m_hat):
        if all(s == chi_hat.on_element(bits) for s, bits in zip(chi.signs, phi)):
            return chi_hat
    return None


def _gf2_rank(rows):
    rows = [int("".join(map(str, r)), 2) if r else 0 for r in rows]
    rank = 0
    for i in range(len(rows)):
        if rows[i] == 0:
            continue
        pivot = rows[i].bit_length() - 1
        rank += 1
        for j in range(len(rows)):
            if j != i and rows[j] >> pivot & 1:
                rows[j] ^= rows[i]
    return rank
