"""Free-group words as shared DAGs (straight-line programs).

Words built here can have flattened length exponential in their node count
(the nested skew-commutator words do), so no pass flattens them.  Every pass
starts from one iterative walk, `postorder`, listing each distinct node once,
children first: `evaluate` interprets a GroupOps over that list, `length`
interprets letter counts over it, `serialize_equation` numbers it, and
`parse_equation` rebuilds the nodes in the same order.  Interpreting needs
only the live nodes: the base of a zero power is never read, since x^0 = 1
in every group.

A witness equation has two forms, each with one representation.  An
`Equation` (`build_witness_equation`) is the recipe of the paper's witness:
term i is the tower of the i-th character of C, each element of C spelled
by the generators at the 1-bits of its `c_bits` (`coset_words_of`), and
only c-rank, |T|, the filler and the nonzero contents are kept.
`Equation.lhs` builds the DAG on each read; `lhs_value` evaluates the live
terms level by level, up to each term's first identity level; and
`serialize_chunks` writes the DAG's post-order from the recipe, tower by
tower, filling the torsion order and the exponents into text that depends
on the c-rank alone, held per c-rank up to 6 (`_recipe_frames`).  A
`WordEquation`, which `parse_equation` reads back, holds the DAG and is
valued by walking it.
"""

from dataclasses import dataclass, fields as dataclass_fields
from itertools import compress

from .involutions import c_bits


class UnboundGenerator(KeyError):
    """A generator appearing in the word has no assigned value."""


class NotAWitness(ValueError):
    """Witness equations require a non-simple element report."""


def short_repr(x):
    """repr(x), but an int past 64 bits as its bit length: a tower's length
    or a witness's right-hand side passes Python's limit on str(int) from
    c-rank 14."""
    if type(x) is not int or x.bit_length() <= 64:
        return repr(x)
    return f"<{'-' * (x < 0)}{x.bit_length()}-bit int>"


def _repr(obj):
    """The dataclass repr, each field through `short_repr`: a witness's
    exponents pass Python's limit on str(int) from c-rank 14."""
    return type(obj).__name__ + "(" + ", ".join(
        f"{f.name}={short_repr(getattr(obj, f.name))}"
        for f in dataclass_fields(obj)) + ")"


class SLWord:
    """Base node of a word DAG.  Subterms (`children`) are shared, never copied."""

    __slots__ = ()

    @property
    def length(self):
        """Flattened letter count, in one pass over the DAG when read: it can
        be exponential in the node count, and building a word never needs it."""
        return interpret(postorder(self, live=True), _ONE_PER_LETTER,
                         _LENGTH_OPS)


class Gen(SLWord):
    __slots__ = ("name",)
    children = ()

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Gen({self.name!r})"


class Inv(SLWord):
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    @property
    def children(self):
        return (self.child,)

    def __repr__(self):
        return f"Inv(length={short_repr(self.length)})"


class Concat(SLWord):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    @property
    def children(self):
        return self.parts

    def __repr__(self):
        return (f"Concat({len(self.parts)} parts, "
                f"length={short_repr(self.length)})")


class Pow(SLWord):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        self.base = base
        self.exp = exp

    @property
    def children(self):
        return (self.base,)

    def __repr__(self):
        return (f"Pow(exp={short_repr(self.exp)}, "
                f"length={short_repr(self.length)})")


@dataclass
class GroupOps:
    """Multiplication/inverse/identity contract used by evaluate."""

    mul: callable
    inv: callable
    identity: object


class _OnePerLetter(dict):
    def __missing__(self, name):
        return 1


# lengths as a GroupOps: letters add up, and inverting keeps the length
_ONE_PER_LETTER = _OnePerLetter()
_LENGTH_OPS = GroupOps(mul=int.__add__, inv=int.__pos__, identity=0)


class CountingOps:
    """Wraps a GroupOps and counts invocations; test instrumentation."""

    def __init__(self, ops):
        self._ops = ops
        self.count = 0
        self.identity = ops.identity

    def mul(self, x, y):
        self.count += 1
        return self._ops.mul(x, y)

    def inv(self, x):
        self.count += 1
        return self._ops.inv(x)


def postorder(word, live=False):
    """Every distinct node of the DAG under word, once, children before
    their parents, in the order a depth-first walk finishes them.

    With live=True the walk does not enter the base of a power with exponent
    0, so it lists only the live nodes, the ones a value can depend on; that
    base is listed only if a nonzero path also reaches it.  Serialization
    needs the full walk, which is the default.

    The walk keeps its own stack of (node, unvisited children): a tower over
    |C| group elements nests |C| levels deep, past any recursion limit.
    """
    order = []
    seen = {word}  # words compare by identity
    dead = live and type(word) is Pow and word.exp == 0
    stack = [(word, iter(() if dead else word.children))]
    while stack:
        w, pending = stack[-1]
        for c in pending:
            if c in seen:
                continue
            seen.add(c)
            kids = c.children
            # testing `live` first keeps the default walk's added cost to
            # one test per inner node
            if kids and not (live and type(c) is Pow and c.exp == 0):
                stack.append((c, iter(kids)))
                break
            # a leaf, or a zero power in the live walk, is finished in
            # place: pushing each generator too made the walk about a fifth
            # slower
            order.append(c)
        else:
            stack.pop()
            order.append(w)
    return order


def interpret(nodes, assignment, ops):
    """Value of the last of `nodes`, a list in post-order, under the
    homomorphism sending generators to their assigned values.

    Each node is computed once from its children's values; Pow nodes use
    square-and-multiply, and a zero power is the identity without its base
    being read, so `nodes` may be the live walk.  The cost is O(len(nodes) *
    log max-exponent) group operations.
    """
    mul, inv, identity = ops.mul, ops.inv, ops.identity
    values = {}
    for w in nodes:
        kind = type(w)
        if kind is Concat:
            val = identity
            for p in w.parts:
                val = mul(val, values[p])
        elif kind is Pow:
            val = _power(values[w.base], w.exp, ops) if w.exp else identity
        elif kind is Inv:
            val = inv(values[w.child])
        else:
            val = _read(assignment, w.name)
        values[w] = val
    return val


def _read(assignment, name):
    """The value assigned to a generator, or UnboundGenerator."""
    try:
        return assignment[name]
    except KeyError:
        raise UnboundGenerator(name) from None


def _power(x, e, ops):
    """x^e over `ops` by square-and-multiply: at most 2 log2|e| + 1 group
    operations, one of them an inverse when e < 0; x^0 is the identity."""
    mul = ops.mul
    if e < 0:
        x = ops.inv(x)
        e = -e
    val = ops.identity
    while e:
        if e & 1:
            val = mul(val, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return val


def evaluate(word, assignment, ops):
    """Image of the word under the homomorphism sending generators to their
    assigned values.

    The word's live post-order is interpreted over `ops`, so each distinct
    live DAG node is evaluated once and the cost is O(live nodes * log
    max-exponent) group operations no matter how long the flattened word is.
    Generators that occur only under a zero power need no value.
    """
    return interpret(postorder(word, live=True), assignment, ops)


# ---------------------------------------------------------------------------
# the skew-commutator word tower


def skew_commutator(c_expr, sign, body):
    """body * c * body^sign * c^-1, with the body subterm shared."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    second = body if sign == 1 else Inv(body)
    return Concat((body, c_expr, second, Inv(c_expr)))


def build_w_chi(chi, c_exprs):
    """Nest one skew commutator per element of the acting 2-group around y.

    `c_exprs` lists one word per group element, in the lexicographic
    bit-tuple order used everywhere; the innermost commutator uses the last
    entry.  The result is a DAG of depth |C| in the single variable y.
    """
    return _tower(chi.index, chi.rank, list(c_exprs), Gen("y"))


def _levels(index, m):
    """(element index, sign) of each skew commutator of the tower of the
    index-th character of C, innermost first: the innermost commutator uses
    the last element of C in the enumeration order, and the sign is the
    character's value on that element, (-1)^popcount(index & e), as both
    indices number C by `c_bits`.  This is the one place that reads a
    character's value on an element.  The levels are yielded one at a
    time, so a reader that stops early pays for the levels it read."""
    return ((e, -1 if (index & e).bit_count() & 1 else 1)
            for e in range((1 << m) - 1, -1, -1))


def coset_words_of(m):
    """The coset words of C = G/Q, as `build_v_chi` takes them: element e
    is spelled by the generators at the 1-bits of `c_bits(e, m)`, so the
    words depend on the c-rank m alone."""
    return [tuple(compress(range(m), c_bits(e, m))) for e in range(1 << m)]


def _tower(index, m, c_exprs, body):
    """Nest skew commutators by c_exprs around body, the last innermost,
    with the signs of the index-th character of C."""
    levels = list(_levels(index, m))
    if len(c_exprs) != len(levels):
        raise ValueError(f"need {len(levels)} element words, got {len(c_exprs)}")
    for i, sign in levels:
        body = skew_commutator(c_exprs[i], sign, body)
    return body


def build_v_chi(chi, coset_words, y_word=None):
    """The word in x_1..x_m and y obtained by spelling each group element as
    a product of the chosen generators.

    `coset_words` lists, per element of C in enumeration order, the indices
    of the generators whose product represents it.  Substituting the actual
    cosets for the x-variables recovers the nested commutator word exactly.
    """
    return _v_tower(chi.index, chi.rank, coset_words,
                    y_word if y_word is not None else Gen("y"))


def _v_tower(index, m, coset_words, body):
    """`build_v_chi` of the index-th character of C around body."""
    c_exprs = [Concat(tuple(Gen(x_var(j)) for j in indices))
               for indices in coset_words]
    return _tower(index, m, c_exprs, body)


# ---------------------------------------------------------------------------
# witness equations


def x_var(j):
    return f"x{j + 1}"


def y_var(char_index):
    """The y of the char_index-th character: one square per character
    suffices, since every element of Q is a square in the groups in scope."""
    return f"y_{char_index}_1"


@dataclass(kw_only=True, eq=False)
class Equation:
    """The paper's witness lhs(x's, y's) = a^rhs_exponent, kept as the
    recipe of its left-hand side: one term v_chi^used_exponent per character
    of C in `enumerate_characters` order, whose y-block is
    (y_chi^2)^torsion_order, over the coset words of `coset_words_of(c_rank)`.
    Coefficients appear only on the right-hand side, a power of a.

    `contents` holds only the nonzero contents, by character index, and every
    other term's exponent is the filler, so the recipe grows with the free
    rank, not with |C|.  The rest is derived when read: the right-hand side,
    the 2^c-rank `k_values`, and `lhs`, the full DAG of about 4^c-rank nodes.
    """

    c_rank: int
    torsion_order: int
    filler: int
    contents: dict  # character index -> nonzero content

    @property
    def c_size(self):
        return 1 << self.c_rank

    @property
    def rhs_exponent(self):
        # 2 * 2^|C| * |T|: each of the |C| commutator nestings doubles it once
        return 2 * (1 << self.c_size) * self.torsion_order

    @property
    def k_values(self):  # every content, for the report and the header
        return tuple(self.contents.get(ci, 0) for ci in range(self.c_size))

    def used_exponent(self, char_index):
        return self.contents.get(char_index) or self.filler

    def live_terms(self):
        """(character index, exponent) of each term with a nonzero exponent,
        in index order: the nonzero entries of `contents` when the filler is
        0, else every term."""
        if self.filler:
            return ((ci, self.used_exponent(ci)) for ci in range(self.c_size))
        return sorted((ci, e) for ci, e in self.contents.items() if e)

    @property
    def lhs(self):
        words = coset_words_of(self.c_rank)
        terms = []
        for ci in range(self.c_size):
            squares = Concat((Pow(Gen(y_var(ci)), 2),))
            terms.append(Pow(_v_tower(ci, self.c_rank, words,
                                      Pow(squares, self.torsion_order)),
                             self.used_exponent(ci)))
        return Concat(tuple(terms))

    def lhs_value(self, assignment, ops):
        """`evaluate(self.lhs, assignment, ops)`, with no word built.

        Each x is read once; each of the `live_terms` reads its y, forms its
        y-block, then body * c * body^sign * c^-1 per `_levels` entry, then
        its power.  A coset word's value, the product of the x's at the
        1-bits of `c_bits(i, m)`, and its inverse are kept from the level
        that first reads them.  A term stops at its first identity body, as
        1 * c * 1 * c^-1 = 1: over D-infinity a tower whose character misses
        the x's flips dies within a few levels, while in G the towers of a
        solution run all 2^c-rank levels.  Other terms' y's need no value.
        """
        mul, inv, identity = ops.mul, ops.inv, ops.identity
        m, torsion = self.c_rank, self.torsion_order
        value = identity
        xs = None
        cosets = {}  # element index -> (value, inverse), on first read
        for ci, e in self.live_terms():
            if xs is None:
                xs = [_read(assignment, x_var(j)) for j in range(m)]
            y = _read(assignment, y_var(ci))
            body = _power(mul(y, y), torsion, ops)
            for i, sign in _levels(ci, m):
                if body == identity:
                    break
                pair = cosets.get(i)
                if pair is None:
                    c = identity
                    for x in compress(xs, c_bits(i, m)):
                        c = mul(c, x)
                    pair = cosets[i] = (c, inv(c))
                c, c_inv = pair
                body = mul(mul(mul(body, c), body if sign == 1 else inv(body)),
                           c_inv)
            if body != identity:
                value = mul(value, _power(body, e, ops))
        return value

    def variables(self):
        return ([x_var(j) for j in range(self.c_rank)]
                + [y_var(ci) for ci in range(self.c_size)])

    def _node_lines(self):
        return _recipe_lines(self.c_rank, self.torsion_order,
                             map(self.used_exponent, range(self.c_size)))


@dataclass(eq=False)
class WordEquation:
    """lhs = a^rhs_exponent with lhs a DAG, as `parse_equation` reads it
    from a file, with the header fields the file lists.  Its value is always
    the DAG's: the header is carried for the written form, never valued.
    """

    lhs: SLWord
    rhs_exponent: int
    c_rank: int
    torsion_order: int
    filler: int
    k_values: tuple

    __repr__ = _repr

    def lhs_value(self, assignment, ops):
        return evaluate(self.lhs, assignment, ops)

    def _node_lines(self):
        return _walk_lines(self.lhs)


def build_witness_equation(report, n, torsion_order, c_rank,
                           coset_words=None, filler=0):
    """Assemble the witness equation from a non-simplicity report.

    The y-block substituted for each character is y_chi^2 raised to the
    torsion order; characters with vanishing components get the filler
    exponent (any integer except +-1, 0 by default).  No word is built:
    the equation keeps the recipe, with the content of each of the report's
    nonzero components by its character index, the index of its term.
    `coset_words` is not read, and n must be 1, the one square per
    character; the benchmark's tracer still passes `SquareData.coset_words`
    and 1 in their places.
    """
    if report.simple:
        raise NotAWitness("simple elements admit a retraction, not a witness")
    if filler in (1, -1):
        raise ValueError("filler exponent must not be +-1")
    if n != 1:
        raise ValueError("a witness has one square per character")
    return Equation(c_rank=c_rank, torsion_order=torsion_order, filler=filler,
                    contents={ci: w.content
                              for ci, w in report.nonzero.items()})


# ---------------------------------------------------------------------------
# serialization: deterministic, sharing-preserving S-expressions


def serialize_equation(eq):
    """Textual form of an equation, one definition per DAG node of `lhs`:
    the chunks of `serialize_chunks`, joined.

    Nodes are labelled n0, n1, ... in the order of `postorder(eq.lhs)`, so
    the output is deterministic, every definition refers only to earlier
    labels, and the parse rebuilds the exact sharing structure.
    """
    return "".join(serialize_chunks(eq))


def serialize_chunks(eq):
    """The text of `serialize_equation`, made and yielded a chunk at a time:
    the header, then the equation's own node lines, then the root and the
    right-hand side.  An `Equation` writes its recipe with no node built,
    one chunk per tower (`_recipe_lines`).  Up to c-rank 6 the towers' text
    is built once per process and held, under 1 MB for every c-rank
    together, so a later file of the same c-rank costs only its numbers;
    above 6 it is built tower by tower as the file is written, so a writer
    holds about 1/|C| of the text at once and memory does not grow with the
    file.  A `WordEquation` walks its DAG, one chunk per node.
    """
    yield (f"(equation (c-rank {eq.c_rank}) (torsion {eq.torsion_order}) "
           f"(n 1) (filler {eq.filler})\n"
           f"  (k{''.join(' ' + str(k) for k in eq.k_values)})\n"
           " (nodes\n")
    root = yield from eq._node_lines()
    yield f" )\n (lhs n{root})\n (rhs a {eq.rhs_exponent}))\n"


def _walk_lines(lhs):
    """Yields the node definitions of the DAG under lhs, one line each;
    returns the root's label number."""
    labels = {}  # keyed by node: words compare by identity
    for w in postorder(lhs):
        kind = type(w)
        if kind is Concat:
            body = "(cat" + "".join([" " + labels[p] for p in w.parts]) + ")"
        elif kind is Inv:
            body = f"(inv {labels[w.child]})"
        elif kind is Pow:
            body = f"(pow {labels[w.base]} {w.exp})"
        else:
            body = f"(gen {w.name})"
        labels[w] = label = f"n{len(labels)}"
        yield f"  ({label} {body})\n"
    return len(labels) - 1


def _level_templates(m):
    """Per element of C at c-rank m, the text of one tower level with sign
    +1 and with sign -1, as `str.format` templates, with the count of labels
    each adds.  `_recipe_frames` fills them once per tower: up to c-rank 6
    (`_HELD_C_RANK`) once per process, the towers held under 1 MB in all;
    above it once per file, tower by tower as it is written, so memory does
    not grow with the file.

    A level's labels are consecutive and follow its body's label, so field
    {0} is the body and field {t} the t-th label the level defines.  A level
    is the post-order of `skew_commutator`'s Concat((body, c, body^sign,
    c^-1)): c's generators and c, Inv(body) only when the sign is -1,
    Inv(c), and the level's Concat.
    """
    plus, minus = [], []
    for indices in coset_words_of(m):
        # c's field; fields 1 .. c - 1 are its generators.  `%` writes the
        # field numbers here, and `format` each level's labels into them
        c = len(indices) + 1
        word = "".join(f"  (n{{{t}}} (gen {x_var(j)}))\n"
                       for t, j in enumerate(indices, 1))
        word += ("  (n{%d} (cat" % c
                 + "".join(f" n{{{t}}}" for t in range(1, c)) + "))\n")
        plus.append((word + "  (n{%d} (inv n{%d}))\n"
                     "  (n{%d} (cat n{0} n{%d} n{0} n{%d}))\n"
                     % (c + 1, c, c + 2, c, c + 1), c + 2))
        minus.append((word + "  (n{%d} (inv n{0}))\n"
                      "  (n{%d} (inv n{%d}))\n"
                      "  (n{%d} (cat n{0} n{%d} n{%d} n{%d}))\n"
                      % (c + 1, c + 2, c, c + 3, c, c + 1, c + 2), c + 3))
    return plus, minus


def _recipe_frames(m):
    """The text of a recipe's left-hand side at c-rank m, less its torsion
    order and exponents: yields (head, tower) per term, then the root's
    line and label number.

    The walk lists each term Pow(v_chi, e) in turn, then the root Concat.
    In a term it lists the y-block (the y, its square, the one-part Concat
    of that square, its power), then one level per `_levels` entry,
    innermost first, then the term's Pow.  No two terms share a node, and
    every label, y name and coset word is fixed by m, so the head ends
    where the y-block's torsion order goes, and the tower runs from the end
    of that line to where the term's exponent goes.
    """
    plus, minus = _level_templates(m)
    k = 0  # the next label number
    terms = ""
    for ci in range(1 << m):
        head = (f"  (n{k} (gen {y_var(ci)}))\n"
                f"  (n{k + 1} (pow n{k} 2))\n"
                f"  (n{k + 2} (cat n{k + 1}))\n"
                f"  (n{k + 3} (pow n{k + 2} ")
        parts = ["))\n"]
        body = k + 3
        for i, sign in _levels(ci, m):
            template, size = plus[i] if sign == 1 else minus[i]
            parts.append(template.format(*range(body, body + size + 1)))
            body += size
        parts.append(f"  (n{body + 1} (pow n{body} ")
        terms += f" n{body + 1}"
        k = body + 2
        yield head, "".join(parts)
    yield f"  (n{k} (cat{terms}))\n", k


# The frames of each c-rank up to this one are built once per process and
# held: 0.92 MB of text for every c-rank up to 6 (715 KB at 6), where c-rank
# 7 alone would be 3.2 MB and c-rank 8 14.4 MB.  Above it a file's frames
# are made tower by tower as it is written, and none is kept
_HELD_C_RANK = 6
_held_frames = {}  # c-rank -> tuple of `_recipe_frames`


def _recipe_lines(m, torsion, exponents):
    """`_walk_lines` of a recipe's left-hand side: yields one chunk per
    term, the frames of `_recipe_frames` with the torsion order and the
    term's exponent filled in, then the root's line; returns the root's
    label number.

    Up to c-rank `_HELD_C_RANK` the frames are built on the first write of
    a c-rank and held for the process, under 1 MB in all, so a later file
    costs a fill of 2^m + 1 numbers.  Above it each tower's frame is built
    as its chunk is written, so memory does not grow with the file.
    """
    if m <= _HELD_C_RANK:
        if m not in _held_frames:
            _held_frames[m] = tuple(_recipe_frames(m))
        frames = iter(_held_frames[m])
    else:
        frames = _recipe_frames(m)
    torsion = str(torsion)
    # the exponents first: zip then stops before it reads the root's frame
    for e, (head, tower) in zip(exponents, frames):
        yield head + torsion + tower + str(e) + "))\n"
    root_line, root = next(frames)
    yield root_line
    return root


# atoms per field; k must hold 2^c-rank, and the nodes are read one by one
_FIELD_ATOMS = {"c-rank": 1, "torsion": 1, "n": 1, "filler": 1, "k": None,
                "nodes": None, "lhs": 1, "rhs": 2}


def parse_equation(text):
    """Inverse of serialize_equation: the `WordEquation` of the text.

    The text is read as one flat token list.  Node definitions are built in
    the order they were written, each from labels defined before it, so the
    DAG is rebuilt without a nested parse tree.  Raises ValueError when the
    text is not exactly one equation form: each field once, with its number
    of atoms, n equal to 1, and nothing after the closing parenthesis.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if tokens[:2] != ["(", "equation"]:
        raise ValueError("not an equation form")
    fields = {}  # head -> its atoms; the nodes go into `built`
    built = {}
    pos = 2
    try:
        while tokens[pos] == "(":
            head = tokens[pos + 1]
            if head not in _FIELD_ATOMS or head in fields:
                raise ValueError(f"unknown or repeated field {head!r}")
            if head != "nodes":
                end = tokens.index(")", pos)
                atoms = fields[head] = tokens[pos + 2:end]
                if "(" in atoms or len(atoms) != (_FIELD_ATOMS[head] or len(atoms)):
                    raise ValueError(f"wrong number of atoms in field {head!r}")
                pos = end + 1
                continue
            fields[head] = None
            pos += 2
            while tokens[pos] == "(":
                # ( label ( kind atom ... ) )
                label, kind = tokens[pos + 1], tokens[pos + 3]
                end = tokens.index(")", pos)
                if tokens[pos + 2] != "(" or tokens[end + 1] != ")":
                    raise ValueError(f"malformed definition of {label}")
                args = tokens[pos + 4:end]
                if kind == "cat":
                    built[label] = Concat([built[a] for a in args])
                elif kind == "inv":
                    built[label] = Inv(built[args[0]])
                elif kind == "pow":
                    built[label] = Pow(built[args[0]], int(args[1]))
                elif kind == "gen":
                    built[label] = Gen(args[0])
                else:
                    raise ValueError(f"unknown node kind {kind!r}")
                pos = end + 2
            if tokens[pos] != ")":
                raise ValueError("malformed nodes field")
            pos += 1
        if tokens[pos:] != [")"] or fields.keys() != _FIELD_ATOMS.keys():
            raise ValueError("missing fields or text after the equation form")
        c_rank, k_values = int(fields["c-rank"][0]), fields["k"]
        # the range test keeps the shift no wider than len(k_values)
        if c_rank not in range(len(k_values).bit_length()) or len(k_values) != 1 << c_rank:
            raise ValueError("k must hold 2^c-rank values")
        if fields["rhs"][0] != "a":
            raise ValueError("the right-hand side must be a power of a")
        if int(fields["n"][0]) != 1:
            raise ValueError("a witness has one square per character")
        return WordEquation(
            lhs=built[fields["lhs"][0]],
            rhs_exponent=int(fields["rhs"][1]),
            c_rank=c_rank,
            torsion_order=int(fields["torsion"][0]),
            filler=int(fields["filler"][0]),
            k_values=tuple(int(k) for k in k_values),
        )
    except (IndexError, KeyError) as exc:
        raise ValueError(f"malformed equation text: {exc!r}") from None
