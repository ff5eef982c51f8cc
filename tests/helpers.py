"""Shared generators and reference oracles.

Everything here is deliberately written against the data model only, in a
different style from the library internals, so tests that compare against
these helpers are genuine cross-checks rather than mirrors.
"""

import itertools
import re
import sys
from collections import deque, namedtuple
from contextlib import contextmanager
from xml.sax.saxutils import escape

from illation.arithmetic import AxiomVerdict, HFAtom, _succ
from illation.errors import LimitExceededError, MissingVariableError
from illation.formulas import (
    _VAR_NAME,
    PI,
    SIGMA,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Quant,
    RAtom,
    RClaw,
    RELATIONAL,
    RNeg,
    RProd,
    RSum,
    RelFormula,
    SUBFORMULAS,
    Sum,
    Var,
    ensure_closed,
    free_vars,
    from_prefix,
    predicate_signature,
)
from illation.frege import _CELL_H, _CELL_W, _NUB_DEPTH, _STROKE
from illation.notations import Notation, ParseError
from illation.quantifiers import Structure, _check_leaves, atom_name, max_atoms_limit
from illation.trivalent import UnsupportedConnectiveError, tri_and, tri_neg, tri_or
from illation.truth import (
    _DECIDING,
    _INDIRECT_STATE_CAP,
    Falsified,
    Tautology,
    _eval_masks,
    _rows,
    expanded,
)

# The fixed 16-column connective table, rows (v,v),(v,f),(f,v),(f,f).
# Frozen here independently of the library constant so the two can be
# compared against each other.
EXPECTED_VECTORS = {
    1: (False, False, False, False),
    2: (False, False, False, True),
    3: (False, False, True, False),
    4: (False, True, False, False),
    5: (True, False, False, False),
    6: (True, True, False, False),
    7: (True, False, True, False),
    8: (True, False, False, True),
    9: (False, True, True, False),
    10: (False, True, False, True),
    11: (False, False, True, True),
    12: (False, True, True, True),
    13: (True, False, True, True),
    14: (True, True, False, True),
    15: (True, True, True, False),
    16: (True, True, True, True),
}


@contextmanager
def shallow_stack(room=40):
    """Only `room` more frames of stack while the block runs."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + room)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def ref_eval(f, env):
    """Reference evaluator: dispatch by node type, no shared code with src."""
    kind = type(f).__name__
    if kind == "Var":
        return env[f.name]
    if kind == "Const":
        return f.value
    if kind == "Neg":
        return not ref_eval(f.inner, env)
    if kind == "Claw":
        return ref_eval(f.consequent, env) if ref_eval(f.antecedent, env) else True
    if kind == "Prod":
        return ref_eval(f.left, env) and ref_eval(f.right, env)
    if kind == "Sum":
        return ref_eval(f.left, env) or ref_eval(f.right, env)
    if kind == "Conn16":
        row = {(True, True): 0, (True, False): 1, (False, True): 2, (False, False): 3}[
            (ref_eval(f.left, env), ref_eval(f.right, env))
        ]
        return EXPECTED_VECTORS[f.index][row]
    raise AssertionError(f"unknown node {kind}")


def ref_tri_eval(formula, assignment):
    """Reference trivalent evaluator, by recursion over the tree."""
    if isinstance(formula, Var):
        try:
            return assignment[formula.name]
        except KeyError:
            raise MissingVariableError(formula.name) from None
    if isinstance(formula, Neg):
        return tri_neg(ref_tri_eval(formula.inner, assignment))
    if isinstance(formula, Sum):
        return tri_or(ref_tri_eval(formula.left, assignment), ref_tri_eval(formula.right, assignment))
    if isinstance(formula, Prod):
        return tri_and(ref_tri_eval(formula.left, assignment), ref_tri_eval(formula.right, assignment))
    raise UnsupportedConnectiveError(formula)


def ref_eval_in(formula, s):
    """Reference Tarskian evaluator, by recursion over the tree: the oracle
    for `quantifiers.eval_in`, which keeps an explicit stack."""
    ensure_closed(formula)
    for name, arity in predicate_signature(formula).items():
        if name not in s.predicates:
            raise ValueError(f"structure does not interpret predicate {name!r}")
        if s.predicates[name][0] != arity:
            raise ValueError(
                f"predicate {name!r}: formula uses arity {arity}, "
                f"structure has {s.predicates[name][0]}"
            )

    def go(f, env):
        if isinstance(f, RAtom):
            return s.holds(f.predicate, tuple(env[ix] for ix in f.indices))
        if isinstance(f, Neg):
            return not go(f.inner, env)
        if isinstance(f, Claw):
            return (not go(f.antecedent, env)) or go(f.consequent, env)
        if isinstance(f, Prod):
            return go(f.left, env) and go(f.right, env)
        if isinstance(f, Sum):
            return go(f.left, env) or go(f.right, env)
        if isinstance(f, Quant):
            values = (go(f.body, {**env, f.var: d}) for d in range(s.domain_size))
            return all(values) if f.kind == PI else any(values)
        raise TypeError(f"not a relational formula: {f!r}")

    return go(formula, {})


def ref_ensure_closed(formula):
    """Reject free or shadowed index variables, each node carrying its own
    set of the indices bound above it: the check before one shared set."""
    todo = [(formula, frozenset())]
    while todo:
        f, bound = todo.pop()
        cls = type(f)
        if cls is RAtom:
            for ix in f.indices:
                if ix not in bound:
                    raise ValueError(f"free index variable: {ix!r}")
            continue
        if cls not in RELATIONAL:
            raise TypeError(f"not a relational formula: {f!r}")
        if cls is Quant:
            if f.var in bound:
                raise ValueError(f"index variable shadowed: {f.var!r}")
            bound = bound | {f.var}
        todo += [(g, bound) for g in SUBFORMULAS[cls](f)[::-1]]


def ref_expand(formula, n, max_atoms=None):
    """Quantifiers eliminated over a domain of size n, each body copy with
    its own dict of index bindings and each atom named per occurrence: the
    expansion before one shared dict."""
    if n < 1:
        raise ValueError("domain must have at least one element")
    ref_ensure_closed(formula)
    limit = max_atoms_limit(max_atoms)
    if n > limit:  # each atom's index is bound, so it expands to n or more atoms
        raise LimitExceededError(f"expansion needs more than {limit} distinct atoms")
    _check_leaves(formula, n)
    seen = {}  # one Var per atom name
    # The expansion in prefix order: each atom as its variable, each
    # quantifier as the n - 1 sums or products of its left fold followed by
    # its body once per element, in index order.
    tokens = []
    todo = [(formula, {})]
    while todo:
        f, env = todo.pop()
        cls = type(f)
        if cls is RAtom:
            name = atom_name(f.predicate, tuple(env[ix] for ix in f.indices))
            if name not in seen:
                seen[name] = Var(name)
                if len(seen) > limit:
                    raise LimitExceededError(
                        f"expansion needs more than {limit} distinct atoms"
                    )
            tokens.append(seen[name])
        elif cls is Quant:
            (body,) = SUBFORMULAS[cls](f)
            tokens += [Prod if f.kind == PI else Sum] * (n - 1)
            todo += [(body, {**env, f.var: d}) for d in reversed(range(n))]
        else:
            tokens.append(cls)
            todo += [(g, env) for g in SUBFORMULAS[cls](f)[::-1]]
    return from_prefix(tokens)


def all_envs(names):
    for bits in itertools.product((True, False), repeat=len(names)):
        yield dict(zip(names, bits))


def semantically_equal(f, g, names):
    return all(ref_eval(f, env) == ref_eval(g, env) for env in all_envs(names))


def formula_layers(names, with_consts=True, with_conn16=False, conn_indices=(8, 13)):
    """Layer 0 is the leaves; each later layer adds one construction step."""
    leaves = [Var(n) for n in names]
    if with_consts:
        leaves += [Const(True), Const(False)]
    return leaves


def grow(layer, with_conn16=False, conn_indices=(8, 13)):
    """All formulas built with one new top node over the given pool."""
    out = []
    for f in layer:
        out.append(Neg(f))
    for f, g in itertools.product(layer, repeat=2):
        out.append(Claw(f, g))
        out.append(Prod(f, g))
        out.append(Sum(f, g))
        if with_conn16:
            for k in conn_indices:
                out.append(Conn16(k, f, g))
    return out


def formulas_up_to_depth(depth, names, with_consts=True, with_conn16=False,
                         conn_indices=(8, 13)):
    """Every formula of AST depth <= depth over the given variable names."""
    pool = formula_layers(names, with_consts)
    for _ in range(depth - 1):
        pool = pool + grow(pool, with_conn16, conn_indices)
    return pool


def random_formula(rng, depth, names, with_consts=True, with_conn16=False):
    if depth <= 1 or rng.random() < 0.2:
        choices = list(names) + (["#t", "#f"] if with_consts else [])
        pick = rng.choice(choices)
        if pick == "#t":
            return Const(True)
        if pick == "#f":
            return Const(False)
        return Var(pick)
    kinds = ["neg", "claw", "prod", "sum"] + (["conn"] if with_conn16 else [])
    kind = rng.choice(kinds)
    if kind == "neg":
        return Neg(random_formula(rng, depth - 1, names, with_consts, with_conn16))
    left = random_formula(rng, depth - 1, names, with_consts, with_conn16)
    right = random_formula(rng, depth - 1, names, with_consts, with_conn16)
    if kind == "claw":
        return Claw(left, right)
    if kind == "prod":
        return Prod(left, right)
    if kind == "sum":
        return Sum(left, right)
    return Conn16(rng.randrange(1, 17), left, right)


def random_closed_formula(rng, depth, signature, bound=()):
    """A random closed relational formula over `signature` (predicate name
    -> arity) whose atoms take their indices from the enclosing quantifiers;
    at most three quantifiers nest, over i, j, k."""
    free = [v for v in "ijk" if v not in bound]
    if not bound or (free and depth > 1 and rng.random() < 0.3):
        var = rng.choice(free)
        body = random_closed_formula(rng, depth - 1, signature, bound + (var,))
        return Quant(rng.choice((PI, SIGMA)), var, body)
    if depth <= 1 or rng.random() < 0.2:
        name = rng.choice(sorted(signature))
        return RAtom(name, tuple(rng.choice(bound) for _ in range(signature[name])))
    kind = rng.choice(["neg", "claw", "prod", "sum"])
    if kind == "neg":
        return RNeg(random_closed_formula(rng, depth - 1, signature, bound))
    left = random_closed_formula(rng, depth - 1, signature, bound)
    right = random_closed_formula(rng, depth - 1, signature, bound)
    return {"claw": RClaw, "prod": RProd, "sum": RSum}[kind](left, right)


def interpretation_cells(formula, n):
    """(predicate, tuple) cells in the documented search order: predicates
    in first-use order, tuples lexicographic."""
    return [
        (name, row)
        for name, arity in predicate_signature(formula).items()
        for row in itertools.product(range(n), repeat=arity)
    ]


def ref_sat_search(formula, n):
    """The exhaustive first-model search: build every structure in order
    (absent before present, first cell slowest) and check each with
    ref_eval_in."""
    arities = predicate_signature(formula)
    cells = interpretation_cells(formula, n)
    for bits in itertools.product((False, True), repeat=len(cells)):
        tables = {name: set() for name in arities}
        for (name, row), present in zip(cells, bits):
            if present:
                tables[name].add(row)
        candidate = Structure(
            n, {name: (arities[name], frozenset(rows)) for name, rows in tables.items()}
        )
        if ref_eval_in(formula, candidate):
            return candidate
    return None


def ref_indirect(formula):
    """The indirect method as an unpruned breadth-first search over every
    branch: the oracle for `truth.indirect_falsify`, which decides by row
    search and prunes its depth-first trace search.  Among the shortest
    contradiction traces it keeps the first in breadth-first order."""
    order = free_vars(formula)
    queue = deque()
    queue.append((((formula, False),), {}, ()))
    completions = []
    traces = []
    states = 0

    while queue:
        goals, assignment, trace = queue.popleft()
        states += 1
        if states > _INDIRECT_STATE_CAP:
            raise LimitExceededError("indirect search exceeded its state cap")
        dead = False
        while goals and not dead:
            node, want = goals[0]
            rest = goals[1:]
            cls = type(node)
            if cls is Var or cls is Const:  # a constant is a variable assigned from the start
                name = node.name if cls is Var else "#t" if node.value else "#f"
                prior = assignment.get(name) if cls is Var else node.value
                if prior is None:
                    assignment = {**assignment, name: want}
                    trace = trace + ((name, want),)
                    goals = rest
                elif prior == want:
                    goals = rest
                else:
                    traces.append(trace + ((name, want),))
                    dead = True
            elif cls is Neg:
                goals = ((*SUBFORMULAS[cls](node), not want),) + rest
            elif cls in _DECIDING:
                (left, right), (on_left, on_right) = SUBFORMULAS[cls](node), _DECIDING[cls]
                if want == on_right:  # either side alone gives this value
                    _ref_branch(queue, rest, assignment, trace,
                                [((left, on_left),), ((right, on_right),)])
                    dead = True
                else:  # both sides are forced
                    goals = ((left, not on_left), (right, not on_right)) + rest
            elif cls is Conn16:
                rows = _rows(node.index, want)
                _ref_branch(queue, rest, assignment, trace,
                            [tuple(zip(SUBFORMULAS[cls](node), row)) for row in rows])
                if not rows:  # constant f asked v, or constant v asked f
                    traces.append(trace + (("#f", True) if want else ("#t", False),))
                dead = True
            else:
                raise TypeError(f"not a propositional formula: {node!r}")
        if not dead:
            complete = {name: assignment.get(name, True) for name in order}
            if _eval_masks(formula, complete, 1):  # the completion as one row
                raise RuntimeError("indirect method produced a non-falsifying leaf")
            completions.append(complete)

    if completions:
        best = min(completions, key=lambda a: tuple(not a[n] for n in order))
        return Falsified(best)
    best_trace = min(traces, key=len) if traces else ()
    return Tautology(tuple(best_trace))


def _ref_branch(queue, rest, assignment, trace, alternatives):
    for alt in alternatives:
        queue.append((tuple(alt) + rest, dict(assignment), trace))


# --- the recursive-descent parsers ------------------------------------------
#
# The tokenizers and recursive-descent parsers that the reading loop of
# `notations` replaced, kept as they were: the oracle for its trees and its
# error text.  They tokenize the whole text before parsing, and recurse once
# per bracket, so they take only shallow input.

_Token = namedtuple("_Token", "kind text offset")
_Style = namedtuple("_Style", "claw prod sum neg_prefix neg_postfix juxtaposition")

_STYLES = {
    Notation.PEANO_RUSSELL: _Style(">", "&", "|", "~", None, False),
    Notation.PEIRCE: _Style("-<", "*", "+", "-", None, True),
    Notation.SCHROEDER: _Style("=<", "*", "+", None, "'", True),
}


def _operator_table(style: _Style) -> list[tuple[str, str]]:
    ops = [(style.claw, "CLAW"), (style.prod, "PROD"), (style.sum, "SUM")]
    if style.neg_prefix:
        ops.append((style.neg_prefix, "NEG"))
    if style.neg_postfix:
        ops.append((style.neg_postfix, "POSTNEG"))
    ops.sort(key=lambda pair: len(pair[0]), reverse=True)  # maximal munch
    return ops


def _tokenize_algebraic(text: str, style: _Style) -> list[_Token]:
    ops = _operator_table(style)
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("LPAREN", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("RPAREN", c, i))
            i += 1
            continue
        if text.startswith("#t", i) or text.startswith("#f", i):
            tokens.append(_Token("CONST", text[i : i + 2], i))
            i += 2
            continue
        for literal, kind in ops:
            if text.startswith(literal, i):
                tokens.append(_Token(kind, literal, i))
                i += len(literal)
                break
        else:
            if "a" <= c <= "z":
                # longest valid name wins: l_0_1 is one variable, ab is two
                j = i + 1
                while j < len(text) and (text[j] == "_" or text[j].isascii() and text[j].isalnum() and not text[j].isupper()):
                    j += 1
                while j > i and not _VAR_NAME.fullmatch(text[i:j]):
                    j -= 1
                tokens.append(_Token("NAME", text[i:j], i))
                i = j
            else:
                lexicon = tuple(lit for lit, _ in ops) + ("variable", "'('", "')'", "'#t'", "'#f'")
                raise ParseError("unexpected character", i, lexicon, repr(c))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _AlgebraicParser:
    def __init__(self, tokens: list[_Token], style: _Style):
        self.tokens = tokens
        self.style = style
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        token = self.peek()
        found = "end of input" if token.kind == "EOF" else repr(token.text)
        return ParseError("syntax error", token.offset, expected, found)

    def atom_first(self) -> tuple[str, ...]:
        kinds = ["NAME", "CONST", "LPAREN"]
        if self.style.neg_prefix:
            kinds.append("NEG")
        return tuple(kinds)

    def parse(self) -> PropFormula:
        formula = self.formula()
        if self.peek().kind != "EOF":
            raise self.fail(("end of input",))
        return formula

    def claw(self) -> PropFormula:
        left = self.sum()
        if self.peek().kind == "CLAW":
            self.advance()
            return Claw(left, self.formula())
        return left

    # Where a whole formula starts: at the top, after a claw, inside
    # parentheses.  The relational parser puts its quantifier prefix here.
    formula = claw

    def sum(self) -> PropFormula:
        left = self.prod()
        while self.peek().kind == "SUM":
            self.advance()
            left = Sum(left, self.prod())
        return left

    def prod(self) -> PropFormula:
        left = self.unary()
        while True:
            kind = self.peek().kind
            if kind == "PROD":
                self.advance()
                left = Prod(left, self.unary())
            elif self.style.juxtaposition and kind in self.atom_first():
                left = Prod(left, self.unary())
            else:
                return left

    def unary(self) -> PropFormula:
        if self.style.neg_prefix and self.peek().kind == "NEG":
            self.advance()
            return Neg(self.unary())
        node = self.atomic()
        while self.style.neg_postfix and self.peek().kind == "POSTNEG":
            self.advance()
            node = Neg(node)
        return node

    def atomic(self) -> PropFormula:
        if self.peek().kind == "LPAREN":
            self.advance()
            inner = self.formula()
            if self.peek().kind != "RPAREN":
                raise self.fail(("')'",))
            self.advance()
            return inner
        return self.leaf()

    # A leaf, not a bracket: the relational parser reads predicate atoms here.
    def leaf(self) -> PropFormula:
        token = self.peek()
        if token.kind == "NAME":
            self.advance()
            return Var(token.text)
        if token.kind == "CONST":
            self.advance()
            return Const(token.text == "#t")
        expected = ["variable", "'#t'", "'#f'", "'('"]
        if self.style.neg_prefix:
            expected.append(repr(self.style.neg_prefix))
        raise self.fail(tuple(expected))


def ref_parse(text, notation):
    """`notations.parse` of an algebraic notation, by recursive descent."""
    style = _STYLES[notation]
    return _AlgebraicParser(_tokenize_algebraic(text, style), style).parse()


_SYMBOLS = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT",
            "~": "NEG", ">": "CLAW", "&": "PROD", "|": "SUM"}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(_Token(_SYMBOLS[c], c, i))
            i += 1
            continue
        if c.isascii() and c.isalpha():
            j = i + 1
            while j < len(text) and text[j].isascii() and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word == "Pi":
                tokens.append(_Token("PI", word, i))
            elif word == "Sum":
                tokens.append(_Token("SIGMA", word, i))
            elif word.islower():
                tokens.append(_Token("NAME", word, i))
            else:
                raise ParseError(
                    "unexpected word", i, ("'Pi'", "'Sum'", "lowercase name"), repr(word)
                )
            i = j
            continue
        raise ParseError(
            "unexpected character", i,
            ("'Pi'", "'Sum'", "name", "'('", "')'", "','", "'.'", "'~'", "'>'", "'&'", "'|'"),
            repr(c),
        )
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _RelParser(_AlgebraicParser):
    def expect(self, kind: str, label: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail((label,))
        return self.advance()

    def formula(self) -> RelFormula:
        kind = self.peek().kind
        if kind in ("PI", "SIGMA"):
            self.advance()
            var = self.expect("NAME", "index variable").text
            self.expect("DOT", "'.'")
            return Quant(PI if kind == "PI" else SIGMA, var, self.formula())
        return self.claw()

    def leaf(self) -> RAtom:
        token = self.peek()
        if token.kind != "NAME":
            raise self.fail(("predicate atom", "'('"))
        self.advance()
        self.expect("LPAREN", "'('")
        indices = [self.expect("NAME", "index variable").text]
        while self.peek().kind == "COMMA":
            self.advance()
            indices.append(self.expect("NAME", "index variable").text)
        self.expect("RPAREN", "')'")
        return RAtom(token.text, tuple(indices))


def ref_parse_relational(text):
    """`relsyntax.parse_relational`, by recursive descent."""
    return _RelParser(_tokenize(text), _STYLES[Notation.PEANO_RUSSELL]).parse()


# --- Peirce's induction axiom and Wiener's pair, by brute force ----------------


def ref_check_induction(s):
    """`arithmetic._check_induction` by enumerating every subset of the
    carrier: the first (by bit mask over the carrier) that contains 1, is
    closed under succ and is proper is the witness."""
    successor = {x: _succ(s, x) for x in s.carrier}
    n = len(s.carrier)
    for mask in range(1 << n):
        subset = {s.carrier[i] for i in range(n) if mask >> i & 1}
        if s.one not in subset:
            continue
        closed = all(
            successor[x] is None or successor[x] in subset for x in subset
        )
        if closed and len(subset) != n:
            inside = ",".join(x for x in s.carrier if x in subset)
            return AxiomVerdict(False, f"closed proper subset {{{inside}}}")
    return AxiomVerdict(True)


def _extension(x):
    """An HF set as a plain value: an atom by its name, a set as the
    frozenset of its elements' values."""
    if isinstance(x, HFAtom):
        return ("atom", x.name)
    return frozenset(_extension(e) for e in x.elements)


def ref_pair_check(count, pair):
    """`arithmetic.pair_injectivity` for the pairing `pair`, by comparing
    every two pairs: (violations, atom-level comparisons, nested
    comparisons)."""
    atoms = [HFAtom(chr(ord("a") + i)) for i in range(count)]
    failures = 0
    atom_comparisons = 0
    for a in atoms:
        for b in atoms:
            left = _extension(pair(a, b))
            for c in atoms:
                for d in atoms:
                    atom_comparisons += 1
                    same = left == _extension(pair(c, d))
                    if same != (_extension(a) == _extension(c) and _extension(b) == _extension(d)):
                        failures += 1
    pairs = [pair(a, b) for a in atoms for b in atoms]
    nested = [_extension(pair(p, q)) for p in pairs for q in pairs]
    components = [(_extension(p), _extension(q)) for p in pairs for q in pairs]
    nested_comparisons = 0
    for (p, q), left in zip(components, nested):
        for (r, t), right in zip(components, nested):
            nested_comparisons += 1
            if (left == right) != (p == r and q == t):
                failures += 1
    return failures, atom_comparisons, nested_comparisons


def ref_render_tsv(variables, cells, column):
    """The whole TSV table at once, `column` the spelled values of every
    row: the renderer before tables were streamed in row blocks."""
    count, size = len(variables), len(column)
    width = 2 * count + 2
    body = bytearray((b"\t" * (width - 1) + b"\n") * size)
    for i in range(count):
        run = len(cells) ** (count - 1 - i)
        period = b"".join(cell.encode() * run for cell in cells)
        body[2 * i :: width] = period * (size // len(period))
    body[2 * count :: width] = column.encode()
    return "\t".join(variables + ("value",)) + "\n" + body.decode()


_DEDENT = object()
_BRANCH = object()


def ref_frege_lines(f):
    """The Frege drawing's lines, each prefix joined from its pieces over
    the whole depth: the layout before each line reused the last one's
    prefix."""
    free_vars(f)  # a non-formula raises before the first line is drawn
    head = []
    indent = []
    todo = [f]
    while todo:
        f = todo.pop()
        if f is _DEDENT:
            indent.pop()
            continue
        if f is _BRANCH:
            indent.pop()
            yield "".join(indent) + " |"
            head = indent + [" +"]
            indent.append("  ")
            continue
        f = expanded(f)
        cls = type(f)
        if cls is Var or cls is Const:
            yield "".join(head) + "-- " + (f.name if cls is Var else "#t" if f.value else "#f")
            continue
        if cls is Neg or cls is Prod:  # the nub; a product is a negated claw
            head.append("-|")
            indent.append("  ")
            todo.append(_DEDENT)
            if cls is Neg:
                todo += SUBFORMULAS[cls](f)
                continue
        left, right = SUBFORMULAS[cls](f)
        if cls is Claw:
            left = expanded(left)
            if type(left) is Prod:  # exportation: the conjuncts hang as branches
                first, second = SUBFORMULAS[Prod](left)
                todo.append(Claw(first, Claw(second, right)))
                continue
            antecedent, consequent = left, right
        elif cls is Sum:
            antecedent, consequent = Neg(left), right
        else:  # the product's claw, drawn without exporting its antecedent
            antecedent, consequent = left, Neg(right)
        head.append("-+")
        indent.append(" |")
        todo += (_DEDENT, antecedent, _BRANCH, consequent)


_RUN = re.compile(r"[^ ]+")  # the SVG is drawn from the non-blank runs of the grid


def ref_svg_rows(lines):
    """The SVG document of a Frege drawing, one grid row's elements at a
    time, each cell's elements formatted from its coordinates and from the
    cell above it: the renderer before rows were cut from per-column
    fragments."""
    grid = list(lines)
    width = max(len(line) for line in grid) * _CELL_W + _CELL_W
    height = len(grid) * _CELL_H
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<g stroke="currentColor" stroke-width="{_STROKE}" '
        'font-family="monospace" font-size="12">'
    )
    above = ""
    for r, line in enumerate(grid):
        top, mid, bottom = r * _CELL_H, r * _CELL_H + _CELL_H // 2, (r + 1) * _CELL_H
        strokes, label = [], []
        for run in _RUN.finditer(line):
            for c, ch in enumerate(run.group(), run.start()):
                x0, x1 = c * _CELL_W, (c + 1) * _CELL_W
                cx = x0 + _CELL_W // 2
                if ch not in "-+|":  # an atom label, which ends its line
                    label.append(
                        f'<text x="{x0}" y="{mid + 4}" stroke="none" '
                        f'fill="currentColor">{escape(line[c : run.end()])}</text>'
                    )
                    break
                from_above = c < len(above) and above[c] in "+|"
                if ch != "|" or not from_above:  # the horizontal stroke
                    strokes.append((x0, mid, x1, mid))
                if ch == "+":
                    # a branch-end corner, where the descending stroke arrives
                    # from above, or a spine branch point, where it leaves
                    strokes.append((cx, top, cx, mid) if from_above else (cx, mid, cx, bottom))
                elif ch == "|":
                    # the descending stroke, or a negation nub inline in the stroke
                    strokes.append((cx, top, cx, bottom) if from_above
                                   else (cx, mid, cx, mid + _NUB_DEPTH))
        above = line
        yield "\n".join([f'<line x1="{x}" y1="{y}" x2="{u}" y2="{v}"/>'
                          for x, y, u, v in strokes] + label)
    yield "</g>\n</svg>"
