"""Shared generators and reference oracles.

Everything here is deliberately written against the data model only, in a
different style from the library internals, so tests that compare against
these helpers are genuine cross-checks rather than mirrors.
"""

import itertools
from collections import deque

from illation.errors import LimitExceededError
from illation.formulas import (
    PI,
    SIGMA,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    Quant,
    RAtom,
    RClaw,
    RNeg,
    RProd,
    RSum,
    SUBFORMULAS,
    Sum,
    Var,
    free_vars,
    predicate_signature,
)
from illation.quantifiers import Structure, eval_in
from illation.truth import (
    _DECIDING,
    _INDIRECT_STATE_CAP,
    Falsified,
    Tautology,
    _eval_masks,
    _rows,
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
    (absent before present, first cell slowest) and check each with eval_in."""
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
        if eval_in(formula, candidate):
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
                if not rows:  # no row gives the connective this value
                    traces.append(trace)
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
