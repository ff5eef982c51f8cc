"""Independent reference model for checking illation's output.

Nothing here imports the package under test.  Formulas are plain tuples:

  ("var", name)  ("const", bool)  ("not", f)  ("and", l, r)  ("or", l, r)
  ("imp", l, r)  -- propositional
  ("atom", pred, (ix, ...))  ("pi", ix, body)  ("sigma", ix, body)
  -- relational, with "not"/"and"/"or"/"imp" as above

Truth tables are evaluated bit-parallel: a formula over n variables becomes
one 2^n-bit int whose bit i is its value at row i of the canonical order
(first variable slowest, v before f).  The printers follow the grammars and
bracketing rules of docs/grammars.md.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import product

BINARY = ("and", "or", "imp")


@contextmanager
def deep_recursion(limit: int = 20_000):
    """The reference walkers recurse once per tree level; deep chains need room."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def fold(op: str, parts: list) -> tuple:
    """Left fold, as the parsers build `a | b | c` and expansion builds sums."""
    acc = parts[0]
    for part in parts[1:]:
        acc = (op, acc, part)
    return acc


def leaves(f: tuple) -> list[str]:
    """Variable occurrences left to right (constants excluded)."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        tag = node[0]
        if tag == "var":
            out.append(node[1])
        elif tag == "not":
            stack.append(node[1])
        elif tag in BINARY:
            stack.append(node[2])
            stack.append(node[1])
    return out


def variables(f: tuple) -> list[str]:
    """Distinct variables in first-occurrence order."""
    return list(dict.fromkeys(leaves(f)))


# --- printing ----------------------------------------------------------------

_CLAW, _SUM, _PROD, _NEG, _ATOM = 1, 2, 3, 4, 5
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")

# notation -> (claw, sum, prod, prefix negation, postfix negation, juxtapose)
_ALGEBRAIC = {
    "peano-russell": (">", "|", "&", "~", "", False),
    "peirce": (" -< ", " + ", "", "-", "", True),
    "schroeder": (" =< ", " + ", "", "", "'", True),
}
_LEVEL = {"imp": _CLAW, "or": _SUM, "and": _PROD}


def _algebraic(f: tuple, style: tuple) -> tuple[str, int]:
    claw, plus, times, pre, post, juxt = style
    tag = f[0]
    if tag == "var":
        return f[1], _ATOM
    if tag == "const":
        return ("#t" if f[1] else "#f"), _ATOM
    if tag == "not":
        text, level = _algebraic(f[1], style)
        if level < _NEG:
            text = f"({text})"
        return pre + text + post, _NEG
    own = _LEVEL[tag]
    lt, ll = _algebraic(f[1], style)
    rt, rl = _algebraic(f[2], style)
    # claws bracket nested claws on both sides; sums and products only on
    # the right, because they fold left
    if ll < own or (own == _CLAW and ll == own):
        lt = f"({lt})"
    if rl <= own:
        rt = f"({rt})"
    if tag == "and" and juxt:
        gap = " " if lt[-1] in _NAME_CHARS and rt[0] in _NAME_CHARS else ""
        return lt + gap + rt, own
    op = {"imp": claw, "or": plus, "and": times}[tag]
    return lt + op + rt, own


def _polish(f: tuple) -> str:
    tag = f[0]
    if tag == "var":
        return f[1]
    if tag == "const":
        raise ValueError("Polish has no constants")
    if tag == "not":
        return "N" + _polish(f[1])
    letter = {"imp": "C", "and": "K", "or": "A"}[tag]
    return letter + _polish(f[1]) + _polish(f[2])


def render(f: tuple, notation: str) -> str:
    with deep_recursion():
        if notation == "polish":
            return _polish(f)
        return _algebraic(f, _ALGEBRAIC[notation])[0]


def render_relational(f: tuple) -> str:
    """Source text in the relational grammar; quantifiers are bracketed
    unless they stand alone, so their rightward scope never swallows more."""

    def go(g: tuple, top: bool) -> tuple[str, int]:
        tag = g[0]
        if tag == "atom":
            return f"{g[1]}({','.join(g[2])})", _ATOM
        if tag in ("pi", "sigma"):
            word = "Pi" if tag == "pi" else "Sum"
            text = f"{word} {g[1]} . {go(g[2], True)[0]}"
            return (text, _CLAW) if top else (f"({text})", _ATOM)
        if tag == "not":
            text, level = go(g[1], False)
            return "~" + (f"({text})" if level < _NEG else text), _NEG
        own = _LEVEL[tag]
        lt, ll = go(g[1], False)
        rt, rl = go(g[2], False)
        if ll < own or (own == _CLAW and ll == own):
            lt = f"({lt})"
        if rl < own or (rl == own and tag != "imp"):
            rt = f"({rt})"
        return lt + {"imp": ">", "or": "|", "and": "&"}[tag] + rt, own

    with deep_recursion():
        return go(f, True)[0]


# --- bit-parallel bivalent evaluation ----------------------------------------


def _repeat(block: int, offset: int, period: int, total: int) -> int:
    """Bits [offset, offset+block) of every period, over `total` bits."""
    mask = ((1 << block) - 1) << offset
    width = period
    while width < total:
        mask |= mask << width
        width *= 2
    return mask & ((1 << total) - 1)


@lru_cache(maxsize=64)
def row_masks(n: int) -> tuple[int, ...]:
    """Mask of the rows where variable k is v, canonical order."""
    total = 1 << n
    return tuple(_repeat(1 << (n - 1 - k), 0, 2 << (n - 1 - k), total) for k in range(n))


def evaluate(f: tuple, env: dict[str, int], full: int) -> int:
    tag = f[0]
    if tag == "var":
        return env[f[1]]
    if tag == "const":
        return full if f[1] else 0
    if tag == "not":
        return full ^ evaluate(f[1], env, full)
    left = evaluate(f[1], env, full)
    right = evaluate(f[2], env, full)
    if tag == "and":
        return left & right
    if tag == "or":
        return left | right
    return (full ^ left) | right


def table_bits(f: tuple) -> tuple[list[str], int, int]:
    """(variables, value bits, all-rows mask) over canonical rows."""
    names = variables(f)
    n = len(names)
    full = (1 << (1 << n)) - 1
    env = dict(zip(names, row_masks(n)))
    with deep_recursion():
        return names, evaluate(f, env, full), full


def visits_per_row(f: tuple) -> float:
    """Node evaluations per truth-table row of a short-circuit evaluator (an
    `and` skips its right side where the left is false, `or` where it is
    true, a claw where the antecedent is false), averaged over all rows."""
    names, _, full = table_bits(f)
    env = dict(zip(names, row_masks(len(names))))

    def go(g: tuple, active: int) -> tuple[int, int]:
        here = active.bit_count()
        tag = g[0]
        if tag == "var":
            return env[g[1]], here
        if tag == "const":
            return (full if g[1] else 0), here
        if tag == "not":
            value, count = go(g[1], active)
            return full ^ value, count + here
        left, lc = go(g[1], active)
        if tag == "or":
            right, rc = go(g[2], active & (full ^ left))
            return left | right, lc + rc + here
        right, rc = go(g[2], active & left)
        value = left & right if tag == "and" else (full ^ left) | right
        return value, lc + rc + here

    with deep_recursion():
        return go(f, full)[1] / (full.bit_length() or 1)


def first_false_row(f: tuple) -> int | None:
    _, bits, full = table_bits(f)
    falsified = full ^ bits
    return None if not falsified else (falsified & -falsified).bit_length() - 1


def row_assignment(names: list[str], row: int) -> dict[str, bool]:
    n = len(names)
    return {name: not (row >> (n - 1 - k)) & 1 for k, name in enumerate(names)}


def spell(value: bool) -> str:
    return "v" if value else "f"


@lru_cache(maxsize=4)
def _row_prefixes(n: int, cells: str) -> tuple[str, ...]:
    return tuple("\t".join(row) + "\t" for row in product(cells, repeat=n))


def _tsv(names: list[str], prefixes: tuple[str, ...], values: str) -> str:
    header = "\t".join(list(names) + ["value"]) + "\n"
    return header + "".join(p + v + "\n" for p, v in zip(prefixes, values))


def table_tsv(f: tuple) -> str:
    names, bits, _ = table_bits(f)
    rows = 1 << len(names)
    values = format(bits, f"0{rows}b")[::-1].replace("1", "v").replace("0", "f")
    return _tsv(names, _row_prefixes(len(names), "vf"), values)


def taut_line(f: tuple) -> tuple[int, str]:
    """(exit code, stdout) of `taut --method full`."""
    row = first_false_row(f)
    if row is None:
        return 0, "tautology\n"
    names = variables(f)
    cells = row_assignment(names, row)
    return 1, "counterexample: " + " ".join(f"{n}={spell(cells[n])}" for n in names) + "\n"


# --- algebraic normal form -----------------------------------------------------


def anf_text(f: tuple) -> str:
    """Zhegalkin polynomial by a bit-sliced Moebius transform."""
    names = variables(f)
    n = len(names)
    total = 1 << n
    full = (1 << total) - 1
    # here bit m of a mask holds the row where variable i is v iff bit i of m
    env = {name: _repeat(1 << i, 1 << i, 2 << i, total) for i, name in enumerate(names)}
    with deep_recursion():
        coeff = evaluate(f, env, full)
    for i in range(n):
        coeff ^= (coeff & _repeat(1 << i, 0, 2 << i, total)) << (1 << i)
    monomials = []
    while coeff:
        low = coeff & -coeff
        mask = low.bit_length() - 1
        coeff ^= low
        monomials.append(tuple(sorted(names[i] for i in range(n) if mask >> i & 1)))
    if not monomials:
        return "0"
    monomials.sort(key=lambda m: (len(m), m))
    return " + ".join("".join(m) if m else "1" for m in monomials)


# --- three-valued tables --------------------------------------------------------


def tri_tsv(f: tuple) -> str:
    """Peirce's 1909 matrices: negation swaps V and F, sum is max, product min."""
    names = variables(f)
    n = len(names)
    total = 3 ** n
    env = {}
    for k, name in enumerate(names):
        block = 3 ** (n - 1 - k)
        env[name] = (_repeat(block, 0, 3 * block, total), _repeat(block, 2 * block, 3 * block, total))

    def go(g: tuple) -> tuple[int, int]:
        tag = g[0]
        if tag == "var":
            return env[g[1]]
        if tag == "not":
            high, low = go(g[1])
            return low, high
        (lv, lf), (rv, rf) = go(g[1]), go(g[2])
        if tag == "or":
            return lv | rv, lf & rf
        if tag == "and":
            return lv & rv, lf | rf
        raise ValueError(f"no trivalent matrix for {tag}")

    with deep_recursion():
        high, low = go(f)
    spelled = ["L"] * total
    for mask, letter in ((high, "V"), (low, "F")):
        text = format(mask, f"0{total}b")[::-1]
        for i in range(total):
            if text[i] == "1":
                spelled[i] = letter
    return _tsv(names, _row_prefixes(n, "VLF"), "".join(spelled))


# --- relational formulas ----------------------------------------------------------


def signature(f: tuple) -> dict[str, int]:
    """Predicate arities in first-use order."""
    sig: dict[str, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "atom":
            sig.setdefault(g[1], len(g[2]))
        elif tag == "not":
            stack.append(g[1])
        elif tag in ("pi", "sigma"):
            stack.append(g[2])
        else:
            stack.append(g[2])
            stack.append(g[1])
    return sig


def atom_name(pred: str, elements: tuple[int, ...]) -> str:
    return pred + "".join(f"_{e}" for e in elements)


def expand(f: tuple, n: int) -> tuple:
    """Quantifiers become n-fold left-folded sums and products."""

    def go(g: tuple, env: dict[str, int]) -> tuple:
        tag = g[0]
        if tag == "atom":
            return ("var", atom_name(g[1], tuple(env[ix] for ix in g[2])))
        if tag == "not":
            return ("not", go(g[1], env))
        if tag in ("pi", "sigma"):
            parts = [go(g[2], {**env, g[1]: d}) for d in range(n)]
            return fold("and" if tag == "pi" else "or", parts)
        return (tag, go(g[1], env), go(g[2], env))

    with deep_recursion():
        return go(f, {})


def cells(f: tuple, n: int) -> list[tuple[str, tuple[int, ...]]]:
    return [(pred, row) for pred, arity in signature(f).items()
            for row in product(range(n), repeat=arity)]


def first_model(f: tuple, n: int) -> tuple[int | None, int]:
    """(rank of the first satisfying interpretation or None, 2^cells).

    Interpretations enumerate with the first cell slowest and absent before
    present, so rank bit (C-1-c) is cell c's presence.
    """
    table = cells(f, n)
    count = len(table)
    total = 1 << count
    full = (1 << total) - 1
    env = {atom_name(p, row): full ^ mask for (p, row), mask in zip(table, row_masks(count))}
    with deep_recursion():
        bits = evaluate(expand(f, n), env, full)
    return (None if not bits else (bits & -bits).bit_length() - 1), total


def structure_json(f: tuple, n: int, rank: int) -> dict:
    table = cells(f, n)
    count = len(table)
    sig = signature(f)
    true = {p: [] for p in sig}
    for c, (p, row) in enumerate(table):
        if rank >> (count - 1 - c) & 1:
            true[p].append(list(row))
    return {"domain": n, "predicates": {p: {"arity": sig[p], "true": sorted(true[p])}
                                        for p in sorted(sig)}}


def extend_json(structure: dict) -> dict:
    """Add an element indiscernible from element 0."""
    fresh = structure["domain"]
    grown = {}
    for p, body in structure["predicates"].items():
        present = {tuple(row) for row in body["true"]}
        rows = [list(row) for row in product(range(fresh + 1), repeat=body["arity"])
                if tuple(0 if x == fresh else x for x in row) in present]
        grown[p] = {"arity": body["arity"], "true": sorted(rows)}
    return {"domain": fresh + 1, "predicates": grown}


def sat_output(f: tuple, n: int) -> tuple[int, str, int]:
    """(exit code, stdout, interpretations searched) of `sat`."""
    rank, total = first_model(f, n)
    if rank is None:
        return 1, "none\n", total
    return 0, json.dumps(structure_json(f, n, rank)) + "\n", rank + 1


def scan_output(f: tuple, max_size: int) -> tuple[int, str, int]:
    """(exit code, stdout, interpretations searched over all sizes) of `scan`."""
    lines, found, searched = [], False, 0
    for size in range(1, max_size + 1):
        rank, total = first_model(f, size)
        searched += total if rank is None else rank + 1
        if rank is None:
            lines.append(f"size {size}: none")
            continue
        found = True
        model = structure_json(f, size, rank)
        lines.append(f"size {size}: satisfiable " + json.dumps(model))
        lines.append(f"extend {size} -> {size + 1}: " + json.dumps(extend_json(model)))
    return (0 if found else 1), "".join(line + "\n" for line in lines), searched


def herbrand_output(f: tuple, max_size: int) -> tuple[int, str]:
    for size in range(1, max_size + 1):
        expansion = expand(f, size)
        if first_false_row(expansion) is None:
            return 0, (f"least valid size: {size}\n"
                       f"expansion: {render(expansion, 'peirce')}\n")
    return 1, f"no valid size up to {max_size}\n"


# --- the 1881 number axioms --------------------------------------------------------

AXIOM_LABELS = {"1": "partial order", "2": "connected", "3": "closed under predecessors",
                "4a": "1 is the minimum", "4b": "no maximum", "5": "induction"}
READING = ("reading: R is read as a reflexive (<=-style) order; "
           "pred(x)/succ(x) are the R-greatest/R-least strict neighbors")


def axiom_verdicts(carrier: list[str], one: str, rel: set[tuple[str, str]]) -> tuple[dict[str, bool], int]:
    """(verdict per axiom, induction subsets the sweep visits)."""
    le = lambda x, y: (x, y) in rel  # noqa: E731
    idx = {x: i for i, x in enumerate(carrier)}
    order = (all(le(x, x) for x in carrier)
             and not any(le(x, y) and le(y, x) for x in carrier for y in carrier if x != y)
             and all(le(x, z) for x in carrier for y in carrier for z in carrier
                     if le(x, y) and le(y, z)))
    connected = all(le(x, y) or le(y, x) for x in carrier for y in carrier if x != y)

    def extreme(x: str, below: bool) -> str | None:
        near = [y for y in carrier if y != x and (le(y, x) if below else le(x, y))]
        for y in near:
            if all((le(z, y) if below else le(y, z)) for z in near):
                return y
        return None

    minima = {m for m in carrier if all(le(m, x) for x in carrier)}
    preds = all(x in minima or extreme(x, True) is not None for x in carrier)
    minimum = all(le(one, x) for x in carrier)
    no_max = not any(all(le(x, m) for x in carrier) for m in carrier)
    succ = {x: extreme(x, False) for x in carrier}
    n = len(carrier)
    visited, induction = 1 << n, True
    for mask in range(1 << n):
        if not mask >> idx[one] & 1 or mask == (1 << n) - 1:
            continue
        if all(succ[x] is None or mask >> idx[succ[x]] & 1 for x in carrier if mask >> idx[x] & 1):
            visited, induction = mask + 1, False
            break
    verdicts = {"1": order, "2": connected, "3": preds, "4a": minimum, "4b": no_max, "5": induction}
    return verdicts, visited
