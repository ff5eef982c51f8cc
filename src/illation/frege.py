"""Two-dimensional Begriffsschrift-style rendering.

The 1879 notation has exactly two propositional strokes: the conditional and
negation.  A conditional keeps its consequent on the main horizontal stroke
and hangs the antecedent from a branch below; nested conditionals stack
branches downward, the outermost antecedent lowest.  Negation is a short
vertical nub on the stroke.

Because there is no conjunction stroke, formulas are normalized first:

  Sum(a, b)            ->  Claw(Neg(a), b)
  Prod(a, b)           ->  Neg(Claw(a, Neg(b)))        (standalone position)
  Claw(Prod(p, q), c)  ->  Claw(p, Claw(q, c))         (exportation)
  Conn16(...)          ->  its sum-of-products expansion

so conjoined premises in an antecedent become stacked branches, as the
notation itself would have it.

ASCII layout: the stroke is drawn with `-`, a branch point with `+`, the
descending stroke with `|`, and the negation nub as a `|` run inline into
the horizontal stroke.  The SVG rendering is derived cell-by-cell from the
same grid (12px columns, 18px rows, stroke at mid-row) and uses only line,
text, and g elements.
"""

from __future__ import annotations

import re
from typing import Iterator

from .formulas import SUBFORMULAS, Claw, Const, Neg, Prod, PropFormula, Sum, Var, free_vars
from .truth import expanded

_CELL_W = 12
_CELL_H = 18
_NUB_DEPTH = 7  # px the negation nub descends below the stroke
_STROKE = 1.5
_RUN = re.compile(r"[^ ]+")  # the SVG is drawn from the non-blank runs of the grid


def _escape(text: str) -> str:
    """XML character data: `&` first, so the entities added after it stay."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# On the drawing stack, under the subformula they follow: once it is drawn,
# drop its indent; or, after a consequent, branch down to the antecedent.
_DEDENT = object()
_BRANCH = object()


def _lines(f: PropFormula) -> Iterator[str]:
    """The drawing, line by line; line 0 carries the content stroke.

    One depth-first walk normalizes and lays out together.  `indent` holds
    the pieces of the prefix of every later line at the current depth, and
    `head` those of the next line's prefix pushed since the last branch
    line.  Every piece is two characters wide, and `known` is the text of
    the first `valid` pieces of `indent`, kept from the last branch line, so
    each line copies that text and joins only the pieces pushed since.
    """
    free_vars(f)  # a non-formula raises before the first line is drawn
    head: list[str] = []
    indent: list[str] = []
    known, valid = "", 0
    todo: list = [f]
    while todo:
        f = todo.pop()
        if f is _DEDENT or f is _BRANCH:
            indent.pop()
            valid = min(valid, len(indent))
            if f is _DEDENT:
                continue
            known = known[: 2 * valid] + "".join(indent[valid:])
            valid = len(indent)
            yield known + " |"
            head = [" +"]
            indent.append("  ")
            continue
        f = expanded(f)
        cls = type(f)
        if cls is Var or cls is Const:
            label = f.name if cls is Var else "#t" if f.value else "#f"
            yield known + "".join(head) + "-- " + label
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


def render_ascii(f: PropFormula) -> str:
    return "\n".join(_lines(f))


def spine_branch_count(f: PropFormula) -> int:
    """Branch points on the main stroke (one per claw antecedent there)."""
    return next(_lines(f)).count("+")


def _svg_rows(f: PropFormula) -> Iterator[str]:
    """The SVG document, one grid row's elements at a time."""
    grid = list(_lines(f))
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
                        f'fill="currentColor">{_escape(line[c : run.end()])}</text>'
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


def render_svg(f: PropFormula) -> str:
    return "\n".join(_svg_rows(f))


def render_lines(f: PropFormula, format: str = "ascii") -> Iterator[str]:
    """The drawing in pieces that join with newlines, made as they are
    taken, so output can be written without holding the whole drawing."""
    if format == "ascii":
        return _lines(f)
    if format == "svg":
        return _svg_rows(f)
    raise ValueError(f"unknown render format: {format!r}")


def render_frege(f: PropFormula, format: str = "ascii") -> str:
    return "\n".join(render_lines(f, format))
