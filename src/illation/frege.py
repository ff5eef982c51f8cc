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
the horizontal stroke.  The SVG rendering draws the same grid (12px
columns, 18px rows, stroke at mid-row), one or two line elements per stroke
cell, each cut from text built once per column, and uses only line, text,
and g elements.
"""

from __future__ import annotations

from typing import Iterator

from .formulas import (SUBFORMULAS, Claw, Const, Neg, Prod, PropFormula, Sum, Var,
                       check_expansions, expanded)

_CELL_W = 12
_CELL_H = 18
_NUB_DEPTH = 7  # px the negation nub descends below the stroke
_STROKE = 1.5


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
    check_expansions(f)  # a non-formula or an oversized drawing raises before line 0
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
            yield known + "".join(head) + "-- " + f.name
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


def _svg_rows(f: PropFormula) -> Iterator[str]:
    """The SVG document, one grid row's elements at a time.

    A cell's elements are cut from text built once per column, in which
    `\\1`-`\\4` stand for the row's top, stroke, bottom and nub-end y.  No
    blank cell is visited: the descending strokes are a stack, as the
    indent of `_lines` is; a branch line draws the open ones, and a label
    line below the top one ends the innermost at the `+` before its first
    `-`, past which no cell continues a stroke and each `+` opens one.
    """
    grid = list(_lines(f))
    width = max(len(line) for line in grid) * _CELL_W + _CELL_W
    height = len(grid) * _CELL_H
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<g stroke="currentColor" stroke-width="{_STROKE}" '
        'font-family="monospace" font-size="12">'
    )
    across, down, corner, branch, nub = [], [], [], [], []
    for x in range(0, width, _CELL_W):
        cx = x + _CELL_W // 2
        stroke = f'<line x1="{x}" y1="\2" x2="{x + _CELL_W}" y2="\2"/>'
        across.append(stroke)
        down.append(f'<line x1="{cx}" y1="\1" x2="{cx}" y2="\3"/>')
        corner.append(f'{stroke}\n<line x1="{cx}" y1="\1" x2="{cx}" y2="\2"/>')
        branch.append(f'{stroke}\n<line x1="{cx}" y1="\2" x2="{cx}" y2="\3"/>')
        nub.append(f'{stroke}\n<line x1="{cx}" y1="\2" x2="{cx}" y2="\4"/>')
    fresh = {"-": across, "+": branch, "|": nub}  # cells with no stroke from above
    descending: list[str] = []  # the open descending strokes, left to right
    for r, line in enumerate(grid):
        top, mid = r * _CELL_H, r * _CELL_H + _CELL_H // 2
        start = line.find("-")
        if start < 0:  # a branch line
            parts, label = descending, ""
        else:
            cells, _, label = line.rpartition(" ")
            parts = descending.copy()
            if start:  # the corner where the innermost stroke ends
                descending.pop()
                parts[-1] = corner[start - 1]
            for c, ch in enumerate(cells[start:], start):
                parts.append(fresh[ch][c])
                if ch == "+":
                    descending.append(down[c])
        row = ("\n".join(parts).replace("\1", str(top)).replace("\2", str(mid))
               .replace("\3", str(top + _CELL_H)).replace("\4", str(mid + _NUB_DEPTH)))
        if label:
            row += (f'\n<text x="{(len(line) - len(label)) * _CELL_W}" y="{mid + 4}" '
                    f'stroke="none" fill="currentColor">{_escape(label)}</text>')
        yield row
    yield "</g>\n</svg>"


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
