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

from .formulas import Claw, Conn16, Const, Neg, Prod, PropFormula, Sum, Var
from .truth import sop_expansion

_CELL_W = 12
_CELL_H = 18
_NUB_DEPTH = 7  # px the negation nub descends below the stroke
_STROKE = 1.5


def _escape(text: str) -> str:
    """XML character data: `&` first, so the entities added after it stay."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _normalize(f: PropFormula) -> PropFormula:
    if isinstance(f, (Var, Const)):
        return f
    if isinstance(f, Neg):
        return Neg(_normalize(f.inner))
    if isinstance(f, Claw):
        antecedent = f.antecedent
        if isinstance(antecedent, Conn16):
            antecedent = sop_expansion(
                antecedent.index, antecedent.left, antecedent.right
            )
        if isinstance(antecedent, Prod):
            return _normalize(
                Claw(antecedent.left, Claw(antecedent.right, f.consequent))
            )
        return Claw(_normalize(antecedent), _normalize(f.consequent))
    if isinstance(f, Prod):
        return Neg(Claw(_normalize(f.left), Neg(_normalize(f.right))))
    if isinstance(f, Sum):
        return Claw(Neg(_normalize(f.left)), _normalize(f.right))
    if isinstance(f, Conn16):
        return _normalize(sop_expansion(f.index, f.left, f.right))
    raise TypeError(f"not a propositional formula: {f!r}")


def _layout(f: PropFormula) -> list[str]:
    """Render a normalized formula; line 0 carries the content stroke."""
    if isinstance(f, Var):
        return [f"-- {f.name}"]
    if isinstance(f, Const):
        return ["-- " + ("#t" if f.value else "#f")]
    if isinstance(f, Neg):
        inner = _layout(f.inner)
        return ["-|" + inner[0]] + ["  " + line for line in inner[1:]]
    if isinstance(f, Claw):
        consequent = _layout(f.consequent)
        antecedent = _layout(f.antecedent)
        lines = ["-+" + consequent[0]]
        lines += [" |" + line for line in consequent[1:]]
        lines.append(" |")
        lines.append(" +" + antecedent[0])
        lines += ["  " + line for line in antecedent[1:]]
        return lines
    raise TypeError(f"normalization left an unexpected node: {f!r}")


def render_ascii(f: PropFormula) -> str:
    return "\n".join(_layout(_normalize(f)))


def spine_branch_count(f: PropFormula) -> int:
    """Branch points on the main stroke (one per claw antecedent there)."""
    return _layout(_normalize(f))[0].count("+")


def render_svg(f: PropFormula) -> str:
    grid = _layout(_normalize(f))
    width = max(len(line) for line in grid) * _CELL_W + _CELL_W
    height = len(grid) * _CELL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<g stroke="currentColor" stroke-width="{_STROKE}" '
        'font-family="monospace" font-size="12">',
    ]
    for r, line in enumerate(grid):
        mid = r * _CELL_H + _CELL_H // 2
        c = 0
        while c < len(line):
            ch = line[c]
            x0, x1 = c * _CELL_W, (c + 1) * _CELL_W
            cx = c * _CELL_W + _CELL_W // 2
            if ch == "-":
                parts.append(f'<line x1="{x0}" y1="{mid}" x2="{x1}" y2="{mid}"/>')
            elif ch == "+":
                parts.append(f'<line x1="{x0}" y1="{mid}" x2="{x1}" y2="{mid}"/>')
                if r > 0 and c < len(grid[r - 1]) and grid[r - 1][c] in "+|":
                    # branch-end corner: the descending stroke arrives from above
                    parts.append(
                        f'<line x1="{cx}" y1="{r * _CELL_H}" x2="{cx}" y2="{mid}"/>'
                    )
                else:
                    # spine branch point: the stroke descends toward the antecedent
                    parts.append(
                        f'<line x1="{cx}" y1="{mid}" x2="{cx}" y2="{r * _CELL_H + _CELL_H}"/>'
                    )
            elif ch == "|":
                if r > 0 and c < len(grid[r - 1]) and grid[r - 1][c] in "+|":
                    parts.append(
                        f'<line x1="{cx}" y1="{r * _CELL_H}" x2="{cx}" '
                        f'y2="{r * _CELL_H + _CELL_H}"/>'
                    )
                else:
                    # negation nub inline in the stroke
                    parts.append(f'<line x1="{x0}" y1="{mid}" x2="{x1}" y2="{mid}"/>')
                    parts.append(
                        f'<line x1="{cx}" y1="{mid}" x2="{cx}" y2="{mid + _NUB_DEPTH}"/>'
                    )
            elif ch != " ":
                # an atom label: consume the full run of name characters
                start = c
                while c + 1 < len(line) and line[c + 1] != " ":
                    c += 1
                label = line[start : c + 1]
                parts.append(
                    f'<text x="{start * _CELL_W}" y="{mid + 4}" stroke="none" '
                    f'fill="currentColor">{_escape(label)}</text>'
                )
            c += 1
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def render_frege(f: PropFormula, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(f)
    if format == "svg":
        return render_svg(f)
    raise ValueError(f"unknown render format: {format!r}")
