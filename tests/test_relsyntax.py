"""The relational parser: exact error text on malformed input, and a
print-parse round trip of random closed formulas."""

import random
import subprocess
import sys

import pytest

from illation.formulas import PI, SIGMA, Quant, RAtom, RClaw, RNeg, RProd, RSum
from illation.notations import ParseError
from illation.relsyntax import parse_relational

from helpers import random_closed_formula

ATOM_OR_PAREN = "expected one of: predicate atom, '('"
LEXICON = "expected one of: 'Pi', 'Sum', name, '(', ')', ',', '.', '~', '>', '&', '|'"

MALFORMED = {
    "Pi i .": f"syntax error at offset 6; found end of input; {ATOM_OR_PAREN}",
    "Pi i": "syntax error at offset 4; found end of input; expected one of: '.'",
    "Pi . p(i)": "syntax error at offset 3; found '.'; expected one of: index variable",
    "Pi i p(i)": "syntax error at offset 5; found 'p'; expected one of: '.'",
    "Pi Pi": "syntax error at offset 3; found 'Pi'; expected one of: index variable",
    "Sum": "syntax error at offset 3; found end of input; expected one of: index variable",
    "l(i,)": "syntax error at offset 4; found ')'; expected one of: index variable",
    "l(i": "syntax error at offset 3; found end of input; expected one of: ')'",
    "l()": "syntax error at offset 2; found ')'; expected one of: index variable",
    "p(i j)": "syntax error at offset 4; found 'j'; expected one of: ')'",
    "p": "syntax error at offset 1; found end of input; expected one of: '('",
    "P(i)": "unexpected word at offset 0; found 'P'; "
            "expected one of: 'Pi', 'Sum', lowercase name",
    "Sigma i . p(i)": "unexpected word at offset 0; found 'Sigma'; "
                      "expected one of: 'Pi', 'Sum', lowercase name",
    "#t": f"unexpected character at offset 0; found '#'; {LEXICON}",
    "p(i) $ q(i)": f"unexpected character at offset 5; found '$'; {LEXICON}",
    "p(i) q(i)": "syntax error at offset 5; found 'q'; expected one of: end of input",
    "p(i).q(i)": "syntax error at offset 4; found '.'; expected one of: end of input",
    "((p(i))": "syntax error at offset 7; found end of input; expected one of: ')'",
    "(p(i)))": "syntax error at offset 6; found ')'; expected one of: end of input",
    "(Pi i . p(i)": "syntax error at offset 12; found end of input; expected one of: ')'",
    "": f"syntax error at offset 0; found end of input; {ATOM_OR_PAREN}",
    "~": f"syntax error at offset 1; found end of input; {ATOM_OR_PAREN}",
    ")": f"syntax error at offset 0; found ')'; {ATOM_OR_PAREN}",
    "p(i) & & q(i)": f"syntax error at offset 7; found '&'; {ATOM_OR_PAREN}",
    "Pi i . (Sum j . l(i,j)) >": f"syntax error at offset 25; found end of input; {ATOM_OR_PAREN}",
}


@pytest.mark.parametrize("source", list(MALFORMED))
def test_malformed_input_error_text(source):
    with pytest.raises(ParseError) as err:
        parse_relational(source)
    assert str(err.value) == MALFORMED[source]


# A name is /[a-z][a-z0-9]*/, so a letter outside ASCII is a character no
# token spells, as an index variable and as a predicate name.
@pytest.mark.parametrize("source, offset", [("Pi é . p(é)", 3), ("Pi i . é(i)", 7)])
def test_a_non_ascii_letter_is_no_name(source, offset):
    done = subprocess.run([sys.executable, "-m", "illation.cli", "expand", "--domain", "1",
                           source], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: unexpected character at offset {offset}; found 'é'; {LEXICON}\n"


_LEVEL = {RClaw: 1, RSum: 2, RProd: 3}
_SYMBOL = {RClaw: ">", RSum: "|", RProd: "&"}


def render(f, top=True):
    """(text, level) of `f` in the relational grammar; a quantifier is
    bracketed unless it stands alone, so its scope never swallows more."""
    if isinstance(f, RAtom):
        return f"{f.predicate}({','.join(f.indices)})", 5
    if isinstance(f, Quant):
        text = f"{'Pi' if f.kind == PI else 'Sum'} {f.var} . {render(f.body)[0]}"
        return (text, 1) if top else (f"({text})", 5)
    if isinstance(f, RNeg):
        text, level = render(f.inner, False)
        return "~" + (f"({text})" if level < 4 else text), 4
    own = _LEVEL[type(f)]
    left, right = (f.antecedent, f.consequent) if isinstance(f, RClaw) else (f.left, f.right)
    lt, ll = render(left, False)
    rt, rl = render(right, False)
    if ll < own or (ll == own and own == 1):  # the claw associates right
        lt = f"({lt})"
    if rl < own or (rl == own and own != 1):  # sum and product associate left
        rt = f"({rt})"
    return f"{lt} {_SYMBOL[type(f)]} {rt}", own


def test_random_formulas_round_trip():
    rng = random.Random(1883)
    for depth in (2, 4, 6, 8):
        for _ in range(60):
            f = random_closed_formula(rng, depth, {"p": 1, "l": 2, "r": 3})
            assert parse_relational(render(f)[0]) == f


def test_printer_spells_the_grammar():
    f = parse_relational("Pi i . (Sum j . l(i,j)) > ~(p(i) | p(i)) & p(i)")
    assert render(f)[0] == "Pi i . (Sum j . l(i,j)) > ~(p(i) | p(i)) & p(i)"


def test_a_quantifier_may_follow_the_claw_unbracketed():
    p, l = RAtom("p", ("i",)), RAtom("l", ("i", "j"))
    f = parse_relational("Sum i . p(i) > ~p(i) > Pi j . l(i,j) & p(i)")
    assert f == Quant(SIGMA, "i", RClaw(p, RClaw(RNeg(p), Quant(PI, "j", RProd(l, p)))))
