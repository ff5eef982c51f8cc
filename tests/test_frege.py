import itertools
import random
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import pytest

from illation import frege
from illation.formulas import Claw, Conn16, Neg, Prod, Sum, Var
from illation.frege import _escape, render_frege
from illation.notations import Notation, parse

from helpers import random_formula, ref_frege_lines, ref_svg_rows

A, B, C, X, Y, Z = (Var(n) for n in "abcxyz")
BARBARA = Claw(Prod(Claw(X, Y), Claw(Y, Z)), Claw(X, Z))


def test_atom():
    assert render_frege(A) == "-- a"


def test_negated_atom():
    assert render_frege(Neg(A)) == "-|-- a"


def test_simple_claw():
    # consequent rides the spine, antecedent hangs below the branch
    assert render_frege(Claw(X, Y)).splitlines() == [
        "-+-- y",
        " |",
        " +-- x",
    ]


def spine_branches(f):
    """Branch points on the main stroke (one per claw antecedent there)."""
    return render_frege(f).split("\n")[0].count("+")


def test_claw_branch_count():
    assert spine_branches(Claw(X, Y)) == 1
    assert spine_branches(Claw(X, Claw(Y, Z))) == 2
    assert spine_branches(A) == 0


def test_barbara_three_branches():
    # the conjunction of premises is split into two stacked conditions
    assert spine_branches(BARBARA) == 3
    lines = render_frege(BARBARA).splitlines()
    assert lines[0] == "-+-+-+-- z"
    assert sum(1 for l in lines if l.rstrip().endswith("x")) == 2
    assert sum(1 for l in lines if l.rstrip().endswith("y")) == 2


def test_sum_desugars_to_conditional():
    assert render_frege(Sum(A, B)) == render_frege(Claw(Neg(A), B))


def test_product_desugars():
    assert render_frege(Prod(A, B)) == render_frege(Neg(Claw(A, Neg(B))))


def test_conn16_renders_via_expansion():
    text = render_frege(Conn16(16, A, B))
    assert "a" in text and "b" in text


def test_ascii_is_rectangular_enough():
    """No line may be longer than the first; branches nest strictly inside."""
    rng = random.Random(1879)
    for _ in range(60):
        f = random_formula(rng, 5, "abc", with_consts=False)
        lines = render_frege(f).splitlines()
        assert lines
        assert all(set(l) <= set("-+| abcdefghijklmnopqrstuvwxyz_0123456789") for l in lines)


def test_render_frege_dispatch():
    assert render_frege(Claw(X, Y)) == render_frege(Claw(X, Y), format="ascii")
    assert render_frege(Claw(X, Y), format="svg").startswith("<svg ")
    with pytest.raises(ValueError, match="unknown render format: 'png'"):
        render_frege(Claw(X, Y), format="png")


def test_injective_on_small_corpus():
    """Distinct claw/negation shapes never collide in the drawing."""
    corpus = [
        A, B, Neg(A), Neg(Neg(A)),
        Claw(A, B), Claw(B, A), Claw(A, A),
        Claw(Neg(A), B), Neg(Claw(A, B)), Claw(A, Neg(B)),
        Claw(A, Claw(B, C)), Claw(Claw(A, B), C),
        Claw(Prod(Claw(A, B), Claw(B, C)), Claw(A, C)),
    ]
    drawings = [render_frege(f) for f in corpus]
    assert len(set(drawings)) == len(drawings)


def test_svg_wellformed_and_restricted():
    rng = random.Random(1893)
    for _ in range(40):
        f = random_formula(rng, 5, "abc", with_consts=False)
        doc = render_frege(f, "svg")
        root = ElementTree.fromstring(doc)
        assert root.tag.split("}")[-1] == "svg"
        tags = {el.tag.split("}")[-1] for el in root.iter()} - {"svg"}
        assert tags <= {"line", "text", "g"}


def test_svg_labels_match_ascii_labels():
    f = BARBARA
    root = ElementTree.fromstring(render_frege(f, "svg"))
    labels = sorted(el.text for el in root.iter() if el.tag.split("}")[-1] == "text")
    assert labels == sorted(["x", "x", "y", "y", "z", "z"])


def test_svg_has_strokes():
    root = ElementTree.fromstring(render_frege(Claw(X, Y), "svg"))
    lines = [el for el in root.iter() if el.tag.split("}")[-1] == "line"]
    assert len(lines) >= 3  # spine, vertical drop, branch stroke


@pytest.mark.parametrize(
    "text", ["", "x", "a&b", "<l_0_1>", "&lt;", "&amp;&", "<<&>>", "a > b < c & d"]
)
def test_label_escape_matches_xml_sax(text):
    assert _escape(text) == escape(text)


@pytest.mark.parametrize("joiner", ["|", "&", ">", "|~", "&~"])
def test_deep_chains_draw_as_the_joined_prefixes_did(joiner):
    names = [chr(ord("a") + i % 16) for i in range(1512)]
    f = parse(joiner.join(names), Notation.PEANO_RUSSELL)
    pairs = itertools.zip_longest(frege._lines(f), ref_frege_lines(f))
    assert next((i for i, (got, want) in enumerate(pairs) if got != want), None) is None
    short = parse(joiner.join(names[:200]), Notation.PEANO_RUSSELL)
    # not compared in the assert: no diff of a large text
    same = render_frege(short, "svg") == "\n".join(ref_svg_rows(ref_frege_lines(short)))
    assert same
