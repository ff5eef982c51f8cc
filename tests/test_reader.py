"""The readers against the parsers they replaced.

`helpers.ref_parse` and `helpers.ref_parse_relational` are the
recursive-descent parsers the reading loop replaced, and
`helpers.ref_parse_polish` the Polish reader that listed every token before
it built the tree; each is kept as it was.  On strings over each grammar's alphabet, well formed,
slightly broken, or random, the loop must build the same tree, or raise the
same error with the same text.  The strings come from hypothesis with a
fixed seed (derandomize), so a run is repeatable.

The reader lexes a long text a slice at a time, and finds the offset of an
error by counting tokens, so long texts with one late defect are read too:
several thousand tokens, flat enough for the recursive parsers.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illation.formulas import Var
from illation.notations import Notation, ParseError, _grammar, parse
from illation.relsyntax import parse_relational

from helpers import ref_parse, ref_parse_polish, ref_parse_relational

ORACLE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

WHITESPACE = ["", "", " ", "\t", "\n", "\u00a0"]  # no-break space too
# every notation's operators, so each grammar also meets the others' spellings
OPERATORS = ["~", ">", "&", "|", "-<", "-", "=<", "=", "<", "'", "*", "+"]
LEAVES = ["a", "b", "z", "l_0_1", "ab_1c", "x9_2", "q_", "a1", "#t", "#f", "#", "#x"]
STRAY = ["$", "A", "1", "_", "é", ",", "."]
ALGEBRAIC_PIECES = LEAVES + ["(", ")"] + OPERATORS + WHITESPACE + STRAY
RELATIONAL_PIECES = (
    ["p", "q", "l", "i", "j", "pi", "p1", "é", "(", ")", ",", ".", "p(i)", "l(i,j)", "p(é)",
     "é(i)", "Pi", "Sum", "Pi i .", "Sum j .", "P", "Sigma", "Pie", "1", "²", "_", "#t", "$"]
    + OPERATORS + WHITESPACE
)
# notation -> (claw, product, sum, prefix negation, postfix negation)
SPELLING = {
    Notation.PEANO_RUSSELL: (">", "&", "|", "~", ""),
    Notation.PEIRCE: ("-<", "*", "+", "-", ""),
    Notation.SCHROEDER: ("=<", "*", "+", "", "'"),
}


def outcome(read, *args):
    """The tree read, or the error raised as (class name, text)."""
    try:
        return read(*args)
    except (ParseError, ValueError) as err:
        return type(err).__name__, str(err)


def formulas(notation):
    """Well-formed text: names and constants joined by the notation's
    connectives (juxtaposition too, where it has it), bracketed and negated,
    with whitespace anywhere between tokens."""
    claw, prod, sum_, neg, postneg = SPELLING[notation]
    space = st.sampled_from(WHITESPACE)
    joints = [claw, prod, sum_] + ([" "] if notation is not Notation.PEANO_RUSSELL else [])

    def extend(kids):
        joined = st.builds(lambda a, s, op, t, b: a + s + op + t + b,
                           kids, space, st.sampled_from(joints), space, kids)
        return (joined | kids.map(lambda k: "(" + k + ")")
                | kids.map(lambda k: neg + k if neg else "(" + k + ")" + postneg))

    leaf = st.sampled_from(["a", "b", "l_0_1", "x9_2", "#t", "#f"])
    return st.recursive(leaf, extend, max_leaves=10)


def relational_formulas():
    """Well-formed relational text, with quantifiers where a formula starts."""
    space = st.sampled_from(WHITESPACE)
    atom = st.sampled_from(["p(i)", "q(j)", "l(i, j)", "l(j,i)", "r( i , j , i )"])

    def extend(kids):
        joined = st.builds(lambda a, s, op, t, b: a + s + op + t + b,
                           kids, space, st.sampled_from([">", "&", "|"]), space, kids)
        quantified = st.builds(lambda q, v, k: f"{q} {v} . {k}", st.sampled_from(["Pi", "Sum"]),
                               st.sampled_from("ij"), kids)
        return (joined | kids.map(lambda k: "(" + k + ")") | kids.map(lambda k: "~" + k)
                | quantified | st.builds(lambda a, q: a + " > " + q, kids, quantified))

    return st.recursive(atom, extend, max_leaves=8)


def spliced(texts, pieces):
    """`texts` with one piece put in at some place, in place of the
    character there or between two."""
    def splice(text, place, piece, replace):
        place %= len(text) + 1
        return text[:place] + piece + text[place + replace:]
    return st.builds(splice, texts, st.integers(0, 200), st.sampled_from(pieces + [""]),
                     st.integers(0, 1))


def strings(pieces, own=()):
    """Strings of up to 12 pieces, drawn thrice as often from `own`."""
    return st.lists(st.sampled_from(pieces + 3 * list(own)), max_size=12).map("".join)


@pytest.mark.parametrize("notation", list(SPELLING), ids=lambda n: n.value)
def test_algebraic_reading_matches_the_recursive_descent(notation):
    text_of = formulas(notation)
    own = LEAVES + ["(", ")"] + [spelling for spelling in SPELLING[notation] if spelling]

    @ORACLE
    @given(text_of | spliced(text_of, ALGEBRAIC_PIECES) | strings(ALGEBRAIC_PIECES, own))
    def check(text):
        assert outcome(parse, text, notation) == outcome(ref_parse, text, notation)

    check()


@ORACLE
@given(relational_formulas() | spliced(relational_formulas(), RELATIONAL_PIECES)
       | strings(RELATIONAL_PIECES))
@example("Pi é . p(é)")  # a letter outside ASCII is no name character
@example("é(i) & $")  # the first of two bad characters is reported
def test_relational_reading_matches_the_recursive_descent(text):
    assert outcome(parse_relational, text) == outcome(ref_parse_relational, text)


def is_variable_name(word):
    try:
        Var(word)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("notation", list(SPELLING), ids=lambda n: n.value)
def test_a_word_lexes_as_one_name_iff_it_is_a_variable_name(notation):
    """The readers lex a name by the pattern that `Var` checks names with."""
    pattern = _grammar(notation)[0]

    @ORACLE
    @given(st.builds("{}{}".format, st.sampled_from(["a", "q", "z", "A", "_", "-", "#"]),
                     st.lists(st.sampled_from(["a", "z", "0", "9", "_", "_1", "_09", "_09", "A"]),
                              max_size=6).map("".join)))
    @example("l_0_1")
    @example("ab_1c")
    @example("a1")
    def check(word):
        one_name = pattern.findall(word) == [word] and "a" <= word[0] <= "z"
        assert one_name == is_variable_name(word)

    check()


@pytest.mark.parametrize("notation", list(SPELLING), ids=lambda n: n.value)
def test_one_node_per_distinct_name(notation):
    f = parse("a" + SPELLING[notation][2] + "a", notation)
    assert f.left is f.right


def polish_outcome(read, text):
    """The tree read, as its repr, or every part of the error raised."""
    try:
        return repr(read(text))
    except ParseError as err:
        return str(err), err.message, err.offset, err.expected, err.found


def polish_formulas():
    return st.recursive(st.sampled_from("abpz"),
                        lambda kids: kids.map("N".__add__)
                        | st.builds(lambda op, a, b: op + a + b, st.sampled_from("CKAE"),
                                    kids, kids),
                        max_leaves=12)


POLISH_PIECES = ["C", "K", "A", "E", "N", "a", "z", "B", "X", "O", "1", "é", "#", "#t",
                 " ", "\t", "\n", "\u00a0", ""]


@ORACLE
@given(polish_formulas() | spliced(polish_formulas(), POLISH_PIECES)
       | st.builds(lambda f, cut: f[:cut], polish_formulas(), st.integers(0, 30))
       | st.builds(lambda a, f, b: a + f + b, st.sampled_from(WHITESPACE), polish_formulas(),
                   st.sampled_from(WHITESPACE))
       | strings(POLISH_PIECES))
@example("CaNb c")  # whitespace inside
@example(" \tEab\n")  # whitespace around
@example("Kab#t")  # a constant after the end
def test_polish_reading_matches_the_token_list_reader(text):
    assert polish_outcome(lambda t: parse(t, Notation.POLISH), text) \
        == polish_outcome(ref_parse_polish, text)


def full_outcome(read, *args):
    """The tree read, or every part of the error raised."""
    try:
        return read(*args)
    except ParseError as err:
        return str(err), err.message, err.offset, err.expected, err.found


def long_algebraic(notation, groups=900):
    """A sum of bracketed claws over products and negations: ~9 tokens a
    group, with every kind of whitespace between them."""
    claw, prod, sum_, neg, postneg = SPELLING[notation]
    rng = random.Random(23)
    joints = [prod] + ([" "] if notation is not Notation.PEANO_RUSSELL else [])
    space = lambda: rng.choice(WHITESPACE)  # noqa: E731

    def operand():
        leaf = rng.choice(["a", "b", "l_0_1", "x9_2", "#t", "#f"])
        if rng.random() < 0.3:
            return neg + leaf if neg else leaf + postneg
        return leaf

    pieces = ["(" + operand() + space() + rng.choice(joints) + space() + operand() + space()
              + claw + space() + operand() + ")" for _ in range(groups)]
    return "".join(piece + space() + sum_ + space() for piece in pieces[:-1]) + pieces[-1]


def long_flat(notation, terms=4000):
    """A text with no whitespace and a bracket only at its start: operands
    (negated about one in four) joined by the sum and product signs, by
    juxtaposition where the notation has it, and by a claw about one time
    in fifty, so every slice is cut after an operator, and `-<` and `=<`
    meet the slice ends too."""
    claw, prod, sum_, neg, postneg = SPELLING[notation]
    rng = random.Random(25)
    joints = [sum_, sum_, prod] + (["", ""] if notation is not Notation.PEANO_RUSSELL else [])

    def operand():
        leaf = rng.choice(["a", "b", "l_0_1", "x9_2", "#t"])
        if rng.random() < 0.25:
            return neg + leaf if neg else leaf + postneg
        return leaf

    pieces = [operand() + (claw if rng.random() < 0.02 else rng.choice(joints))
              for _ in range(terms)]
    return "(a" + sum_ + "b)" + prod + "".join(pieces) + operand()


def long_relational(groups=480):
    """Bracketed quantified claws joined by `&` or by `|`: ~20 tokens a
    group."""
    rng = random.Random(23)
    space = lambda: rng.choice(WHITESPACE[2:])  # noqa: E731
    return (space() + rng.choice("&|") + space()).join(
        f"(Pi i .{space()}Sum j . l(i,{space()}j) > ~p(j))" for _ in range(groups))


def defects(text, operator):
    """`text` and the text broken late in one place each: a stray
    character, a missing ')', an operator at the end, and an operator
    doubled."""
    late = len(text) - 200
    close = text.rindex(")", 0, late)
    twice = text.index(operator, late)
    return {
        "well-formed": text,
        "stray-character": text[:late] + "$" + text[late:],
        "missing-bracket": text[:close] + text[close + 1:],
        "operator-at-the-end": text + operator,
        "operator-doubled": text[:twice] + operator + text[twice:],
    }


@pytest.mark.parametrize("notation", list(SPELLING), ids=lambda n: n.value)
def test_long_algebraic_texts_read_as_the_recursive_descent_reads_them(notation):
    text = long_algebraic(notation)
    assert len(text) > 3 * 4096
    for case, broken in defects(text, SPELLING[notation][2]).items():
        assert full_outcome(parse, broken, notation) \
            == full_outcome(ref_parse, broken, notation), case


@pytest.mark.parametrize("notation", list(SPELLING), ids=lambda n: n.value)
def test_long_flat_texts_read_as_the_recursive_descent_reads_them(notation):
    text = long_flat(notation)
    assert len(text) > 3 * 4096 and not any(c.isspace() for c in text)
    for case, broken in defects(text, SPELLING[notation][2]).items():
        assert full_outcome(parse, broken, notation) \
            == full_outcome(ref_parse, broken, notation), case


@pytest.mark.parametrize("notation", list(SPELLING), ids=lambda n: n.value)
def test_no_slice_ends_inside_a_token(notation):
    """The first slice ends after the first cut character at or past offset
    4,096.  Each operator, and a name and a constant, is moved across that
    offset one character at a time (leading spaces shift it), so a cut
    after a character that begins a longer token (`-` of `-<`, `=` of `=<`)
    would split it."""
    claw, prod, sum_, neg, postneg = SPELLING[notation]
    name = "l" + "0" * 40 + "_1"
    body = name + (sum_ + name) * 90
    for tail in (claw + "b", prod + "b", sum_ + neg + "b", sum_ + "x9_2" + postneg, sum_ + "#t"):
        expected = ref_parse(body + tail, notation)
        for start in range(4090, 4100):
            text = " " * (start - len(body)) + body + tail
            assert full_outcome(parse, text, notation) == expected, (tail, start)


def test_long_relational_texts_read_as_the_recursive_descent_reads_them():
    text = long_relational()
    assert len(text) > 3 * 4096
    for case, broken in defects(text, ">").items():
        assert full_outcome(parse_relational, broken) \
            == full_outcome(ref_parse_relational, broken), case
