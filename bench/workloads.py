"""Seeded request lists for the four workloads, each with its expected answer.

Every input is built from `random.Random(f"{workload}:{seed}")`, so the same
seed always gives the same requests.  Answers are planted by construction
(tautologies are substitution instances of tautologous schemas; a
non-tautology is a tautology conjoined with a clause that fails at exactly
one chosen row) and then confirmed by the reference model in `oracle`, which
shares no code with the package under test.

Why these four workloads, and which layers each one loads, is written up in
README.md beside this file.
"""

from __future__ import annotations

import json
import random
import re
import string
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracle as O

NOTATIONS = ("peano-russell", "peirce", "schroeder", "polish")
WORKLOADS = ("startup", "propositional", "relational", "notation")


@dataclass
class Request:
    name: str
    argv: list[str]
    stdin: str = ""
    exit: int = 0
    stdout: Optional[str] = None  # exact expected stdout, when known
    check: Optional[Callable[[str], Optional[str]]] = None  # else: a checker
    probe: bool = False  # a known-defect probe: failing here is expected
    work: dict[str, int] = field(default_factory=dict)  # per-layer counts

    def verify(self, code: int, out: str) -> Optional[str]:
        """Why the answer is wrong, or None."""
        if code != self.exit:
            return f"exit {code}, expected {self.exit}"
        if self.stdout is not None and out != self.stdout:
            return "stdout differs from the reference answer"
        if self.check is not None:
            return self.check(out)
        return None


@dataclass(frozen=True)
class Sizes:
    """Input sizes; `SMOKE` shrinks every workload to a few fast requests."""

    startup_requests: int = 102
    tiny_vars: tuple[int, int] = (2, 4)
    wide_vars: int = 16  # the 16-variable table limit
    anf_vars: tuple[int, ...] = (12, 16)
    tri_vars: tuple[int, ...] = (9, 10)  # 10 is the trivalent limit
    indirect_clauses: int = 16  # 2^16 branches; the state cap is 200,000
    unsat_domains: tuple[tuple[int, str, int], ...] = ((2, "prs", 3), (3, "pr", 3), (3, "qr", 3))
    scan_size: int = 8  # unary p, q: 2 * 8 = 16 cells at the largest size
    carrier: tuple[int, ...] = (10, 11, 12, 12, 11, 10)  # 12 is the carrier limit
    expands: int = 6
    pair_atoms: int = 4
    translate_leaves: tuple[int, ...] = (5000, 10000, 16000, 24000)  # ~10^4-10^5 chars
    frege_leaves: int = 3000
    expand_conjuncts: int = 240
    chain_terms: tuple[int, int] = (1000, 1600)  # >= 1000 recurses too deep today
    chains: int = 4


FULL = Sizes()
SMOKE = Sizes(startup_requests=17, wide_vars=6, anf_vars=(5,), tri_vars=(4,),
              indirect_clauses=3, unsat_domains=((2, "p", 2),), scan_size=2, carrier=(4,),
              expands=1, pair_atoms=2, translate_leaves=(20,), frege_leaves=10, expand_conjuncts=3,
              chain_terms=(1000, 1000), chains=1)


# --- formula generators ---------------------------------------------------------


def pick_names(rng: random.Random, n: int) -> list[str]:
    return rng.sample(string.ascii_lowercase, n)


def leaf_list(rng: random.Random, names: list[str], count: int) -> list[str]:
    """`count` leaves that use every name at least once, shuffled."""
    out = list(names) + [rng.choice(names) for _ in range(count - len(names))]
    rng.shuffle(out)
    return out


def random_formula(rng: random.Random, leaves: list[str], ops=O.BINARY, neg: float = 0.2) -> tuple:
    """A near-balanced tree over the given leaves (depth ~ log2 of their count)."""

    def build(lo: int, hi: int) -> tuple:
        if hi - lo == 1:
            node = ("var", leaves[lo])
        else:
            mid = (lo + hi) // 2
            if hi - lo > 3:
                mid += rng.randint(-1, 1)
            node = (rng.choice(ops), build(lo, mid), build(mid, hi))
        return ("not", node) if rng.random() < neg else node

    return build(0, len(leaves))


def _not(f):
    return ("not", f)


def _imp(a, b):
    return ("imp", a, b)


SCHEMAS = (  # each uses all three letters, so every substituted variable occurs
    lambda a, b, c: _imp(_imp(_imp(a, ("or", b, c)), a), a),  # Peirce's law
    lambda a, b, c: _imp(_imp(a, b), _imp(_imp(b, c), _imp(a, c))),  # syllogism
    lambda a, b, c: _imp(_imp(_not(a), _not(("and", b, c))), _imp(("and", b, c), a)),  # contraposition
    lambda a, b, c: _imp(_not(("and", a, ("or", b, c))), ("or", _not(a), _not(("or", b, c)))),  # De Morgan
    lambda a, b, c: _imp(("and", a, ("or", b, c)), ("or", ("and", a, b), ("and", a, c))),
)


def tautology(rng: random.Random, names: list[str], instances: int, leaves_each: int) -> tuple:
    """A conjunction of schema instances with random formulas substituted."""
    pool = leaf_list(rng, names, max(len(names), instances * 3 * leaves_each))
    parts = []
    for i in range(instances):
        chunk = pool[i * 3 * leaves_each:(i + 1) * 3 * leaves_each] or rng.sample(names, 3)
        third = max(1, len(chunk) // 3)
        subs = [random_formula(rng, chunk[k * third:(k + 1) * third] or [rng.choice(names)])
                for k in range(3)]
        parts.append(rng.choice(SCHEMAS)(*subs))
    formula = O.fold("and", parts)
    assert O.first_false_row(formula) is None
    return formula


def matched(rng: random.Random, make: Callable[[], tuple], cost: Callable[[tuple], float],
            target: float, tries: int = 40) -> tuple:
    """Of `tries` candidates, the one whose cost is nearest `target`.  Random
    formulas of one size differ about threefold in evaluation work; picking
    by cost keeps a request's work nearly the same for every seed."""
    return min((make() for _ in range(tries)), key=lambda f: abs(cost(f) - target))


def node_count(f: tuple) -> int:
    return 1 if f[0] in ("var", "const") else 1 + sum(node_count(g) for g in f[1:])


def falsified_at(rng: random.Random, taut: tuple, row: int) -> tuple:
    """taut & (minterm(row) > contradiction): false at exactly that row."""
    names = O.variables(taut)
    cells = O.row_assignment(names, row)
    minterm = O.fold("and", [("var", n) if cells[n] else ("not", ("var", n)) for n in names])
    contradiction = ("not", tautology(rng, names[:2], 1, 1))
    formula = ("and", taut, ("imp", minterm, contradiction))
    assert O.variables(formula) == names and O.first_false_row(formula) == row
    return formula


def clause_tautology(rng: random.Random, names: list[str], k: int) -> tuple:
    """(C1 & ... & Ck) > Cj over positive two-literal clauses.  Assuming it
    false, the indirect method must branch on every clause before the
    consequent is reached, and no branch dies early: 2^k branches."""
    leaves = leaf_list(rng, names, 2 * k)
    clauses = [("or", ("var", leaves[2 * i]), ("var", leaves[2 * i + 1])) for i in range(k)]
    formula = ("imp", O.fold("and", clauses), rng.choice(clauses))
    assert O.first_false_row(formula) is None
    return formula


def random_relational(rng: random.Random, preds: dict[str, int], ixs: list[str], leaves: int,
                      ops=O.BINARY) -> tuple:
    """A quantifier prefix over `ixs` and a random matrix over the predicates."""
    atoms = [("atom", p, tuple(rng.choice(ixs) for _ in range(a))) for p, a in preds.items()]
    atoms += [("atom", p, tuple(rng.choice(ixs) for _ in range(a)))
              for p, a in (rng.choice(list(preds.items())) for _ in range(leaves - len(atoms)))]
    rng.shuffle(atoms)
    index = {f"x{i}": atom for i, atom in enumerate(atoms)}
    skeleton = random_formula(rng, list(index), ops)

    def graft(g):
        if g[0] == "var":
            return index[g[1]]
        if g[0] == "not":
            return ("not", graft(g[1]))
        return (g[0], graft(g[1]), graft(g[2]))

    body = graft(skeleton)
    for ix in reversed(ixs):
        body = (rng.choice(("pi", "sigma")), ix, body)
    return body


def equivalent_rewrite(rng: random.Random, f: tuple) -> tuple:
    """A differently spelled formula with the same truth value everywhere."""
    tag = f[0]
    if tag == "atom":
        return ("not", ("not", f)) if rng.random() < 0.2 else f
    if tag == "not":
        return ("not", equivalent_rewrite(rng, f[1]))
    if tag in ("pi", "sigma"):
        body = equivalent_rewrite(rng, f[2])
        if rng.random() < 0.5:  # Pi x . b  ==  ~Sum x . ~b
            dual = "sigma" if tag == "pi" else "pi"
            return ("not", (dual, f[1], ("not", body)))
        return (tag, f[1], body)
    left, right = equivalent_rewrite(rng, f[1]), equivalent_rewrite(rng, f[2])
    if tag == "imp":
        return ("or", ("not", left), right) if rng.random() < 0.5 else ("imp", left, right)
    if rng.random() < 0.5:  # De Morgan
        dual = "or" if tag == "and" else "and"
        return ("not", (dual, ("not", left), ("not", right)))
    return (tag, left, right)


# --- checkers for answers without a fixed spelling --------------------------------


def check_indirect_tautology(out: str) -> Optional[str]:
    lines = out.splitlines()
    if not lines or lines[0] != "tautology" or len(lines) < 2:
        return "expected 'tautology' and a forcing trace"
    steps = [re.fullmatch(r"force (\S+)=([vf])( \(contradiction\))?", line) for line in lines[1:]]
    if not all(steps) or any(m.group(3) for m in steps[:-1]) or not steps[-1].group(3):
        return "malformed forcing trace"
    name, value = steps[-1].group(1), steps[-1].group(2)
    earlier = {(m.group(1), m.group(2)) for m in steps[:-1]}
    if not name.startswith("#") and (name, "f" if value == "v" else "v") not in earlier:
        return "trace does not end in a contradiction"
    return None


def check_axioms(verdicts: dict[str, bool], as_json: bool) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        if as_json:
            data = json.loads(out)
            got = {k: v["holds"] for k, v in data["axioms"].items()}
            if data["all_hold"] != all(verdicts.values()):
                return "all_hold disagrees with the reference"
        else:
            lines = out.splitlines()
            if lines[0] != O.READING:
                return "missing reading line"
            got = {}
            for line in lines[1:]:
                m = re.fullmatch(r"axiom (\S+) \((.*?)\): (pass|fail)(  witness: .+)?", line)
                if not m or O.AXIOM_LABELS.get(m.group(1)) != m.group(2):
                    return f"malformed axiom line {line!r}"
                got[m.group(1)] = m.group(3) == "pass"
        return None if got == verdicts else f"verdicts {got} differ from {verdicts}"

    return check


def check_connectives(out: str) -> Optional[str]:
    lines = out.split("\n")
    if lines[0] != "index\tvv\tvf\tfv\tff":
        return "bad connective header"
    vectors = []
    for k in range(1, 17):
        cells = lines[k].split("\t")
        if cells[0] != str(k) or any(c not in "vf" for c in cells[1:]) or len(cells) != 5:
            return f"bad connective row {k}"
        vectors.append(tuple(c == "v" for c in cells[1:]))
    if len(set(vectors)) != 16:
        return "the sixteen vectors are not all distinct"
    icons = lines[17:]
    for k, vec in enumerate(vectors):
        blank, label, top, mid, bottom = icons[5 * k:5 * k + 5]
        nw, ne, sw, se = (" " if v else s for v, s in zip(vec, "\\//\\"))
        if (blank, label, top, mid, bottom) != ("", str(k + 1), f"{nw} {ne}", " X ", f"{sw} {se}"):
            return f"icon {k + 1} does not match its vector"
    return None if icons[80:] == [""] else "trailing output after the icons"


def check_frege(f: tuple, fmt: str) -> Callable[[str], Optional[str]]:
    """Every variable occurrence becomes exactly one label (normalization
    rewrites connectives but keeps the leaves)."""
    expected = Counter(O.leaves(f))

    def check(out: str) -> Optional[str]:
        if fmt == "ascii":
            if not out.startswith("-") or set(out) - set("-+| \n" + "".join(expected)):
                return "unexpected characters in the frege drawing"
            labels = re.findall(r"-- (\S+)", out)
        else:
            root = ET.fromstring(out)
            kinds = {el.tag.split("}")[-1] for el in root.iter()}
            if kinds - {"svg", "g", "line", "text"}:
                return f"unexpected SVG elements {kinds}"
            labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        return None if Counter(labels) == expected else "labels differ from the formula's leaves"

    return check


# --- request builders ---------------------------------------------------------------


def _cli_formula(text: str) -> tuple[str, str]:
    """Long formulas go through stdin (`-`), as argv has a size limit; so do
    formulas that start with `-`, which argparse would take for an option."""
    return ("-", text) if len(text) > 2000 or text.startswith("-") else (text, "")


def translate(name: str, f: tuple, src: str, dst: str, fmt: str = "ascii", probe=False) -> Request:
    arg, stdin = _cli_formula(O.render(f, src))
    argv = ["translate", "--from", src, "--to", dst]
    if dst == "frege":
        argv += ["--format", fmt]
        return Request(name, argv + [arg], stdin, check=check_frege(f, fmt), probe=probe)
    return Request(name, argv + [arg], stdin, stdout=O.render(f, dst) + "\n", probe=probe)


def table(name: str, f: tuple, notation: str) -> Request:
    arg, stdin = _cli_formula(O.render(f, notation))
    rows = 1 << len(O.variables(f))
    return Request(name, ["table", "--notation", notation, arg], stdin, stdout=O.table_tsv(f),
                   work={"truth.rows": rows})


def tri_table(name: str, f: tuple, notation: str) -> Request:
    arg, stdin = _cli_formula(O.render(f, notation))
    return Request(name, ["table", "--notation", notation, "--values", "3", arg], stdin,
                   stdout=O.tri_tsv(f), work={"trivalent.rows": 3 ** len(O.variables(f))})


def taut(name: str, f: tuple, notation: str, method: str = "full") -> Request:
    arg, stdin = _cli_formula(O.render(f, notation))
    code, line = O.taut_line(f)
    argv = ["taut", "--notation", notation, "--method", method, arg]
    if method == "indirect":
        if code == 0:
            return Request(name, argv, stdin, exit=0, check=check_indirect_tautology)
        return Request(name, argv, stdin, exit=1, stdout=line)
    row = O.first_false_row(f)
    visited = (1 << len(O.variables(f))) if row is None else row + 1
    return Request(name, argv, stdin, exit=code, stdout=line,
                   work={"truth.counterexample_rows": visited})


def anf(name: str, f: tuple, notation: str) -> Request:
    arg, stdin = _cli_formula(O.render(f, notation))
    return Request(name, ["anf", "--notation", notation, arg], stdin, stdout=O.anf_text(f) + "\n")


def expand(name: str, f: tuple, n: int, dst: str = "peirce") -> Request:
    arg, stdin = _cli_formula(O.render_relational(f))
    expansion = O.expand(f, n)
    return Request(name, ["expand", "--domain", str(n), "--to", dst, arg], stdin,
                   stdout=O.render(expansion, dst) + "\n",
                   work={"quantifiers.atoms": len(O.variables(expansion))})


def sat(name: str, f: tuple, n: int) -> Request:
    arg, stdin = _cli_formula(O.render_relational(f))
    code, out, searched = O.sat_output(f, n)
    return Request(name, ["sat", "--domain", str(n), arg], stdin, exit=code, stdout=out,
                   work={"quantifiers.structures": searched})


def scan(name: str, f: tuple, max_size: int, herbrand: bool = False) -> Request:
    arg, stdin = _cli_formula(O.render_relational(f))
    if herbrand:
        code, out = O.herbrand_output(f, max_size)
        return Request(name, ["scan", "--herbrand", "--max-size", str(max_size), arg], stdin,
                       exit=code, stdout=out)
    code, out, searched = O.scan_output(f, max_size)
    return Request(name, ["scan", "--max-size", str(max_size), arg], stdin, exit=code,
                   stdout=out, work={"quantifiers.structures": searched})


def axioms(name: str, carrier: list[str], one: str, rel: set, as_json: bool) -> Request:
    verdicts, subsets = O.axiom_verdicts(carrier, one, rel)
    doc = json.dumps({"carrier": carrier, "one": one, "R": sorted([list(p) for p in rel])})
    argv = ["axioms", "-"] + (["--json"] if as_json else [])
    return Request(name, argv, doc, exit=0 if all(verdicts.values()) else 1,
                   check=check_axioms(verdicts, as_json), work={"arithmetic.subsets": subsets})


def pair_check(name: str, atoms: int) -> Request:
    atom_level, nested = atoms ** 4, atoms ** 8
    return Request(name, ["pair-check", "--atoms", str(atoms)],
                   stdout=f"pair injectivity: ok ({atom_level} atom-level comparisons, "
                          f"{nested} nested comparisons)\n",
                   work={"arithmetic.comparisons": atom_level + nested})


def chain_order(rng: random.Random, n: int, kind: str) -> tuple[list[str], str, set]:
    """A chain, or a chain broken in one way (two incomparable tops, a missing
    transitive pair, or 1 moved off the bottom)."""
    names = [str(i) for i in range(1, n + 1)]
    rng.shuffle(names)
    rank = {x: i for i, x in enumerate(names)}
    rel = {(x, y) for x in names for y in names if rank[x] <= rank[y]}
    if kind == "fork":
        rel.discard((names[-2], names[-1]))
    elif kind == "gap":
        i = rng.randrange(n - 2)
        rel.discard((names[i], names[i + 2]))
    one = names[rng.randrange(1, n)] if kind == "shifted" else names[0]
    return sorted(names, key=int), one, rel


# --- the four workloads ------------------------------------------------------------------


def startup(rng: random.Random, s: Sizes) -> list[Request]:
    """Tiny inputs over every subcommand: process start, import and argparse
    are nearly all of the cost.  Includes 16-variable formulas falsified in
    the first rows, which only stay cheap while the evaluator exits early."""

    def small(k: int, ops=O.BINARY) -> tuple:
        names = pick_names(rng, k)
        return random_formula(rng, leaf_list(rng, names, k + rng.randint(0, 2)), ops)

    def tiny_relational() -> tuple[tuple, int]:
        preds = rng.choice(({"p": 1}, {"p": 1, "q": 1}, {"r": 2}))
        ixs = ["i", "j"][:rng.randint(1, 2)]
        return random_relational(rng, preds, ixs, rng.randint(2, 3)), rng.randint(1, 2)

    def lo_hi() -> int:
        return rng.randint(*s.tiny_vars)

    kinds = [
        lambda i: translate(f"translate-{i}", small(lo_hi()), *rng.sample(NOTATIONS, 2)),
        lambda i: translate(f"frege-ascii-{i}", small(lo_hi()), rng.choice(NOTATIONS), "frege"),
        lambda i: translate(f"frege-svg-{i}", small(lo_hi()), rng.choice(NOTATIONS), "frege", "svg"),
        lambda i: table(f"table-{i}", small(lo_hi()), rng.choice(NOTATIONS)),
        lambda i: tri_table(f"table3-{i}", small(lo_hi(), ("and", "or")), rng.choice(NOTATIONS)),
        lambda i: taut(f"taut-{i}", tautology(rng, pick_names(rng, lo_hi()), 1, 1),
                       rng.choice(NOTATIONS)),
        lambda i: taut(f"taut-neg-{i}", small(lo_hi()), rng.choice(NOTATIONS)),
        lambda i: taut(f"indirect-{i}", tautology(rng, pick_names(rng, lo_hi()), 1, 1)
                       if i % 2 else small(lo_hi()), rng.choice(NOTATIONS), "indirect"),
        lambda i: anf(f"anf-{i}", small(lo_hi()), rng.choice(NOTATIONS)),
        lambda i: Request(f"connectives-{i}", ["connectives"], check=check_connectives),
        lambda i: expand(f"expand-{i}", *tiny_relational(), rng.choice(NOTATIONS[:3])),
        lambda i: sat(f"sat-{i}", *tiny_relational()),
        lambda i: scan(f"scan-{i}", tiny_relational()[0], 2),
        lambda i: scan(f"herbrand-{i}", tiny_relational()[0], 2, herbrand=True),
        lambda i: axioms(f"axioms-{i}", *chain_order(rng, 3, "chain"), rng.random() < 0.5),
        lambda i: pair_check(f"pair-check-{i}", 2),
        lambda i: taut(f"taut-early-{i}", falsified_at(
            rng, tautology(rng, pick_names(rng, s.wide_vars), 3, 4), rng.randrange(4)),
            rng.choice(NOTATIONS)),
    ]
    return [kinds[i % len(kinds)](i) for i in range(s.startup_requests)]


def propositional(rng: random.Random, s: Sizes) -> list[Request]:
    """Requests at the table limits: evaluation and TSV rendering dominate.
    Formulas are matched to a fixed short-circuit evaluation cost (visits per
    row, the median of each generator's spread) or, for three-valued tables,
    whose evaluator never short-circuits, to a fixed node count."""
    n = s.wide_vars
    names = pick_names(rng, n)

    def formula(k: int, leaves: int, ops=O.BINARY) -> tuple:
        picked = pick_names(rng, k)
        return random_formula(rng, leaf_list(rng, picked, leaves), ops)

    def taut16() -> tuple:
        return matched(rng, lambda: tautology(rng, pick_names(rng, n), 3, 4), O.visits_per_row, 62)

    late_row = (1 << n) - (1 << n) // 16 - rng.randrange((1 << n) // 32)
    reqs = [
        table(f"table-16-{k}", matched(rng, lambda: random_formula(rng, leaf_list(rng, names, 32)),
                                       O.visits_per_row, 24), rng.choice(NOTATIONS))
        for k in range(2)
    ] + [
        taut("taut-tautology", taut16(), rng.choice(NOTATIONS)),
        taut("taut-late", falsified_at(rng, taut16(), late_row), rng.choice(NOTATIONS)),
        taut("indirect-tautology", clause_tautology(rng, pick_names(rng, 12), s.indirect_clauses),
             rng.choice(NOTATIONS), "indirect"),
    ]
    for k in s.anf_vars:
        f = matched(rng, lambda: formula(k, 2 * k), O.visits_per_row, 20 if k < 16 else 24)
        reqs.append(anf(f"anf-{k}", f, rng.choice(NOTATIONS)))
    for k in s.tri_vars:
        f = matched(rng, lambda: formula(k, 2 * k, ("and", "or")), node_count, 5 * k - 3)
        reqs.append(tri_table(f"table3-{k}", f, rng.choice(NOTATIONS)))
    return reqs


def relational(rng: random.Random, s: Sizes) -> list[Request]:
    """Model search and the number axioms: structure enumeration dominates
    the pass.  Fourteen of the twenty requests (expand, axioms, pair-check, a
    size-1 Herbrand scan) cost little beyond startup, so the median latency
    falls well inside that group instead of on the edge of the search
    requests, whose cost varies with the seed."""
    reqs = []
    for n, preds, leaves in s.unsat_domains:  # 14, 12 and 12 cells
        sig = {p: {"p": 1, "q": 1, "r": 2, "s": 3}[p] for p in preds}
        base = random_relational(rng, sig, ["i", "j"], leaves)
        f = ("and", base, ("not", equivalent_rewrite(rng, base)))
        reqs.append(sat(f"sat-none-{n}x{preds}", f, n))
    while True:  # every model has p true everywhere: the first one comes late
        body = random_relational(rng, {"r": 2, "s": 3}, ["i", "j"], 4)
        late = ("and", ("pi", "i", ("atom", "p", ("i",))), body)  # 14 cells at domain 2
        if O.first_model(late, 2)[0] is not None:
            break
    reqs.append(sat("sat-late", late, 2))
    while True:
        body = random_relational(rng, {"q": 1}, ["j"], 2)
        grow = ("and", ("pi", "i", ("atom", "p", ("i",))), body)
        if all(O.first_model(grow, k)[0] is not None for k in range(1, s.scan_size + 1)):
            break
    reqs.append(scan("scan", grow, s.scan_size))
    # true unless every p and q is false, so the counterexample is the last row
    spread = ("or", ("sigma", "i", ("atom", "p", ("i",))), ("sigma", "j", ("atom", "q", ("j",))))
    reqs.append(scan("herbrand-none", spread, s.scan_size, herbrand=True))
    valid = ("imp", ("pi", "i", ("imp", ("atom", "p", ("i",)), ("atom", "q", ("i",)))),
             ("imp", ("pi", "j", ("atom", "p", ("j",))), ("pi", "k", ("atom", "q", ("k",)))))
    reqs.append(scan("herbrand-valid", valid, s.scan_size, herbrand=True))
    for k in range(s.expands):
        wide = random_relational(rng, {"r": 2}, ["i", "j", "k"], 6)
        reqs.append(expand(f"expand-4-{k}", wide, 4, rng.choice(NOTATIONS[:3])))
    for k, n in enumerate(s.carrier):
        kind = ("chain", "fork", "gap", "shifted")[k % 4]
        reqs.append(axioms(f"axioms-{kind}-{n}", *chain_order(rng, n, kind), k % 2 == 1))
    reqs.append(pair_check(f"pair-check-{s.pair_atoms}", s.pair_atoms))
    return reqs


def notation(rng: random.Random, s: Sizes) -> list[Request]:
    """Parsing and printing of 10^4-10^5 character formulas, plus flat chains
    of 1,000+ terms that recurse too deeply today (kept as probes)."""
    reqs = []
    for k, leaves in enumerate(s.translate_leaves):
        src = NOTATIONS[k % 4]
        dst = rng.choice([n for n in NOTATIONS if n != src])
        f = random_formula(rng, leaf_list(rng, pick_names(rng, 16), leaves))
        reqs.append(translate(f"translate-{src}-{dst}-{leaves}", f, src, dst))
    for fmt in ("ascii", "svg"):
        f = random_formula(rng, leaf_list(rng, pick_names(rng, 12), s.frege_leaves))
        reqs.append(translate(f"frege-{fmt}-{s.frege_leaves}", f, rng.choice(NOTATIONS), "frege", fmt))
    for k, dst in enumerate(("peirce", rng.choice(NOTATIONS))):
        parts = [random_relational(rng, {"p": 1, "r": 2}, ["i", "j"], 4)
                 for _ in range(s.expand_conjuncts)]
        reqs.append(expand(f"expand-long-{k}-{dst}", O.fold(rng.choice(("and", "or")), parts), 2, dst))
    for k in range(s.chains):
        terms = rng.randint(*s.chain_terms)
        names = pick_names(rng, 16)
        chain = O.fold(("or", "and")[k % 2], [("var", rng.choice(names)) for _ in range(terms)])
        src = NOTATIONS[k % 4]
        dst = ("frege", "peirce", "polish", "schroeder")[k % 4]
        reqs.append(translate(f"deep-chain-{terms}-{src}-{dst}", chain, src, dst, probe=True))
    return reqs


def generate(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    builder = {"startup": startup, "propositional": propositional,
               "relational": relational, "notation": notation}[workload]
    with O.deep_recursion():
        reqs = builder(rng, SMOKE if smoke else FULL)
    for req in reqs:
        req.name = f"{workload}/{req.name}"
    return reqs
