"""Peirce's 1881 axioms for the natural numbers, checked over finite
structures, plus Wiener's 1914 reduction of the ordered pair to sets.

The five axioms, for a carrier N with binary relation R and designated
element 1:

  1   N is partially ordered by R (reflexive reading: R is a <=-style order)
  2   N is connected by R (any two elements are comparable)
  3   N is closed with respect to predecessors: every element other than an
      R-minimum has an immediate predecessor, pred(x) being the R-greatest
      y != x with y R x
  4a  1 is the R-minimum
  4b  N has no R-maximum
  5   mathematical induction: any subset containing 1 and closed under
      immediate successor is all of N

Axiom 3 exempts the minimum because under these definitions the minimum
provably has no predecessor.  Axiom 4b can never hold in a finite structure
that satisfies 1 and 2, which is the point: the axioms characterize an
infinite progression, and chains {1..n} witness exactly that by failing 4b
alone.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional

from . import errors
from ._record import record


class NumberStructure(metaclass=record):
    carrier: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    one: str

    def __post_init__(self) -> None:
        if not self.carrier:
            raise ValueError("carrier must be nonempty")
        if len(self.carrier) > errors.MAX_CARRIER:
            raise errors.LimitExceededError(f"carrier of {len(self.carrier)} elements exceeds "
                                            f"the {errors.MAX_CARRIER}-element limit")
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier elements must be distinct")
        members = set(self.carrier)
        if self.one not in members:
            raise ValueError(f"designated element {self.one!r} is not in the carrier")
        for pair in self.relation:
            if len(pair) != 2 or not set(pair) <= members:
                raise ValueError(f"relation pair {pair!r} is outside the carrier")

    def related(self, x: str, y: str) -> bool:
        return (x, y) in self.relation


def _json_pair(pair: object) -> tuple:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(
            f"number structure JSON: R pair must be a list of two elements, got {pair!r}"
        )
    return tuple(pair)


def number_structure_from_json(data: dict) -> NumberStructure:
    try:
        carrier = data["carrier"]
        one = data["one"]
        relation = frozenset(map(_json_pair, data["R"]))
    except (KeyError, TypeError) as err:
        raise ValueError(f"number structure JSON needs carrier/one/R: {err}") from None
    if not isinstance(carrier, list):
        raise ValueError(f"number structure JSON: carrier must be a list, got {carrier!r}")
    for field, value in [("one", one)] + [("carrier element", x) for x in carrier]:
        if value is None or isinstance(value, (bool, list, dict)):
            raise ValueError(
                f"number structure JSON: {field} must be a string or number, got {value!r}"
            )
    return NumberStructure(tuple(carrier), relation, one)


def chain(n: int) -> NumberStructure:
    """The n-element chain {1..n} under <=, with 1 designated."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    names = tuple(str(i) for i in range(1, n + 1))
    relation = frozenset(
        (str(i), str(j)) for i in range(1, n + 1) for j in range(i, n + 1)
    )
    return NumberStructure(names, relation, "1")


class AxiomVerdict(metaclass=record):
    holds: bool
    witness: Optional[str]  # human-readable counterexample, None when the axiom holds


class AxiomReport(metaclass=record):
    reading: str
    verdicts: dict[str, AxiomVerdict]  # the keys of _AXIOMS, in its order

    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts.values())


_READING = (
    "R is read as a reflexive (<=-style) order; "
    "pred(x)/succ(x) are the R-greatest/R-least strict neighbors"
)


def _neighbour(s: NumberStructure, x: str, below: bool) -> Optional[str]:
    """pred(x) when `below`, else succ(x): of the y != x on that side of x,
    the one nearest x, or None."""
    towards = (lambda a, b: s.related(b, a)) if below else s.related
    candidates = [y for y in s.carrier if y != x and towards(x, y)]
    for y in candidates:
        if all(towards(y, z) for z in candidates):
            return y
    return None


# Each check returns its counterexample's text, or None when the axiom holds.


def _check_partial_order(s: NumberStructure) -> Optional[str]:
    for x in s.carrier:
        if not s.related(x, x):
            return f"not reflexive at {x}"
    for x, y in combinations(s.carrier, 2):
        if s.related(x, y) and s.related(y, x):
            return f"not antisymmetric on {x},{y}"
    for x in s.carrier:
        for y in s.carrier:
            if not s.related(x, y):
                continue
            for z in s.carrier:
                if s.related(y, z) and not s.related(x, z):
                    return f"not transitive on {x},{y},{z}"
    return None


def _check_connected(s: NumberStructure) -> Optional[str]:
    for x, y in combinations(s.carrier, 2):
        if not (s.related(x, y) or s.related(y, x)):
            return f"incomparable pair {x},{y}"
    return None


def _check_predecessors(s: NumberStructure) -> Optional[str]:
    for x in s.carrier:  # a minimum has no predecessor and needs none
        if not all(s.related(x, y) for y in s.carrier) and _neighbour(s, x, True) is None:
            return f"{x} has no immediate predecessor"
    return None


def _check_minimum(s: NumberStructure) -> Optional[str]:
    for x in s.carrier:
        if not s.related(s.one, x):
            return f"{s.one} does not precede {x}"
    return None


def _check_no_maximum(s: NumberStructure) -> Optional[str]:
    for m in s.carrier:
        if all(s.related(x, m) for x in s.carrier):
            return f"maximum element {m}"
    return None


def _check_induction(s: NumberStructure) -> Optional[str]:
    """Each succ-closed subset with 1 in it contains the orbit 1, succ(1),
    ..., which is one, so induction holds iff the orbit is all of N; if not,
    the orbit is the least such subset by its bits over the carrier."""
    orbit = set()
    x = s.one
    while x is not None and x not in orbit:
        orbit.add(x)
        x = _neighbour(s, x, False)
    if len(orbit) == len(s.carrier):
        return None
    inside = ",".join(str(x) for x in s.carrier if x in orbit)
    return f"closed proper subset {{{inside}}}"


# key -> (label, check), in report order
_AXIOMS = {
    "1": ("partial order", _check_partial_order),
    "2": ("connected", _check_connected),
    "3": ("closed under predecessors", _check_predecessors),
    "4a": ("1 is the minimum", _check_minimum),
    "4b": ("no maximum", _check_no_maximum),
    "5": ("induction", _check_induction),
}


def check_axioms(s: NumberStructure) -> AxiomReport:
    verdicts = {}
    for key, (_, check) in _AXIOMS.items():
        witness = check(s)
        verdicts[key] = AxiomVerdict(witness is None, witness)
    return AxiomReport(_READING, verdicts)


def report_text(report: AxiomReport) -> str:
    lines = [f"reading: {report.reading}"]
    for key, (label, _) in _AXIOMS.items():
        verdict = report.verdicts[key]
        line = f"axiom {key} ({label}): {'pass' if verdict.holds else 'fail'}"
        if not verdict.holds and verdict.witness:
            line += f"  witness: {verdict.witness}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def report_json(report: AxiomReport) -> dict:
    return {
        "reading": report.reading,
        "axioms": {
            key: {"holds": verdict.holds, "witness": verdict.witness}
            for key, verdict in report.verdicts.items()
        },
        "all_hold": report.all_hold(),
    }


# --- hereditarily finite sets and the Wiener pair ---------------------------


class HFSet:
    """Hereditarily finite sets over named atoms, with extensional equality."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HFSet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


class HFAtom(HFSet):
    def __init__(self, name: str):
        self.name = name
        self._key = ("atom", name)

    def __repr__(self) -> str:
        return self.name


class HFNode(HFSet):
    """A set of HFSets; duplicates collapse under extensional equality."""

    def __init__(self, elements: tuple[HFSet, ...] | list[HFSet] = ()):
        unique: dict[tuple, HFSet] = {}
        for element in elements:
            unique.setdefault(element._key, element)
        self.elements = tuple(unique.values())
        self._key = ("set", tuple(sorted(e._key for e in self.elements)))

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "{" + ", ".join(sorted(repr(e) for e in self.elements)) + "}"


EMPTY = HFNode(())


def hf_equal(a: HFSet, b: HFSet) -> bool:
    """Extensional equality: same atoms, or element-for-element equal sets."""
    return a._key == b._key


def wiener_pair(x: HFSet, y: HFSet) -> HFNode:
    """Wiener's ordered pair <x,y> = {{{x}, {}}, {y}}."""
    return HFNode((HFNode((HFNode((x,)), EMPTY)), HFNode((y,))))


def pair_injectivity(count: int) -> tuple[int, int, int]:
    """(violations, atom-level comparisons, nested comparisons) of Wiener's
    pair over `count` atoms and over their pairs.  A comparison is an
    ordered pair of pairs, a violation one that is equal iff its components
    are not.  Equal components give equal keys, so a level's violations are
    its sum of squared group sizes over pair keys less that over components."""
    atoms = [HFAtom(chr(ord("a") + i)) for i in range(count)]
    pairs = [(a, b, wiener_pair(a, b)) for a in atoms for b in atoms]
    nested = [(p, q, wiener_pair(p, q)) for _, _, p in pairs for _, _, q in pairs]
    violations = 0
    for level in (pairs, nested):
        equal_pairs = Counter(pair._key for _, _, pair in level).values()
        equal_parts = Counter((x._key, y._key) for x, y, _ in level).values()
        violations += sum(g * g for g in equal_pairs) - sum(g * g for g in equal_parts)
    return violations, len(pairs) ** 2, len(nested) ** 2
