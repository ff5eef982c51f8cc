"""Peirce's logic workbench.

Multi-notation propositional formulas around the claw (illation), bivalent
and trivalent truth-functional semantics, finite-domain quantifier
expansion, syllogistic encodings, and the 1881 number axioms.
"""

from .formulas import (
    PI,
    SIGMA,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Quant,
    RAtom,
    RClaw,
    RelFormula,
    RNeg,
    RProd,
    RSum,
    Sum,
    Var,
    connective_index,
    connective_vector,
    ensure_closed,
    free_vars,
    substitute,
)
from .errors import LimitExceededError, MissingVariableError
from .notations import Notation, ParseError, PrintError, parse, print_formula
from .frege import render_frege
from .truth import (
    AnfPoly,
    CongruenceReport,
    Falsified,
    Tautology,
    TruthTable,
    anf,
    congruence_check,
    eval2,
    find_counterexample,
    indirect_falsify,
    is_tautology,
    truth_table,
    xframe,
)
from .trivalent import TriValue, tri_and, tri_neg, tri_or, tri_table
from .quantifiers import (
    SatScanReport,
    Structure,
    aeio,
    expand,
    extend_model,
    eval_in,
    herbrand_scan,
    indiscernible,
    mitchell,
    sat_scan,
    sat_search,
)
from .relsyntax import parse_relational
from .arithmetic import (
    AxiomReport,
    HFAtom,
    HFNode,
    HFSet,
    NumberStructure,
    chain,
    check_axioms,
    hf_equal,
    wiener_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
