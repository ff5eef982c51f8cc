"""Peirce's logic workbench.

Multi-notation propositional formulas around the claw (illation), bivalent
and trivalent truth-functional semantics, finite-domain quantifier
expansion, syllogistic encodings, and the 1881 number axioms.

Importing the package loads none of its modules.  Each name of `__all__`
is imported from its home module the first time it is read (PEP 562), so
a process compiles only the modules it uses: `python -m illation.cli`
runs this file first, and every command would otherwise compile every
module.
"""

import sys

# Each exported name's home module.
_HOMES = {
    name: home
    for home, names in {
        "formulas": "PI SIGMA Claw Conn16 Const Neg Prod PropFormula Quant RAtom RClaw "
                    "RelFormula RNeg RProd RSum Sum Var connective_index connective_vector "
                    "ensure_closed free_vars substitute",
        "errors": "LimitExceededError MissingVariableError",
        "notations": "Notation ParseError PrintError parse print_formula",
        "frege": "render_frege",
        "truth": "TruthTable eval2 find_counterexample is_tautology truth_table",
        "methods": "AnfPoly CongruenceReport Falsified Tautology anf congruence_check "
                   "indirect_falsify xframe",
        "trivalent": "TriValue tri_and tri_neg tri_or tri_table",
        "quantifiers": "SatScanReport Structure aeio expand extend_model eval_in "
                       "herbrand_scan indiscernible mitchell sat_scan sat_search",
        "relsyntax": "parse_relational",
        "arithmetic": "AxiomReport HFAtom HFNode HFSet NumberStructure chain check_axioms "
                      "hf_equal wiener_pair",
    }.items()
    for name in names.split()
}
# The modules exported as names.  `methods` is not one: its names are read
# from here, or from `truth`, where they were first defined.
_HOMES.update((module, module) for module in (
    "arithmetic", "errors", "formulas", "frege", "notations", "quantifiers", "relsyntax",
    "trivalent", "truth"))

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own machinery, as `from . import` uses it, so that
    # `-X importtime` reports the import.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
