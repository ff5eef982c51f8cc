"""Exceptions shared across the package, and the fixed bounds each check reads as it runs."""

# Variables of a stored truth table or ANF, and the cells a model search scans: 2^16 rows.
MAX_TABLE_VARS = 16
# Variables of a trivalent table: 3^10 rows is the ceiling for a printable table.
MAX_TRI_VARS = 10
# Rows a row scan reads, 2^26: ~0.3 s for a 40-leaf tautology on a 2-vCPU host.
MAX_SCAN_BITS = 26
# Atom occurrences an expansion has, a search reads or Conn16 printing adds: 2^16 take ~0.6 s.
MAX_EXPANSION_LEAVES = 1 << 16
# Carrier elements of a number structure; axiom 1's transitivity check is cubic in them.
MAX_CARRIER = 12
# States the indirect method's depth-first search explores.
MAX_INDIRECT_STATES = 200_000


class LimitExceededError(Exception):
    """An enumeration limit was hit (CLI exit code 3)."""


class MissingVariableError(KeyError):
    """An assignment is missing a variable the formula mentions."""

    def __init__(self, variable: str):
        super().__init__(variable)
        self.variable = variable

    def __str__(self) -> str:
        return f"assignment has no value for variable {self.variable!r}"
