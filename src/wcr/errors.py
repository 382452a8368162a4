"""Exception hierarchy shared by all wcr modules.

Exit-code mapping for the CLI:
  invalid input (parse/validation/mode/dialect)  -> 2
  infeasible instance or negative decision       -> 1
  resource limits (search nodes, oracle size)    -> 3
"""


class WcrError(Exception):
    """Base class for all library errors."""


class ParseError(WcrError):
    """Malformed input bytes/JSON; carries field context in the message."""


class ValidationError(WcrError):
    """Structurally valid input violating a documented invariant."""


class KeyMismatch(ValidationError):
    """Solution ids do not match the configuration's sensor ids."""


class ModeError(ValidationError):
    """Operation requires a different configuration mode/metric."""


class DialectError(ValidationError):
    """Formula violates the invariants of its declared SAT dialect."""


class HeterogeneousRanges(ValidationError):
    """Exact MinSum requested for heterogeneous ranges (NP-hard case)."""


class Infeasible(WcrError):
    """No solution exists for the instance (e.g. too few sensors)."""


class IsolatedVertex(WcrError):
    """Edge cover requested on a graph with a degree-0 vertex."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} has degree 0")
        self.vertex = vertex


class SizeLimit(WcrError):
    """Instance exceeds a brute-force oracle's hard size bound."""


class SearchLimit(WcrError):
    """Backtracking search exceeded its node budget, at a node with
    `unsatisfied` lines left to block under the move key `key`."""

    def __init__(self, nodes: int, key: int, unsatisfied: int):
        super().__init__(f"node budget exhausted after {nodes} nodes, at "
                         f"key {key} with {unsatisfied} lines unblocked")
        self.nodes, self.key, self.unsatisfied = nodes, key, unsatisfied


class NotEnoughSatisfied(WcrError):
    """Assignment satisfies fewer clauses than the embedding requires."""


class InconsistentSolution(WcrError):
    """Solution moves sensors the reduction proves immovable, or forces
    both polarities of a variable."""


class UnsatisfiedClause(WcrError):
    """Assignment passed to an embedding leaves a clause unsatisfied."""


class NotASolution(WcrError):
    """Claimed solution fails verification against its instance."""


class NotGadgetInstance(WcrError):
    """Input was not produced by the matching gadget generator."""


class PropertyViolation(WcrError):
    """VH instance lacks the structural properties the padding needs."""
