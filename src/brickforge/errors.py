"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI
diagnostic envelope.
"""

from __future__ import annotations


class BrickforgeError(Exception):
    code = "error"


class OutOfBoundsError(BrickforgeError):
    code = "out_of_bounds"


class SizeNotInLibraryError(BrickforgeError):
    code = "size_not_in_library"


class CollisionError(BrickforgeError):
    code = "collision"

    def __init__(self, cell: tuple[int, int, int]):
        super().__init__(f"cell {cell} already occupied")
        self.cell = cell


class DisconnectedGraphError(BrickforgeError):
    code = "disconnected_graph"

    def __init__(self, components: int):
        super().__init__(f"attachment graph has {components} components")
        self.components = components


class NotAttachedError(BrickforgeError):
    code = "not_attached"


class TokenOutOfRangeError(BrickforgeError):
    code = "token_out_of_range"

    def __init__(self, which: str, limit: int, value: int):
        super().__init__(f"{which}={value} out of range (limit {limit})")
        self.which = which
        self.limit = limit
        self.value = value


class MalformedSequenceError(BrickforgeError):
    code = "malformed_sequence"


class MalformedHeaderError(MalformedSequenceError):
    code = "malformed_header"


class TuplesAfterQueueEmptyError(MalformedSequenceError):
    code = "tuples_after_queue_empty"


class EmptyAssemblyError(BrickforgeError):
    code = "empty_assembly"


class SolverFailureError(BrickforgeError):
    code = "solver_failure"

    def __init__(self, iterations: int, detail: str = ""):
        super().__init__(f"LP solver failed after {iterations} iterations {detail}".strip())
        self.iterations = iterations


class EmptyCloudError(BrickforgeError):
    code = "empty_cloud"


class DegenerateExtentError(BrickforgeError):
    code = "degenerate_extent"


class DegenerateCloudError(BrickforgeError):
    code = "degenerate_cloud"


class EmptyMeshError(BrickforgeError):
    code = "empty_mesh"


class NonFiniteInputError(BrickforgeError):
    code = "non_finite_input"


class MalformedInputError(BrickforgeError):
    code = "malformed_input"


class EmptyTargetError(BrickforgeError):
    code = "empty_target"


class NoUnstableBrickError(BrickforgeError):
    code = "no_unstable_brick"


class InconsistentSequenceError(BrickforgeError):
    code = "inconsistent_sequence"


class BudgetExhaustedError(BrickforgeError):
    code = "budget_exhausted"

    def __init__(self, kind: str):
        super().__init__(f"budget exhausted: {kind}")
        self.kind = kind
