"""Exact best uniform approximation by separable sums on finite product
grids, with minimal-projection-cycle duality certificates."""

from .linalg import (
    CertificateError,
    LpProblem,
    LpRows,
    LpSolution,
    format_rat,
    kernel_basis,
    matrix_rank,
    parse_rat,
    solve_lp,
)
from .grids import (
    GridPoint,
    ProductGrid,
    SeparableSum,
    TabulatedFunction,
    evaluate,
    function_from_csv,
    function_from_json,
    function_to_json,
    incidence_matrix,
    point_index,
    residual,
    sup_norm,
    tabulate,
)
from .measures import (
    FiniteSignedMeasure,
    golomb_measure,
    integrate,
    is_orthogonal,
    marginal,
    measure_from_json,
    measure_from_pair,
    measure_to_json,
    total_variation,
)
from .cycles import (
    CycleVectorPair,
    Decomposition,
    GolombCycle,
    MinimalCycle,
    decompose,
    enumerate_minimal_cycles,
    extract_extreme_cycle,
    from_golomb_form,
    normalize_minimal,
    pair_from_json,
    pair_to_json,
    to_golomb_form,
)
from .chebyshev import (
    ApproximationResult,
    GolombReport,
    best_error,
    cycle_functional,
    optimal_witness_from_dual,
    report_to_json,
    verify_golomb,
)
from .bolts import (
    Bolt,
    ClosedBolt,
    bolt_from_json,
    bolt_supremum,
    bolt_to_json,
    closed_bolt_measure,
    cycle_to_closed_bolts,
    is_bolt,
    is_closed_bolt,
)

from types import ModuleType as _Module

# the public names are the ones the imports above bind, and the CLI's entry
# point, which __getattr__ imports on first use
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _Module)] + ["main"]
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI is imported on first use, so that ``python -m golombdual.cli``
    # does not find the module already imported by its own package
    if name == "main":
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
