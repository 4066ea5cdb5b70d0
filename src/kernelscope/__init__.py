"""kernelscope: empirical (non)automaticity tooling for arithmetic sequences.

Modules:
    seqgen    -- sieve-based value tables for the supported functions
    kernel    -- k-kernel enumeration, distinct-count and rank profiling
    automaton -- linear representations from saturated kernels, pole lattices
    dirichlet -- Dirichlet series: truncation, matrix-recursion continuation,
                 zeta-quotient closed forms, identity verification, pole scans
    zeta      -- complex zeta evaluation, critical-line zeros, zero counting
    christol  -- Cartier section orbits of power series over F_p
    cli       -- one subcommand per operation, CSV/JSON output
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConstructionError,
    ContourError,
    DomainError,
    KernelscopeError,
    PoleError,
    PrecisionError,
    RangeError,
    VerdictError,
)
from .seqgen import (
    FactorTable,
    FunctionId,
    ValueTable,
    build_factor_table,
    generate,
    reduce_mod,
)

__all__ = [
    "__version__",
    "KernelscopeError",
    "DomainError",
    "PoleError",
    "RangeError",
    "CapacityError",
    "PrecisionError",
    "VerdictError",
    "ConstructionError",
    "ContourError",
    "FunctionId",
    "FactorTable",
    "ValueTable",
    "build_factor_table",
    "generate",
    "reduce_mod",
]
