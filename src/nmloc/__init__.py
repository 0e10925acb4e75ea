"""Certified iterative diagonalization of almost-periodic lattice operators.

The package builds finite truncations of long-range lattice operators
``T + D`` with almost-periodic diagonals, conjugates them toward diagonal
form by a quadratic smoothing iteration, and post-processes the transform
into power-law localization evidence (eigen residuals, decay envelopes,
completeness, spectrum comparison).  Every step records its claimed norm
bound next to the measured norm in a ledger, so the run doubles as a
numerical certificate.
"""

from .algebra import (
    DistalReport,
    WindowScan,
    distal_gamma_box,
    window_scan,
)
from .box import LatticeBox
from .homological import (
    NeumannResult,
    neumann_invert,
    solve_diagonal_correction,
    solve_generator,
)
from .iteration import (
    DIRECT,
    INVERSE,
    ConditionReport,
    IterationState,
    LedgerRow,
    SchemeParams,
    SchemeResult,
    check_theory_conditions,
    hopping_slice,
    initial_step,
    iterate_step,
    ledger_to_csv,
    run,
    unitarize,
)
from .localization import (
    EigenReport,
    completeness_check,
    decay_exponent,
    eigenfunctions,
    spectrum_compare,
)
from .models import (
    GOLDEN_MEAN,
    HoppingSpec,
    PotentialSpec,
    build_hopping,
    build_potential,
    check_diophantine,
)
from .operators import (
    DiagonalOperator,
    LatticeOperator,
    TameConstants,
    TorusProfile,
    chain_bound_margins,
    lattice_weight_sum,
    tame_bound_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
