"""Many-valued modal models over a shared six-element lattice.

Nine matrix logics (six-, four-, three- and two-valued) live on
down-complete sublattices of one base lattice; Kripke models may run a
different logic at every world, with box and diamond moving values
between lattices through down- and up-interpretation maps.
"""

from .bivaluations import biv_consequence, check_clauses, correspondence_check, snapshot_of
from .lattices import LATTICES, Lattice, down_interpret, up_interpret, verify_lattice_laws
from .logics import LOGIC_IDS, LOGICS, MatrixLogic, apply, matrix_consequence, truth_table
from .models import Frame, Model, eval_formula, holds, load_frame, load_model, validate
from .frames import (
    SCHEMAS,
    axiom_valid_on_frame,
    frame_properties,
    theorem_suite,
)
from .syntax import Formula, desugar, parse, subformula_closure, to_text
from .values import ManylogicError, Value

__version__ = "0.1.0"

__all__ = [
    "LATTICES",
    "LOGICS",
    "LOGIC_IDS",
    "SCHEMAS",
    "Formula",
    "Frame",
    "Lattice",
    "ManylogicError",
    "MatrixLogic",
    "Model",
    "Value",
    "apply",
    "axiom_valid_on_frame",
    "biv_consequence",
    "check_clauses",
    "correspondence_check",
    "desugar",
    "down_interpret",
    "eval_formula",
    "frame_properties",
    "holds",
    "load_frame",
    "load_model",
    "matrix_consequence",
    "parse",
    "snapshot_of",
    "subformula_closure",
    "theorem_suite",
    "to_text",
    "truth_table",
    "up_interpret",
    "validate",
    "verify_lattice_laws",
]
