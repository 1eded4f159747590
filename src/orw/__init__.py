"""Ordinal Ramsey workbench: exact combinatorics below w^w.

The package has six parts: exact ordinal arithmetic in Cantor normal form
(`ordinals`), quotient colorings with exact homogeneous-copy deciders
(`coloring`), classical triangle Ramsey values with verified witnesses
(`ramsey`), the triangle-free lower-bound construction (`lowerbound`), a
clause-level propositional replay of the upper bounds with a tracing solver
(`replay`, `solver`), and a command-line surface (`cli`).
"""

from orw.coloring import (
    QuotientColoring,
    check_certificate,
    decide_blue_closed_3,
    decide_red_closed_omega_plus_n,
)
from orw.lowerbound import verify_lower_bound
from orw.ordinals import NodeClassId, Ordinal, OrdinalError, classify, parse
from orw.ramsey import (
    RamseyError,
    brute_force_ramsey,
    builtin_record,
    ramsey_value,
    verify_witness,
)
from orw.replay import instantiate_clauses, replay_theorem
from orw.solver import check_trace, solve

__all__ = [
    "NodeClassId",
    "Ordinal",
    "OrdinalError",
    "QuotientColoring",
    "RamseyError",
    "brute_force_ramsey",
    "builtin_record",
    "check_certificate",
    "check_trace",
    "classify",
    "decide_blue_closed_3",
    "decide_red_closed_omega_plus_n",
    "instantiate_clauses",
    "parse",
    "ramsey_value",
    "replay_theorem",
    "solve",
    "verify_lower_bound",
    "verify_witness",
]
__version__ = "0.1.0"
