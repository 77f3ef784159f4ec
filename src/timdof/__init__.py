"""Degrees-of-freedom analysis for locally connected interference networks
without transmitter channel knowledge.

The package has four analysis layers plus a CLI:

- :mod:`timdof.topology` builds truncated or cyclic locally connected
  networks and checks chordal bipartiteness of the conflict structure.
- :mod:`timdof.schemes` finds exact optimal fractional TDMA schedules
  jointly over message assignments, and emits the closed-form canonical
  pattern achieving 2/(L+2) per user.
- :mod:`timdof.demand_graph` computes exact LP outer bounds from acyclic
  demand-graph subsets, with verifiable dual certificates.
- :mod:`timdof.linear_sim` evaluates random linear cooperation schemes by
  generic rank, exactly over GF(p), and runs the reconstruction-based
  converse diagnostic.

All DoF values away from the simulation layer are exact fractions.
"""

__version__ = "0.1.0"

from .errors import (
    InvalidAssignmentError,
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    ResourceLimitError,
    UnsupportedAssignmentError,
)
from .topology import (
    CYCLIC,
    TRUNCATED,
    Topology,
    explicit_topology,
    is_chordal_bipartite,
    make_locally_connected,
    receivers_heard_by,
    transmitters_heard_by,
)
from .schemes import (
    DofResult,
    MessageAssignment,
    ServedSet,
    TdmaSchedule,
    canonical_tdma,
    is_schedulable,
    maximal_servable_sets,
    optimal_tdma,
    schedule_dof,
    singleton_assignment,
    validate_schedule,
)
from .demand_graph import (
    DemandGraph,
    DofBound,
    best_assignment_upper_bound,
    build_demand_graph,
    dof_upper_bound_lp,
    is_acyclic_subset,
    maximal_acyclic_subsets,
    verify_certificate,
)
from .linear_sim import (
    ChannelRealization,
    LinearScheme,
    ReconstructionReport,
    build_stacked_matrix,
    decodable_symbols,
    evaluate_dof,
    full_cooperation_assignment,
    lemma1_check,
    random_scheme,
    sample_channel,
    scheme_from_schedule,
)

__all__ = [
    "__version__",
    "InvalidParameterError", "InvalidAssignmentError", "UnsupportedAssignmentError",
    "InvalidScheduleError", "InvalidInputError", "ResourceLimitError",
    "TRUNCATED", "CYCLIC", "Topology", "make_locally_connected", "explicit_topology",
    "receivers_heard_by", "transmitters_heard_by", "is_chordal_bipartite",
    "MessageAssignment", "singleton_assignment", "ServedSet", "TdmaSchedule", "DofResult",
    "is_schedulable", "validate_schedule", "schedule_dof", "canonical_tdma",
    "maximal_servable_sets", "optimal_tdma",
    "DemandGraph", "DofBound", "build_demand_graph", "is_acyclic_subset",
    "maximal_acyclic_subsets", "dof_upper_bound_lp", "verify_certificate",
    "best_assignment_upper_bound",
    "LinearScheme", "ChannelRealization", "ReconstructionReport",
    "sample_channel", "decodable_symbols", "evaluate_dof", "scheme_from_schedule",
    "build_stacked_matrix", "lemma1_check", "full_cooperation_assignment", "random_scheme",
]
