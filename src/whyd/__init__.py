"""Causal explanations for answers to positive Datalog queries:
actual/counterfactual causes with exact responsibilities, abductive
diagnoses, delete-propagation solutions, view-conditioned causes, and
causes under integrity constraints.
"""

from .abduction import (
    AbductionProblem,
    from_abduction_to_causality,
    necessary_hypotheses,
    necessary_hypothesis_sets,
    necessity_degree,
    necessity_degrees,
    relevant_hypotheses,
    solve_diagnoses,
    to_causal_abduction,
)
from .causality import (
    CauseReport,
    cause_reports,
    causes,
    is_counterfactual_cause,
    minimal_contingency_sets,
    most_responsible_causes,
    responsibility,
)
from .constraints import (
    Constraint,
    ConstraintSet,
    FunctionalDependency,
    KeyConstraint,
    causes_under_ics,
    is_key_preserving,
    maximal_admissible_subinstances,
    responsibility_under_ics,
    satisfies,
)
from .errors import WhydError
from .evaluator import answers, evaluate_fixpoint, holds
from .model import (
    Atom,
    Comparison,
    Constant,
    GroundAtom,
    Instance,
    Program,
    Rule,
    Variable,
    active_domain,
    ground,
    validate_program,
)
from .parsing import (
    parse_constraints,
    parse_ground_atom,
    parse_instance,
    parse_instance_document,
    parse_program,
    serialize_constraints,
    serialize_instance,
    serialize_program,
)
from .phca import PropositionalHornAbduction, encode_phca, parse_phca
from .reports import Report, emit_report
from .vc import VcCauseReport, encode_vc_as_tgd, vc_cause_exists, vc_causes, vc_responsibility
from .viewupdate import (
    DeletionSolution,
    check_source_solution,
    minimal_source_solutions,
    minimum_source_solutions,
    vsef_solutions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
