"""Bottom-up evaluation engine: storage, matching, built-ins, fixpoints."""

from repro.engine.binding import ChainBinding
from repro.engine.builtins import MAX_ENUMERATED_SET, solve_builtin
from repro.engine.compiled import CompiledProgram, base_database, compile_program
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.evaluator import (
    EvaluationResult,
    LayerStats,
    SCCStats,
    answer_query,
    evaluate,
    evaluate_component,
)
from repro.engine.fixpoint import (
    FixpointStats,
    naive_fixpoint,
    seminaive_fixpoint,
    single_pass,
)
from repro.engine.exec import derive_facts, enumerate_bindings
from repro.engine.explain import Derivation, explain
from repro.engine.grouping import apply_grouping_rule, apply_grouping_rules
from repro.engine.incremental import (
    IncrementalModel,
    MaintenanceTotals,
    UpdateStats,
)
from repro.engine.maintain import (
    MAINTAIN_MODES,
    DeltaBatch,
)
from repro.engine.match import Binding, ground_atom, match_atom, match_term
from repro.engine.plan import (
    HeadTemplate,
    LiteralStep,
    PlanCache,
    RulePlan,
    compile_body,
    compile_rule,
    order_body,
)
from repro.engine.relation import Relation
from repro.engine.topdown import TopDownEvaluator, TopDownStats, evaluate_topdown

__all__ = [
    "Binding",
    "ChainBinding",
    "CompiledProgram",
    "Database",
    "EvalContext",
    "HeadTemplate",
    "LiteralStep",
    "PlanCache",
    "RulePlan",
    "base_database",
    "compile_body",
    "compile_program",
    "compile_rule",
    "Derivation",
    "derive_facts",
    "enumerate_bindings",
    "IncrementalModel",
    "MaintenanceTotals",
    "UpdateStats",
    "MAINTAIN_MODES",
    "DeltaBatch",
    "explain",
    "EvaluationResult",
    "FixpointStats",
    "LayerStats",
    "SCCStats",
    "evaluate_component",
    "single_pass",
    "MAX_ENUMERATED_SET",
    "Relation",
    "TopDownEvaluator",
    "TopDownStats",
    "answer_query",
    "evaluate_topdown",
    "apply_grouping_rule",
    "apply_grouping_rules",
    "evaluate",
    "ground_atom",
    "match_atom",
    "match_term",
    "naive_fixpoint",
    "order_body",
    "seminaive_fixpoint",
    "solve_builtin",
]
