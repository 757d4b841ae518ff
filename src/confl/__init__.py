"""Confluence prover for rewrite systems with a terminating and a reversible part."""
from .terms import App, Position, Term, Var, match_term, subterm_at, term_vars, unify
from .rewriting import (
    FuelExhausted,
    ParallelStep,
    Rule,
    Step,
    Trs,
    conversion_bounded,
    empty_trs,
    normalize,
    normalize_steps,
    parallel_step,
    reach_bounded,
    reach_set_bounded,
    replay_steps,
)
from .critical_pairs import CriticalPair, ParallelCriticalPair, cp, cp_in, cp_out, pcp_in
from .reversibility import ReversibilityWitness, is_reversible, replay_reversibility
from .termination import (
    MalformedCertificate,
    TerminationCertificate,
    prove_relative_termination,
    prove_termination,
    replay_certificate,
)
from .criteria import (
    CRITERIA,
    CriterionReport,
    FailingPair,
    JoinEvidence,
    Partition,
    PreconditionViolation,
    Segment,
    check_criterion,
    check_huet,
    check_linear,
    check_parallel,
    check_pcp,
)
from .completion import COMPLETION_CRITERIA, CompletionResult, SearchState, check_confluence, decompose
from .trs_format import ParseError, parse_trs, parse_trs_file, print_term, print_trs
from .certificate import certificate_text, parse_certificate, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "App", "Position", "Term", "Var", "match_term", "subterm_at", "term_vars", "unify",
    "FuelExhausted", "ParallelStep", "Rule", "Step", "Trs", "conversion_bounded", "empty_trs",
    "normalize", "normalize_steps", "parallel_step", "reach_bounded", "reach_set_bounded",
    "replay_steps",
    "CriticalPair", "ParallelCriticalPair", "cp", "cp_in", "cp_out", "pcp_in",
    "ReversibilityWitness", "is_reversible", "replay_reversibility",
    "MalformedCertificate", "TerminationCertificate", "prove_relative_termination",
    "prove_termination", "replay_certificate",
    "CRITERIA", "CriterionReport", "FailingPair", "JoinEvidence", "Partition",
    "PreconditionViolation", "Segment", "check_criterion", "check_huet", "check_linear",
    "check_parallel", "check_pcp",
    "COMPLETION_CRITERIA", "CompletionResult", "SearchState", "check_confluence", "decompose",
    "ParseError", "parse_trs", "parse_trs_file", "print_term", "print_trs",
    "certificate_text", "parse_certificate", "verify_certificate",
    "__version__",
]
