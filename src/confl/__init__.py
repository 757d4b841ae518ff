"""Confluence prover for rewrite systems with a terminating and a reversible part.

The names below are the library's interface; the submodules (`confl.criteria`,
`confl.termination` and so on) stay importable for lower-level use."""
from .terms import App, Term, Var
from .rewriting import Rule, Trs
from .completion import CompletionResult, check_confluence
from .trs_format import ParseError, parse_trs, parse_trs_file, print_trs
from .certificate import certificate_text, parse_certificate, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "App", "Term", "Var", "Rule", "Trs", "CompletionResult", "check_confluence",
    "ParseError", "parse_trs", "parse_trs_file", "print_trs",
    "certificate_text", "parse_certificate", "verify_certificate", "__version__",
]
