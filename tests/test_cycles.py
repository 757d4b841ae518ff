"""A run leaves no reference cycles behind for the cyclic collector.

A nested function that calls itself holds its own closure cell, so every call
of the enclosing function leaves a cycle (function, cell) that only the
cyclic collector frees, together with everything the closure keeps alive.
"""
import ast
import gc
from pathlib import Path

from confl import certificate_text, check_confluence, parse_trs, verify_certificate

SRC = Path(__file__).resolve().parent.parent / "src" / "confl"

_C = "+(x,y) -> +(y,x)"
_A = "+(+(x,y),z) -> +(x,+(y,z))"
INPUTS = {
    "R3": ["+(0,y) -> y", "+(s(x),y) -> s(+(x,y))", "+(x,0) -> x",
           "+(x,s(y)) -> s(+(x,y))", _C, _A],
    "chain3": ["g(+(a0,+(a1,a2))) -> c", _C, _A],
    "wide4": ["f(+(x0,y0),+(x1,y1),+(x2,y2),+(x3,y3)) -> c", _C, _A],
}
VARIABLES = "x y z x0 x1 x2 x3 y0 y1 y2 y3"


def test_deciding_rendering_and_verifying_leave_no_cycles():
    problems = {name: parse_trs(f"(VAR {VARIABLES})\n(RULES\n" + "\n".join(rules) + "\n)\n")
                for name, rules in INPUTS.items()}
    gc.collect()
    gc.disable()
    try:
        for name, trs in problems.items():
            result = check_confluence(trs)
            assert result.verdict == "YES", name
            ok, problems_found = verify_certificate(certificate_text(trs, result), trs)
            assert ok, problems_found
        assert gc.collect() == 0
    finally:
        gc.enable()


def self_calling_nested_functions(tree):
    """(outer, inner) for each function defined inside another function
    whose body calls it by name."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == inner.name for n in ast.walk(inner)):
                found.append((outer.name, inner.name))
    return found


def test_no_nested_function_calls_itself():
    found = {path.name: self_calling_nested_functions(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def self_calling_functions(tree):
    """The names of the functions whose body calls them by name, and of the
    methods whose body calls them on self."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Call)
                and (isinstance(n.func, ast.Name) and n.func.id == fn.name
                     or isinstance(n.func, ast.Attribute) and n.func.attr == fn.name
                     and isinstance(n.func.value, ast.Name) and n.func.value.id == "self")
                for n in ast.walk(fn)):
            found.append(fn.name)
    return found


def test_nothing_in_terms_calls_itself():
    # a walker that recurses once per nesting level overflows on deep terms
    tree = ast.parse((SRC / "terms.py").read_text(encoding="utf-8"))
    assert self_calling_functions(tree) == []
