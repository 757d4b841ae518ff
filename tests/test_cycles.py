"""A run leaves no reference cycles behind for the cyclic collector,
nothing in the package calls itself, and the package holds no dead code.

A nested function that calls itself holds its own closure cell, so every call
of the enclosing function leaves a cycle (function, cell) that only the
cyclic collector frees, together with everything the closure keeps alive.
A function that calls itself once per nesting level overflows the stack on
deep terms, so the walkers are checked on 5,000-deep ones.  A top-level
name that nothing in the package uses is shipped only for the tests; the
public API and the names the benchmark reaches are the exceptions.
"""
import ast
import gc
from pathlib import Path

import pytest

import confl
from confl import certificate_text, check_confluence, parse_trs, verify_certificate
from confl.rewriting import Rule, Trs, normalize_steps, parallel_step
from confl.termination import dependency_pairs, dp_graph, homeomorphic_embeds, lpo_gt, rule_decrease
from confl.terms import App, Var

from test_bench_seams import load_tracing

x, y = Var(1, "x"), Var(2, "y")

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


def test_nothing_in_src_calls_itself():
    # a walker that recurses once per nesting level overflows on deep terms
    found = {path.name: self_calling_functions(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


PUBLIC_API = {
    "App", "Term", "Var", "Rule", "Trs", "CompletionResult", "check_confluence",
    "ParseError", "parse_trs", "parse_trs_file", "print_trs",
    "certificate_text", "parse_certificate", "verify_certificate", "__version__",
}


def unused_top_level_names(trees):
    """The functions, classes and assigned names defined at the top level of
    the modules `trees` that no module reads: by name, as an attribute, or
    as a string constant (for the lookups through globals())."""
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined.update(n.id for n in ast.walk(node)
                               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    return defined - used


def test_the_package_ships_no_dead_code():
    assert sorted(confl.__all__) == sorted(PUBLIC_API)
    # what bench/tracing.py wraps and bench/run.py patches or calls
    seams = {attr for _mod, attr, _span in load_tracing().WRAPPED}
    seams |= {"clear_cache", "reach_set_bounded"}
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert sorted(unused_top_level_names(trees) - PUBLIC_API - seams) == []


def _deep(t, n=5000):
    for _ in range(n):
        t = App("s", (t,))
    return t


_a, _b = App("a", ()), App("b", ())
_a_b = Trs([Rule(_a, _b, "ab")])
_PREC = {"h": 2, "s": 1}


def _lpo_gt():
    return (lpo_gt(App("h", (_deep(x),)), App("h", (x,)), _PREC),
            lpo_gt(App("h", (x,)), App("h", (_deep(x),)), _PREC))


def _homeomorphic_embeds():
    return (homeomorphic_embeds(App("h", (x,)), App("h", (_deep(x),))),
            homeomorphic_embeds(App("h", (y,)), App("h", (_deep(x),))))


def _rule_decrease():
    return rule_decrease({"s": ("lin", (1,), 1)}, Rule(_deep(x), x))


def _dp_graph():
    # f(s(x)) -> f(s⁵⁰⁰⁰(x)) has one dependency pair, which follows itself
    (dp,) = dependency_pairs(Trs([Rule(App("f", (App("s", (x,)),)), App("f", (_deep(x),)))]))
    return dp_graph([dp], {"f"}) == {(dp, dp)}


def _normalize_steps():
    nf, steps = normalize_steps(App("h", (_deep(_a),)), _a_b)
    return nf == App("h", (_deep(_b),)), len(steps)


def _parallel_step():
    ha, hb = App("h", (_deep(_a),)), App("h", (_deep(_b),))
    return (parallel_step(ha, hb, _a_b).positions, parallel_step(ha, ha, _a_b, set()).parts,
            parallel_step(hb, ha, _a_b))


# walker -> its answer on 5,000-deep terms
DEEP_WALKS = {
    _lpo_gt: (True, False),
    _homeomorphic_embeds: (True, False),
    _rule_decrease: (True, True),
    _dp_graph: True,
    _normalize_steps: (True, 1),
    _parallel_step: (((1,) * 5001,), (), None),
}


@pytest.mark.parametrize("walk", DEEP_WALKS, ids=lambda walk: walk.__name__[1:])
def test_walkers_take_5000_deep_terms(walk):
    assert walk() == DEEP_WALKS[walk]
