"""Benchmark inputs: every problem as (VAR ...)(RULES ...) text with its known
answer, renamed by a seed.

The seed picks one renaming of every identifier (function symbols and
variables) that is applied to all inputs of a workload.  The renaming keeps
the identifiers' sorted order and gives every new name the same length, so
searches that walk symbols in sorted order (the LPO precedence search, the
polynomial-interpretation search) take the same path and the certificates
have the same size on every seed; only the spelling changes.  A renamed
problem is isomorphic to the original, so its known answer still holds.
"""
import random
import re
from dataclasses import dataclass

CONFLUENT = "confluent"
NON_CONFLUENT = "non-confluent"

_IDENT = re.compile(r"[A-Za-z0-9+*'_]+")
_VAR = re.compile(r"[xyz][0-9]*")

# The running examples R1-R8 (the reference systems of the test suite).
_C = "+(x,y) -> +(y,x)"
_A = "+(+(x,y),z) -> +(x,+(y,z))"
_ADD1 = "+(0,y) -> y"
_ADD2 = "+(s(x),y) -> s(+(x,y))"
_ADD3 = "+(x,0) -> x"
_ADD4 = "+(x,s(y)) -> s(+(x,y))"
_ADD5 = "+(x,s(y)) -> +(s(x),y)"
_DBL = "dbl(x) -> +(x,x)"
_SS1 = "s(x) -> s(s(x))"
_SS2 = "s(s(x)) -> s(x)"
_R8 = [
    "f(g(x),g(y)) -> f(g(x),h(y))",
    "f(h(x),g(y)) -> f(g(x),g(y))",
    "f(g(x),h(y)) -> f(x,y)",
    "f(h(x),h(y)) -> f(y,x)",
    "f(x,y) -> f(y,x)",
    "g(x) -> h(x)",
    "h(x) -> g(x)",
]
REFERENCE_RULES = {
    "R1": [_C, _A],
    "R2": [_ADD1, _ADD2, _C, _A],
    "R3": [_ADD1, _ADD2, _ADD3, _ADD4, _C, _A],
    "R4": [_ADD1, _ADD2, _ADD3, _ADD4, _DBL, _C, _A],
    "R5": [_ADD1, _ADD2, _ADD3, _ADD4, _SS1, _SS2, _C, _A],
    "R6": [_ADD1, _ADD2, _ADD3, _ADD5, _DBL, _C, _A],
    "R7": [_ADD1, _ADD2, _ADD3, _ADD4, _DBL, _SS1, _SS2, _C, _A],
    "R8": _R8,
}


def _sum(terms):
    """Right-nested sum: a0 + (a1 + (... + a(n-1)))."""
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = f"+({t},{out})"
    return out


def _chain(n):
    # g(a0 + ... + a(n-1)) -> c: every AC variant of the sum reaches the
    # redex by P steps, so the system is confluent.
    return [f"g({_sum([f'a{i}' for i in range(n)])}) -> c", _C, _A]


def _wide(k):
    args = ",".join(f"+(x{i},y{i})" for i in range(k))
    return [f"f({args}) -> c", _C, _A]


def _deep(n):
    return [f"h({'s(' * n}x{')' * n}) -> h(x)", _ADD1, _ADD2, _ADD3, _ADD4, _C, _A]


@dataclass(frozen=True)
class Problem:
    name: str
    rules: tuple  # rule texts before renaming
    known: str  # CONFLUENT or NON_CONFLUENT


def _problems(table: dict, known: str):
    return [Problem(name, tuple(rules), known) for name, rules in table.items()]


# Why each workload exists is written up in README.md beside this file.
WORKLOADS = {
    "reference": _problems(REFERENCE_RULES, CONFLUENT),
    "search": (
        _problems({"chain3": _chain(3), "chain4": _chain(4)}, CONFLUENT)
        + _problems({
            "swap": ["g(+(a,b)) -> c", "g(+(b,a)) -> d", _C, _A],
            "fork": ["f(x) -> g(x)", "f(x) -> h(x)"],
        }, NON_CONFLUENT)
    ),
    "parallel": _problems(
        {"wide4": _wide(4), "wide5": _wide(5), "deep16": _deep(16), "deep18": _deep(18)},
        CONFLUENT),
}


def _variables(rule: str) -> set:
    """Every input names its variables x, y or z, optionally followed by digits."""
    return {i for i in _IDENT.findall(rule) if _VAR.fullmatch(i)}


def renaming(problems, seed: int) -> dict:
    """One order-preserving, fixed-width renaming of every identifier."""
    idents = sorted({i for p in problems for r in p.rules for i in _IDENT.findall(r)})
    rng = random.Random(seed)
    codes = sorted(rng.sample(range(10 ** 6), len(idents)))
    return {old: f"k{code:06d}" for old, code in zip(idents, codes)}


def problem_text(problem: Problem, names: dict) -> str:
    """The problem in the (VAR ...)(RULES ...) format, renamed by `names`."""
    def rename(text):
        return _IDENT.sub(lambda m: names[m.group()], text)
    variables = sorted({v for r in problem.rules for v in _variables(r)})
    rules = "\n".join(f"  {rename(r)}" for r in problem.rules)
    return f"(VAR {' '.join(names[v] for v in variables)})\n(RULES\n{rules}\n)\n"


def workload_texts(workload: str, seed: int) -> list:
    """[(problem, text)] for a workload, renamed by the seed."""
    problems = WORKLOADS[workload]
    names = renaming(problems, seed)
    return [(p, problem_text(p, names)) for p in problems]
