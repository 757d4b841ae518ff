"""Shared reference rewrite systems used across the test suite.

R1..R8 are the running examples exercised by the acceptance checks; the
S*/P* systems are the partitions the criteria matrix refers to.
"""
from confl.completion import check_confluence
from confl.rewriting import Rule, Trs
from confl.terms import App, Var
from confl.trs_format import parse_trs

x = Var(1, "x")
y = Var(2, "y")
z = Var(3, "z")


def plus(a, b):
    return App("+", (a, b))


def s(a):
    return App("s", (a,))


zero = App("0", ())


def f2(a, b):
    return App("f", (a, b))


def g1(a):
    return App("g", (a,))


def h1(a):
    return App("h", (a,))


def dbl(a):
    return App("dbl", (a,))


C = Rule(plus(x, y), plus(y, x), "C")
A = Rule(plus(plus(x, y), z), plus(x, plus(y, z)), "A")
ADD1 = Rule(plus(zero, y), y, "add1")
ADD2 = Rule(plus(s(x), y), s(plus(x, y)), "add2")
ADD3 = Rule(plus(x, zero), x, "add3")
ADD4 = Rule(plus(x, s(y)), s(plus(x, y)), "add4")
ADD5 = Rule(plus(x, s(y)), plus(s(x), y), "add5")
DBL = Rule(dbl(x), plus(x, x), "dbl")
SS1 = Rule(s(x), s(s(x)), "ss1")
SS2 = Rule(s(s(x)), s(x), "ss2")

RA = Rule(f2(g1(x), g1(y)), f2(g1(x), h1(y)), "a")
RB = Rule(f2(h1(x), g1(y)), f2(g1(x), g1(y)), "b")
RC = Rule(f2(g1(x), h1(y)), f2(x, y), "c")
RD = Rule(f2(h1(x), h1(y)), f2(y, x), "d")
RE = Rule(f2(x, y), f2(y, x), "e")
RF = Rule(g1(x), h1(x), "f")
RG = Rule(h1(x), g1(x), "g")

R1 = Trs([C, A])
R2 = Trs([ADD1, ADD2, C, A])
R3 = Trs([ADD1, ADD2, ADD3, ADD4, C, A])
R4 = Trs([ADD1, ADD2, ADD3, ADD4, DBL, C, A])
R5 = Trs([ADD1, ADD2, ADD3, ADD4, SS1, SS2, C, A])
R6 = Trs([ADD1, ADD2, ADD3, ADD5, DBL, C, A])
R7 = Trs([ADD1, ADD2, ADD3, ADD4, DBL, SS1, SS2, C, A])
R8 = Trs([RA, RB, RC, RD, RE, RF, RG])

ALL_SYSTEMS = [R1, R2, R3, R4, R5, R6, R7, R8]

# the partitions the worked examples use
P_CA = Trs([C, A])
S2 = Trs([ADD1, ADD2])
S3 = Trs([ADD1, ADD2, ADD3, ADD4])
S4 = Trs([ADD1, ADD2, ADD3, ADD4, DBL])
P5 = Trs([C, A, SS1, SS2])
S6 = Trs([ADD1, ADD2, ADD3, ADD5, DBL])
S8 = Trs([RA, RB, RC, RD])
P8 = Trs([RE, RF, RG])
PPRIME_SS2 = Trs([SS2])


def _parsed(*rules, variables="x y z"):
    return parse_trs(f"(VAR {variables})\n(RULES\n" + "".join(f"  {r}\n" for r in rules) + ")\n")


# inputs of the search benchmark: every AC variant of the sum in a chain
# reaches the redex by P steps; swap is not confluent
_C_TEXT, _A_TEXT = "+(x,y) -> +(y,x)", "+(+(x,y),z) -> +(x,+(y,z))"
CHAIN3 = _parsed("g(+(a0,+(a1,a2))) -> c", _C_TEXT, _A_TEXT)
CHAIN4 = _parsed("g(+(a0,+(a1,+(a2,a3)))) -> c", _C_TEXT, _A_TEXT)
SWAP = _parsed("g(+(a,b)) -> c", "g(+(b,a)) -> d", _C_TEXT, _A_TEXT)
FORK = _parsed("f(x) -> g(x)", "f(x) -> h(x)")

# inputs of the parallel benchmark: wide4's certificate holds 255 pcp (ii)
# joins, and deep16's (iii) joins take parallel steps of P's rules
WIDE4 = _parsed("f(" + ",".join(f"+(x{i},y{i})" for i in range(4)) + ") -> c",
                _C_TEXT, _A_TEXT,
                variables=" ".join(f"x{i} y{i}" for i in range(4)) + " x y z")
DEEP16 = _parsed(f"h({'s(' * 16}x{')' * 16}) -> h(x)",
                 "+(0,y) -> y", "+(s(x),y) -> s(+(x,y))",
                 "+(x,0) -> x", "+(x,s(y)) -> s(+(x,y))", _C_TEXT, _A_TEXT)


_DECIDED: dict = {}


def decided(trs):
    """check_confluence(trs) with its default arguments, decided once per
    test session.  For tests that only read the result; a test of
    determinism, of timing or of what a run does decides afresh."""
    if trs.rules not in _DECIDED:
        _DECIDED[trs.rules] = check_confluence(trs)
    return _DECIDED[trs.rules]
