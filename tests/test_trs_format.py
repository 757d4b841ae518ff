"""Problem file parser and printer: golden parses, error positions, round trips."""
import random

import pytest

from confl import trs_format
from confl.rewriting import Rule, Trs
from confl.terms import App, Var, canonical_tuple
from confl.trs_format import ParseError, parse_trs, parse_trs_file, print_term, print_trs

from systems import ALL_SYSTEMS, R3, plus, s, x, y, z, zero


ADD_TEXT = """
(VAR x y z)
(RULES
  +(0, y) -> y
  +(s(x), y) -> s(+(x, y))
  +(x, y) -> +(y, x)
  +(+(x, y), z) -> +(x, +(y, z))
)
"""


def test_parse_golden():
    trs = parse_trs(ADD_TEXT)
    assert len(trs) == 4
    assert [r.name for r in trs] == ["r1", "r2", "r3", "r4"]
    r1 = trs.rule("r1")
    assert isinstance(r1.rhs, Var)
    assert r1.lhs.fn == "+"
    assert trs.signature == {"+": 2, "0": 0, "s": 1}
    # variables with equal names are the same variable across a rule
    r2 = trs.rule("r2")
    assert r2.lhs.args[0].args[0] == r2.rhs.args[0].args[0]


def test_parse_comment_section_and_whitespace():
    text = "(VAR x)\n(RULES f(x)->x)\n(COMMENT anything (even (nested)) goes)\n"
    trs = parse_trs(text)
    assert len(trs) == 1


def test_parse_errors_carry_positions():
    # undeclared identifiers are constants, so this must parse
    assert parse_trs("(VAR x)\n(RULES f(x) -> y)").signature == {"f": 1, "y": 0}

    with pytest.raises(ParseError) as e:
        parse_trs("(VAR x y)\n(RULES f(x) -> y)")  # y invented on the right
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_trs("(VAR x)\n(RULES x -> x)")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_trs("(RULES f(x) -> x")  # unclosed section
    assert "expected" in str(e.value) or "unexpected" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_trs("(VAR x)\n(RULES f(x) -> x\n f(x, x) -> x)")
    assert e.value.line == 3  # arity clash reported at the offending rule
    assert e.value.column == 2
    assert "symbol f used with arities 1 and 2" in str(e.value)

    with pytest.raises(ParseError):
        parse_trs("(VAR x)")  # missing RULES section

    with pytest.raises(ParseError) as e:
        parse_trs("(VAR x)\n(FOO)\n(RULES f(x) -> x)")
    assert e.value.line == 2


def test_variable_used_as_function_symbol():
    with pytest.raises(ParseError) as e:
        parse_trs("(VAR f x)\n(RULES f(x) -> x)")
    assert "variable" in str(e.value)


def test_print_term_names():
    t = plus(s(x), plus(y, zero))
    assert print_term(t, {x.id: "x", y.id: "y"}) == "+(s(x),+(y,0))"


def test_round_trip_reference_systems():
    for trs in ALL_SYSTEMS:
        text = print_trs(trs)
        back = parse_trs(text)
        assert back.key() == trs.key(), text


def test_round_trip_tricky_names():
    # display names that collide with each other and with function symbols
    vx, vy = Var(7, "f"), Var(8, "f")
    tricky = Trs([Rule(App("f", (vx, vy)), App("f", (vy, vx)), "t")])
    text = print_trs(tricky)
    back = parse_trs(text)
    assert back.key() == tricky.key()


def test_round_trip_random_systems():
    rng = random.Random(6)

    def rand_term(depth, vs):
        r = rng.random()
        if depth == 0 or r < 0.25:
            if r < 0.15:
                return App("k", ())
            return rng.choice(vs)
        if r < 0.6:
            return App("u", (rand_term(depth - 1, vs),))
        return App("b", (rand_term(depth - 1, vs), rand_term(depth - 1, vs)))

    made = 0
    for _ in range(300):
        vs = [Var(i, f"v{i}") for i in range(1, 4)]
        lhs = rand_term(3, vs)
        rhs = rand_term(2, list(vs) + [App("k", ())])
        if isinstance(lhs, Var):
            continue
        try:
            trs = Trs([Rule(lhs, rhs, "q")])
        except ValueError:
            continue
        back = parse_trs(print_trs(trs))
        assert back.key() == trs.key()
        made += 1
    assert made >= 100


def test_parse_trs_file(tmp_path):
    path = tmp_path / "problem.trs"
    path.write_text(print_trs(R3))
    assert parse_trs_file(str(path)).key() == R3.key()


def test_canonical_shapes_survive_the_round_trip():
    back = parse_trs(print_trs(R3))
    # printing preserves rule order, so the systems line up positionally
    for r_orig, r_back in zip(R3, back):
        assert canonical_tuple((r_orig.lhs, r_orig.rhs)) == canonical_tuple(
            (r_back.lhs, r_back.rhs)
        )


def test_a_deep_rule_round_trips():
    lhs = "s(" * 5000 + "x" + ")" * 5000
    text = f"(VAR x)\n(RULES\n  h({lhs}) -> h(x)\n)\n"
    trs = parse_trs(text)
    assert print_trs(trs) == text
    assert print_trs(parse_trs(print_trs(trs))) == text
    x_var = trs.rules[0].rhs.args[0]
    built = x_var
    for _ in range(5000):
        built = App("s", (built,))
    # hashes are stored when a term is built, so this compares without a walk
    assert hash(trs.rules[0].lhs) == hash(App("h", (built,)))


@pytest.mark.parametrize("name", ["f#", "g~", "é"])
def test_symbols_outside_the_format_are_rejected(name):
    # '#' marks dependency-pair symbols, so it must not reach a problem's rules
    for text in (f"(RULES\n  {name}(a) -> a\n)", f"(RULES\n  f({name}) -> a\n)",
                 f"(VAR {name})\n(RULES\n  f(a) -> a\n)"):
        with pytest.raises(ParseError) as e:
            parse_trs(text)
        assert e.value.line == (2 if text.startswith("(RULES") else 1), text


def test_parsing_builds_one_system(monkeypatch):
    # arities are checked against the signature of the rules read so far, not
    # by building a system after every rule, which made parsing quadratic
    built = []

    class CountedTrs(Trs):
        def __init__(self, rules):
            built.append(1)
            super().__init__(rules)

    monkeypatch.setattr(trs_format, "Trs", CountedTrs)
    text = "(VAR x)\n(RULES\n" + "".join(f"  f{i}(x) -> g{i}(x)\n" for i in range(2_000)) + ")\n"
    trs = parse_trs(text)
    assert len(trs) == 2_000
    assert len(built) == 1
