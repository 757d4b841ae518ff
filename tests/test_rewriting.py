"""Rules, rewrite steps, parallel steps and bounded searches."""
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confl import completion, criteria, rewriting
from confl.certificate import certificate_text, verify_certificate
from confl.completion import check_confluence
from confl.rewriting import (
    Contractions,
    FuelExhausted,
    Rule,
    Step,
    Trs,
    compile_contractor,
    normalize_steps,
    parallel_step,
    reach_bounded,
    reach_set_bounded,
    reducts,
    replay,
    step_at,
)
from confl.terms import (App, Var, all_parallel, apply, fun_subterms, match_term, replace_at,
                         replace_parallel, shape_key, subterm_at, term_vars, var_ids)

from helpers import replay_steps
from systems import (ADD1, ADD2, ADD3, ADD4, CHAIN3, CHAIN4, A, C, P_CA, R2, R3, S2, S3, decided,
                     plus, s, x, y, z, zero)


def num(n):
    t = zero
    for _ in range(n):
        t = s(t)
    return t


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule(x, s(x), "bad")  # variable left-hand side
    with pytest.raises(ValueError):
        Rule(s(x), plus(x, y), "bad")  # y invented on the right
    Rule(s(x), zero, "ok")  # dropping variables is allowed


def test_trs_validation():
    with pytest.raises(ValueError):
        Trs([Rule(s(x), zero, "r"), Rule(plus(x, y), x, "r")])  # duplicate name
    with pytest.raises(ValueError):
        Trs([Rule(App("f", (x,)), App("f", (x, x)), "r")])  # arity clash
    t = Trs([Rule(s(x), zero), Rule(plus(x, y), x)])
    assert [r.name for r in t] == ["r1", "r2"]
    assert t.rule("r2").rhs == x
    with pytest.raises(KeyError):
        t.rule("nope")


def test_rule_inverse_and_bidirectional():
    assert C.is_bidirectional() and A.is_bidirectional()
    assert not ADD1.is_bidirectional()  # rhs is a bare variable
    assert not Rule(s(x), zero, "drop").is_bidirectional()
    inv = A.inverse()
    assert inv.name == "A~"
    assert inv.lhs == A.rhs and inv.rhs == A.lhs


def test_with_inverses_drops_variant_duplicates():
    pp = P_CA.with_inverses()
    # C's inverse is a variant of C itself, so only A~ is new
    assert sorted(r.name for r in pp) == ["A", "A~", "C"]


def test_union_renames_colliding_names():
    t1 = Trs([Rule(s(x), zero, "r")])
    t2 = Trs([Rule(plus(x, y), x, "r")])
    u = t1.union(t2)
    assert sorted(r.name for r in u) == ["r", "r'"]
    # unioning a variant does not duplicate the rule
    again = u.union(Trs([Rule(s(y), zero, "other")]))
    assert len(again) == len(u)


def test_replay_steps_rejects_forged_steps():
    # a Step is a plain record; a forged one is caught when it is replayed
    st = step_at(plus(zero, num(1)), (), ADD1)
    assert st is not None and st.target == num(1)
    assert replay_steps(st.source, [st], S3) == num(1)
    with pytest.raises(ValueError, match="stated target"):
        replay_steps(st.source, [Step(st.source, num(2), st.position, st.rule)], S3)
    with pytest.raises(ValueError, match="does not apply"):
        replay_steps(num(2), [Step(num(2), num(1), (), ADD1)], S3)


def test_replay_names_the_move_that_fails():
    t = plus(zero, plus(zero, num(1)))
    first, second = replay(t, [((2,), ADD1), ((), ADD1)])
    assert (first.source, first.target, second.target) == (t, plus(zero, num(1)), num(1))
    with pytest.raises(ValueError, match=r"step add1 at 1 does not apply"):
        replay(t, [((2,), ADD1), ((1,), ADD1)])
    # a position outside the term does not apply either
    with pytest.raises(ValueError, match=r"step add1 at 2\.1\.1 does not apply"):
        replay(t, [((2, 1, 1), ADD1)])


def test_normalize_add_arithmetic():
    for a in range(4):
        for b in range(4):
            t = plus(num(a), num(b))
            nf, steps = normalize_steps(t, S3)
            assert nf == num(a + b)
            assert replay_steps(t, steps, S3) == nf
            assert not reducts(nf, S3)


def test_normalize_steps_replay_on_random_terms():
    rng = random.Random(3)

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([zero, x, y])
        if rng.random() < 0.5:
            return s(rand_term(depth - 1))
        return plus(rand_term(depth - 1), rand_term(depth - 1))

    for _ in range(300):
        t = rand_term(4)
        nf, steps = normalize_steps(t, S3)
        assert replay_steps(t, steps, S3) == nf


def test_normalize_fuel():
    loop = Trs([Rule(App("f", (x,)), App("f", (App("f", (x,)),)), "exp")])
    with pytest.raises(FuelExhausted):
        normalize_steps(App("f", (zero,)), loop, fuel=50)


def brute_parallel_targets(t, trs):
    """target -> set of redex-set keys, by enumerating antichains of redexes."""
    redexes = []
    for p, _ in fun_subterms(t):
        for rule in trs:
            m = match_term(rule.lhs, subterm_at(t, p))
            if m is not None:
                redexes.append((p, rule, m))
    if len(redexes) > 12:
        return None
    results = {}
    for mask in range(1 << len(redexes)):
        chosen = [r for i, r in enumerate(redexes) if mask >> i & 1]
        ps = [p for p, _, _ in chosen]
        if not all_parallel(ps):
            continue
        target = replace_parallel(t, [(p, apply(m, r.rhs)) for p, r, m in chosen])
        key = frozenset((p, r.name) for p, r, _ in chosen)
        results.setdefault(target, set()).add(key)
    return results


def first_allowed(t, target, keys, trs, allowed):
    """The first redex set of keys, by count, then positions in preorder, then
    rules in order, whose rewritten subterms of target have only variables in
    allowed (any, for None); as (position, rule name) pairs, or None."""
    order = {r.name: i for i, r in enumerate(trs)}
    wits = sorted((sorted(k) for k in keys),
                  key=lambda w: (len(w), [p for p, _ in w], [order[n] for _, n in w]))
    for w in wits:
        if allowed is None or all(var_ids(subterm_at(target, p)) <= allowed for p, _ in w):
            return w
    return None


def test_parallel_step_witnesses_against_brute_force():
    rng = random.Random(42)

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice([zero, x, y, z])
        if rng.random() < 0.4:
            return s(rand_term(depth - 1))
        return plus(rand_term(depth - 1), rand_term(depth - 1))

    compared = 0
    for _ in range(250):
        t = rand_term(3)
        expected = brute_parallel_targets(t, R3)
        if expected is None:
            continue
        for target, keys in expected.items():
            for allowed in (None, set(), {x.id}):
                want = first_allowed(t, target, keys, R3, allowed)
                got = parallel_step(t, target, R3, allowed)
                if want is None:
                    assert got is None, f"{t!r} => {target!r} within {allowed}"
                    continue
                assert (got.source, got.target) == (t, target)
                assert [(p, r.name) for p, r in got.parts] == want, f"{t!r} => {target!r}"
                if target == t:
                    # the identity needs no redex
                    assert got.parts == ()
            compared += 1
        # no step to a term that is not one parallel step away
        probe = s(s(t))
        if probe not in expected:
            assert parallel_step(t, probe, R3) is None
    assert compared >= 300


def test_parallel_step_witnesses_sorted_and_checked():
    t = plus(plus(zero, num(1)), plus(s(zero), zero))
    tgt = plus(num(1), plus(s(zero), zero))
    assert parallel_step(t, tgt, R3) is not None, "expected a step"
    ident = parallel_step(t, t, R3)
    assert ident is not None and ident.parts == ()


def test_parallel_step_variable_condition_passes_over_a_smaller_step():
    # k(a,y) ⇉ k(b,y) by one root redex, or by a -> b below it; only the
    # inner one rewrites to a subterm without y
    a, b = App("a", ()), App("b", ())
    trs = Trs([Rule(App("k", (a, z)), App("k", (b, z)), "root"), Rule(a, b, "inner")])
    t, tgt = App("k", (a, y)), App("k", (b, y))
    assert [(p, r.name) for p, r in parallel_step(t, tgt, trs).parts] == [((), "root")]
    assert [(p, r.name) for p, r in parallel_step(t, tgt, trs, {y.id}).parts] == [((), "root")]
    assert [(p, r.name) for p, r in parallel_step(t, tgt, trs, set()).parts] == [((1,), "inner")]


def test_reach_set_bounded_paths_replay():
    t = plus(num(1), num(1))
    paths = reach_set_bounded(t, R2, 3)
    assert next(iter(paths)) == t and paths[t] == ()
    for target, steps in paths.items():
        assert len(steps) <= 3
        assert replay_steps(t, steps, R2) == target
    # BFS paths are shortest: one step suffices to reach s(+(0, s(0)))
    one = s(plus(zero, num(1)))
    assert one in paths and len(paths[one]) == 1


def test_reach_bounded_goal_predicate():
    t = plus(num(2), num(2))
    found = reach_bounded(t, num(4), R2, 8)
    assert found is not None
    assert replay_steps(t, found, R2) == num(4)
    assert reach_bounded(t, t, R2, 0) == []
    assert reach_bounded(num(0), num(1), R2, 5) is None


def test_conversion_bounded_roundtrip():
    lhs = plus(x, plus(y, z))
    rhs = plus(plus(x, y), z)
    steps = reach_bounded(lhs, rhs, P_CA.with_inverses(), 6)
    assert steps is not None
    assert replay_steps(lhs, steps, P_CA.with_inverses()) == rhs
    # no conversion between different variables
    assert reach_bounded(x, y, P_CA.with_inverses(), 4) is None


def test_replay_steps_rejects_foreign_and_broken_chains():
    t = plus(zero, num(1))
    st = step_at(t, (), ADD1)
    with pytest.raises(ValueError):
        replay_steps(t, [st], Trs([ADD2]))  # rule not in the given system
    st2 = step_at(plus(zero, num(2)), (), ADD1)
    with pytest.raises(ValueError):
        replay_steps(t, [st2], None)  # does not chain


def test_reducts_enumerates_every_redex():
    t = plus(plus(zero, num(1)), zero)
    got = {(st.position, st.rule.name) for st in reducts(t, S3)}
    assert ((), "add3") in got
    assert ((1,), "add1") in got
    assert all(st.source == t for st in reducts(t, S3))


def scanned_reducts(t, trs):
    """reducts as first written: step_at for every function position (each
    found again from the root) and every rule."""
    ps = [p for p, _ in fun_subterms(t)]
    steps = (step_at(t, p, rule) for p in ps for rule in trs)
    return [st for st in steps if st is not None]


@pytest.fixture(scope="module")
def searched():
    """Per system, the (term, rules) of every reach-set term and of every
    normalize_steps call in a completion run of it, which must answer its
    verdict."""
    out = {}
    for name, trs, verdict in (("R2", R2, "YES"), ("chain3", CHAIN3, "YES"),
                               ("chain4", CHAIN4, "MAYBE")):
        reached, normalized = set(), set()

        def recording_reach(t, rules, depth, cap=4000, **kwargs):
            ends = reach_set_bounded(t, rules, depth, cap, **kwargs)
            reached.update((u, rules) for u in ends)
            return ends

        def recording_normalize(t, rules, fuel=10_000):
            normalized.add((t, rules))
            return normalize_steps(t, rules, fuel)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "reach_set_bounded", recording_reach)
            mp.setattr(criteria, "normalize_steps", recording_normalize)
            mp.setattr(completion, "normalize_steps", recording_normalize)
            assert check_confluence(trs).verdict == verdict
        out[name] = (reached, normalized)
    return out


# chain3's run, whose later criteria stop at their first unjoined pair,
# reaches 129 terms; chain4's reaches 295
@pytest.mark.parametrize("name", ["R2", "chain4"])
def test_reducts_walk_lists_the_steps_of_the_scan(name, searched):
    reached, _ = searched[name]
    assert len(reached) >= 200
    for u, rules in reached:
        got = [(st.target, st.position, st.rule) for st in reducts(u, rules)]
        want = [(st.target, st.position, st.rule) for st in scanned_reducts(u, rules)]
        assert got == want, u


# The searches as they were written before they shared one walk and one
# normalizer: the oracles of the equivalence tests below.

def two_loop_reach_set(s, trs, depth, cap=4000):
    paths = {s: ()}
    frontier = deque([(s, 0)])
    while frontier:
        t, d = frontier.popleft()
        if d >= depth:
            continue
        for step in reducts(t, trs):
            if step.target not in paths:
                if len(paths) >= cap:
                    return paths
                paths[step.target] = paths[t] + (step,)
                frontier.append((step.target, d + 1))
    return paths


def two_loop_reach(s, goal, trs, depth, cap=4000):
    want = goal if callable(goal) else (lambda t: t == goal)
    if want(s):
        return []
    paths = {s: ()}
    frontier = deque([(s, 0)])
    while frontier:
        t, d = frontier.popleft()
        if d >= depth:
            continue
        for step in reducts(t, trs):
            if step.target in paths:
                continue
            path = paths[t] + (step,)
            if want(step.target):
                return list(path)
            if len(paths) >= cap:
                return None
            paths[step.target] = path
            frontier.append((step.target, d + 1))
    return None


def postorder(t, at=()):
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            yield from postorder(a, at + (i,))
    yield at


def restarting_normalize_steps(t, trs, fuel=10_000):
    steps = []
    changed = True
    while changed:
        changed = False
        for p in postorder(t):
            if isinstance(subterm_at(t, p), Var):
                continue
            for rule in trs:
                st = step_at(t, p, rule)
                if st is not None:
                    if len(steps) >= fuel:
                        raise FuelExhausted(f"no normal form within {fuel} steps")
                    steps.append(st)
                    t = st.target
                    changed = True
                    break
            if changed:
                break
    return t, steps


# every k-th reach-set term, in repr order: checking all 11k of R2's takes
# minutes (it passes)
SAMPLE = {"R2": 100, "chain3": 1}


@pytest.mark.parametrize("name", ["R2", "chain3"])
def test_one_walk_reaches_what_the_two_loops_reached(name, searched):
    """Each walk gives the two loops' terms, order and steps, both with a
    table of its own and with one root-contractum table shared by every walk
    over the same system; reducts and parallel steps give the same answer
    from a table those walks filled as from none."""
    reached, _ = searched[name]
    never = App("never", ())
    tables = {}  # id of a system -> the table all its walks share
    redexes = 0
    for u, rules in sorted(reached, key=repr)[::SAMPLE[name]]:
        table = tables.setdefault(id(rules), {})
        for depth in range(4):
            for cap in (1, 2, 3, 50):
                want = list(two_loop_reach_set(u, rules, depth, cap).items())
                got = reach_set_bounded(u, rules, depth, cap)
                assert list(got.items()) == want, (u, depth, cap)
                shared = reach_set_bounded(u, rules, depth, cap, table=table)
                assert list(shared.items()) == want, (u, depth, cap)
        ends = list(two_loop_reach_set(u, rules, 3, 50))
        goals = [ends[-1], never, lambda t, later=set(ends[2::3]): t in later]
        for cap in (1, 2, 3, 50):
            if cap < len(ends):  # the (cap+1)-th term found is still returned
                found = reach_bounded(u, ends[cap], rules, 3, cap)
                assert found is not None
                assert found == two_loop_reach(u, ends[cap], rules, 3, cap)
            for goal in goals:
                want = two_loop_reach(u, goal, rules, 3, cap)
                assert reach_bounded(u, goal, rules, 3, cap) == want, (u, goal, cap)
        assert reducts(u, rules, table=table) == reducts(u, rules)
        for end in ends:
            for allowed in (None, var_ids(end), frozenset()):
                want = parallel_step(u, end, rules, allowed)
                assert parallel_step(u, end, rules, allowed, table=table) == want
                redexes += want is not None and len(want.parts)
    assert redexes > 0


@pytest.mark.parametrize("name", ["R2", "chain3"])
def test_a_reach_set_read_in_part_is_a_prefix_of_the_whole(name, searched):
    """The first n ends of a reach set are the first n terms of the two
    loops' set, with their paths, however its reads interleave; reading it
    in part builds no term past the expansion that found the n-th end, and
    a mapping read afterwards gives the whole set."""
    reached, _ = searched[name]
    grown = 0
    for u, rules in sorted(reached, key=repr)[::SAMPLE[name]]:
        for depth in (1, 3):
            want = list(two_loop_reach_set(u, rules, depth, 50).items())
            for n in (1, 2, 5):
                ends = reach_set_bounded(u, rules, depth, 50)
                first, second = ends.ends(), ends.ends(n)
                assert list(second) == want[:n]
                assert [next(first) for _ in want[:n]] == want[:n]
                _, path = want[:n][-1]
                expanded = path[-1].source if path else u  # found the last end read
                assert len(ends.paths) <= len(want[:n]) + len(reducts(expanded, rules))
                grown += len(ends.paths) < len(want)
                assert list(first) == want[n:]
                assert list(ends.items()) == want
    assert grown > 0


@pytest.mark.parametrize("name", ["R2", "chain3"])
def test_one_normalizer_takes_the_restarting_steps(name, searched):
    reached, normalized = searched[name]
    systems = {rules for _, rules in normalized}  # the S parts of the run
    terms = [u for u, _ in sorted(reached, key=repr)[::SAMPLE[name]]]
    cases = [*normalized, *((u, rules) for u in terms for rules in systems)]
    assert any(restarting_normalize_steps(t, rules)[1] for t, rules in cases)
    for t, rules in cases:
        nf, steps = normalize_steps(t, rules, fuel=2_000)
        assert (nf, steps) == restarting_normalize_steps(t, rules, fuel=2_000)
        assert normalize_steps(t, rules, fuel=len(steps)) == (nf, steps)
        if steps:
            with pytest.raises(FuelExhausted):
                normalize_steps(t, rules, fuel=len(steps) - 1)
            with pytest.raises(FuelExhausted):
                restarting_normalize_steps(t, rules, fuel=len(steps) - 1)


def test_rule_key_cache_is_invisible():
    def fresh_c():
        return Rule(plus(x, y), plus(y, x), "C")

    r, twin = fresh_c(), fresh_c()
    before = hash(r)
    assert r == twin
    assert r.key() == shape_key((r.lhs, r.rhs))[0]
    # a computed key changes neither equality nor hashing
    assert hash(r) == before == hash(twin)
    assert r == twin and twin == r
    assert len({r, twin}) == 1
    # variants share a key, yet stay distinct rules
    variant = Rule(plus(y, z), plus(z, y), "C")
    renamed = Rule(plus(x, y), plus(y, x), "C2")
    assert variant.key() == renamed.key() == r.key()
    assert variant != r and renamed != r
    assert len({r, variant, renamed}) == 3
    # the system operations built on keys answer as they did before caching
    s2 = Trs([ADD1, ADD2])
    flipped = Rule(plus(zero, z), z, "other")
    assert s2.contains_variant(flipped)
    assert not s2.contains_variant(ADD3)
    merged = s2.union(Trs([flipped, Rule(plus(s(x), y), s(plus(x, y)), "add1"), ADD3]))
    assert [(m.name, m.lhs, m.rhs) for m in merged] == [
        ("add1", ADD1.lhs, ADD1.rhs),
        ("add2", ADD2.lhs, ADD2.rhs),
        ("add3", ADD3.lhs, ADD3.rhs),
    ]
    clash = s2.union(Trs([Rule(plus(x, zero), x, "add1")]))
    assert [m.name for m in clash] == ["add1", "add2", "add1'"]
    assert Trs([variant]) == Trs([r]) and hash(Trs([variant])) == hash(Trs([r]))


def test_rule_linearity_is_computed_once_and_invisible(monkeypatch):
    linear_calls = []
    linear = rewriting._linear

    def counted(t):
        linear_calls.append(t)
        return linear(t)

    monkeypatch.setattr(rewriting, "_linear", counted)
    # fresh rules: the shared ones may hold their linearity already
    comm, assoc, add1 = (Rule(r.lhs, r.rhs, r.name) for r in (C, A, ADD1))
    dup = Rule(App("f", (x, x)), x, "dup")
    copy = Rule(plus(y, x), plus(x, plus(y, y)), "copy")
    systems = [Trs([comm, assoc, dup]), Trs([comm, copy]), Trs([assoc, add1])]
    before = {r: hash(r) for t in systems for r in t}
    for _ in range(3):
        assert [t.left_linear() for t in systems] == [False, True, True]
        assert [t.linear() for t in systems] == [False, False, True]
    # each side of each rule once, and the right side only of a rule whose
    # left side is linear
    assert len(linear_calls) == len({id(t) for t in linear_calls}) == 9
    # the stored linearity changes neither equality nor hashing
    assert all(hash(r) == h for r, h in before.items())
    assert comm == C and Rule(dup.lhs, dup.rhs, "dup") == dup


# --- contractors ----------------------------------------------------------------

_LEAVES = [Var(1, "x"), Var(2, "y"), Var(3, "z"), App("a", ()), App("b", ())]


def _terms(leaves):
    """Terms over the symbols f/2, g/1, h/3 and the given leaves."""
    return st.recursive(st.sampled_from(leaves), lambda inner: st.one_of(
        st.builds(lambda u: App("g", (u,)), inner),
        st.builds(lambda u, v: App("f", (u, v)), inner, inner),
        st.builds(lambda u, v, w: App("h", (u, v, w)), inner, inner, inner)), max_leaves=7)


def _near_misses(lhs, t):
    """Terms that differ from t, an instance of lhs, where lhs has a symbol
    (another symbol, one argument more or less, a variable), and, per
    repeated variable of lhs, t with one copy of it made unequal."""
    out = []
    for p, sub in fun_subterms(lhs):
        u = subterm_at(t, p)
        variants = [App(u.fn + "'", u.args), App(u.fn, u.args + (App("a", ()),)), Var(13, "w")]
        if u.args:
            variants.append(App(u.fn, u.args[:-1]))
        out += [replace_at(t, p, v) for v in variants]
    occurrences = {}
    for p, sub in _positions(lhs):
        if sub.__class__ is Var:
            occurrences.setdefault(sub.id, []).append(p)
    for ps in occurrences.values():
        for p in ps[1:]:
            out.append(replace_at(t, p, App("g", (subterm_at(t, p),))))
    return out


def _positions(t):
    """(position, subterm) for every subterm of t, variables included."""
    stack, out = [((), t)], []
    while stack:
        p, u = stack.pop()
        out.append((p, u))
        if u.__class__ is App:
            stack += [((*p, i), a) for i, a in enumerate(u.args, start=1)]
    return out


def assert_contractor_agrees(rule, subjects):
    contract = compile_contractor(rule, {})
    variant = compile_contractor(rule.rename_apart(), {})  # one contractor serves a key
    for t in subjects:
        want = rewriting._contract(rule, t)
        assert contract(t) == want and variant(t) == want, (rule, t)


_TERMS = _terms(_LEAVES)
_VALUES = _terms([App("a", ()), App("b", ()), Var(11, "u"), Var(12, "v")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_TERMS.filter(lambda t: t.__class__ is App), _TERMS,
       st.lists(_VALUES, min_size=3, max_size=3), _TERMS)
def test_a_contractor_agrees_with_match_and_apply(lhs, rhs, values, other):
    # the right side's variables that the left side lacks become a constant
    held = var_ids(lhs)
    rule = Rule(lhs, apply({v.id: App("b", ()) for v in _LEAVES[:3] if v.id not in held}, rhs))
    t = apply({v.id: value for v, value in zip(_LEAVES, values)}, lhs)
    # a copy whose equal subterms are other objects, so a repeated variable's
    # copies are compared by structure, not identity
    assert_contractor_agrees(rule, [t, apply({}, t), *_near_misses(lhs, t), other])


def test_a_contractors_source_holds_no_symbol_text(monkeypatch):
    sources = []

    def recording_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(rewriting, "compile", recording_compile, raising=False)
    quote, dquote, backslash, newline, call = ("q'", 'q"', "q\\", "q\nr", "__import__('os')")
    u = App(newline, ())
    rules = [
        Rule(App(quote, (x, App(backslash, ()))), App(call, (x, App(dquote, (u,))))),
        Rule(App(call, (x, x)), App(quote, (App(backslash, ()), x))),
        Rule(App(dquote, (App(newline, ()),)), App("App", (u,))),
    ]
    for rule in rules:
        t = apply({v.id: App("len", ()) for v in term_vars(rule.lhs)}, rule.lhs)
        assert rewriting._contract(rule, t) is not None
        assert_contractor_agrees(rule, [t, *_near_misses(rule.lhs, t)])
    assert len(sources) == 2 * len(rules)
    for text in (quote, dquote, backslash, newline, call, repr(newline)[1:-1]):
        assert not any(text in source for source in sources), text


def test_a_run_compiles_each_rule_key_it_contracts_once(monkeypatch):
    """On the join search's tables each rule is contracted by its compiled
    contractor: a chain4 run compiles every rule key it contracts there once,
    however many splits, criteria and joins hold the rule."""
    compiled, contracted = Counter(), set()
    compile_contractor, contracta = rewriting.compile_contractor, rewriting._contracta

    def counting_compile(rule, codes):
        compiled[rule.key()] += 1
        return compile_contractor(rule, codes)

    def noting_contracta(sub, trs, table):
        if table.__class__ is Contractions and sub not in table:
            contracted.update(rule.key() for rule, _ in table.rules.get(sub.fn, ()))
        return contracta(sub, trs, table)

    monkeypatch.setattr(rewriting, "compile_contractor", counting_compile)
    monkeypatch.setattr(rewriting, "_contracta", noting_contracta)
    assert check_confluence(CHAIN4).verdict == "MAYBE"
    assert len(contracted) > 10 and contracted <= set(compiled)
    assert set(compiled.values()) == {1}


def test_verifying_compiles_nothing(monkeypatch):
    result = decided(R2)
    text = certificate_text(R2, result)
    compiled = []
    monkeypatch.setattr(rewriting, "compile_contractor", lambda *args: compiled.append(args))
    assert verify_certificate(text, R2) == (True, [])
    assert compiled == []


def test_a_rule_past_the_node_bound_is_not_compiled():
    """Toyama's rules plus s³⁰⁰⁰(x) -> s²⁹⁹⁹(x): a table over them compiles
    Toyama's three rules, and the deep rule keeps `_contract`.  (A run on
    them times out in `decompose`, before any join search builds a table.)"""
    toyama = [Rule(App("f", (App("a", ()), App("b", ()), x)), App("f", (x, x, x))),
              Rule(App("g", (x, y)), x), Rule(App("g", (x, y)), y)]
    deep = Rule(_tower(3000, x), _tower(2999, x))
    memo = {}
    rules = rewriting.root_contractors(Trs(toyama + [deep]), memo)
    (rule, contract), = rules["s"]
    assert rule.key() == deep.key()
    assert contract.func is rewriting._contract and contract.args == (rule,)
    assert memo[deep.key()] is contract
    assert all(memo[r.key()].__code__.co_filename == "<contractor>" for r in toyama)
    assert contract(_tower(3000, zero)) == _tower(2999, zero)


def _tower(n, t):
    for _ in range(n):
        t = s(t)
    return t
