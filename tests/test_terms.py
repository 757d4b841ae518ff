"""Unification, matching, renaming and position laws, checked in bulk against
randomly generated terms plus hypothesis-driven cases."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confl.terms import (
    App,
    TermSyntaxError,
    Var,
    all_parallel,
    apply,
    fun_subterms,
    match_term,
    read_term,
    replace_at,
    replace_parallel,
    shape_key,
    signature,
    subterm_at,
    term_tokens,
    term_vars,
    token_offset,
    unify_all,
    var_ids,
    write_term,
)

from helpers import rename_apart

FUNS = [("0", 0), ("c", 0), ("s", 1), ("g", 1), ("+", 2), ("f", 2)]
VARS = [Var(1, "x"), Var(2, "y"), Var(3, "z")]


def random_term(rng, depth, allow_vars=True):
    leaf = depth == 0 or rng.random() < 0.25
    if leaf:
        if allow_vars and rng.random() < 0.6:
            return rng.choice(VARS)
        return App(rng.choice(["0", "c"]), ())
    fn, ar = rng.choice(FUNS[2:])
    return App(fn, tuple(random_term(rng, depth - 1, allow_vars) for _ in range(ar)))


def random_ground_subst(rng):
    return {v.id: random_term(rng, 2, allow_vars=False) for v in VARS}


def all_positions(t):
    """Every position of t: the root, then each argument of each application."""
    return [()] + [(*p, i) for p, u in fun_subterms(t) for i in range(1, len(u.args) + 1)]


def key(*ts):
    """The terms ts up to renaming."""
    return shape_key(ts)[0]


def generalize(rng, t, base_id, theta, rate=0.35):
    """Replace random subterms of ground t with fresh variables; extends theta
    so that applying it undoes the generalization."""
    if rng.random() < rate:
        vid = base_id + len([k for k in theta if base_id <= k < base_id + 100])
        theta[vid] = t
        return Var(vid, f"w{vid}")
    if isinstance(t, Var) or not t.args:
        return t
    return App(t.fn, tuple(generalize(rng, a, base_id, theta, rate) for a in t.args))


def test_unification_laws_bulk():
    rng = random.Random(20260813)
    total = 0
    unified = 0
    common_instance = 0
    for i in range(1500):
        if i % 2 == 0:
            s = random_term(rng, 3)
            t = random_term(rng, 3)
            theta = random_ground_subst(rng)
        else:
            # two generalizations of a shared ground term: unifiable by design,
            # with a known common instance recorded in theta
            base = random_term(rng, 3, allow_vars=False)
            theta = {}
            s = generalize(rng, base, 100, theta)
            t = generalize(rng, base, 200, theta)
        sigma = unify_all([(s, t)])
        if sigma is not None:
            unified += 1
            # sound: the mgu really unifies
            assert apply(sigma, s) == apply(sigma, t)
            # idempotent: applying twice changes nothing
            for u in (s, t):
                once = apply(sigma, u)
                assert apply(sigma, once) == once
        if apply(theta, s) == apply(theta, t):
            common_instance += 1
            # complete: a common instance exists, so unify must succeed ...
            assert sigma is not None, f"missed unifier of {s!r} and {t!r}"
            # ... and be most general: theta factors through sigma
            vs = term_vars(s) + [v for v in term_vars(t) if v.id not in var_ids(s)]
            packed_mgu = App("tup", tuple(apply(sigma, v) for v in vs))
            packed_theta = App("tup", tuple(apply(theta, v) for v in vs))
            assert match_term(packed_mgu, packed_theta) is not None
        total += 1
    assert total >= 1000
    # the generator must actually exercise both outcomes
    assert unified >= 100
    assert common_instance >= 300


def test_matching_laws_bulk():
    rng = random.Random(97)
    positives = 0
    for _ in range(1200):
        pat = random_term(rng, 3)
        rho = {v.id: random_term(rng, 2) for v in VARS}
        subject = apply(rho, pat)
        mu = match_term(pat, subject)
        assert mu is not None, f"failed to match {pat!r} against own instance"
        assert apply(mu, pat) == subject
        positives += 1
        other = random_term(rng, 3)
        mu2 = match_term(pat, other)
        if mu2 is not None:
            assert apply(mu2, pat) == other
    assert positives >= 1000


def test_matching_is_one_way():
    x, y = VARS[0], VARS[1]
    # subject variables are opaque constants for matching
    assert match_term(App("s", (x,)), App("s", (y,))) == {1: y}
    assert match_term(App("s", (App("0", ()),)), App("s", (x,))) is None
    # nonlinear pattern requires equal arguments
    assert match_term(App("f", (x, x)), App("f", (y, y))) is not None
    assert match_term(App("f", (x, x)), App("f", (y, App("0", ())))) is None


def test_unify_occurs_check():
    x, y = VARS[0], VARS[1]
    assert unify_all([(x, App("s", (x,)))]) is None
    assert unify_all([(App("f", (x, App("s", (x,)))), App("f", (y, y)))]) is None


def test_unify_all_simultaneous():
    x, y = VARS[0], VARS[1]
    zero = App("0", ())
    sigma = unify_all([(x, App("s", (y,))), (y, zero)])
    assert sigma is not None
    assert apply(sigma, x) == App("s", (zero,))
    assert unify_all([(x, zero), (x, App("c", ()))]) is None


def test_shape_key_renaming_invariance():
    rng = random.Random(11)
    for _ in range(400):
        s = random_term(rng, 3)
        t = random_term(rng, 2)
        shift = {i: Var(i + 40, f"n{i}") for i in (1, 2, 3)}
        s2 = apply(shift, s)
        t2 = apply(shift, t)
        assert key(s, t) == key(s2, t2)
        assert key(s) == key(s2)
        # inconsistent renaming across the tuple is a different object
        swap = {1: Var(2, "y"), 2: Var(1, "x")}
        if var_ids(s) >= {1, 2} and key(s) != key(apply(swap, s)):
            assert key(s, t) != key(apply(swap, s), t)


def test_rename_apart_gives_disjoint_variant():
    rng = random.Random(5)
    for _ in range(200):
        t1 = random_term(rng, 3)
        t2 = random_term(rng, 3)
        t2r, mapping = rename_apart(t1, t2)
        assert var_ids(t1).isdisjoint(var_ids(t2r))
        assert key(t2r) == key(t2)
        assert len(set(v.id for v in mapping.values())) == len(mapping)


def test_position_laws():
    rng = random.Random(31)
    for _ in range(300):
        t = random_term(rng, 3)
        ps = all_positions(t)
        assert ps[0] == ()
        assert len(ps) == len(set(ps))
        for p in ps:
            sub = subterm_at(t, p)
            assert replace_at(t, p, sub) == t


def test_replace_parallel_matches_sequential():
    rng = random.Random(77)
    done = 0
    for _ in range(500):
        t = random_term(rng, 3)
        ps = all_positions(t)[1:]
        rng.shuffle(ps)
        chosen = []
        for p in ps:
            if all_parallel(chosen + [p]):
                chosen.append(p)
            if len(chosen) == 3:
                break
        if len(chosen) < 2:
            continue
        repl = [(p, random_term(rng, 1)) for p in chosen]
        got = replace_parallel(t, repl)
        expect = t
        for p, sub in repl:
            expect = replace_at(expect, p, sub)
        assert got == expect
        done += 1
    assert done >= 50


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 2**31))
def test_unify_symmetric_up_to_instance(a, b):
    rng1, rng2 = random.Random(a), random.Random(b)
    s = random_term(rng1, 3)
    t = random_term(rng2, 3)
    s1 = unify_all([(s, t)])
    s2 = unify_all([(t, s)])
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        assert key(apply(s1, s)) == key(apply(s2, t))


def test_var_identity_ignores_display_name():
    assert Var(1, "x") == Var(1, "zzz")
    assert Var(1, "x") != Var(2, "x")
    assert App("f", (Var(1, "x"),)) == App("f", (Var(1, "other"),))


def eager_unify_all(eqs):
    """unify_all as it was first written: every popped equation is rewritten
    by the whole substitution, and every binding rewrites the substitution."""

    def occurs(x, t):
        if isinstance(t, Var):
            return t.id == x
        return any(occurs(x, a) for a in t.args)

    sigma = {}
    work = list(eqs)
    while work:
        s, t = work.pop()
        s, t = apply(sigma, s), apply(sigma, t)
        if s == t:
            continue
        if isinstance(s, Var):
            if occurs(s.id, t):
                return None
            bind = {s.id: t}
            sigma = {x: apply(bind, u) for x, u in sigma.items()}
            sigma[s.id] = t
        elif isinstance(t, Var):
            work.append((t, s))
        else:
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            work.extend(zip(s.args, t.args))
    return sigma


def random_equations(rng):
    """A few equations over up to five variables; sharing variables across
    equations makes bindings chain, so triangular resolution is exercised."""
    names = "xyzwv"
    pool = [Var(i, names[i]) for i in range(rng.randint(1, 5))]

    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(pool) if rng.random() < 0.7 else App(rng.choice("ab"), ())
        fn, ar = rng.choice(FUNS[2:])
        return App(fn, tuple(term(depth - 1) for _ in range(ar)))

    return [(term(rng.randint(0, 3)), term(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))]


def assert_same_as_eager(eqs):
    want, got = eager_unify_all(eqs), unify_all(eqs)
    assert (want is None) == (got is None), eqs
    if want is not None:
        assert got == want, eqs
        assert list(got) == list(want), eqs  # the same binding order
    return want is not None


def test_unify_all_agrees_with_the_eager_algorithm():
    rng = random.Random(8)
    unified = sum(assert_same_as_eager(random_equations(rng)) for _ in range(4000))
    assert unified >= 500  # both outcomes are exercised


TERMS = st.recursive(
    st.sampled_from([Var(i, n) for i, n in enumerate("xyzw")] + [App("a", ()), App("b", ())]),
    lambda sub: st.builds(lambda a: App("s", (a,)), sub)
    | st.builds(lambda a, b: App("f", (a, b)), sub, sub),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(TERMS, TERMS), min_size=1, max_size=4))
def test_unify_all_agrees_with_the_eager_algorithm_hypothesis(eqs):
    assert_same_as_eager(eqs)


def canonical_tuple(ts):
    """The terms ts with their variables renamed to 0, 1, 2, ... in order of
    first occurrence: the recursive canonical form that shape_key replaced,
    kept as its reference."""
    mapping = {}

    def walk(u):
        if isinstance(u, Var):
            return mapping.setdefault(u.id, Var(len(mapping)))
        return App(u.fn, tuple(walk(a) for a in u.args))
    return tuple(walk(t) for t in ts)


def test_shape_key_equality_is_canonical_equality():
    rng = random.Random(19)
    equal = 0
    for _ in range(2000):
        ts = tuple(random_term(rng, 2) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:
            # a consistent renaming, possibly merging nothing: equal keys
            shift = {v.id: Var(v.id + 50, "r") for v in VARS}
            us = tuple(apply(shift, t) for t in ts)
        else:
            us = tuple(random_term(rng, 2) for _ in ts)
        same = canonical_tuple(ts) == canonical_tuple(us)
        assert (shape_key(ts)[0] == shape_key(us)[0]) == same
        equal += same
    assert equal >= 900


def test_shape_key_numbers_variables_by_first_occurrence():
    x, y = VARS[0], VARS[1]
    flat, index = shape_key((App("f", (y, x)), x))
    assert flat == ("f", 2, -1, -2, -2)
    assert index == {2: 0, 1: 1}


def test_shape_key_separates_what_canonical_forms_separate():
    a, b = App("a", ()), App("b", ())
    # a variable is never mistaken for a constant of the same name
    assert shape_key((Var(1, "x"),))[0] != shape_key((App("x", ()),))[0]
    # arities keep the nesting: f(g(a),b) is not f(g(a,b))
    assert (shape_key((App("f", (App("g", (a,)), b)),))[0]
            != shape_key((App("f", (App("g", (a, b)),)),))[0])
    # a term cannot end where another would go on
    assert shape_key((App("s", (a,)), b))[0] != shape_key((App("s", (a, b)),))[0]


# --- the term contract: stored hashes, equality by fields ---------------------


def test_hash_is_that_of_the_fields():
    args = (VARS[0], App("c", ()))
    assert hash(App("f", args)) == hash(("f", args))
    assert hash(Var(1, "x")) == hash((1,))


def test_equality_ignores_variable_names():
    assert Var(1, "x") == Var(1, "y")
    assert hash(Var(1, "x")) == hash(Var(1, "y"))
    assert Var(1, "x") != Var(2, "x")


def test_constant_and_variable_of_one_name_differ_both_ways():
    c, v = App("x"), Var(0, "x")
    assert c != v and v != c
    assert not c == v and not v == c
    assert len({c, v}) == 2


def test_terms_are_unequal_to_non_terms():
    for t in (App("f", (VARS[0],)), VARS[0], App("c")):
        assert t != 1 and t != "x" and t is not None and t != (t,)
        assert not t == ("f", (VARS[0],))


def test_a_deep_term_is_a_dict_key():
    # built bottom-up; hashing must not walk the 5000 levels again
    t = VARS[0]
    for _ in range(5000):
        t = App("s", (t,))
    table = {t: 1}
    assert table[t] == 1
    assert App("s", (t,)) not in table


def test_deep_terms_built_apart_compare_without_recursion():
    def chain(bottom):
        t = bottom
        for _ in range(5000):
            t = App("s", (App("f", (t, VARS[1])),))
        return t
    a, b = chain(VARS[0]), chain(VARS[0])
    assert a is not b and a == b and b == a
    assert chain(VARS[0]) != chain(VARS[2])
    assert chain(VARS[0]) != chain(App("c"))


def test_repr_of_a_deep_term():
    t = VARS[0]
    for _ in range(5000):
        t = App("s", (t,))
    assert repr(t) == "s(" * 5000 + repr(VARS[0]) + ")" * 5000


def test_write_term_spells_variables_left_to_right():
    x, y = Var(5, "x"), Var(6, "y")
    t = App("f", (App("g", (y, App("c"))), x, y))
    seen = []

    def var_text(v):
        seen.append(v.id)
        return v.name.upper()
    assert write_term(t, var_text) == "f(g(Y,c),X,Y)"
    assert seen == [6, 5, 6]


def test_read_term_reads_what_write_term_writes():
    tokens = term_tokens(r"\w+")
    x = Var(5, "x")

    def leaf(name):
        return x if name == "x" else None
    t = App("f", (App("g", (x, App("c"))), App("h"), x))
    text = write_term(t, lambda v: v.name)
    found = tokens.findall(text + " tail")
    got, i = read_term(found, 0, leaf)
    assert got == t and found[i][1] == "tail"
    assert read_term(tokens.findall(" f ( g ( x , c ) , h() , x )"), 0, leaf)[0] == t
    for bad, at in (("f(x,)", 4), ("f(x", 3), ("x(c)", 0), ("(c)", 0), ("f(c d)", 4)):
        found = tokens.findall(bad)
        with pytest.raises(TermSyntaxError) as e:
            read_term(found, 0, leaf)
        assert token_offset(found, e.value.token) == at, bad


def test_signature_is_sorted_and_rejects_an_arity_clash():
    x = VARS[0]
    t = App("s", (App("+", (x, App("0"))),))
    assert list(signature([t, App("f", (x, t))]).items()) == [
        ("+", 2), ("0", 0), ("f", 2), ("s", 1)]
    deep = x
    for _ in range(5000):
        deep = App("s", (deep,))
    assert signature([deep]) == {"s": 1}
    with pytest.raises(ValueError, match="arities 1 and 2"):
        signature([t, App("s", (x, x))])
