"""Unification, matching, renaming and position laws, checked in bulk against
randomly generated terms plus hypothesis-driven cases."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from confl.terms import (
    App,
    Var,
    all_parallel,
    apply,
    canonical,
    canonical_tuple,
    match_term,
    positions,
    rename_apart,
    replace_at,
    replace_parallel,
    subterm_at,
    term_vars,
    unify,
    unify_all,
    var_ids,
    variants,
)

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
        sigma = unify(s, t)
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
    assert unify(x, App("s", (x,))) is None
    assert unify(App("f", (x, App("s", (x,)))), App("f", (y, y))) is None


def test_unify_all_simultaneous():
    x, y = VARS[0], VARS[1]
    zero = App("0", ())
    sigma = unify_all([(x, App("s", (y,))), (y, zero)])
    assert sigma is not None
    assert apply(sigma, x) == App("s", (zero,))
    assert unify_all([(x, zero), (x, App("c", ()))]) is None


def test_canonical_tuple_renaming_invariance():
    rng = random.Random(11)
    for _ in range(400):
        s = random_term(rng, 3)
        t = random_term(rng, 2)
        shift = {i: Var(i + 40, f"n{i}") for i in (1, 2, 3)}
        s2 = apply(shift, s)
        t2 = apply(shift, t)
        assert canonical_tuple((s, t)) == canonical_tuple((s2, t2))
        assert variants((s, t), (s2, t2))
        assert canonical(s) == canonical(s2)
        # inconsistent renaming across the tuple is a different object
        swap = {1: Var(2, "y"), 2: Var(1, "x")}
        if var_ids(s) >= {1, 2} and canonical_tuple((s,)) != canonical_tuple(
            (apply(swap, s),)
        ):
            assert not variants((s, t), (apply(swap, s), t))


def test_rename_apart_gives_disjoint_variant():
    rng = random.Random(5)
    for _ in range(200):
        t1 = random_term(rng, 3)
        t2 = random_term(rng, 3)
        t2r, mapping = rename_apart(t1, t2)
        assert var_ids(t1).isdisjoint(var_ids(t2r))
        assert canonical(t2r) == canonical(t2)
        assert len(set(v.id for v in mapping.values())) == len(mapping)


def test_position_laws():
    rng = random.Random(31)
    for _ in range(300):
        t = random_term(rng, 3)
        ps = positions(t)
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
        ps = [p for p in positions(t) if p != ()]
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
    s1 = unify(s, t)
    s2 = unify(t, s)
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        assert canonical(apply(s1, s)) == canonical(apply(s2, t))


def test_var_identity_ignores_display_name():
    assert Var(1, "x") == Var(1, "zzz")
    assert Var(1, "x") != Var(2, "x")
    assert App("f", (Var(1, "x"),)) == App("f", (Var(1, "other"),))
