"""Rules, rewrite steps, parallel steps and bounded searches."""
import random

import pytest

from confl.rewriting import (
    FuelExhausted,
    ParallelStep,
    Rule,
    Step,
    Trs,
    conversion_bounded,
    is_nf,
    normalize,
    normalize_steps,
    parallel_step_exists,
    parallel_step_witnesses,
    reach_bounded,
    reach_set_bounded,
    reducts,
    replay_steps,
    step_at,
)
from confl.terms import App, Var, all_parallel, apply, canonical_tuple, match_term, positions_fun, replace_parallel, subterm_at

from systems import ADD1, ADD2, ADD3, ADD4, A, C, P_CA, R2, R3, S2, S3, plus, s, x, y, z, zero


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


def test_step_constructor_is_checked():
    st = step_at(plus(zero, num(1)), (), ADD1)
    assert st is not None and st.target == num(1)
    with pytest.raises(ValueError):
        Step(st.source, num(2), st.position, st.rule, st.subst)
    with pytest.raises(ValueError):
        Step(num(2), num(1), (), ADD1, {})


def test_normalize_add_arithmetic():
    for a in range(4):
        for b in range(4):
            t = plus(num(a), num(b))
            assert normalize(t, S3) == num(a + b)
            nf, steps = normalize_steps(t, S3)
            assert nf == num(a + b)
            assert replay_steps(t, steps, S3) == nf
            assert is_nf(nf, S3)


def test_normalize_steps_agrees_with_normalize():
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
        assert nf == normalize(t, S3)
        assert replay_steps(t, steps, S3) == nf


def test_normalize_fuel():
    loop = Trs([Rule(App("f", (x,)), App("f", (App("f", (x,)),)), "exp")])
    with pytest.raises(FuelExhausted):
        normalize(App("f", (zero,)), loop, fuel=50)
    with pytest.raises(FuelExhausted):
        normalize_steps(App("f", (zero,)), loop, fuel=50)


def brute_parallel_targets(t, trs):
    """target -> set of redex-set keys, by enumerating antichains of redexes."""
    redexes = []
    for p in positions_fun(t):
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
            wits = parallel_step_witnesses(t, target, R3)
            got = {frozenset((p, r.name) for p, r, _ in w.parts) for w in wits}
            assert got == keys, f"{t!r} => {target!r}"
            if target == t:
                # the empty redex set must be offered for the identity target
                assert frozenset() in got
            compared += 1
        # no witnesses for a term that is not one parallel step away
        probe = s(s(t))
        if probe not in expected:
            assert parallel_step_witnesses(t, probe, R3) == []
    assert compared >= 300


def test_parallel_step_witnesses_sorted_and_checked():
    t = plus(plus(zero, num(1)), plus(s(zero), zero))
    tgt = plus(num(1), plus(s(zero), zero))
    wits = parallel_step_witnesses(t, tgt, R3)
    assert wits, "expected at least one witness"
    sizes = [len(w.parts) for w in wits]
    assert sizes == sorted(sizes)
    ident = parallel_step_exists(t, t, R3)
    assert ident is not None and ident.parts == ()


def test_parallel_step_constructor_rejects_overlap():
    t = plus(plus(zero, num(1)), zero)
    st1 = step_at(t, (), ADD3)
    st2 = step_at(t, (1,), ADD1)
    assert st1 is not None and st2 is not None
    with pytest.raises(ValueError):
        ParallelStep(
            t,
            st1.target,
            (((), ADD3, st1.subst), ((1,), ADD1, st2.subst)),
        )


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
    steps = conversion_bounded(lhs, rhs, P_CA, 6)
    assert steps is not None
    assert replay_steps(lhs, steps, P_CA.with_inverses()) == rhs
    # no conversion between different variables
    assert conversion_bounded(x, y, P_CA, 4) is None


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


def test_rule_key_cache_is_invisible():
    def fresh_c():
        return Rule(plus(x, y), plus(y, x), "C")

    r, twin = fresh_c(), fresh_c()
    before = hash(r)
    assert r == twin
    assert r.key() == canonical_tuple((r.lhs, r.rhs))
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
