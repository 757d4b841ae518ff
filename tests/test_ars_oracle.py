"""Exhaustive finite-relation oracle: the abstract criteria are sound for
Church-Rosser modulo, and the iff-variants are also necessary."""
import random

from ars_oracle import (
    IFF_TAGS,
    TAGS,
    FiniteArs,
    acyclic,
    check_abstract_criterion,
    compose,
    identity,
    inverse,
    is_crm,
    plus,
    precondition_holds,
    random_ars,
    star,
    subset,
    union,
)


def rel(*pairs):
    return frozenset(pairs)


def sym_of(*pairs):
    return frozenset(pairs) | frozenset((b, a) for a, b in pairs)


def test_relation_algebra_basics():
    c = range(3)
    r = rel((0, 1), (1, 2))
    assert compose(r, r) == rel((0, 2))
    assert star(r, c) == union(identity(c), r, rel((0, 2)))
    assert plus(r, c) == union(r, rel((0, 2)))
    assert inverse(r) == rel((1, 0), (2, 1))
    assert acyclic(r, c)
    assert not acyclic(union(r, rel((2, 0))), c)
    assert subset(r, star(r, c))


def test_is_crm_concrete():
    # unresolvable peak 1 <- 0 -> 2
    assert not is_crm(FiniteArs(3, arrow=rel((0, 1), (0, 2))))
    # resolved by an equivalence between 1 and 2
    assert is_crm(FiniteArs(3, arrow=rel((0, 1), (0, 2)), sym=sym_of((1, 2))))
    # resolved by rewriting: 1 -> 3 <- 2
    assert is_crm(FiniteArs(4, arrow=rel((0, 1), (0, 2), (1, 3), (2, 3))))
    # empty system is trivially church-rosser modulo
    assert is_crm(FiniteArs(2))


def test_finite_ars_validation():
    import pytest

    with pytest.raises(ValueError):
        FiniteArs(2, arrow=rel((0, 5)))
    with pytest.raises(ValueError):
        FiniteArs(3, sym=rel((0, 1)))  # not symmetric
    with pytest.raises(ValueError):
        FiniteArs(3, sym=sym_of((0, 1)), counted_sym=sym_of((1, 2)))


def test_criterion_holds_on_resolved_peak():
    a = FiniteArs(3, arrow=rel((0, 1), (0, 2)), sym=sym_of((1, 2)))
    for tag in TAGS:
        holds, crm = check_abstract_criterion(a, tag)
        assert crm
        if holds:
            assert precondition_holds(a, tag)


def test_criterion_rejects_unresolved_peak():
    a = FiniteArs(3, arrow=rel((0, 1), (0, 2)))
    for tag in TAGS:
        holds, crm = check_abstract_criterion(a, tag)
        assert not crm
        assert not holds  # soundness forces failure here


def test_soundness_fuzz_and_iff_necessity():
    rng = random.Random(20260813)
    n = 1200
    held = {tag: 0 for tag in TAGS}
    crm_count = 0
    for i in range(n):
        a = random_ars(rng)
        for tag in TAGS:
            holds, crm = check_abstract_criterion(a, tag)
            if holds:
                held[tag] += 1
                assert crm, f"unsound on instance {i}, tag {tag}: {a}"
            if tag in IFF_TAGS and precondition_holds(a, tag) and crm:
                assert holds, f"incomplete on instance {i}, tag {tag}: {a}"
        if is_crm(a):
            crm_count += 1
    # the fuzz must actually exercise both outcomes for every tag
    assert 0 < crm_count < n
    for tag in TAGS:
        assert held[tag] > 0, f"criterion {tag} never held over {n} instances"
        assert held[tag] < n, f"criterion {tag} always held over {n} instances"


def test_counted_subset_changes_the_verdict():
    # arrow 0->1 plus an equivalence 1 ~ 0 creates a cycle when counted
    arrow = rel((0, 1))
    sym = sym_of((0, 1))
    free = FiniteArs(2, arrow=arrow, sym=sym)
    counted = FiniteArs(2, arrow=arrow, sym=sym, counted_sym=sym)
    assert precondition_holds(free, "main")
    assert not precondition_holds(counted, "main")
