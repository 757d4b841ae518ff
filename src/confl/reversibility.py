"""Reversibility of a rule system: every step can be undone by the system
itself.  It suffices that for each rule l -> r the system rewrites r back to
l; searched breadth-first up to a step bound (default 10), once per run."""

from __future__ import annotations

from dataclasses import dataclass

from .rewriting import Trs, reach_bounded, replay_named
from .run import Run


@dataclass(frozen=True)
class ReversibilityWitness:
    bound: int
    # rule name -> tuple of Steps rewriting that rule's rhs back to its lhs
    sequences: tuple  # ((name, (Step, ...)), ...)

    def sequence(self, name: str):
        for n, steps in self.sequences:
            if n == name:
                return steps
        raise KeyError(name)


def reversals(p_trs: Trs, bound: int, run: Run) -> tuple:
    """Per rule of p_trs, its steps from rhs back to lhs within bound, or
    None.  Searched under `run.check` once per run for each P and bound, P's
    rules in order (the order fixes the breadth-first search), and kept in
    the run's reversal memo for `decompose` and every witness."""
    key = (p_trs.rules, bound)
    found = run.reversals.get(key)
    if found is None:
        found = run.reversals[key] = tuple(
            reach_bounded(rule.rhs, rule.lhs, p_trs, bound, check=run.check)
            for rule in p_trs)
    return found


def is_reversible(p_trs: Trs, bound: int = 10, *, run: Run | None = None):
    """A witness that p_trs is reversible, or None if none found in bound,
    from the run's `reversals` (a fresh Run's without one).  A rule that is
    not bidirectional is never undone, as its rhs is a variable or lacks one
    of its lhs."""
    found = reversals(p_trs, bound, run or Run())
    if any(steps is None for steps in found):
        return None
    return ReversibilityWitness(bound, tuple(
        (rule.name, tuple(steps)) for rule, steps in zip(p_trs, found)))


def reversal_problems(p_trs: Trs, sequences) -> list[str]:
    """What keeps named reversal sequences from showing p_trs reversible;
    empty if nothing does.  `sequences` is [(rule name, [(position, rule
    name)])]: each must rewrite its rule's right side back to its left side
    with rules of p_trs, and every rule of p_trs needs one."""
    problems = []
    covered = set()
    for name, moves in sequences:
        try:
            rule = p_trs.rule(name)
        except KeyError:
            problems.append(f"reversibility: P rule {name!r} is not available for {name}")
            continue
        end = replay_named(rule.rhs, moves, p_trs)
        if isinstance(end, str):
            problems.append(f"reversibility: P {end} for {name}")
        elif end != rule.lhs:
            problems.append(f"reversibility: sequence for {name} does not reach the left side")
        else:
            covered.add(name)
    missing = {r.name for r in p_trs} - covered
    if missing:
        problems.append(f"reversibility: no valid sequence for {sorted(missing)}")
    return problems
