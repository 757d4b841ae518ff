"""The settings and state of one confluence check.  `check_confluence` builds
one Run and passes it down, so nothing a check learns outlives it: the
termination memo; the interpretation searches it settled, which later
searches resume from; the pair memo, which holds the critical pairs of each
rule pair once for every split and successor of the run; the reversal memo,
each P's reversal searches; and the contractor memo, each rule key's
contraction compiled once for the join search.  Searches that can grow
without bound call `check`, which raises TimedOut once the deadline has
passed; `check_confluence` then answers MAYBE."""
import math
import time
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_DEPTH = 10


class TimedOut(Exception):
    """The run's deadline passed; `layer` names the search that noticed."""

    def __init__(self, layer: str):
        super().__init__(f"timed out in {layer}")
        self.layer = layer


@dataclass
class Run:
    depth: int = DEFAULT_DEPTH  # join search depth
    rev_bound: int = DEFAULT_DEPTH  # reversibility search bound
    hook: str | None = None  # external termination prover, tried last
    timeout: float | None = None  # seconds from construction on; None: no deadline
    named: Callable | None = field(default=None, repr=False)  # a completion run's rule namer
    # (S key, P key) -> (certificate or None, reason); a search cut off by
    # the deadline stores nothing
    termination: dict = field(default_factory=dict, repr=False)
    # (shapes_for, shift, signature items) -> {(weak rule keys, candidate
    # keys): choice vector of the search's first answer, or None when it
    # failed}, read by termination._find_interpretation; a search cut off by
    # the deadline records nothing
    interpretations: dict = field(default_factory=dict, repr=False)
    # (outer Rule, inner Rule) -> cp's pairs of that overlap, and (outer Rule,
    # inner rules, joint) -> pcp_in's pairs of that outer rule, in generation
    # order and not deduplicated (see critical_pairs); cp and pcp_in called
    # without a run fill a fresh Run's; a block cut off by the deadline
    # stores nothing
    pairs: dict = field(default_factory=dict, repr=False)
    # (P's rules in order, bound) -> reversibility.reversals' answer; a
    # search cut off by the deadline stores nothing
    reversals: dict = field(default_factory=dict, repr=False)
    # rule key -> its contractor, which the join search contracts by, and
    # generated source -> its compiled code (rewriting.root_contractors); only
    # looked up, never iterated
    contractors: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.deadline = math.inf if self.timeout is None else time.monotonic() + self.timeout

    def check(self, layer: str):
        if time.monotonic() > self.deadline:
            raise TimedOut(layer)
