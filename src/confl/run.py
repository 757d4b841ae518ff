"""The settings and state of one confluence check.  `check_confluence` builds
one Run and passes it down, so nothing a check learns outlives it.  Searches
that can grow without bound call `check`, which raises TimedOut once the
deadline has passed; `check_confluence` then answers MAYBE."""
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

    def __post_init__(self):
        self.deadline = math.inf if self.timeout is None else time.monotonic() + self.timeout

    def check(self, layer: str):
        if time.monotonic() > self.deadline:
            raise TimedOut(layer)
