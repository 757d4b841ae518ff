"""Tests of the benchmark itself: the correctness gate fires, and the seeded
inputs are the intended problems.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""
import re
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import run  # noqa: E402
from inputs import (  # noqa: E402
    CONFLUENT, NON_CONFLUENT, WORKLOADS, problem_text, renaming, workload_texts,
)

_SEGMENT = re.compile(r"^(segment \S+ \S+ \S+ \| )(.+) \| (.+)$")


def _edit_one_witness_term(cert: str) -> str:
    """Change the end term of the first segment that does some steps."""
    lines = cert.splitlines(keepends=True)
    for i, line in enumerate(lines):
        m = _SEGMENT.match(line.rstrip("\n"))
        if m and m.group(2) != m.group(3):
            lines[i] = f"{m.group(1)}{m.group(2)} | {m.group(2)}\n"
            return "".join(lines)
    raise AssertionError("certificate has no segment with steps")


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.confl = run.Confl()
        texts = dict((p.name, (p, t)) for p, t in workload_texts("reference", 3))
        cls.problem, text = texts["R3"]
        cls.trs = cls.confl.parse_trs(text)
        cls.result = cls.confl.check_confluence(cls.trs, criteria=cls.confl.criteria,
                                                **run.CLI_DEFAULTS)
        cls.cert = cls.confl.certificate_text(cls.trs, cls.result)

    def judge(self, problem, result, cert):
        return run.judge(self.confl, problem, self.trs, result, cert, run.Clock())[1]

    def test_verified_yes_passes(self):
        self.assertEqual(self.result.verdict, "YES")
        self.assertIsNone(self.judge(self.problem, self.result, self.cert))

    def test_edited_witness_term_counts_as_failed(self):
        edited = _edit_one_witness_term(self.cert)
        self.assertNotEqual(edited, self.cert)
        failure = self.judge(self.problem, self.result, edited)
        self.assertIsNotNone(failure)
        self.assertTrue(failure.startswith("certificate rejected"), failure)

    def test_yes_on_non_confluent_input_counts_as_failed(self):
        problem = SimpleNamespace(name="R3", known=NON_CONFLUENT)
        self.assertIsNotNone(self.judge(problem, self.result, self.cert))

    def test_timeout_counts_as_failed(self):
        result = SimpleNamespace(verdict="MAYBE", reason="timed out after 3 expansion(s)")
        self.assertEqual(self.judge(self.problem, result, ""), "timed out")

    def test_maybe_is_not_a_failure(self):
        result = SimpleNamespace(verdict="MAYBE", reason="search exhausted after 20 expansion(s)")
        self.assertIsNone(self.judge(self.problem, result, ""))


class InputsTest(unittest.TestCase):
    def test_reference_inputs_are_the_test_suite_systems(self):
        import systems

        confl = run.Confl()
        problems = WORKLOADS["reference"]
        identity = {i: i for i in renaming(problems, 0)}
        for problem, want in zip(problems, systems.ALL_SYSTEMS):
            got = confl.parse_trs(problem_text(problem, identity))
            # compared as text: the suite's systems may come from another import
            self.assertEqual(sorted(repr(r.key()) for r in got),
                             sorted(repr(r.key()) for r in want), problem.name)

    def test_renaming_keeps_order_and_width(self):
        for problems in WORKLOADS.values():
            names = renaming(problems, 7)
            old = sorted(names)
            new = [names[o] for o in old]
            self.assertEqual(new, sorted(new))
            self.assertEqual(len(set(new)), len(new))
            self.assertEqual(len({len(n) for n in new}), 1)

    def test_same_seed_same_inputs(self):
        self.assertEqual(workload_texts("search", 5), workload_texts("search", 5))
        self.assertNotEqual(workload_texts("search", 5), workload_texts("search", 6))

    def test_known_answers(self):
        known = {p.name: p.known for ps in WORKLOADS.values() for p in ps}
        self.assertEqual(known["swap"], NON_CONFLUENT)
        self.assertEqual(known["fork"], NON_CONFLUENT)
        self.assertEqual(known["chain4"], CONFLUENT)


if __name__ == "__main__":
    unittest.main()
