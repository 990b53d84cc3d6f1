"""Tests for the pretty-printers and the problem-type helpers."""

import pytest

from repro.datalog import parse_program
from repro.datalog.pretty import program_by_relation
from repro.diagnosis import AlarmSequence
from repro.diagnosis.problem import DiagnosisProblem, diagnosis_set
from repro.petri.examples import figure1_net

PROGRAM = """
r@r(X, Y) :- s@s(X, Y).
s@s(X, Y) :- base@s(X, Y).
base@s("1", "2").
"""


class TestPretty:
    def test_program_by_relation(self):
        text = program_by_relation(parse_program(PROGRAM))
        assert "--- r ---" in text and "--- base ---" in text


class TestProblemHelpers:
    def test_diagnosis_set_normalizes(self):
        out = diagnosis_set([["e1", "e2"], ("e2", "e1"), ["e3"]])
        assert out == frozenset({frozenset({"e1", "e2"}), frozenset({"e3"})})

    def test_problem_peers(self):
        problem = DiagnosisProblem(figure1_net(),
                                   AlarmSequence([("b", "p1")]))
        assert problem.peers() == ("p1", "p2")

    def test_problem_is_frozen(self):
        problem = DiagnosisProblem(figure1_net(), AlarmSequence([]))
        with pytest.raises(AttributeError):
            problem.alarms = AlarmSequence([("a", "p1")])  # type: ignore
