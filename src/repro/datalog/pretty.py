"""Pretty-printing helpers for programs and rewritings.

Used by the examples to display rewritten programs in the layout of the
paper's Figure 4 (rules grouped by head relation).
"""

from __future__ import annotations

from collections import defaultdict

from repro.datalog.rule import Program


def program_by_relation(program: Program) -> str:
    """Render a program grouped by head relation (Figure-4 layout)."""
    groups: dict[str, list[str]] = defaultdict(list)
    for rule in program:
        groups[rule.head.relation].append(str(rule))
    lines: list[str] = []
    for relation in sorted(groups):
        lines.append(f"--- {relation} ---")
        lines.extend(groups[relation])
    return "\n".join(lines)

