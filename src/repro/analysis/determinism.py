"""Determinism / indexing analysis over compiled procedures (D rules).

The paper credits first-argument indexing (§3.2.2) with eliminating the
dominant class of data references: when the switch tables map a call
pattern to a *single* clause, no choice point is created.  This module
makes that claim checkable:

* partition the clause set by first-argument type/value with
  :func:`repro.wam.indexing.partition_clauses`, the grouping the
  switch tables are built from;
* rebuild the procedure block from the clauses and require the emitted
  switch tables to cover exactly the clause set (**D301** — the block
  being executed is the block this clause set compiles to);
* walk the block's control-flow graph from offset 0 and report
  instructions no dispatch path can reach (**D302** — dead,
  unreachable-under-indexing code; the shared ``fail`` sentinel is
  exempt, since fully covered dispatch legitimately strands it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..wam import instructions as I
from ..wam.compiler import CompiledClause
from ..wam.indexing import (ProcedureLayout, build_procedure_layout,
                            partition_clauses)
from .verifier import Finding

__all__ = ["RULES", "ProcedureReport", "analyze_clauses"]

#: Determinism rule glossary (ids are stable; see docs/ANALYSIS.md).
RULES: Dict[str, str] = {
    "D301": "switch coverage: the executed block differs from the "
            "block the clause set compiles to (stale or tampered "
            "indexing tables)",
    "D302": "dead code: an instruction (or clause entry) is not "
            "reachable from the procedure entry under any dispatch "
            "path",
}


@dataclass
class ProcedureReport:
    """Result of the determinism analysis of one procedure."""

    #: first-argument (kind, key) -> clause positions, in source order,
    #: from :func:`repro.wam.indexing.partition_clauses` (``nil`` folded
    #: into the constants); ``("list", None)`` holds the list-headed
    #: clauses and ``("var", None)`` the unindexable clauses that are
    #: woven into every dispatch chain
    partitions: Dict[Tuple[str, Optional[tuple]], List[int]] = \
        field(default_factory=dict)
    #: dispatch keys that select exactly one clause (no choice point)
    deterministic_keys: int = 0
    findings: List[Finding] = field(default_factory=list)
    #: clause positions whose entry offset is unreachable
    dead_clauses: List[int] = field(default_factory=list)


def analyze_clauses(clauses: Sequence[CompiledClause],
                    code: Optional[List[tuple]] = None,
                    index: bool = True,
                    layout: Optional[ProcedureLayout] = None,
                    optimizer=None) -> ProcedureReport:
    """Analyze *clauses* (and optionally the block claimed to implement
    them).  With *code*, D301 checks the block equals the deterministic
    rebuild; D302 always checks reachability of the analyzed block.
    When the block was built by the code optimizer, pass the same
    *optimizer* (usually muted) so the rebuild matches its output."""
    report = ProcedureReport()
    if clauses and clauses[0].arity:
        part = partition_clauses(clauses, 0)
        report.partitions.update(part.groups)
        if part.list_positions:
            report.partitions[("list", None)] = part.list_positions
        var_positions = part.var_positions
    else:
        var_positions = list(range(len(clauses)))
    # a dispatch on a key reaches its own clauses plus every var-headed
    # clause (they match any first argument)
    if not var_positions:
        report.deterministic_keys = sum(
            len(positions) == 1 for positions in report.partitions.values())
    else:
        report.partitions[("var", None)] = var_positions

    if layout is None:
        layout = build_procedure_layout(clauses, index=index,
                                        optimizer=optimizer)
    if code is not None and list(code) != list(layout.code):
        report.findings.append(Finding(
            "D301", 0,
            f"block of {len(code)} instructions differs from the "
            f"{len(layout.code)}-instruction rebuild of its "
            f"{len(clauses)} clauses"))

    reached = _reachable(layout.code)
    entry_of = {offset: pos
                for pos, offset in enumerate(layout.entries)}
    for offset in sorted(set(range(len(layout.code))) - reached):
        if offset == layout.fail_offset:
            continue  # the shared fail sentinel may be fully bypassed
        pos = entry_of.get(offset)
        what = (f"clause {pos} entry" if pos is not None
                else "instruction")
        report.findings.append(Finding(
            "D302", offset,
            f"{what} unreachable from the procedure entry"))
        if pos is not None:
            report.dead_clauses.append(pos)
    return report


def _reachable(code: List[tuple]) -> set:
    """Offsets reachable from 0 following every dispatch/backtrack
    edge of the assembled block."""
    n = len(code)
    seen: set = set()
    work = [0] if n else []
    while work:
        i = work.pop()
        if i in seen or not (0 <= i < n):
            continue
        seen.add(i)
        instr = code[i]
        if not isinstance(instr, tuple) or not instr:
            continue
        op = instr[0]
        if op in (I.PROCEED, I.EXECUTE, I.FAIL_OP, I.HALT_SUCCESS):
            continue
        if op in (I.TRY_ME_ELSE, I.RETRY_ME_ELSE):
            work.append(i + 1)
            if isinstance(instr[1], int):
                work.append(instr[1])
        elif op in (I.TRY, I.RETRY):
            work.append(i + 1)  # the backtrack continuation
            if isinstance(instr[1], int):
                work.append(instr[1])
        elif op == I.TRUST:
            if isinstance(instr[1], int):
                work.append(instr[1])
        elif op == I.SWITCH_ON_TERM:
            for target in instr[1:]:
                if isinstance(target, int):
                    work.append(target)
        elif op in (I.SWITCH_ON_CONSTANT, I.SWITCH_ON_STRUCTURE):
            if isinstance(instr[1], dict):
                for target in instr[1].values():
                    if isinstance(target, int):
                        work.append(target)
            if isinstance(instr[2], int):
                work.append(instr[2])
        elif op == I.SWITCH_ON_ARG:
            if isinstance(instr[2], dict):
                for target in instr[2].values():
                    if isinstance(target, int):
                        work.append(target)
            for target in (instr[3], instr[4]):
                if isinstance(target, int):
                    work.append(target)
        else:
            work.append(i + 1)
    return seen
