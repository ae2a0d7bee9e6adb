"""EXPLAIN/ANALYZE plan trees (docs/OBSERVABILITY.md, "Explain plans").

Since the strategy planner (PR 6) and the optimizing backend (PR 8) the
engine holds three ways to answer a goal — naive WAM, optimized WAM,
semi-naive Datalog with magic sets — and until now only whole-run
counters said which one ran.  This module is the *presentation layer*
for per-query plans:

* :class:`PlanNode` / :class:`ExplainPlan` — a small operator tree with
  static attributes (``attrs``, what the planner decided and why) and,
  in ANALYZE mode, measured ones (``actual``: counter deltas, per-pass
  fixpoint delta row counts, answers, wall time);
* :func:`code_shape` — the optimizer-visible shape of one compiled
  block (instruction count, ``switch_on_arg`` guards, choice
  instructions);
* :func:`attach_fixpoint` — folds a semi-naive evaluation's
  :class:`~repro.relational.datalog.seminaive.PassStats` records into
  the matching ``stratum``/``rule`` nodes of a plan.

The tree is *built* by the layers that own the facts —
:meth:`DatalogEngine.explain_plan` for the bottom-up subtree,
:meth:`EduceStar.explain`/:meth:`~EduceStar.analyze` for the whole
query — so this module stays free of repro imports (any layer may use
it, like :mod:`.tracing`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["PlanNode", "ExplainPlan", "code_shape", "attach_fixpoint"]

#: choice instructions counted as the block's nondeterminism shape
_CHOICE_OPS = ("try_me_else", "retry_me_else", "trust_me",
               "try", "retry", "trust")


class PlanNode:
    """One operator of a plan tree.

    ``op`` is the node kind (``query``, ``decision``, ``magic``,
    ``stratum``, ``rule``, ``procedure``, ``cached_block``,
    ``optimizer``), ``label`` the operand (goal text, indicator,
    adornment...), ``attrs`` the static planning facts and ``actual``
    the ANALYZE-time measurements.
    """

    __slots__ = ("op", "label", "attrs", "children", "actual")

    def __init__(self, op: str, label: str = "", **attrs: Any):
        self.op = op
        self.label = label
        self.attrs: Dict[str, Any] = dict(attrs)
        self.children: List["PlanNode"] = []
        self.actual: Dict[str, Any] = {}

    def add(self, node: "PlanNode") -> "PlanNode":
        self.children.append(node)
        return node

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, op: str) -> Optional["PlanNode"]:
        """First descendant (or self) with the given ``op``."""
        for node in self.walk():
            if node.op == op:
                return node
        return None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.op}
        if self.label:
            out["label"] = self.label
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.actual:
            out["actual"] = dict(self.actual)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class ExplainPlan:
    """One query's plan tree, renderable as text or JSON.

    ``mode`` is ``"explain"`` (planning only, nothing ran) or
    ``"analyze"`` (the query ran; ``actual`` measurements attached).
    """

    __slots__ = ("goal", "mode", "root")

    def __init__(self, goal: str, mode: str, root: PlanNode):
        self.goal = goal
        self.mode = mode
        self.root = root

    @property
    def strategy(self) -> Optional[str]:
        """The strategy the planner chose (``topdown``/``bottomup``)."""
        return self.root.attrs.get("strategy")

    @property
    def executed(self) -> Optional[str]:
        """The strategy that actually ran (ANALYZE mode only)."""
        return self.root.actual.get("executed")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "explain_plan", "goal": self.goal,
                "mode": self.mode, "plan": self.root.to_dict()}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False,
                          default=str)

    def format(self) -> str:
        """Text rendering: one node per line, two-space indent, ANALYZE
        measurements on an ``actual:`` continuation line."""
        lines = [f"{self.mode.upper()} {self.goal}"]
        self._render(self.root, 0, lines)
        return "\n".join(lines)

    def _render(self, node: PlanNode, depth: int,
                lines: List[str]) -> None:
        pad = "  " * depth
        head = f"{pad}{node.op}"
        if node.label:
            head += f" {node.label}"
        if node.attrs:
            head += "  " + _format_attrs(node.attrs)
        lines.append(head)
        if node.actual:
            lines.append(f"{pad}  actual: {_format_attrs(node.actual)}")
        for child in node.children:
            self._render(child, depth + 1, lines)


def _format_attrs(attrs: Dict[str, Any]) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, str) and (" " in value or not value):
            parts.append(f'{key}="{value}"')
        elif isinstance(value, list) and len(value) > 12:
            # Per-pass lists can run to hundreds of entries; the text
            # rendering summarises them (to_json keeps full fidelity).
            head = ",".join(str(v) for v in value[:6])
            try:
                tail = f" sum={sum(value)}"
            except TypeError:
                tail = ""
            parts.append(
                f"{key}=[{head},... {len(value)} passes{tail}]")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def code_shape(code: List[tuple]) -> Dict[str, Any]:
    """The optimizer-visible shape of one compiled block.

    Duck-types on the WAM's tuple instructions (``instr[0]`` is the
    opcode name), so EXPLAIN can describe main-memory and loader-cached
    blocks without importing the machine.
    """
    counts: Dict[str, int] = {}
    for instr in code:
        op = instr[0]
        counts[op] = counts.get(op, 0) + 1
    return {
        "instructions": len(code),
        "switch_on_arg": counts.get("switch_on_arg", 0),
        "choice_instrs": sum(counts.get(op, 0) for op in _CHOICE_OPS),
    }


def attach_fixpoint(plan: ExplainPlan, passes: List[Any],
                    derived_rows: int) -> None:
    """Fold per-pass fixpoint stats into the plan's ``stratum``/``rule``
    nodes (ANALYZE mode).

    *passes* are :class:`~repro.relational.datalog.seminaive.PassStats`
    records; ``stratum`` nodes are matched by evaluation order (the
    evaluator runs strata bottom level first, exactly the order
    :meth:`DatalogEngine.explain_plan` emits them).  The invariant the
    differential tests pin: the per-pass ``delta_rows`` sum to
    *derived_rows*, the fixpoint's total derived tuples.
    """
    strata_nodes = [n for n in plan.root.walk() if n.op == "stratum"]
    for ordinal, node in enumerate(strata_nodes):
        mine = [p for p in passes if p.stratum == ordinal]
        node.actual["passes"] = len(mine)
        node.actual["delta_rows"] = [p.delta_rows for p in mine]
        totals: Dict[str, int] = {}
        for p in mine:
            for rid, rows in p.per_rule.items():
                totals[rid] = totals.get(rid, 0) + rows
        for rnode in node.children:
            if rnode.op == "rule":
                rnode.actual["rows"] = totals.get(rnode.label, 0)
                rnode.actual["pass_rows"] = [
                    p.per_rule.get(rnode.label, 0) for p in mine]
    plan.root.actual["derived_rows"] = derived_rows
