"""First-argument indexing on type and value (paper §3.2.2).

For a multi-clause procedure we emit a ``switch_on_term`` dispatching on
the dereferenced first argument's *type*:

* unbound  → the full ``try_me_else`` chain over all clauses;
* constant → ``switch_on_constant`` over the clause set keyed by value;
* list     → the chain of list-headed (plus var-headed) clauses;
* structure→ ``switch_on_structure`` keyed by functor.

Clauses whose first head argument is a variable match *every* key and are
woven into each chain at their original position, preserving the standard
clause-selection order.  When the matching set for a key is a single
clause, the switch jumps straight to the clause code — **no choice point
is created**, which is precisely the determinism transformation the paper
credits with eliminating the dominant class of data references (§3.2.1).

:func:`partition_clauses` is the one place clauses are grouped by an
argument's type and value; the optimizer's guards and the determinism
analysis group through it too.

The paper also notes that indexing on *type* is "a feature of no value to
a relational DBMS [but] very effective in an inferential engine"; the
type dispatch of ``switch_on_term`` is that feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import instructions as I
from .assembler import assemble, assemble_with_offsets
from .compiler import CompiledClause

_FAIL_LABEL = "$fail"


@dataclass
class ProcedureLayout:
    """An assembled procedure block plus its structural map — where each
    clause's code begins and where the shared failure sentinel sits.
    The determinism analysis (:mod:`repro.analysis.determinism`) uses
    the entry offsets to check switch-table coverage and reachability.
    """

    code: List[tuple]
    #: per-clause entry offset (past the choice instruction, the target
    #: indexed jumps use) in clause-source order
    entries: List[int] = field(default_factory=list)
    #: offset of the trailing ``fail`` sentinel, when one was emitted
    fail_offset: Optional[int] = None


@dataclass
class ArgPartition:
    """Clause positions grouped by the type and value of one head
    argument — the grouping behind the ``switch_on_term`` tables, the
    optimizer's ``switch_on_arg`` guards and the D301/D302 partitions.
    Every list keeps source order."""

    #: ``("constant" | "structure", key)`` -> positions, keys in
    #: first-appearance order; ``nil`` is folded into the constants
    groups: Dict[Tuple[str, Optional[tuple]], List[int]]
    #: clauses with a variable at the position (they match any value)
    var_positions: List[int]
    #: list-headed clauses (one list type, no per-value key)
    list_positions: List[int]


def partition_clauses(clauses: Sequence[CompiledClause], argpos: int,
                      positions: Optional[Iterable[int]] = None
                      ) -> ArgPartition:
    """Group *positions* (default: every clause) by argument *argpos*
    in one pass over the clauses' ``arg_keys``."""
    groups: Dict[Tuple[str, Optional[tuple]], List[int]] = {}
    var_positions: List[int] = []
    list_positions: List[int] = []
    if positions is None:
        positions = range(len(clauses))
    for pos in positions:
        kind, key = clauses[pos].arg_keys[argpos]
        if kind == "var":
            var_positions.append(pos)
        elif kind == "list":
            list_positions.append(pos)
        else:
            groups.setdefault(("constant" if kind == "nil" else kind, key),
                              []).append(pos)
    return ArgPartition(groups, var_positions, list_positions)


def build_procedure_code(
    clauses: Sequence[CompiledClause], index: bool = True,
    optimizer=None,
) -> List[tuple]:
    """Combine compiled clauses into one code block with choice
    instructions and (optionally) first-argument indexing."""
    return build_procedure_layout(clauses, index=index,
                                  optimizer=optimizer).code


def build_procedure_layout(
    clauses: Sequence[CompiledClause], index: bool = True,
    optimizer=None,
) -> ProcedureLayout:
    """As :func:`build_procedure_code`, keeping the layout map.

    With an enabled *optimizer* (:class:`repro.wam.optimizer.Optimizer`)
    provably deterministic chains are demoted behind ``switch_on_arg``
    guards.  Callers wanting the verified fall-back behaviour should go
    through :func:`repro.wam.optimizer.build_optimized_block` instead of
    passing the optimizer here directly.
    """
    if not clauses:
        return ProcedureLayout(code=assemble([(I.FAIL_OP,)]))

    if len(clauses) == 1:
        return ProcedureLayout(code=assemble(list(clauses[0].code)),
                               entries=[0])

    out: List[tuple] = []
    entry_labels = [f"$clause_{i}" for i in range(len(clauses))]

    use_switch = (
        index
        and clauses[0].arity > 0
        and any(c.first_arg_kind != "var" for c in clauses)
    )

    if optimizer is not None and not optimizer.enabled:
        optimizer = None

    #: sub-chains referenced by generalized guards, emitted after the
    #: clause bodies (just before ``$fail``) so the main layout stays
    #: byte-identical whenever no mode-driven guard fires
    pending: List[Tuple[str, List[int]]] = []

    if use_switch:
        _emit_switch(out, clauses, entry_labels, optimizer, pending)

    # The variable-entry chain: try_me_else over all clauses, with clause
    # code inline.  Clause entry labels point past the choice instruction
    # so indexed jumps skip choice-point creation.
    out.append((I.LABEL, "$var_entry"))
    if optimizer is not None:
        # Guard the full chain too: with the switch in front, X0 here is
        # known unbound, so only positions >= 1 can decide; without a
        # switch (index=False procedures) any position qualifies.
        plan = optimizer.plan_guard(
            clauses, list(range(len(clauses))),
            min_arg=1 if use_switch else 0)
        if plan is not None:
            _emit_guard(out, plan, entry_labels, "$var_seq", pending)
            out.append((I.LABEL, "$var_seq"))
    last = len(clauses) - 1
    for i, clause in enumerate(clauses):
        if i == 0:
            out.append((I.TRY_ME_ELSE, "$alt_1"))
        elif i < last:
            out.append((I.LABEL, f"$alt_{i}"))
            out.append((I.RETRY_ME_ELSE, f"$alt_{i + 1}"))
        else:
            out.append((I.LABEL, f"$alt_{i}"))
            out.append((I.TRUST_ME,))
        out.append((I.LABEL, entry_labels[i]))
        out.extend(clause.code)

    for label, positions in pending:
        out.append((I.LABEL, label))
        _emit_try_chain(out, [entry_labels[pos] for pos in positions])

    out.append((I.LABEL, _FAIL_LABEL))
    out.append((I.FAIL_OP,))
    code, offsets = assemble_with_offsets(out)
    return ProcedureLayout(
        code=code,
        entries=[offsets[label] for label in entry_labels],
        fail_offset=offsets[_FAIL_LABEL])


def _emit_try_chain(out: List[tuple], labels: List[str]) -> None:
    """A ``try``/``retry``/``trust`` sequence over clause entries."""
    last = len(labels) - 1
    for j, label in enumerate(labels):
        op = I.TRY if j == 0 else I.RETRY if j < last else I.TRUST
        out.append((op, label))


def _emit_guard(out: List[tuple], plan, entry_labels: List[str],
                seq_label: str, pending: List[Tuple[str, List[int]]]
                ) -> None:
    """Emit one ``switch_on_arg`` from a
    :class:`~repro.wam.optimizer.GuardPlan`.  Multi-clause dispatch
    targets become sub-chain labels queued on *pending* (emitted before
    ``$fail``); singleton targets jump straight to the clause entry,
    which is all a local pairwise-distinct plan has."""

    def target(positions) -> str:
        if not positions:
            return _FAIL_LABEL
        if len(positions) == 1:
            return entry_labels[positions[0]]
        label = f"$sub_{len(pending)}"
        pending.append((label, list(positions)))
        return label

    table = {key: target(positions)
             for key, positions in plan.table.items()}
    out.append((I.SWITCH_ON_ARG, plan.argpos, table, seq_label,
                target(plan.var_positions)))


def _emit_switch(out: List[tuple], clauses: Sequence[CompiledClause],
                 entry_labels: List[str], optimizer,
                 pending: List[Tuple[str, List[int]]]) -> None:
    part = partition_clauses(clauses, 0)
    var_positions = part.var_positions
    chains: List[Tuple[str, List[int]]] = []  # (label, clause positions)

    def chain_label(positions: List[int], tag: str) -> str:
        """Label reaching exactly *positions* (direct jump when single)."""
        if not positions:
            return _FAIL_LABEL
        if len(positions) == 1:
            return entry_labels[positions[0]]
        label = f"$chain_{tag}_{len(chains)}"
        chains.append((label, positions))
        return label

    def with_vars(positions: List[int]) -> List[int]:
        # var-headed clauses match every key, at their source position
        return sorted(positions + var_positions) if var_positions \
            else positions

    # Constant then structure dispatch: a table over the keys in
    # first-appearance order, defaulting to the var-headed clauses.
    targets: List[str] = []
    switches: List[tuple] = []
    for kind, tag, entry, op in (
            ("constant", "con", "$con_entry", I.SWITCH_ON_CONSTANT),
            ("structure", "str", "$str_entry", I.SWITCH_ON_STRUCTURE)):
        table = {key: chain_label(with_vars(positions), tag)
                 for (k, key), positions in part.groups.items()
                 if k == kind}
        default = chain_label(var_positions, f"{tag[0]}def")
        if table:
            switches += [(I.LABEL, entry), (op, table, default)]
        targets.append(entry if table else default)
    list_label = chain_label(with_vars(part.list_positions), "lis")

    out.append((I.SWITCH_ON_TERM, "$var_entry", targets[0], list_label,
                targets[1]))
    out.extend(switches)

    # Emit the try/retry/trust chains, each demoted behind a
    # switch_on_arg guard when the optimizer proves it deterministic on
    # some argument position (docs/OPTIMIZER.md).  X0 is already fixed
    # by the switch that reaches the chain, so only positions >= 1 can
    # discriminate further.
    for label, positions in chains:
        out.append((I.LABEL, label))
        plan = (optimizer.plan_guard(clauses, positions, min_arg=1)
                if optimizer is not None else None)
        if plan is not None:
            _emit_guard(out, plan, entry_labels, f"$seq_{label[1:]}",
                        pending)
            out.append((I.LABEL, f"$seq_{label[1:]}"))
        _emit_try_chain(out, [entry_labels[pos] for pos in positions])
