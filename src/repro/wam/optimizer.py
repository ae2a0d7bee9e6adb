"""WAM code optimizer: determinism-driven dispatch.

At level ``"full"`` the optimizer groups a chain's clauses with
:func:`repro.wam.indexing.partition_clauses`, the routine behind the
switch tables and :mod:`repro.analysis.determinism`: when every clause
of a try/retry/trust chain holds a pairwise-distinct constant at some
argument position, at most one clause can match any bound value, so the
chain is demoted behind a ``switch_on_arg`` guard — a bound call
dispatches straight to its clause entry with **no choice point**,
extending the paper's first-argument determinism transformation
(§3.2.2) to every argument position and to unindexed chains
(docs/OPTIMIZER.md).

Safety gate
-----------
Every optimized block must pass ``verify="full"`` (structural V rules +
the abstract interpreter) plus the D301/D302 determinism analysis before
it replaces the naive block.  Any finding — or an armed forced reject,
the FaultInjector-style test hook — falls back to the unoptimized block
and bumps ``wam_opt_rejects``; unverified optimized code is never
executed.

The ``optimize="off"|"full"`` knob threads through
:class:`~repro.wam.machine.Machine`, the EDB dynamic loader, the session
config and the REPL's ``:optimize`` command.  The suite-wide default is
set with :func:`set_default_level`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import VerifyError
from .compiler import CompiledClause
from .indexing import (build_procedure_code, build_procedure_layout,
                       partition_clauses)

__all__ = ["OPT_LEVELS", "GuardPlan", "Optimizer",
           "build_optimized_block", "default_level",
           "set_default_level"]

#: accepted optimization levels (docs/OPTIMIZER.md)
OPT_LEVELS = ("off", "full")

#: process-wide default level for machines/sessions constructed with
#: ``optimize=None``; the test suite flips it to "full" in conftest.py
_DEFAULT_LEVEL = "off"


def set_default_level(level: str) -> None:
    """Set the process-wide default optimization level."""
    global _DEFAULT_LEVEL
    if level not in OPT_LEVELS:
        raise ValueError(
            f"optimize={level!r}: expected one of {OPT_LEVELS}")
    _DEFAULT_LEVEL = level


def default_level() -> str:
    return _DEFAULT_LEVEL


# =====================================================================
# Determinism-driven chain demotion
# =====================================================================

@dataclass(frozen=True)
class GuardPlan:
    """One ``switch_on_arg`` guard over a try/retry/trust chain.

    ``table`` maps each constant key to the clause positions a call
    bound to that key must still try, in source order (the matching
    constants plus every clause holding a variable at ``argpos``);
    ``var_positions`` are the variable-at-``argpos`` clauses alone —
    the target for a bound value matching no key (and for bound lists/
    structures, which is why planning excludes positions with list or
    structure keys).  An unbound argument always takes the full
    sequential chain.  The plan is therefore observationally
    equivalent for *every* call pattern; inferred modes only decide
    where planning is worth attempting (docs/OPTIMIZER.md,
    "interprocedural guards").

    The local pairwise-distinct-constants proof is the case of
    singleton targets and no variable clauses.
    """
    argpos: int
    table: Dict[tuple, Tuple[int, ...]]
    var_positions: Tuple[int, ...]
    mode_driven: bool


# =====================================================================
# The optimizer object
# =====================================================================

class Optimizer:
    """Level knob + statistics + the verify/fallback gate.

    One instance is shared per session between the machine and the
    dynamic loader so the ``wam_opt_*`` counters aggregate in one place
    (they surface through ``Machine.counters()`` into the metrics
    registry and the Prometheus exposition).
    """

    def __init__(self, level: Optional[str] = None):
        resolved = _DEFAULT_LEVEL if level is None else level
        if resolved not in OPT_LEVELS:
            raise ValueError(
                f"optimize={resolved!r}: expected one of {OPT_LEVELS}")
        self.level = resolved
        #: blocks built through the optimizing path (level != off)
        self.blocks = 0
        #: try/retry/trust chains demoted behind a switch_on_arg guard
        self.chains_demoted = 0
        #: guards emitted only thanks to interprocedural mode facts
        self.mode_guards = 0
        #: optimized blocks rejected by the gate (fell back to naive code)
        self.rejects = 0
        #: whole-program analysis facts: indicator -> argument positions
        #: proven ground at every analysed call site (profitability map
        #: for :meth:`plan_guard`; installed by the session)
        self.global_bound_args: Dict[Tuple[str, int],
                                     Tuple[int, ...]] = {}
        #: bumped on every install so block caches keyed on it refresh
        self.modes_epoch = 0
        #: (procedure, rule, offset) of the most recent gate rejection
        self.last_reject: Optional[tuple] = None
        #: flight recorder for ``wam_opt.reject`` events — the session
        #: wires its store's ring here so gate fallbacks show up in
        #: ``:events`` and slow-query captures (None = not wired)
        self.events = None
        self._armed_rejects = 0
        self._muted = 0

    # ------------------------------------------------------------ level

    @property
    def enabled(self) -> bool:
        return self.level != "off"

    def set_level(self, level: str) -> None:
        if level not in OPT_LEVELS:
            raise ValueError(
                f"optimize={level!r}: expected one of {OPT_LEVELS}")
        self.level = level

    # ---------------------------------------------------- guard planning

    def plan_guard(self, clauses: Sequence[CompiledClause],
                   positions: Sequence[int], min_arg: int
                   ) -> Optional[GuardPlan]:
        """Plan the ``switch_on_arg`` guard :mod:`repro.wam.indexing`
        emits in front of the chain over *positions*, on some argument
        ≥ *min_arg*, from :func:`partition_clauses` of that argument.

        First the local proof, lowest argument first: singleton
        constant groups and no variable clauses — every clause holds a
        constant there and the constants are pairwise distinct, so a
        bound value selects at most one clause.  Then, in sorted order,
        the arguments the whole-program analysis proved ground at every
        call site of this predicate, where variable clauses and shared
        keys are allowed.  Either way every group is a constant key, at
        least two keys exist and every target is a strict sub-chain.
        """
        if len(positions) < 2:
            return None
        arity = clauses[0].arity
        bound = self.global_bound_args.get((clauses[0].head_name, arity), ())
        candidates = [(k, False) for k in range(min_arg, arity)] + [
            (k, True) for k in sorted(bound) if min_arg <= k < arity]
        for k, mode_driven in candidates:
            part = partition_clauses(clauses, k, positions)
            if (part.list_positions
                    or any(kind != "constant" for kind, _ in part.groups)):
                continue  # a bound list/structure must not miss to vars
            if not mode_driven and (part.var_positions
                                    or len(part.groups) < len(positions)):
                continue
            table = {key: tuple(sorted(group + part.var_positions))
                     for (_, key), group in part.groups.items()}
            if len(table) < 2 or max(map(len, table.values())) >= len(positions):
                continue  # no dispatch target is any shorter than the chain
            if not self._muted:
                if mode_driven:
                    self.mode_guards += 1
                else:
                    self.chains_demoted += 1
            return GuardPlan(argpos=k, table=table,
                             var_positions=tuple(part.var_positions),
                             mode_driven=mode_driven)
        return None

    def set_global_modes(self, bound_args: Dict[Tuple[str, int],
                                                Tuple[int, ...]]) -> None:
        """Install (or clear) the whole-program bound-argument map and
        bump ``modes_epoch`` so cached blocks rebuild against it."""
        self.global_bound_args = dict(bound_args)
        self.modes_epoch += 1

    @contextmanager
    def muted(self):
        """Suspend statistics while rebuilding for the D301 check, so
        the verification rebuild does not double-count the passes."""
        self._muted += 1
        try:
            yield
        finally:
            self._muted -= 1

    # ------------------------------------------------------------- gate

    def arm_reject(self, count: int = 1) -> None:
        """FaultInjector-style test hook: force the next *count* gated
        blocks to be rejected (and fall back to unoptimized code)."""
        self._armed_rejects += count

    def gate(self, clauses: Sequence[CompiledClause], layout,
             index: bool, dictionary, procedure: str) -> None:
        """Raise :class:`VerifyError` unless the optimized *layout* is
        provably safe: verify="full" clean and D301/D302 clean."""
        if self._armed_rejects > 0:
            self._armed_rejects -= 1
            raise VerifyError("F901", 0, "forced optimizer reject "
                              "(armed test fault)", procedure)
        from ..analysis.verifier import verify_code
        verify_code(layout.code, arity=clauses[0].arity,
                    dictionary=dictionary, level="full",
                    procedure=procedure)
        from ..analysis.determinism import analyze_clauses
        with self.muted():
            report = analyze_clauses(clauses, code=layout.code,
                                     index=index, optimizer=self)
        if report.findings:
            first = report.findings[0]
            raise VerifyError(first.rule, first.offset, first.message,
                              procedure)

    # --------------------------------------------------------- counters

    def counters(self) -> dict:
        return {
            "wam_opt_blocks": self.blocks,
            "wam_opt_chains_demoted": self.chains_demoted,
            "wam_opt_mode_guards": self.mode_guards,
            "wam_opt_rejects": self.rejects,
        }

    def reset_counters(self) -> None:
        self.blocks = 0
        self.chains_demoted = 0
        self.mode_guards = 0
        self.rejects = 0


def build_optimized_block(clauses: Sequence[CompiledClause],
                          index: bool = True,
                          optimizer: Optional[Optimizer] = None,
                          dictionary=None,
                          procedure: str = "") -> list:
    """Build a procedure block, optimizing when an enabled *optimizer*
    is supplied.  The optimized block replaces the naive one **only**
    after passing the full verification gate; any finding falls back to
    the unoptimized block (counted in ``wam_opt_rejects``)."""
    clauses = list(clauses)
    if optimizer is None or not optimizer.enabled or not clauses:
        return build_procedure_code(clauses, index=index)
    optimizer.blocks += 1
    layout = build_procedure_layout(clauses, index=index,
                                    optimizer=optimizer)
    try:
        optimizer.gate(clauses, layout, index=index,
                       dictionary=dictionary, procedure=procedure)
    except VerifyError as exc:
        optimizer.rejects += 1
        optimizer.last_reject = (procedure, exc.rule, exc.offset)
        events = optimizer.events
        if events is not None and events.enabled:
            events.record("wam_opt.reject", procedure=procedure or "?",
                          rule=exc.rule, offset=exc.offset)
        return build_procedure_code(clauses, index=index)
    return layout.code
