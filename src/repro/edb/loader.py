"""The dynamic loader (paper §3.1, component 2).

"This loader, at run time, resolves associative addresses, adds
procedural and other forms of control code to the clausal code stored in
the EDB.  This makes the retrieved code runnable in Educe's virtual
machine."

Given a call to an EDB-stored procedure, the loader:

1. asks the pre-unifier for the typed summaries of the bound argument
   registers and lets the BANG grid filter the per-procedure relation
   (attribute-level pre-unification);
2. fetches the surviving clauses' relative code in one clustered read;
3. resolves external identifiers to internal dictionary identifiers
   (:func:`repro.edb.codec.decode_code`) — interning functors this
   session has not seen;
4. optionally executes the head prefixes for deeper filtering
   (:class:`~repro.edb.preunify.PreUnifier`);
5. splices in control code — try/retry/trust chains and, when more than
   one clause survives, in-memory first-argument indexing — via
   :func:`repro.wam.indexing.build_procedure_code`;
6. caches the runnable block per (procedure, call-pattern, version) so
   the session never re-resolves unchanged code — the paper's "freeze
   the definition of the procedure" behaviour without the poor
   selectivity it complains about.

Facts relations are loaded by generating unit-clause code directly from
the matching tuples, with no compiler involvement.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..analysis.verifier import verify_code
from ..errors import VerifyError
from ..locks import Latch
from ..obs.registry import Histogram
from ..obs.tracing import NULL_TRACER
from ..wam import instructions as I
from ..wam.compiler import CompiledClause
from ..wam.indexing import build_procedure_code
from ..wam.optimizer import build_optimized_block
from .codec import decode_code
from .preunify import PreUnifier
from .store import ExternalStore, StoredClause

#: accepted loader verification levels (docs/ANALYSIS.md)
VERIFY_LEVELS = ("off", "structural", "full")


class DynamicLoader:
    """Per-session loader over one :class:`ExternalStore`."""

    def __init__(self, store: ExternalStore,
                 preunifier: Optional[PreUnifier] = None,
                 index: bool = True, verify: str = "structural",
                 optimizer=None):
        if verify not in VERIFY_LEVELS:
            raise ValueError(
                f"verify={verify!r}: expected one of {VERIFY_LEVELS}")
        self.store = store
        self.preunifier = preunifier or PreUnifier("full")
        self.index = index
        self.verify = verify
        # Shared with the session's machine so wam_opt_* counters
        # aggregate in one place (docs/OPTIMIZER.md); None leaves
        # fetched blocks unoptimized.
        self.optimizer = optimizer
        self.tracer = NULL_TRACER  # session installs its shared tracer
        # The cache is keyed by (name, arity, version, pattern, depth):
        # the stored procedure's *version* rides in the key, so an entry
        # can never serve stale code — invalidation is purely memory
        # reclamation, done per procedure (see :meth:`invalidate`).
        # Versions are monotone per indicator even across drop+recreate
        # (the store keeps a version floor for dropped procedures), so
        # the key never aliases old code with new in workers whose
        # caches were not broadcast-invalidated.
        # Latched because the service's writer path prunes a worker's
        # cache while the worker is querying (docs/CONCURRENCY.md).
        self._cache: Dict[tuple, list] = {}
        self._latch = Latch("loader")
        self.loads = 0
        self.cache_hits = 0
        self.clauses_fetched = 0
        self.clauses_delivered = 0
        self.resolutions = 0  # external->internal address resolutions
        #: monotone: bumped once per invalidation call — the
        #: differential concurrency suite asserts it never goes back
        self.cache_epoch = 0
        self.cache_invalidated_entries = 0
        #: clause records put through the verifier / rejected by it
        self.verify_checks = 0
        self.verify_rejects = 0
        self._verify_hist = Histogram()

    # ------------------------------------------------------------------ API

    def procedure_code(self, machine, name: str, arity: int
                       ) -> Optional[list]:
        """Runnable code block for the current call pattern, or None when
        no stored clause can match."""
        proc = self.store.lookup(name, arity)
        if proc is None:
            return None
        summaries = self.preunifier.summaries_from_registers(machine, arity)
        pattern = tuple(sorted(summaries.items()))
        # The optimization level and the whole-program modes epoch ride
        # in the key: ``:optimize`` / ``:modes apply`` change them at
        # runtime and cached blocks must match the active settings.
        if self.optimizer is None:
            opt_level, modes_epoch = "off", 0
        else:
            opt_level = self.optimizer.level
            modes_epoch = self.optimizer.modes_epoch
        key = (name, arity, proc.version, pattern, self.preunifier.depth,
               opt_level, modes_epoch)
        with self._latch:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
        if cached is not None:
            if self.tracer.enabled:
                self.tracer.event("loader.cache_hit",
                                  procedure=f"{name}/{arity}")
            return cached

        self.loads += 1
        with self.tracer.span("loader.fetch",
                              procedure=f"{name}/{arity}",
                              mode=proc.mode) as span:
            if proc.mode == "facts":
                code = self._load_facts(machine, name, arity, summaries)
            else:
                code = self._load_rules(machine, name, arity, summaries)
            if span is not None:
                span.attrs["bound_args"] = sorted(summaries)
        with self._latch:
            self._cache[key] = code
        return code

    def invalidate(self, name: Optional[str] = None,
                   arity: Optional[int] = None) -> int:
        """Prune cached blocks; returns how many entries were dropped.

        With a procedure indicator, only that procedure's entries go —
        unrelated procedures keep their cached blocks and their
        ``cache_hits`` keep accruing (no global clear() stampede).  With
        no arguments, the whole cache is cleared (schema-level events:
        bulk loads, relation drops).  Correctness never depends on this:
        cache keys carry the stored procedure's version, so stale code
        is unreachable the instant a mutator bumps it.  Each call bumps
        the monotone ``cache_epoch``.
        """
        with self._latch:
            if name is None:
                dropped = len(self._cache)
                self._cache.clear()
            else:
                stale = [key for key in self._cache
                         if key[0] == name and key[1] == arity]
                for key in stale:
                    del self._cache[key]
                dropped = len(stale)
            self.cache_epoch += 1
            self.cache_invalidated_entries += dropped
            return dropped

    def cached_blocks(self, name: str, arity: int) -> list:
        """Snapshot of this procedure's live cache entries, for EXPLAIN.

        Returns ``[(key, code), ...]`` pairs where *key* is the full
        cache key ``(name, arity, version, pattern, depth, opt_level,
        modes_epoch)``.
        Read-only: no counters move and the cache is not touched beyond
        holding the latch for a consistent copy.
        """
        with self._latch:
            return [(key, code) for key, code in self._cache.items()
                    if key[0] == name and key[1] == arity]

    # ------------------------------------------------------------ rules path

    def _load_rules(self, machine, name: str, arity: int,
                    summaries: Dict[int, tuple]) -> list:
        clauses = self.store.fetch_clauses(name, arity, summaries)
        self.clauses_fetched += len(clauses)
        if not clauses:
            return build_procedure_code([])

        proc = self.store.get(name, arity)
        if proc.mode == "source":
            return self._load_source(machine, clauses, name, arity)

        faults = self.store.faults
        with self.tracer.span("codec.resolve",
                              clauses=len(clauses)) as span:
            decoded = []
            resolved = 0
            for sc in clauses:
                resolved += _count_refs(sc.relative_code)
                code = decode_code(
                    sc.relative_code, machine.dictionary,
                    self.store.external_dict)
                decoded.append(faults.clause_record(code))
            self.resolutions += resolved
            if span is not None:
                span.attrs["resolutions"] = resolved

        # Retrieved code is verified *before* anything executes it —
        # the pre-unifier's execution filter runs head prefixes, so the
        # gate has to sit here, between decode and filtering.
        if self.verify != "off":
            self._verify_clauses(machine, name, arity, clauses, decoded)

        survivors = self.preunifier.filter_by_execution(
            machine, clauses, decoded)
        self.clauses_delivered += len(survivors)

        compiled = [
            self._as_compiled(machine, clauses[i], decoded[i])
            for i in survivors
        ]
        block = self._build(machine, compiled, name, arity)
        if self.verify == "full" and compiled:
            started = perf_counter()
            self.verify_checks += 1
            try:
                verify_code(block, arity=arity,
                            dictionary=machine.dictionary, level="full",
                            procedure=f"{name}/{arity}")
            except VerifyError as exc:
                self._reject(name, arity, None, exc)
                raise
            finally:
                self._verify_hist.observe(
                    (perf_counter() - started) * 1000.0)
        return block

    def _verify_clauses(self, machine, name: str, arity: int,
                        clauses: List[StoredClause],
                        decoded: List[list]) -> None:
        """Gate every decoded clause record behind the verifier; a
        rejected record raises :class:`VerifyError` (typed, with rule
        id and offset) and the whole load is quarantined — the block is
        never cached and never executed."""
        level = self.verify
        started = perf_counter()
        try:
            for sc, code in zip(clauses, decoded):
                self.verify_checks += 1
                try:
                    verify_code(code, arity=arity,
                                dictionary=machine.dictionary,
                                level=level,
                                procedure=f"{name}/{arity}")
                except VerifyError as exc:
                    self._reject(name, arity, sc, exc)
                    raise
        finally:
            self._verify_hist.observe(
                (perf_counter() - started) * 1000.0)

    def _reject(self, name: str, arity: int,
                sc: Optional[StoredClause], exc: VerifyError) -> None:
        self.verify_rejects += 1
        events = self.store.events
        if events.enabled:
            events.record("verify.reject",
                          procedure=f"{name}/{arity}",
                          clause_id=(sc.clause_id if sc is not None
                                     else None),
                          rule=exc.rule, offset=exc.offset)

    def _build(self, machine, compiled: List[CompiledClause],
               name: str, arity: int) -> list:
        """Splice control code around the clause set, optimizing (behind
        the verify/fallback gate) when the session's optimizer is on."""
        return build_optimized_block(
            compiled, index=self.index, optimizer=self.optimizer,
            dictionary=machine.dictionary,
            procedure=f"{name}/{arity}")

    def _as_compiled(self, machine, sc: StoredClause,
                     code: list) -> CompiledClause:
        return CompiledClause(
            code=code, head_name="", arity=len(sc.summaries),
            arg_keys=tuple(_summary_key(machine, s)
                           for s in sc.summaries))

    # ----------------------------------------------------------- source path

    def _load_source(self, machine, clauses: List[StoredClause],
                     name: str, arity: int) -> list:
        """The Educe baseline inside Educe*: parse stored source text and
        compile it now.  Kept for completeness; the Educe baseline engine
        (:mod:`repro.engine.educe_baseline`) is the primary consumer of
        source mode."""
        compiled = []
        for sc in clauses:
            term = machine.reader.read_term(sc.source)
            compiled.append(machine.compiler.compile_clause(term))
            machine.compile_count += 1
        return self._build(machine, compiled, name, arity)

    # ------------------------------------------------------------ facts path

    def _load_facts(self, machine, name: str, arity: int,
                    summaries: Dict[int, tuple]) -> list:
        """Unit-clause code generated straight from matching tuples —
        unification pushed into the storage engine, code grouped for one
        transfer (§3.2.1)."""
        rows = list(self.store.fetch_facts(
            name, arity, _facts_assignment(summaries)))
        self.clauses_fetched += len(rows)
        self.clauses_delivered += len(rows)
        compiled = []
        for row in rows:
            consts = [_value_const(machine, value) for value in row]
            code = [(I.GET_CONSTANT, const, ("x", i))
                    for i, const in enumerate(consts)]
            code.append((I.PROCEED,))
            compiled.append(CompiledClause(
                code=code, head_name=name, arity=arity,
                arg_keys=tuple(("constant", const) for const in consts)))
        return self._build(machine, compiled, name, arity)

    # ------------------------------------------------------------- counters

    def counters(self) -> dict:
        counters = {
            "loads": self.loads,
            "cache_hits": self.cache_hits,
            "clauses_fetched": self.clauses_fetched,
            "clauses_delivered": self.clauses_delivered,
            "resolutions": self.resolutions,
            "preunify_executions": self.preunifier.executions,
            "preunify_rejections": self.preunifier.rejections,
            "cache_epoch": self.cache_epoch,
            "cache_invalidated_entries": self.cache_invalidated_entries,
            "loader_cache_entries": len(self._cache),
            "verify_checks": self.verify_checks,
            "verify_rejects": self.verify_rejects,
        }
        counters.update(self._latch.counters())
        return counters

    def histograms(self) -> dict:
        """Wait-duration histograms (the loader cache latch) plus the
        time spent verifying fetched code (``verify_ms``)."""
        out = dict(self._latch.histograms())
        out["verify_ms"] = self._verify_hist
        return out


def _facts_assignment(summaries: Dict[int, tuple]) -> Dict[int, object]:
    """Summaries → plain values for a facts relation query (atoms are
    stored as their names, numbers as themselves)."""
    out: Dict[int, object] = {}
    for pos, summary in summaries.items():
        if summary[0] in ("atom", "int", "real"):
            out[pos] = summary[1]
        # list/struct summaries cannot appear in atomic facts relations;
        # the call will simply fail during head unification.
    return out


def _value_const(machine, value) -> tuple:
    if isinstance(value, str):
        return ("atom", machine.dictionary.intern(value, 0))
    if isinstance(value, float):
        return ("flt", value)
    return ("int", value)


def _summary_key(machine, s: tuple) -> Tuple[str, Optional[tuple]]:
    """Index metadata of one stored head-argument summary."""
    kind = s[0]
    if kind == "var":
        return ("var", None)
    if kind == "atom":
        if s[1] == "[]":
            return ("nil", ("atom", machine.dictionary.intern("[]", 0)))
        return ("constant", ("atom", machine.dictionary.intern(s[1], 0)))
    if kind == "int":
        return ("constant", ("int", s[1]))
    if kind == "real":
        return ("constant", ("flt", s[1]))
    if kind == "list":
        return ("list", None)
    return ("structure",
            ("fun", machine.dictionary.intern(s[1], s[2])))


def _count_refs(code: list) -> int:
    count = 0
    for instr in code:
        for operand in instr[1:]:
            if isinstance(operand, tuple) and operand and operand[0] == "ext":
                count += 1
            elif (isinstance(operand, tuple) and len(operand) == 2
                  and operand[0] == "atom"
                  and isinstance(operand[1], tuple)):
                count += 1
    return count
