"""EduceStar — the paper's system, assembled.

One session couples:

* a :class:`~repro.wam.machine.Machine` (compiler + emulator + GC),
* an :class:`~repro.edb.store.ExternalStore` (BANG relations, external
  dictionary, compiled clause code),
* a :class:`~repro.edb.loader.DynamicLoader` with a
  :class:`~repro.edb.preunify.PreUnifier`.

The machine's unknown-procedure trap is wired to the loader, so calling
a predicate that lives in the EDB transparently fetches, filters,
resolves and executes its compiled code — the architecture of §3.

Both evaluation strategies of §4 are available and freely mixable:

* **term-oriented** — ordinary Prolog queries through :meth:`solve`;
* **goal-oriented** — :meth:`relation` exposes a stored facts relation
  to the set-at-a-time relational engine (:mod:`repro.relational`).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..bang.pager import Pager
from ..bang.relation import BangRelation
from ..edb.loader import DynamicLoader
from ..edb.preunify import PreUnifier
from ..edb.store import ExternalStore
from ..obs import MetricsRegistry, QueryProfile, Tracer
from ..terms import Atom, Struct, Term, deref
from ..wam.compiler import split_clause
from ..wam.machine import Machine, Procedure, Solution
from .stats import CostModel, Measurement, measure


class EduceStar:
    """A complete Educe* session."""

    def __init__(self,
                 store: Optional[ExternalStore] = None,
                 pager: Optional[Pager] = None,
                 preunify_depth: str = "full",
                 index: bool = True,
                 verify: str = "structural",
                 gc_enabled: bool = True,
                 gc_threshold: int = 200_000,
                 dictionary_segment: int = 32000,
                 cost_model: Optional[CostModel] = None,
                 datalog: str = "auto",
                 datalog_min_rows: Optional[int] = None,
                 optimize: Optional[str] = None):
        from ..dictionary import SegmentedDictionary
        dictionary = SegmentedDictionary(segment_capacity=dictionary_segment)
        self.machine = Machine(dictionary=dictionary, index=index,
                               gc_enabled=gc_enabled,
                               gc_threshold=gc_threshold,
                               optimize=optimize)
        self.store = store or ExternalStore(pager=pager)
        self.preunifier = PreUnifier(preunify_depth)
        # The loader shares the machine's optimizer: one level knob, one
        # set of wam_opt_* counters per session (docs/OPTIMIZER.md).
        self.loader = DynamicLoader(self.store, self.preunifier,
                                    index=index, verify=verify,
                                    optimizer=self.machine.optimizer)
        self.machine.unknown_handler = self._edb_trap
        # Gate fallbacks (wam_opt.reject) land on the store's flight
        # recorder, next to the WAL/pager events they interleave with.
        self.machine.optimizer.events = self.store.events
        self.cost_model = cost_model or CostModel()
        self.parsed_chars = 0
        self.explain_queries = 0
        self.analyze_queries = 0
        #: sampled WAM profiler, installed by :meth:`enable_profiling`
        self.profiler = None

        # Observability (repro.obs): one registry over every counter
        # source, one tracer shared by every layer.  Tracing is off by
        # default; :meth:`profile` / :meth:`solve`'s ``profile=True``
        # enable it for the extent of one query.
        self.metrics = MetricsRegistry()
        self.metrics.attach(self)   # counters() + io_counters()
        self.tracer = Tracer(snapshot=self.metrics.snapshot,
                             diff=self.metrics.diff)
        self.machine.tracer = self.tracer
        self.loader.tracer = self.tracer
        self.preunifier.tracer = self.tracer
        self.store.pager.tracer = self.tracer
        self.last_profile: Optional[QueryProfile] = None

        # The deterministic record-manager interface (§2.3, §3.2.1).
        from .cursors import CursorTable, install_cursor_builtins
        self.cursors = CursorTable(self.store)
        install_cursor_builtins(self.machine, self.cursors)

        # The strongly typed sub-language (§3.2.3).
        from .types import TypeDeclarations, install_type_builtins
        self.types = TypeDeclarations()
        install_type_builtins(self.machine, self.types)

        # The relational operators of Educe* (§4, [9]).
        from .relops import RelationalOps, install_relop_builtins
        self.relops = RelationalOps(self)
        install_relop_builtins(self.machine, self.relops)

        # Recursive set-at-a-time evaluation (ROADMAP item 4,
        # docs/DATALOG.md): solve() consults the strategy planner and
        # routes evaluable recursive goals through the semi-naive
        # bottom-up engine instead of the WAM.
        from ..relational.datalog import DEFAULT_MIN_ROWS, DatalogEngine
        self.datalog = DatalogEngine(
            self.store, self.machine.reader, tracer=self.tracer,
            mode=datalog,
            min_rows=(DEFAULT_MIN_ROWS if datalog_min_rows is None
                      else datalog_min_rows))
        # Whole-program analysis (docs/ANALYSIS.md): cached report +
        # counters; the Datalog planner folds inferred classes into its
        # decisions once :meth:`global_analysis` has run.
        self._global_report = None
        self._global_key = None
        self.global_runs = 0
        self.datalog.modes_provider = self._datalog_modes

    # ------------------------------------------------------------ population

    def consult(self, text: str) -> None:
        """Compile a program into main memory."""
        self.parsed_chars += len(text)
        self.machine.consult(text)

    def store_program(self, text: str) -> List[Tuple[str, int]]:
        """Compile a program and store it in the EDB as relative code.

        Returns the affected procedure indicators (the service uses
        them to broadcast per-procedure cache invalidation)."""
        self.parsed_chars += len(text)
        clauses = list(self.machine.reader.read_terms(text))
        return self.store_clauses(clauses)

    def store_clauses(self, clauses: List[Term]) -> List[Tuple[str, int]]:
        from ..edb.store import summarize_arg
        grouped: Dict[Tuple[str, int], List[Term]] = {}
        order: List[Tuple[str, int]] = []
        for clause in clauses:
            head, _ = split_clause(clause)
            ind = (head.name,
                   head.arity if isinstance(head, Struct) else 0)
            if ind not in grouped:
                grouped[ind] = []
                order.append(ind)
            grouped[ind].append(clause)
            if isinstance(head, Struct) and ind in self.types:
                # Store-time type checking of rule heads (§3.2.3).
                self.types.check_summaries(
                    ind[0], ind[1],
                    [summarize_arg(a) for a in head.args])
        for name, arity in order:
            self.store.store_rules(name, arity, grouped[(name, arity)],
                                   self.machine.ctx)
        for name, arity in order:
            self.loader.invalidate(name, arity)
        return order

    def store_relation(self, name: str, rows: List[tuple],
                       types: Optional[List[str]] = None,
                       key_dims: Optional[List[int]] = None) -> None:
        """Store an ordinary relation in the EDB (facts mode).

        ``key_dims`` restricts the clustered index to the named attribute
        positions (default: all attributes).  A prior ``:- pred``
        declaration supplies the attribute formats and every row is
        checked against it (§3.2.3)."""
        if not rows:
            raise ValueError("empty relation")
        arity = len(rows[0])
        if types is None and (name, arity) in self.types:
            types = self.types.storage_types(name, arity)
        if (name, arity) in self.types:
            for row in rows:
                self.types.check_fact_row(name, row)
        self.store.store_facts(name, arity, rows, types, key_dims)
        self.loader.invalidate(name, arity)

    def assert_external(self, clause_text: str) -> Tuple[str, int]:
        """Assert a clause into a stored EDB procedure."""
        clause = self.machine.reader.read_term(clause_text)
        head, _ = split_clause(clause)
        arity = head.arity if isinstance(head, Struct) else 0
        self.store.assert_clause(head.name, arity, clause, self.machine.ctx)
        self.loader.invalidate(head.name, arity)
        return (head.name, arity)

    # ----------------------------------------------------------------- query

    def solve(self, goal, limit: Optional[int] = None,
              profile: bool = False) -> Iterator[Solution]:
        """Solve *goal*; yield :class:`Solution` objects.

        With ``profile=True``, tracing is enabled for this query and a
        :class:`~repro.obs.profile.QueryProfile` (span tree + counter
        deltas + simulated-ms breakdown) is stored in
        :attr:`last_profile` once the solution iterator is exhausted or
        closed.  Use :meth:`profile` to run to completion and get the
        profile back directly.
        """
        if isinstance(goal, str):
            self.parsed_chars += len(goal)
        if not profile:
            return self._solve_routed(goal, limit)
        return self._solve_profiled(goal, limit)

    def _solve_routed(self, goal,
                      limit: Optional[int]) -> Iterator[Solution]:
        """The dual-strategy dispatch of §4: the Datalog engine answers
        evaluable recursive goals bottom-up; everything else (and every
        goal it declines) runs on the WAM."""
        routed = self.datalog.route(goal, limit=limit)
        if routed is not None:
            return iter(routed)
        return self.machine.solve(goal, limit=limit)

    def _solve_profiled(self, goal,
                        limit: Optional[int]) -> Iterator[Solution]:
        was_enabled = self.tracer.enabled
        self.tracer.enabled = True
        before = self.metrics.snapshot()
        start = time.perf_counter()
        solutions = 0
        try:
            for solution in self._solve_routed(goal, limit):
                solutions += 1
                yield solution
        finally:
            wall_s = time.perf_counter() - start
            counters = self.metrics.diff(self.metrics.snapshot(), before)
            roots = self.tracer.take_roots()
            self.tracer.enabled = was_enabled
            self.last_profile = QueryProfile(
                goal=goal if isinstance(goal, str) else str(goal),
                counters=counters,
                root=roots[-1] if roots else None,
                solutions=solutions,
                wall_s=wall_s,
                cost_model=self.cost_model,
                trace_id=self.tracer.trace_id)

    def profile(self, goal, limit: Optional[int] = None) -> QueryProfile:
        """Run *goal* to completion under tracing; return its profile."""
        for _ in self.solve(goal, limit=limit, profile=True):
            pass
        assert self.last_profile is not None
        return self.last_profile

    # --------------------------------------------------- EXPLAIN / ANALYZE

    def explain(self, goal) -> "ExplainPlan":
        """EXPLAIN *goal* without running it (docs/OBSERVABILITY.md).

        The plan tree names the strategy the planner would pick and why
        (with its cost inputs), the magic-set adornment and evaluable
        strata/rules for a bottom-up goal, or the procedure's compiled
        code shape (``switch_on_arg`` guards, choice instructions) for
        a top-down one, plus the session's optimizer state.  Nothing is
        evaluated and no EDB pages move beyond the planner's own
        row-count lookups.
        """
        from ..obs.explain import ExplainPlan, PlanNode
        self.explain_queries += 1
        label = goal if isinstance(goal, str) else str(goal)
        root = PlanNode("query", label)
        decision = self.datalog.explain_plan(goal)
        if decision is not None:
            root.attrs["strategy"] = decision.attrs.get("strategy")
            root.attrs["reason"] = decision.attrs.get("reason")
            root.add(decision)
            if decision.attrs.get("strategy") != "bottomup":
                self._explain_procedure(root, goal)
        else:
            root.attrs["strategy"] = "topdown"
            root.attrs["reason"] = ("not a stored rules procedure "
                                    "(WAM top-down)")
            self._explain_procedure(root, goal)
        root.add(self._optimizer_node())
        return ExplainPlan(goal=label, mode="explain", root=root)

    def analyze(self, goal, limit: Optional[int] = None) -> "ExplainPlan":
        """EXPLAIN *goal*, then run it and attach measurements.

        The plan gains ``actual`` entries: answers, wall time, counter
        deltas, the strategy that *executed* (cross-checkable against
        the plan's prediction), and — when the fixpoint engine ran —
        per-pass delta row counts on each stratum/rule node, whose sum
        equals the fixpoint's total derived rows.
        """
        from ..obs.explain import attach_fixpoint
        plan = self.explain(goal)
        plan.mode = "analyze"
        self.analyze_queries += 1
        before = self.metrics.snapshot()
        start = time.perf_counter()
        answers = sum(1 for _ in self.solve(goal, limit=limit))
        wall_ms = (time.perf_counter() - start) * 1000.0
        delta = self.metrics.diff(self.metrics.snapshot(), before)
        executed = ("bottomup" if delta.get("datalog_bottomup")
                    else "topdown")
        actual = plan.root.actual
        actual["executed"] = executed
        actual["answers"] = answers
        actual["wall_ms"] = round(wall_ms, 3)
        for key in ("instr_count", "data_refs", "edb_fetches",
                    "cache_hits", "pages_read", "datalog_iterations",
                    "datalog_facts_derived", "datalog_magic_facts",
                    "datalog_edb_rows"):
            if delta.get(key):
                actual[key] = delta[key]
        if executed == "bottomup" and self.datalog.last_stats is not None:
            stats = self.datalog.last_stats
            attach_fixpoint(plan, stats.passes, stats.facts)
        return plan

    def _goal_indicator(self, goal) -> Optional[Tuple[str, int]]:
        if isinstance(goal, str):
            try:
                term = self.machine.reader.read_term(goal)
            except Exception:
                return None
        else:
            term = goal
        term = deref(term)
        if isinstance(term, Atom):
            return (term.name, 0)
        if isinstance(term, Struct):
            return term.indicator
        return None

    def _explain_procedure(self, root, goal) -> None:
        """Add the top-down ``procedure`` node: where the goal's
        predicate lives (main memory vs EDB) and the shape of the
        compiled code the WAM would execute, including every block the
        loader currently caches for it (one per call pattern/level)."""
        from ..obs.explain import PlanNode, code_shape
        ind = self._goal_indicator(goal)
        if ind is None:
            root.add(PlanNode("procedure", "?",
                              note="goal shape not a single predicate "
                                   "call"))
            return
        name, arity = ind
        pnode = PlanNode("procedure", f"{name}/{arity}")
        proc = self.machine.procedure(name, arity)
        stored = self.store.lookup(name, arity)
        if proc is not None and proc.kind != "external":
            pnode.attrs["source"] = "main-memory"
            pnode.attrs["kind"] = proc.kind
            pnode.attrs["clauses"] = len(proc.clauses)
            if proc.code:
                pnode.attrs.update(code_shape(proc.code))
        elif stored is not None:
            pnode.attrs["source"] = "edb"
            pnode.attrs["mode"] = stored.mode
            pnode.attrs["version"] = stored.version
            if stored.mode == "facts":
                pnode.attrs["rows"] = len(stored.relation)
            for key, code in self.loader.cached_blocks(name, arity):
                (_n, _a, version, pattern, depth, opt_level,
                 _modes_epoch) = key
                # The pattern is the pre-unifier's bound-argument
                # summary map; "free" means every argument was unbound.
                label = ",".join(f"{pos}:{summary[0]}"
                                 for pos, summary in pattern) or "free"
                pnode.add(PlanNode(
                    "cached_block", label,
                    version=version, depth=depth, opt_level=opt_level,
                    **code_shape(code)))
        elif proc is not None:
            pnode.attrs["source"] = "builtin"
            pnode.attrs["kind"] = proc.kind
        else:
            pnode.attrs["source"] = "undefined"
        # Inferred mode/determinism annotations, when a whole-program
        # analysis has run this session (docs/OBSERVABILITY.md).
        if self._global_report is not None:
            info = self._global_report.infos.get((name, arity))
            if info is not None:
                from ..analysis.global_ import mode_string
                if info.call_modes is not None:
                    pnode.attrs["call_modes"] = mode_string(
                        info.call_modes)
                if info.success_modes is not None:
                    pnode.attrs["success_modes"] = mode_string(
                        info.success_modes)
                if info.determinism is not None:
                    pnode.attrs["determinism"] = info.determinism
        root.add(pnode)

    def _optimizer_node(self):
        from ..obs.explain import PlanNode
        opt = self.machine.optimizer
        node = PlanNode("optimizer", opt.level, **opt.counters())
        if opt.last_reject is not None:
            procedure, rule, offset = opt.last_reject
            node.attrs["last_reject"] = f"{procedure}:{rule}@{offset}"
        return node

    # ------------------------------------------------------------ profiling

    def enable_profiling(self, interval: Optional[int] = None):
        """Install (if needed) and enable the sampled WAM profiler.

        Samples every *interval* executed instructions (default
        :data:`~repro.obs.profiler.DEFAULT_INTERVAL`); attribution
        accumulates across queries until :meth:`disable_profiling` or
        ``profiler.reset()``.  Returns the profiler.
        """
        from ..obs.profiler import DEFAULT_INTERVAL, WamProfiler
        if self.profiler is None:
            self.profiler = WamProfiler(
                interval=interval or DEFAULT_INTERVAL)
            self.profiler.install(self.machine)
        elif interval is not None:
            self.profiler.interval = int(interval)
        self.profiler.enable()
        return self.profiler

    def disable_profiling(self) -> None:
        """Stop sampling; accumulated attribution stays readable."""
        if self.profiler is not None:
            self.profiler.disable()

    def solve_once(self, goal) -> Optional[Solution]:
        if isinstance(goal, str):
            self.parsed_chars += len(goal)
        return self.machine.solve_once(goal)

    def count_solutions(self, goal) -> int:
        return sum(1 for _ in self.solve(goal))

    # -------------------------------------------------- relational interface

    def relation(self, name: str, arity: int) -> BangRelation:
        """Goal-oriented access to a stored facts relation (§4)."""
        return self.store.relation_of(name, arity)

    # ------------------------------------------------------------ persistence

    def save(self, path: str) -> None:
        """Persist this session's EDB (see ExternalStore.save)."""
        self.store.save(path)

    @classmethod
    def open(cls, path: str, faults=None, **kwargs) -> "EduceStar":
        """A fresh session over a previously saved EDB.

        Runs crash recovery (WAL replay + page verification); the
        outcome is on ``session.store.recovery``.  ``faults`` optionally
        arms a :class:`~repro.bang.faults.FaultInjector` on the opened
        store's I/O paths (tests).
        """
        store = ExternalStore.open(path, create=False, faults=faults)
        return cls(store=store, **kwargs)

    @classmethod
    def create(cls, path: str, faults=None, **kwargs) -> "EduceStar":
        """A durable file-backed session: pages in ``path``'s sidecar
        file, mutations write-ahead logged, checkpoint on :meth:`save`.
        Opens an existing EDB at *path* if one is already there."""
        store = ExternalStore.open(path, create=True, faults=faults)
        return cls(store=store, **kwargs)

    # ----------------------------------------------------------- EDB wiring

    def _edb_trap(self, machine: Machine, name: str,
                  arity: int) -> Optional[Procedure]:
        """Unknown-procedure hook: route the call to the EDB."""
        if self.store.lookup(name, arity) is None:
            return None

        def fetch(m, proc):
            # Call-time type check (§3.2.3): a bound argument that
            # conflicts with the declaration fails without storage work.
            if (proc.name, proc.arity) in self.types:
                summaries = self.preunifier.summaries_from_registers(
                    m, proc.arity)
                if not self.types.check_call(proc.name, proc.arity,
                                             summaries):
                    return None
            return self.loader.procedure_code(m, proc.name, proc.arity)

        return machine.define_external(name, arity, fetch=fetch)

    # ------------------------------------------------------- optimization

    @property
    def optimize(self) -> str:
        """The session's active optimization level (docs/OPTIMIZER.md)."""
        return self.machine.optimizer.level

    def set_optimize(self, level: str) -> None:
        """Change the optimization level at runtime (the REPL's
        ``:optimize``).  Main-memory procedures are rebuilt immediately;
        EDB-backed blocks rebuild on next fetch (the loader cache is
        keyed by level, so stale-level blocks are unreachable)."""
        self.machine.set_optimize(level)

    # ------------------------------------------- whole-program analysis

    def global_analysis(self, refresh: bool = False):
        """The whole-program analysis report over everything this
        session can execute (docs/ANALYSIS.md): main-memory procedures,
        EDB-stored rules, facts relations.  Cached until the program
        changes (a consult, a store mutation); ``refresh=True`` forces
        a re-run."""
        from ..analysis.global_ import (analyze_program,
                                        program_from_session)
        key = (self.machine.compile_count, self.store.mutation_epoch,
               self.store.datalog_rules.epoch)
        if (not refresh and self._global_report is not None
                and key == self._global_key):
            return self._global_report
        self._global_report = analyze_program(
            program_from_session(self))
        self._global_key = key
        self.global_runs += 1
        return self._global_report

    def apply_global_modes(self, refresh: bool = False):
        """Run (or reuse) the whole-program analysis and install its
        bound-argument map into the optimizer: main-memory blocks are
        rebuilt immediately, loader-cached blocks refresh on next fetch
        (``modes_epoch`` rides in the cache key).  Returns the report.

        The installed facts are profitability hints only — the
        generalized guards are observationally equivalent for every
        call pattern, and every rebuilt block still passes the full
        verify + D301/D302 gate (docs/OPTIMIZER.md)."""
        report = self.global_analysis(refresh=refresh)
        self.machine.optimizer.set_global_modes(report.bound_args())
        self.machine.rebuild_blocks()
        return report

    def clear_global_modes(self) -> None:
        """Remove installed whole-program facts and rebuild."""
        self.machine.optimizer.set_global_modes({})
        self.machine.rebuild_blocks()

    def _datalog_modes(self, ind: Tuple[str, int]):
        """Modes/determinism for the strategy planner: available only
        once an analysis has run (the planner never triggers one —
        planning stays cheap)."""
        report = self._global_report
        if report is None:
            return None
        info = report.infos.get(ind)
        if info is None:
            return None
        return (info.call_modes, info.determinism)

    # ------------------------------------------------------------- counters

    def local_counters(self) -> dict:
        """Only the counters the session owns itself — what a service
        registry attaches alongside the machine/loader/datalog sources
        it already has, without double counting them."""
        out = {"parsed_chars": self.parsed_chars,
               "explain_queries": self.explain_queries,
               "analyze_queries": self.analyze_queries,
               "analysis_global_runs": self.global_runs}
        if self._global_report is not None:
            out.update(self._global_report.counters())
        return out

    def counters(self) -> dict:
        merged = dict(self.machine.counters())
        merged.update(self.loader.counters())
        merged.update(self.datalog.counters())
        merged.update(self.local_counters())
        return merged

    def io_counters(self) -> dict:
        return self.store.io_counters()

    def histograms(self) -> dict:
        """Duration histograms visible to this session: the shared
        store's lock/latch waits, miss stalls, write-backs and WAL
        appends, plus this session's loader-cache latch waits.
        Same-named histograms (the two latches) merge bucket-wise."""
        from ..obs.registry import merge_histogram_maps
        return merge_histogram_maps(self.store.histograms(),
                                    self.loader.histograms(),
                                    self.datalog.histograms())

    def reset_counters(self) -> None:
        self.machine.reset_counters()
        self.store.reset_counters()
        self.parsed_chars = 0

    def measure(self):
        """Context manager capturing a Measurement across a block."""
        return measure(self)

    def simulated_ms(self, measurement: Measurement) -> float:
        return measurement.simulated_ms(self.cost_model)
