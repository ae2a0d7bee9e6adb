"""The WAM emulator (paper §2.1, §3.2, §3.3).

A register/heap machine executing the instruction tuples produced by
:mod:`repro.wam.compiler`.  The heap is a list of tagged cells:

=========  =================================================
``REF a``  variable; unbound iff it points at its own address
``STR a``  pointer to a ``FUN`` cell followed by the arguments
``FUN f``  functor cell (*f* = internal dictionary identifier)
``CON c``  atom constant (*c* = internal dictionary identifier)
``INT n`` / ``FLT x``  immediate numbers
``LIS a``  list cell: head at *a*, tail at *a+1*
=========  =================================================

Counters
--------
The machine counts executed instructions, data references and — kept
separately — **choice-point references**, so the reproduction of the
Touati & Despain observation the paper cites in §3.2.1 ("an average of
52 % of data references are choice point references") is a first-class
output (benchmark E7).

Procedures
----------
Four kinds, reflecting the Educe* architecture:

* ``static``  — compiled main-memory code;
* ``dynamic`` — surface clauses, recompiled on demand (assert/retract);
* ``external``— a fetch callback; the EDB dynamic loader returns runnable
  code filtered by pre-unification (paper §3.1, §4);
* built-ins live in a separate registry and are invoked by ``escape``.

When a called procedure is unknown, the machine consults its
``unknown_handler`` — the "interpreter program that is trapped when no
predicate is found in main memory" of §3.2.1; the EDB session installs
its retrieval hook there.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..dictionary import SegmentedDictionary
from ..errors import (
    ExistenceError,
    InstantiationError,
    MachineError,
    PrologError,
    TypeError_,
)
from ..lang.reader import Reader
from ..obs.tracing import NULL_TRACER
from ..terms import NIL, Atom, Struct, Term, Var, deref
from . import instructions as I
from .compiler import (
    ClauseCompiler,
    CompileContext,
    is_builtin_indicator,
    split_clause,
)
from .optimizer import Optimizer, build_optimized_block

# Rough data-reference cost (register/heap/stack accesses) per opcode,
# excluding the choice-point traffic which is counted separately.
_DATA_COST = {
    I.GET_VARIABLE: 2, I.GET_VALUE: 3, I.GET_CONSTANT: 2, I.GET_NIL: 2,
    I.GET_STRUCTURE: 3, I.GET_LIST: 3,
    I.PUT_VARIABLE: 3, I.PUT_VALUE: 2, I.PUT_UNSAFE_VALUE: 2,
    I.PUT_CONSTANT: 1, I.PUT_NIL: 1, I.PUT_STRUCTURE: 2, I.PUT_LIST: 2,
    I.UNIFY_VARIABLE: 2, I.UNIFY_VALUE: 3, I.UNIFY_LOCAL_VALUE: 3,
    I.UNIFY_CONSTANT: 2, I.UNIFY_NIL: 2, I.UNIFY_VOID: 1,
    I.ALLOCATE: 3, I.DEALLOCATE: 2, I.CALL: 2, I.EXECUTE: 1, I.PROCEED: 1,
    I.SWITCH_ON_TERM: 1, I.SWITCH_ON_CONSTANT: 1, I.SWITCH_ON_STRUCTURE: 2,
    I.NECK_CUT: 1, I.GET_LEVEL: 1, I.CUT: 1,
    I.ESCAPE: 2, I.FAIL_OP: 0, I.NOOP: 0, I.HALT_SUCCESS: 0,
    I.TRY_ME_ELSE: 0, I.RETRY_ME_ELSE: 0, I.TRUST_ME: 0,
    I.TRY: 0, I.RETRY: 0, I.TRUST: 0,
    I.SWITCH_ON_ARG: 1,
}

#: marks a compound-build step on :meth:`Machine._extract`'s work stack
_BUILD = object()

_CP_FIXED_FIELDS = 7  # prev, e, cp, tr, h, b0, next — per create/restore

_HALT_CODE = [(I.HALT_SUCCESS,)]


class Procedure:
    """A predicate known to the machine."""

    __slots__ = ("pid", "name", "arity", "kind", "code", "clauses",
                 "compiled", "dirty", "fetch", "index", "frozen")

    def __init__(self, pid: int, name: str, arity: int, kind: str,
                 code: Optional[list] = None,
                 clauses: Optional[list] = None,
                 fetch: Optional[Callable] = None,
                 index: bool = True):
        self.pid = pid
        self.name = name
        self.arity = arity
        self.kind = kind          # 'static' | 'dynamic' | 'external'
        self.code = code
        self.clauses = clauses if clauses is not None else []
        # Per-clause compiled code, kept aligned with ``clauses`` for
        # dynamic procedures: assert compiles ONE clause (the paper's
        # incremental compiler, §3.1); only the cheap control/indexing
        # wrapper is rebuilt.
        self.compiled: list = []
        self.dirty = kind == "dynamic"
        self.fetch = fetch
        self.index = index
        self.frozen = False

    @property
    def indicator(self) -> Tuple[str, int]:
        return (self.name, self.arity)

    def __repr__(self) -> str:
        return f"Procedure({self.name}/{self.arity}, {self.kind})"


class _Env:
    """An AND-stack frame: permanent variables + saved continuation."""

    __slots__ = ("prev", "cp_code", "cp_pc", "slots")

    def __init__(self, prev, cp_code, cp_pc, nslots: int):
        self.prev = prev
        self.cp_code = cp_code
        self.cp_pc = cp_pc
        self.slots: list = [None] * nslots


class _ChoicePoint:
    """An OR-stack frame (paper §3.2.1)."""

    __slots__ = ("prev", "args", "e", "cp_code", "cp_pc", "tr", "h", "b0",
                 "next_code", "next_pc", "kind", "generator")

    def __init__(self, prev, args, e, cp_code, cp_pc, tr, h, b0,
                 next_code, next_pc, kind="clause", generator=None):
        self.prev = prev
        self.args = args
        self.e = e
        self.cp_code = cp_code
        self.cp_pc = cp_pc
        self.tr = tr
        self.h = h
        self.b0 = b0
        self.next_code = next_code
        self.next_pc = next_pc
        self.kind = kind          # 'clause' | 'barrier' | 'gen'
        self.generator = generator


class Solution:
    """One answer to a query: variable-name → surface-term bindings."""

    def __init__(self, bindings: Dict[str, Term]):
        self.bindings = bindings

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __eq__(self, other) -> bool:
        if isinstance(other, Solution):
            return self.bindings == other.bindings
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.bindings.items())
        return f"Solution({inner})"


class Machine:
    """A complete WAM instance: code store, heap, stacks, dictionary."""

    def __init__(self, dictionary: Optional[SegmentedDictionary] = None,
                 index: bool = True,
                 gc_enabled: bool = True,
                 gc_threshold: int = 200_000,
                 optimize: Optional[str] = None):
        self.dictionary = dictionary or SegmentedDictionary(
            segment_capacity=32000)
        self.index_enabled = index
        # Code optimizer (docs/OPTIMIZER.md).  ``optimize=None`` resolves
        # to the process default; the instance is shared with the EDB
        # dynamic loader so the wam_opt_* counters aggregate here.
        self.optimizer = Optimizer(optimize)
        self.reader = Reader()
        self.ctx = CompileContext(self.dictionary, self._define_aux)
        self.compiler = ClauseCompiler(self.ctx)

        self.procedures: Dict[int, Procedure] = {}
        self.unknown_handler: Optional[Callable] = None
        self.output: List[str] = []
        # Observability: the session replaces this with its shared
        # tracer; standalone machines keep the free no-op.
        self.tracer = NULL_TRACER

        # Machine state.
        self.heap: list = []
        self.x: list = [None] * 64
        self.trail: list = []
        self.e: Optional[_Env] = None
        self.b: Optional[_ChoicePoint] = None
        self.b0: Optional[_ChoicePoint] = None
        self.code: list = _HALT_CODE
        self.pc = 0
        self.cp_code: list = _HALT_CODE
        self.cp_pc = 0
        self.s = 0
        self.mode = "read"

        # Counters (benchmarks E7, E10 read these).
        self.instr_count = 0
        self.data_refs = 0
        self.cp_refs = 0
        self.cp_created = 0
        self.backtracks = 0
        self.calls = 0
        self.unify_ops = 0
        self.compile_count = 0
        self.heap_high_water = 0

        # Garbage collection (§3.3.2).
        self.gc_enabled = gc_enabled
        self.gc_threshold = gc_threshold
        self.gc_runs = 0
        self.gc_cells_recovered = 0
        self._gc_floor = 0  # heap size below which GC must not reach

        from .builtins import BUILTINS  # registers indicators on import
        self.builtins = dict(BUILTINS)  # copy: sessions add their own

        # Cooperative interruption (repro.service): when set, the hook
        # is called every ``poll_interval`` instructions from inside
        # :meth:`_run` and may raise (e.g. QueryInterrupted) to abort
        # the query.  Kept as instance attributes so each worker
        # machine can be interrupted independently.
        self.poll_hook: Optional[Callable] = None
        self.poll_interval = 2048

        # Sampled profiler (repro.obs.profiler): when installed *and*
        # active, :meth:`_run` chains its sampler onto the poll hook.
        # The disabled path costs one attribute check per _run entry —
        # the dispatch loop itself is untouched.
        self.profiler = None

        self._dispatch = self._build_dispatch()
        self._nil_id = self.dictionary.intern("[]", 0)
        self._metacall_cache: Dict[str, Tuple[str, int]] = {}
        # External root cells for the garbage collector: single-element
        # lists holding cells that must survive and be relocated.
        self.rooted: List[list] = []

        from .prelude import PRELUDE_SOURCE
        self.consult(PRELUDE_SOURCE)

    # ===================================================== program loading

    def consult(self, text: str) -> None:
        """Compile a program text into main-memory procedures.

        ``:- Goal`` directives are executed as they are read: ``op/3``
        extends this machine's operator table, ``dynamic/1`` declares
        dynamic procedures, anything else is solved as a goal.
        """
        clauses: List[Term] = []
        for term in self.reader.read_terms(text):
            if isinstance(term, Struct) and term.indicator == (":-", 1):
                # Directives may rely on preceding clauses.
                self.load_clauses(clauses)
                clauses = []
                self._directive(term.args[0])
            else:
                clauses.append(term)
        self.load_clauses(clauses)

    def _directive(self, goal: Term) -> None:
        goal = deref(goal)
        if isinstance(goal, Struct) and goal.indicator == ("op", 3):
            priority, type_, name = (deref(a) for a in goal.args)
            if not (isinstance(priority, int) and isinstance(type_, Atom)
                    and isinstance(name, Atom)):
                raise TypeError_("op/3 directive", goal)
            self.reader.operators.add(priority, type_.name, name.name)
            return
        if self.solve_once(goal) is None:
            raise PrologError(
                f"directive failed: {goal!r}")

    def consult_file(self, path: str) -> None:
        """Consult a Prolog source file."""
        with open(path, "r", encoding="utf-8") as f:
            self.consult(f.read())

    def load_clauses(self, clauses: List[Term]) -> None:
        """Group clauses by indicator and define static procedures."""
        grouped: Dict[Tuple[str, int], List[Term]] = {}
        order: List[Tuple[str, int]] = []
        for clause in clauses:
            head, _ = split_clause(clause)
            ind = (head.name, head.arity if isinstance(head, Struct) else 0)
            if ind not in grouped:
                grouped[ind] = []
                order.append(ind)
            grouped[ind].append(clause)
        for name, arity in order:
            self.define_procedure(name, arity, grouped[(name, arity)])

    def define_procedure(self, name: str, arity: int, clauses: List[Term],
                         kind: str = "static", index: Optional[bool] = None
                         ) -> Procedure:
        """Define (or redefine) a procedure from surface clauses."""
        if is_builtin_indicator(name, arity):
            raise PrologError(
                f"cannot redefine built-in {name}/{arity}")
        pid = self.dictionary.intern(name, arity)
        use_index = self.index_enabled if index is None else index
        proc = Procedure(pid, name, arity, kind, clauses=list(clauses),
                         index=use_index)
        if kind == "static":
            self.compile_count += len(clauses)
            # Keep the per-clause compiled code so ``set_optimize`` can
            # rebuild the control wrapper without recompiling clauses.
            proc.compiled = [self.compiler.compile_clause(c)
                             for c in clauses]
            proc.code = self._build_block(proc)
        self.procedures[pid] = proc
        return proc

    def define_external(self, name: str, arity: int,
                        fetch: Callable) -> Procedure:
        """Register an EDB-backed procedure; *fetch(machine, proc)* must
        return an executable code block for the current call pattern."""
        pid = self.dictionary.intern(name, arity)
        proc = Procedure(pid, name, arity, "external", fetch=fetch)
        self.procedures[pid] = proc
        return proc

    def procedure(self, name: str, arity: int) -> Optional[Procedure]:
        pid = self.dictionary.lookup(name, arity)
        if pid is None:
            return None
        return self.procedures.get(pid)

    def _compile_procedure(self, clauses: List[Term], index: bool) -> list:
        self.compile_count += len(clauses)
        compiled = [self.compiler.compile_clause(c) for c in clauses]
        return build_optimized_block(compiled, index=index,
                                     optimizer=self.optimizer,
                                     dictionary=self.dictionary)

    def _build_block(self, proc: Procedure) -> list:
        return build_optimized_block(
            proc.compiled, index=proc.index, optimizer=self.optimizer,
            dictionary=self.dictionary,
            procedure=f"{proc.name}/{proc.arity}")

    def set_optimize(self, level: str) -> None:
        """Change the optimization level and rebuild every main-memory
        procedure's control wrapper at the new level (per-clause compiled
        code is reused; dynamics rebuild lazily on next call)."""
        if level == self.optimizer.level:
            return
        self.optimizer.set_level(level)
        self.rebuild_blocks()

    def rebuild_blocks(self) -> None:
        """Rebuild every main-memory procedure's control wrapper at the
        optimizer's current settings — used when the level changes and
        when whole-program mode facts are (re)installed."""
        for proc in self.procedures.values():
            if proc.kind == "static" and proc.compiled:
                proc.code = self._build_block(proc)
            elif proc.kind == "dynamic":
                proc.dirty = True

    def _define_aux(self, name: str, arity: int, clauses: List[Term]) -> None:
        self.define_procedure(name, arity, clauses, index=False)

    # ===================================================== queries

    def solve(self, goal, limit: Optional[int] = None) -> Iterator[Solution]:
        """Solve *goal* (text or term); yield :class:`Solution` objects.

        Backtracking is driven lazily: requesting the next solution forces
        a failure and resumes the machine.
        """
        if isinstance(goal, str):
            goal_term, varmap = self.reader.read_term_with_vars(goal)
        else:
            goal_term = goal
            varmap = {v.name: v for v in _surface_vars(goal_term)
                      if not v.name.startswith("_")}

        if self.tracer.enabled:
            if isinstance(goal, str):
                label = " ".join(goal.split())[:200]
            else:
                from ..lang.writer import term_to_text
                label = term_to_text(goal_term)[:200]
        else:
            label = ""

        mark = self._save_state()
        holders: List[list] = []
        count = 0
        with self.tracer.span("query", goal=label) as qspan:
            try:
                cell, addr_of = self._build(goal_term, {})
                # GC-safe watch cells: the collector rewrites holder
                # contents.
                watch = {}
                for name, var in varmap.items():
                    addr = addr_of.get(id(var))
                    if addr is not None:
                        holder = [("REF", addr)]
                        watch[name] = holder
                        holders.append(holder)
                self.rooted.extend(holders)
                for _ in self._solve_cell(cell):
                    bindings = {}
                    memo: dict = {}
                    for name, holder in watch.items():
                        bindings[name] = self._extract(holder[0], memo)
                    count += 1   # before yield: consumer may not resume
                    yield Solution(bindings)
                    if limit is not None and count >= limit:
                        return
            finally:
                if qspan is not None:
                    qspan.attrs["solutions"] = count
                for holder in holders:
                    self.rooted.remove(holder)
                self._restore_state(mark)

    def solve_once(self, goal) -> Optional[Solution]:
        """First solution or None."""
        for solution in self.solve(goal, limit=1):
            return solution
        return None

    def count_solutions(self, goal) -> int:
        return sum(1 for _ in self.solve(goal))

    # --------------------------------------------------------- nested solve

    def _solve_cell(self, goal_cell) -> Iterator[bool]:
        """Run *goal_cell* as a goal; yield once per solution.

        Creates a barrier choice point; exhausting alternatives below the
        barrier ends the iteration with all state restored.  Re-entrant:
        built-ins (findall, forall...) nest their own solve loops.
        """
        saved = (self.code, self.pc, self.cp_code, self.cp_pc, self.e,
                 self.b0, self.mode, self.s)
        barrier = self._push_barrier()
        self.cp_code, self.cp_pc = _HALT_CODE, 0
        try:
            status = self._metacall(goal_cell)
            if status == "fail":
                status = self._backtrack(barrier)
            while True:
                if status != "exhausted":
                    status = self._run(barrier)
                if status == "exhausted":
                    return
                yield True
                status = self._backtrack(barrier)
        finally:
            # Barrier may already be popped on exhaustion; pop if present.
            self._pop_barrier(barrier)
            (self.code, self.pc, self.cp_code, self.cp_pc, self.e,
             self.b0, self.mode, self.s) = saved

    def solve_goal_once(self, goal_cell) -> bool:
        """Solve *goal_cell* once, **keeping** the bindings of the first
        solution (implements ``once/1`` / ``ignore/1``).

        Unlike :meth:`_solve_cell`, success discards the alternatives
        above the barrier but leaves the trail and heap intact.
        """
        saved = (self.code, self.pc, self.cp_code, self.cp_pc, self.e,
                 self.b0, self.mode, self.s)
        barrier = self._push_barrier()
        self.cp_code, self.cp_pc = _HALT_CODE, 0
        try:
            status = self._metacall(goal_cell)
            if status == "fail":
                status = self._backtrack(barrier)
            if status != "exhausted":
                status = self._run(barrier)
            if status == "exhausted":
                return False
            # Success: prune everything above the barrier, keep bindings.
            self.b = barrier.prev
            return True
        finally:
            if self.b is not None and self.b is barrier:
                self.b = barrier.prev  # defensive: never leak the barrier
            (self.code, self.pc, self.cp_code, self.cp_pc, self.e,
             self.b0, self.mode, self.s) = saved

    def _push_barrier(self) -> _ChoicePoint:
        cp = _ChoicePoint(
            prev=self.b, args=(), e=self.e,
            cp_code=self.cp_code, cp_pc=self.cp_pc,
            tr=len(self.trail), h=len(self.heap), b0=self.b0,
            next_code=None, next_pc=0, kind="barrier")
        self.b = cp
        self.cp_created += 1
        self.cp_refs += _CP_FIXED_FIELDS
        return cp

    def _pop_barrier(self, barrier: _ChoicePoint) -> None:
        cursor = self.b
        while cursor is not None and cursor is not barrier:
            cursor = cursor.prev
        if cursor is barrier:
            # Unwind everything above (and including) the barrier.
            self._unwind_trail(barrier.tr)
            del self.heap[barrier.h:]
            self.b = barrier.prev

    def _save_state(self) -> tuple:
        return (len(self.heap), len(self.trail), self.b, self.e,
                self.code, self.pc, self.cp_code, self.cp_pc, self.b0)

    def _restore_state(self, mark: tuple) -> None:
        (h, tr, b, e, code, pc, cp_code, cp_pc, b0) = mark
        self._unwind_trail(tr)
        del self.heap[h:]
        self.b = b
        self.e = e
        self.code, self.pc = code, pc
        self.cp_code, self.cp_pc = cp_code, cp_pc
        self.b0 = b0

    # ===================================================== main loop

    # Optional per-instruction hook: fn(machine, instr).  Read once per
    # _run entry; installed by repro.wam.debugger.Tracer.
    trace_hook = None

    def _run(self, barrier: _ChoicePoint) -> str:
        """Execute until success ('success') or exhaustion below
        *barrier* ('exhausted')."""
        dispatch = self._dispatch
        cost = _DATA_COST
        hook = self.trace_hook
        poll = self.poll_hook
        poll_interval = self.poll_interval
        profiler = self.profiler
        since_poll = 0
        if profiler is not None and profiler.active and poll is not None:
            # Sampling rides the poll boundary *when one is installed*
            # (deadline/cancel polls keep firing): the per-instruction
            # countdown below is already being paid for the hook, so
            # the sampler comes along for free.  Without a hook the
            # countdown stays off — straight-line code samples at call
            # boundaries instead (see _dispatch_call), which is what
            # keeps enabled-sampling overhead inside its 2 % budget.
            poll = profiler.chain(self, poll)
            poll_interval = min(poll_interval, profiler.interval)
        while True:
            instr = self.code[self.pc]
            self.pc += 1
            op = instr[0]
            self.instr_count += 1
            self.data_refs += cost[op]
            if hook is not None:
                hook(self, instr)
            if poll is not None:
                since_poll += 1
                if since_poll >= poll_interval:
                    since_poll = 0
                    poll(self)
            result = dispatch[op](instr)
            if result is None:
                continue
            if result == "halt":
                return "success"
            # result == 'fail'
            status = self._backtrack(barrier)
            if status == "exhausted":
                return "exhausted"

    def _backtrack(self, barrier: _ChoicePoint) -> str:
        """Restore the newest choice point and resume its next alternative;
        'exhausted' once the *barrier* is reached."""
        self.backtracks += 1
        while True:
            cp = self.b
            if cp is None:
                raise MachineError("backtrack past the bottom of the OR-stack")
            if cp.kind == "barrier":
                if cp is not barrier:
                    # A nested barrier must already have been popped.
                    raise MachineError("foreign barrier on backtrack")
                self._unwind_trail(cp.tr)
                del self.heap[cp.h:]
                self.e = cp.e
                self.b = cp.prev
                return "exhausted"

            # Restore machine state from the choice point.
            self._unwind_trail(cp.tr)
            del self.heap[cp.h:]
            nargs = len(cp.args)
            self.x[:nargs] = list(cp.args)
            self.e = cp.e
            self.cp_code, self.cp_pc = cp.cp_code, cp.cp_pc
            self.b0 = cp.b0
            self.cp_refs += _CP_FIXED_FIELDS + nargs
            self.data_refs += _CP_FIXED_FIELDS + nargs

            if cp.kind == "gen":
                assert cp.generator is not None
                try:
                    next(cp.generator)
                except StopIteration:
                    self.b = cp.prev
                    continue
                # Generator produced another solution: resume after escape.
                self.code, self.pc = cp.next_code, cp.next_pc
                return "resumed"
            self.code, self.pc = cp.next_code, cp.next_pc
            return "resumed"

    def _unwind_trail(self, mark: int) -> None:
        trail = self.trail
        heap = self.heap
        for i in range(len(trail) - 1, mark - 1, -1):
            addr = trail[i]
            heap[addr] = ("REF", addr)
        del trail[mark:]

    # ===================================================== heap primitives

    def deref_cell(self, cell):
        heap = self.heap
        while cell[0] == "REF":
            addr = cell[1]
            at = heap[addr]
            if at[0] == "REF" and at[1] == addr:
                return at
            cell = at
        return cell

    def bind(self, addr: int, cell) -> None:
        self.heap[addr] = cell
        hb = self.b.h if self.b is not None else 0
        if addr < hb:
            self.trail.append(addr)
        self.data_refs += 1

    def new_var(self):
        h = len(self.heap)
        cell = ("REF", h)
        self.heap.append(cell)
        return cell

    def unify(self, c1, c2) -> bool:
        """General unifier over cells (no occurs check, as in the WAM)."""
        self.unify_ops += 1
        heap = self.heap
        stack = [(c1, c2)]
        push = stack.append
        pop = stack.pop
        while stack:
            a, b = pop()
            a = self.deref_cell(a)
            b = self.deref_cell(b)
            self.data_refs += 2
            ta, tb = a[0], b[0]
            if ta == "REF":
                if tb == "REF":
                    aa, ba = a[1], b[1]
                    if aa == ba:
                        continue
                    if aa < ba:
                        self.bind(ba, a)
                    else:
                        self.bind(aa, b)
                else:
                    self.bind(a[1], b)
                continue
            if tb == "REF":
                self.bind(b[1], a)
                continue
            if ta != tb:
                return False
            if ta == "CON" or ta == "INT" or ta == "FLT":
                if a[1] != b[1]:
                    return False
                continue
            if ta == "LIS":
                aa, ba = a[1], b[1]
                if aa == ba:
                    continue
                push((heap[aa], heap[ba]))
                push((heap[aa + 1], heap[ba + 1]))
                continue
            if ta == "STR":
                aa, ba = a[1], b[1]
                if aa == ba:
                    continue
                fa, fb = heap[aa], heap[ba]
                if fa[1] != fb[1]:
                    return False
                arity = self.dictionary.arity(fa[1])
                for k in range(1, arity + 1):
                    push((heap[aa + k], heap[ba + k]))
                continue
            raise MachineError(f"bad cell tag {ta}")
        return True

    # ---------------------------------------------- term <-> heap conversion

    def _build(self, term: Term, addr_of: dict) -> tuple:
        """Copy a surface term onto the heap; returns (cell, var-addr map)."""
        cell = self._build_cell(term, addr_of)
        return cell, addr_of

    def _build_cell(self, term: Term, addr_of: dict):
        term = deref(term)
        if isinstance(term, Var):
            addr = addr_of.get(id(term))
            if addr is None:
                cell = self.new_var()
                addr_of[id(term)] = cell[1]
                return cell
            return ("REF", addr)
        if isinstance(term, Atom):
            if term is NIL:
                return ("CON", self._nil_id)
            return ("CON", self.dictionary.intern(term.name, 0))
        if isinstance(term, bool):
            raise TypeError_("term", term)
        if isinstance(term, int):
            return ("INT", term)
        if isinstance(term, float):
            return ("FLT", term)
        assert isinstance(term, Struct)
        heap = self.heap
        if term.indicator == (".", 2):
            # Iterative over the spine: lists can be arbitrarily long.
            spine: List[Term] = []
            cursor: Term = term
            while (isinstance(cursor, Struct)
                   and cursor.indicator == (".", 2)):
                spine.append(cursor.args[0])
                cursor = deref(cursor.args[1])
            head_cells = [self._build_cell(x, addr_of) for x in spine]
            tail_cell = self._build_cell(cursor, addr_of)
            for head in reversed(head_cells):
                a = len(heap)
                heap.append(head)
                heap.append(tail_cell)
                tail_cell = ("LIS", a)
            return tail_cell
        arg_cells = [self._build_cell(a, addr_of) for a in term.args]
        fid = self.dictionary.intern(term.name, term.arity)
        a = len(heap)
        heap.append(("FUN", fid))
        heap.extend(arg_cells)
        return ("STR", a)

    def _extract(self, cell, memo: dict) -> Term:
        """Heap cell → surface term; unbound cells become fresh Vars.

        Iterative over an explicit stack, so neither long lists nor
        deeply nested compounds can exhaust the Python stack.  Cyclic
        terms (possible because WAM unification omits the occurs check)
        are cut at the back edge with a fresh variable, so extraction
        always terminates; use ``acyclic_term/1`` to detect them
        explicitly.
        """
        heap = self.heap
        dictionary = self.dictionary
        on_path: set = set()   # compound addresses being built
        done: List[Term] = []  # finished subterms, in argument order
        todo: list = [cell]    # cells to extract and build markers
        while todo:
            item = todo.pop()
            if item[0] is _BUILD:
                _, a, name, arity = item
                on_path.discard(a)
                first = len(done) - arity
                args = tuple(done[first:])
                del done[first:]
                done.append(Struct(name, args))
                continue
            cell = self.deref_cell(item)
            tag = cell[0]
            if tag == "REF":
                var = memo.get(cell[1])
                if var is None:
                    var = memo[cell[1]] = Var()
                done.append(var)
            elif tag == "CON":
                done.append(Atom(dictionary.name(cell[1])))
            elif tag == "INT" or tag == "FLT":
                done.append(cell[1])
            elif tag == "LIS" or tag == "STR":
                a = cell[1]
                if a in on_path:
                    done.append(Var())  # back edge: cut the cycle
                    continue
                on_path.add(a)
                if tag == "LIS":
                    name, arity, base = ".", 2, a
                else:
                    name, arity = dictionary.functor(heap[a][1])
                    base = a + 1
                todo.append((_BUILD, a, name, arity))
                todo.extend(heap[base + k] for k in range(arity - 1, -1, -1))
            else:
                raise MachineError(f"cannot extract cell {cell!r}")
        return done[0]

    def extract(self, cell) -> Term:
        return self._extract(cell, {})

    # ===================================================== instruction set

    def _build_dispatch(self) -> Dict[str, Callable]:
        return {
            I.GET_VARIABLE: self._i_get_variable,
            I.GET_VALUE: self._i_get_value,
            I.GET_CONSTANT: self._i_get_constant,
            I.GET_NIL: self._i_get_nil,
            I.GET_STRUCTURE: self._i_get_structure,
            I.GET_LIST: self._i_get_list,
            I.PUT_VARIABLE: self._i_put_variable,
            I.PUT_VALUE: self._i_put_value,
            I.PUT_UNSAFE_VALUE: self._i_put_value,
            I.PUT_CONSTANT: self._i_put_constant,
            I.PUT_NIL: self._i_put_nil,
            I.PUT_STRUCTURE: self._i_put_structure,
            I.PUT_LIST: self._i_put_list,
            I.UNIFY_VARIABLE: self._i_unify_variable,
            I.UNIFY_VALUE: self._i_unify_value,
            I.UNIFY_LOCAL_VALUE: self._i_unify_value,
            I.UNIFY_CONSTANT: self._i_unify_constant,
            I.UNIFY_NIL: self._i_unify_nil,
            I.UNIFY_VOID: self._i_unify_void,
            I.ALLOCATE: self._i_allocate,
            I.DEALLOCATE: self._i_deallocate,
            I.CALL: self._i_call,
            I.EXECUTE: self._i_execute,
            I.PROCEED: self._i_proceed,
            I.TRY_ME_ELSE: self._i_try_me_else,
            I.RETRY_ME_ELSE: self._i_retry_me_else,
            I.TRUST_ME: self._i_trust_me,
            I.TRY: self._i_try,
            I.RETRY: self._i_retry,
            I.TRUST: self._i_trust,
            I.SWITCH_ON_TERM: self._i_switch_on_term,
            I.SWITCH_ON_CONSTANT: self._i_switch_on_constant,
            I.SWITCH_ON_STRUCTURE: self._i_switch_on_structure,
            I.NECK_CUT: self._i_neck_cut,
            I.GET_LEVEL: self._i_get_level,
            I.CUT: self._i_cut,
            I.ESCAPE: self._i_escape,
            I.FAIL_OP: self._i_fail,
            I.NOOP: self._i_noop,
            I.HALT_SUCCESS: self._i_halt,
            I.SWITCH_ON_ARG: self._i_switch_on_arg,
        }

    # --- register access ----------------------------------------------------

    def _reg_read(self, reg):
        if reg[0] == "x":
            return self.x[reg[1]]
        return self.e.slots[reg[1]]

    def _reg_write(self, reg, cell) -> None:
        if reg[0] == "x":
            n = reg[1]
            if n >= len(self.x):
                self.x.extend([None] * (n + 16 - len(self.x)))
            self.x[n] = cell
        else:
            self.e.slots[reg[1]] = cell

    # --- get ------------------------------------------------------------------

    def _i_get_variable(self, instr):
        self._reg_write(instr[1], self.x[instr[2][1]])

    def _i_get_value(self, instr):
        if not self.unify(self._reg_read(instr[1]), self.x[instr[2][1]]):
            return "fail"

    def _const_cell(self, const):
        kind = const[0]
        if kind == "atom":
            return ("CON", const[1])
        if kind == "int":
            return ("INT", const[1])
        return ("FLT", const[1])

    def _i_get_constant(self, instr):
        cell = self.deref_cell(self.x[instr[2][1]])
        if cell[0] == "REF":
            self.bind(cell[1], self._const_cell(instr[1]))
            return None
        want = self._const_cell(instr[1])
        if cell[0] != want[0] or cell[1] != want[1]:
            return "fail"

    def _i_get_nil(self, instr):
        cell = self.deref_cell(self.x[instr[1][1]])
        if cell[0] == "REF":
            self.bind(cell[1], ("CON", self._nil_id))
            return None
        if cell[0] != "CON" or cell[1] != self._nil_id:
            return "fail"

    def _i_get_structure(self, instr):
        fid = instr[1]
        cell = self.deref_cell(self.x[instr[2][1]])
        if cell[0] == "REF":
            h = len(self.heap)
            self.heap.append(("FUN", fid))
            self.bind(cell[1], ("STR", h))
            self.mode = "write"
            return None
        if cell[0] == "STR":
            a = cell[1]
            if self.heap[a][1] == fid:
                self.s = a + 1
                self.mode = "read"
                return None
        return "fail"

    def _i_get_list(self, instr):
        cell = self.deref_cell(self.x[instr[1][1]])
        if cell[0] == "REF":
            h = len(self.heap)
            self.bind(cell[1], ("LIS", h))
            self.mode = "write"
            return None
        if cell[0] == "LIS":
            self.s = cell[1]
            self.mode = "read"
            return None
        return "fail"

    # --- put ---------------------------------------------------------------

    def _i_put_variable(self, instr):
        cell = self.new_var()
        self._reg_write(instr[1], cell)
        self._reg_write(instr[2], cell)

    def _i_put_value(self, instr):
        self._reg_write(instr[2], self._reg_read(instr[1]))

    def _i_put_constant(self, instr):
        self._reg_write(instr[2], self._const_cell(instr[1]))

    def _i_put_nil(self, instr):
        self._reg_write(instr[1], ("CON", self._nil_id))

    def _i_put_structure(self, instr):
        h = len(self.heap)
        self.heap.append(("FUN", instr[1]))
        self._reg_write(instr[2], ("STR", h))
        self.mode = "write"

    def _i_put_list(self, instr):
        self._reg_write(instr[1], ("LIS", len(self.heap)))
        self.mode = "write"

    # --- unify ---------------------------------------------------------------

    def _i_unify_variable(self, instr):
        if self.mode == "read":
            self._reg_write(instr[1], self.heap[self.s])
            self.s += 1
        else:
            self._reg_write(instr[1], self.new_var())

    def _i_unify_value(self, instr):
        if self.mode == "read":
            ok = self.unify(self._reg_read(instr[1]), self.heap[self.s])
            self.s += 1
            if not ok:
                return "fail"
        else:
            self.heap.append(self.deref_cell(self._reg_read(instr[1])))

    def _i_unify_constant(self, instr):
        want = self._const_cell(instr[1])
        if self.mode == "read":
            cell = self.deref_cell(self.heap[self.s])
            self.s += 1
            if cell[0] == "REF":
                self.bind(cell[1], want)
                return None
            if cell[0] != want[0] or cell[1] != want[1]:
                return "fail"
        else:
            self.heap.append(want)

    def _i_unify_nil(self, instr):
        if self.mode == "read":
            cell = self.deref_cell(self.heap[self.s])
            self.s += 1
            if cell[0] == "REF":
                self.bind(cell[1], ("CON", self._nil_id))
                return None
            if cell[0] != "CON" or cell[1] != self._nil_id:
                return "fail"
        else:
            self.heap.append(("CON", self._nil_id))

    def _i_unify_void(self, instr):
        n = instr[1]
        if self.mode == "read":
            self.s += n
        else:
            for _ in range(n):
                self.new_var()

    # --- control -----------------------------------------------------------

    def _i_allocate(self, instr):
        self.e = _Env(self.e, self.cp_code, self.cp_pc, instr[1])

    def _i_deallocate(self, instr):
        env = self.e
        self.cp_code, self.cp_pc = env.cp_code, env.cp_pc
        self.e = env.prev

    def _i_call(self, instr):
        self.cp_code, self.cp_pc = self.code, self.pc
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(instr[1], instr[2])

    def _i_execute(self, instr):
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(instr[1], instr[2])

    def _i_proceed(self, instr):
        self.code, self.pc = self.cp_code, self.cp_pc
        self._maybe_gc()

    def _dispatch_call(self, pid: int, arity: int):
        self._pending_arity = arity
        self._maybe_gc()  # safe point: args in registers, S/mode dead
        profiler = self.profiler
        if profiler is not None and self.instr_count >= profiler.next_due:
            # Call boundaries are the sampler's safe points when no
            # poll hook is installed: one guard per call (instructions
            # are ~20x more frequent, and next_due is infinite while
            # disabled) keeps sampling overhead well under the cost of
            # a per-instruction countdown.
            profiler.sample(self)
        proc = self.procedures.get(pid)
        if proc is None:
            proc = self._resolve_unknown(pid, arity)
            if proc is None:
                return "fail"
        kind = proc.kind
        if kind == "static":
            self.code, self.pc = proc.code, 0
            return None
        if kind == "dynamic":
            if proc.dirty:
                # Incremental: compile only clauses without cached code,
                # then rebuild the control/indexing wrapper.
                while len(proc.compiled) < len(proc.clauses):
                    idx = len(proc.compiled)
                    proc.compiled.append(
                        self.compiler.compile_clause(proc.clauses[idx]))
                    self.compile_count += 1
                proc.code = self._build_block(proc)
                proc.dirty = False
            self.code, self.pc = proc.code, 0
            return None
        if kind == "external":
            code = proc.fetch(self, proc)
            if code is None:
                return "fail"
            if self.profiler is not None:
                # Fetched blocks never appear in ``procedures``; label
                # them here so EDB predicates are attributed like
                # main-memory ones.
                self.profiler.note_code(code, proc.name, proc.arity)
            self.code, self.pc = code, 0
            return None
        raise MachineError(f"cannot call procedure kind {kind}")

    def _resolve_unknown(self, pid: int, arity: int) -> Optional[Procedure]:
        name = self.dictionary.name(pid)
        if self.unknown_handler is not None:
            proc = self.unknown_handler(self, name, arity)
            if proc is not None:
                return proc
        raise ExistenceError("procedure", f"{name}/{arity}")

    # --- choice points --------------------------------------------------------

    def _push_cp(self, next_code, next_pc) -> None:
        nargs = self._current_arity()
        cp = _ChoicePoint(
            prev=self.b,
            args=tuple(self.x[:nargs]),
            e=self.e,
            cp_code=self.cp_code, cp_pc=self.cp_pc,
            tr=len(self.trail), h=len(self.heap), b0=self.b0,
            next_code=next_code, next_pc=next_pc)
        self.b = cp
        self.cp_created += 1
        self.cp_refs += _CP_FIXED_FIELDS + nargs
        self.data_refs += _CP_FIXED_FIELDS + nargs

    def _current_arity(self) -> int:
        # The choice instructions run at procedure entry; the argument
        # registers to save are those of the procedure being tried.  We
        # conservatively save registers up to the highest loaded X.
        n = self._pending_arity
        return n

    # --- clause chains ------------------------------------------------------

    def _i_try_me_else(self, instr):
        self._push_cp(self.code, instr[1])

    def _i_retry_me_else(self, instr):
        self.b.next_code = self.code
        self.b.next_pc = instr[1]
        self.cp_refs += 2
        self.data_refs += 2

    def _i_trust_me(self, instr):
        self.b = self.b.prev
        self.cp_refs += 1
        self.data_refs += 1

    def _i_try(self, instr):
        self._push_cp(self.code, self.pc)
        self.pc = instr[1]

    def _i_retry(self, instr):
        self.b.next_code = self.code
        self.b.next_pc = self.pc
        self.pc = instr[1]
        self.cp_refs += 2
        self.data_refs += 2

    def _i_trust(self, instr):
        self.b = self.b.prev
        self.pc = instr[1]
        self.cp_refs += 1
        self.data_refs += 1

    # --- indexing -----------------------------------------------------------

    def _i_switch_on_term(self, instr):
        cell = self.deref_cell(self.x[0])
        tag = cell[0]
        if tag == "REF":
            self.pc = instr[1]
        elif tag == "LIS":
            self.pc = instr[3]
        elif tag == "STR":
            self.pc = instr[4]
        else:
            self.pc = instr[2]

    def _i_switch_on_constant(self, instr):
        cell = self.deref_cell(self.x[0])
        tag = cell[0]
        if tag == "CON":
            key = ("atom", cell[1])
        elif tag == "INT":
            key = ("int", cell[1])
        else:
            key = ("flt", cell[1])
        self.pc = instr[1].get(key, instr[2])

    def _i_switch_on_structure(self, instr):
        cell = self.deref_cell(self.x[0])
        fid = self.heap[cell[1]][1]
        self.pc = instr[1].get(("fun", fid), instr[2])

    def _i_switch_on_arg(self, instr):
        # (argpos, {const_key: offset}, lvar, lmiss) — the optimizer's
        # chain guard: every guarded clause holds a pairwise-distinct
        # constant at argpos, so a bound constant selects at most one
        # clause (no choice point) and a bound list/structure none.
        cell = self.deref_cell(self.x[instr[1]])
        tag = cell[0]
        if tag == "REF":
            self.pc = instr[3]
            return None
        if tag == "CON":
            key = ("atom", cell[1])
        elif tag == "INT":
            key = ("int", cell[1])
        elif tag == "FLT":
            key = ("flt", cell[1])
        else:  # LIS / STR cannot match an all-constant chain
            self.pc = instr[4]
            return None
        self.pc = instr[2].get(key, instr[4])

    # --- cut -------------------------------------------------------------------

    def _i_neck_cut(self, instr):
        self.b = self.b0

    def _i_get_level(self, instr):
        self.e.slots[instr[1][1]] = ("LVL", self.b0)

    def _i_cut(self, instr):
        cell = self.e.slots[instr[1][1]]
        assert cell is not None and cell[0] == "LVL"
        self.b = cell[1]

    # --- escapes -----------------------------------------------------------------

    def _i_escape(self, instr):
        name, arity = instr[1], instr[2]
        fn = self.builtins[(name, arity)]
        args = [self.x[i] for i in range(arity)]
        self._pending_arity = arity
        result = fn(self, args)
        if result is True:
            return None
        if result is False:
            return "fail"
        if result == "dispatched":
            # The built-in transferred control itself (call/N).
            return None
        # Non-deterministic built-in: a generator of solutions.
        return self._escape_generator(result)

    def _escape_generator(self, gen):
        nargs = self._pending_arity
        cp = _ChoicePoint(
            prev=self.b,
            args=tuple(self.x[:nargs]),
            e=self.e,
            cp_code=self.cp_code, cp_pc=self.cp_pc,
            tr=len(self.trail), h=len(self.heap), b0=self.b0,
            next_code=self.code, next_pc=self.pc,
            kind="gen", generator=gen)
        self.b = cp
        self.cp_created += 1
        self.cp_refs += _CP_FIXED_FIELDS + nargs
        try:
            next(gen)
        except StopIteration:
            self.b = cp.prev
            return "fail"
        return None

    def _i_fail(self, instr):
        return "fail"

    def _i_noop(self, instr):
        return None

    def _i_halt(self, instr):
        return "halt"

    # ===================================================== metacall

    _pending_arity = 0

    def _metacall(self, goal_cell):
        """Call a goal given as a heap cell (``call/1`` and query entry)."""
        cell = self.deref_cell(goal_cell)
        tag = cell[0]
        if tag == "REF":
            raise InstantiationError("call/1: unbound goal")
        if tag == "CON":
            name = self.dictionary.name(cell[1])
            return self._metacall_named(name, 0, cell, ())
        if tag == "STR":
            a = cell[1]
            fid = self.heap[a][1]
            name, arity = self.dictionary.functor(fid)
            args = tuple(self.heap[a + k] for k in range(1, arity + 1))
            return self._metacall_named(name, arity, cell, args)
        raise TypeError_("callable", self.extract(cell))

    _CONTROL = {(",", 2), (";", 2), ("->", 2), ("\\+", 1), ("not", 1),
                ("!", 0)}

    def _metacall_named(self, name, arity, cell, arg_cells):
        if (name, arity) in self._CONTROL or is_builtin_indicator(
                name, arity):
            # Control constructs and built-ins are metacalled by
            # synthesising a one-clause procedure — the incremental
            # compiler handles the construct exactly as in source code.
            return self._metacall_compiled(cell)
        for i, c in enumerate(arg_cells):
            if i >= len(self.x):
                self.x.extend([None] * 16)
            self.x[i] = c
        pid = self.dictionary.intern(name, arity)
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(pid, arity)

    def _metacall_compiled(self, cell):
        """Metacall of a control construct or built-in: synthesise and
        call a one-clause procedure whose body is the goal (the
        incremental compiler at work, §3.1).  Synthesised procedures are
        cached by the goal's shape so repeated metacalls reuse code."""
        memo: dict = {}
        body = self._extract(cell, memo)
        var_addrs = list(memo.items())  # [(addr, Var)]
        params = tuple(v for _, v in var_addrs)

        from ..lang.writer import term_to_text
        key = term_to_text(body)
        cached = self._metacall_cache.get(key)
        if cached is not None and len(params) == cached[1]:
            name = cached[0]
        else:
            name = self.ctx.fresh_aux_name()
            head = Atom(name) if not params else Struct(name, params)
            clause = Struct(":-", (head, body))
            self.define_procedure(name, len(params), [clause], index=False)
            self._metacall_cache[key] = (name, len(params))

        for i, (addr, _) in enumerate(var_addrs):
            if i >= len(self.x):
                self.x.extend([None] * 16)
            self.x[i] = ("REF", addr)
        pid = self.dictionary.intern(name, len(params))
        self.calls += 1
        self.b0 = self.b
        return self._dispatch_call(pid, len(params))

    # ===================================================== GC hook

    def _maybe_gc(self) -> None:
        if len(self.heap) > self.heap_high_water:
            self.heap_high_water = len(self.heap)
        if not self.gc_enabled:
            return
        if len(self.heap) - self._gc_floor < self.gc_threshold:
            return
        from .gc import collect_heap
        recovered = collect_heap(self)
        self.gc_runs += 1
        self.gc_cells_recovered += recovered
        self._gc_floor = len(self.heap)

    # ===================================================== misc accessors

    def counters(self) -> dict:
        out = self.optimizer.counters()
        out.update({
            "instr_count": self.instr_count,
            "data_refs": self.data_refs,
            "cp_refs": self.cp_refs,
            "cp_created": self.cp_created,
            "backtracks": self.backtracks,
            "calls": self.calls,
            "unify_ops": self.unify_ops,
            "compile_count": self.compile_count,
            "heap_high_water": self.heap_high_water,
            "gc_runs": self.gc_runs,
            "gc_cells_recovered": self.gc_cells_recovered,
        })
        if self.profiler is not None:
            out.update(self.profiler.counters())
        return out

    def reset_counters(self) -> None:
        self.optimizer.reset_counters()
        self.instr_count = 0
        self.data_refs = 0
        self.cp_refs = 0
        self.cp_created = 0
        self.backtracks = 0
        self.calls = 0
        self.unify_ops = 0
        self.compile_count = 0


def _surface_vars(term: Term) -> List[Var]:
    from ..terms import term_variables
    return term_variables(term)
