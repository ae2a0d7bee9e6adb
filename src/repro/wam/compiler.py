"""Term-oriented clause compiler (paper §2.1, §3.1).

Compiles surface clauses into WAM instruction tuples: one ``get``/``put``/
``unify`` instruction per Prolog term, plus control instructions for
procedure calls, backtracking and cut.

Design decisions (documented deviations from the letter of Warren's
machine, none observable in behaviour):

* ``put_variable`` always allocates the fresh variable **on the heap**,
  including for permanent (Y) variables.  This removes the entire
  unsafe-variable problem: ``put_unsafe_value`` and ``unify_local_value``
  degenerate to their plain ``value`` forms.  Several production systems
  make the same trade (slightly more heap, no dangling stack refs).
* Control constructs — ``;/2``, ``->/2``, ``\\+/1`` — are compiled by
  extraction into auxiliary procedures (``$aux_k``) with the construct's
  variables as arguments, the classic source-to-source scheme.
* Cut: any clause containing ``!`` gets an environment with a reserved
  permanent slot holding the choice-point level saved by ``get_level``;
  each ``!`` becomes ``cut Yk``.

A variable is *permanent* when it occurs in more than one body chunk
(head + first body goal form one chunk); permanents live in Y slots, all
other variables get a unique X register above the argument registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dictionary import SegmentedDictionary
from ..errors import TypeError_
from ..terms import NIL, Atom, Struct, Term, Var, deref
from . import instructions as I

# Predicates implemented by machine escapes; the compiler routes goals with
# these indicators through the ESCAPE instruction.  (Populated by
# machine.builtins at import time via register_builtin_indicator.)
_BUILTIN_INDICATORS: set = set()


def register_builtin_indicator(name: str, arity: int) -> None:
    _BUILTIN_INDICATORS.add((name, arity))


def is_builtin_indicator(name: str, arity: int) -> bool:
    return (name, arity) in _BUILTIN_INDICATORS


# When true, every compiled clause is verified (structural + abstract,
# :mod:`repro.analysis.verifier`) before it leaves the compiler.  The
# test suite enables it via :func:`repro.analysis.enable_self_verify`.
_SELF_VERIFY = False


def set_self_verify(enabled: bool) -> None:
    global _SELF_VERIFY
    _SELF_VERIFY = bool(enabled)


def self_verify_enabled() -> bool:
    return _SELF_VERIFY


@dataclass
class CompiledClause:
    """One compiled clause plus the metadata indexing needs."""

    code: List[tuple]
    head_name: str
    arity: int
    #: per-argument (kind, key) for *every* head position, the only
    #: stored index metadata: kind is 'var' | 'constant' | 'nil' |
    #: 'list' | 'structure', key is ('atom', id) | ('int', v) |
    #: ('flt', v) | ('fun', fid) | None.  Clause grouping on any
    #: position goes through :func:`repro.wam.indexing.partition_clauses`.
    arg_keys: Tuple[Tuple[str, Optional[tuple]], ...]
    nvars: int = 0

    @property
    def first_arg_kind(self) -> str:
        return self.arg_keys[0][0] if self.arg_keys else "var"

    @property
    def first_arg_key(self) -> Optional[tuple]:
        return self.arg_keys[0][1] if self.arg_keys else None


class CompileContext:
    """Shared compilation state: the dictionary and an aux-procedure sink.

    ``define_procedure(name, arity, clauses)`` is called for every
    auxiliary predicate the compiler synthesises for control constructs;
    the machine registers and compiles them like user procedures.
    """

    # Process-wide counter: auxiliary names must be unique across every
    # context (main-memory compiles and EDB stores share a namespace).
    _aux_counter = 0

    def __init__(
        self,
        dictionary: SegmentedDictionary,
        define_procedure: Optional[Callable[[str, int, list], None]] = None,
    ):
        self.dictionary = dictionary
        self.define_procedure = define_procedure or (lambda n, a, c: None)

    def fresh_aux_name(self) -> str:
        CompileContext._aux_counter += 1
        return f"$aux_{CompileContext._aux_counter}"

    def intern(self, name: str, arity: int) -> int:
        return self.dictionary.intern(name, arity)


def split_clause(clause: Term) -> Tuple[Term, List[Term]]:
    """Split ``Head :- Body`` into (head, [goal...]); facts get []."""
    clause = deref(clause)
    if isinstance(clause, Struct) and clause.indicator == (":-", 2):
        head = deref(clause.args[0])
        body = _flatten_conj(clause.args[1])
    else:
        head = clause
        body = []
    if not isinstance(head, (Atom, Struct)):
        raise TypeError_("callable head", head)
    return head, body


def _flatten_conj(goal: Term) -> List[Term]:
    goal = deref(goal)
    if isinstance(goal, Struct) and goal.indicator == (",", 2):
        return _flatten_conj(goal.args[0]) + _flatten_conj(goal.args[1])
    if goal is Atom("true"):
        return []
    return [goal]


def _goal_vars(term: Term, acc: Optional[dict] = None) -> dict:
    """Ordered {id(var): var} of variables in *term*."""
    if acc is None:
        acc = {}
    term = deref(term)
    if isinstance(term, Var):
        acc.setdefault(id(term), term)
    elif isinstance(term, Struct):
        for a in term.args:
            _goal_vars(a, acc)
    return acc


class ClauseCompiler:
    """Compiles one clause at a time within a :class:`CompileContext`."""

    CUT_ATOM = Atom("!")

    def __init__(self, context: CompileContext):
        self.ctx = context

    # ------------------------------------------------------------- top level

    def compile_clause(self, clause: Term) -> CompiledClause:
        head, body = split_clause(clause)
        body = self._preprocess_body(body)

        head_args: Sequence[Term] = head.args if isinstance(head, Struct) else ()
        arity = len(head_args)
        goals = body

        has_cut = any(deref(g) is self.CUT_ATOM for g in goals)
        perm_vars = self._permanent_vars(head_args, goals)

        # call/N transfers control from inside an escape by overwriting
        # the continuation register; the clause must have an environment
        # so deallocate restores the caller's continuation afterwards.
        has_transfer = any(
            isinstance(deref(g), Struct)
            and deref(g).name == "call"
            and is_builtin_indicator("call", deref(g).arity)
            for g in goals
        )

        # Environment needed for multi-goal bodies, permanents, or cut.
        needs_env = (len(goals) > 1 or bool(perm_vars) or has_cut
                     or has_transfer)

        state = _ClauseState(
            ctx=self.ctx,
            arity=arity,
            goals=goals,
            perm_index={vid: i for i, vid in enumerate(perm_vars)},
            cut_slot=len(perm_vars) if has_cut else None,
            temp_base=self._temp_base(arity, goals),
        )

        code: List[tuple] = []
        nperm = len(perm_vars) + (1 if has_cut else 0)
        if needs_env:
            code.append((I.ALLOCATE, nperm))
            if has_cut:
                code.append((I.GET_LEVEL, ("y", state.cut_slot)))

        # Head argument unification: one instruction per term (§2.1).
        for i, arg in enumerate(head_args):
            self._compile_head_arg(state, code, arg, i)

        # Body.
        if not goals:
            code.append((I.PROCEED,))
        else:
            for pos, goal in enumerate(goals):
                last = pos == len(goals) - 1
                self._compile_goal(state, code, goal, last, needs_env)

        name = head.name if isinstance(head, Struct) else head.name
        compiled = CompiledClause(
            code=code,
            head_name=name,
            arity=arity,
            arg_keys=tuple(self._arg_index_key(arg) for arg in head_args),
            nvars=len(perm_vars) + len(state.temp_index),
        )
        if _SELF_VERIFY:
            from ..analysis.verifier import verify_clause
            verify_clause(compiled, dictionary=self.ctx.dictionary,
                          procedure=f"{name}/{arity}")
        return compiled

    # ------------------------------------------------- control preprocessing

    def _preprocess_body(self, goals: List[Term]) -> List[Term]:
        out: List[Term] = []
        for goal in goals:
            out.extend(self._preprocess_goal(goal))
        return out

    def _preprocess_goal(self, goal: Term) -> List[Term]:
        goal = deref(goal)
        if isinstance(goal, Var):
            return [Struct("call", (goal,))]
        if isinstance(goal, Struct):
            ind = goal.indicator
            if ind == (",", 2):
                return (
                    self._preprocess_goal(goal.args[0])
                    + self._preprocess_goal(goal.args[1])
                )
            if ind == (";", 2):
                return [self._extract_disjunction(goal)]
            if ind == ("->", 2):
                # Bare if-then == (C -> T ; fail).
                return [self._extract_disjunction(
                    Struct(";", (goal, Atom("fail"))))]
            if ind in (("\\+", 1), ("not", 1)):
                return [self._extract_negation(goal.args[0])]
        return [goal]

    def _construct_args(self, construct: Term) -> List[Var]:
        return list(_goal_vars(construct).values())

    def _extract_disjunction(self, goal: Struct) -> Term:
        """(A ; B) [with -> arms] becomes a fresh auxiliary procedure."""
        args = self._construct_args(goal)
        name = self.ctx.fresh_aux_name()
        clauses: List[Term] = []
        head = self._make_goal(name, args)
        for branch in self._flatten_disj(goal):
            branch = deref(branch)
            if isinstance(branch, Struct) and branch.indicator == ("->", 2):
                cond, then = branch.args
                body = Struct(",", (cond, Struct(",", (Atom("!"), then))))
                clauses.append(Struct(":-", (head, body)))
            elif branch is Atom("fail"):
                continue
            else:
                clauses.append(Struct(":-", (head, branch)))
        if not clauses:  # e.g. (C -> T ; fail) with no else and fail arms
            clauses.append(Struct(":-", (head, Atom("fail"))))
        self.ctx.define_procedure(name, len(args), clauses)
        return self._make_goal(name, args)

    def _flatten_disj(self, goal: Term) -> List[Term]:
        goal = deref(goal)
        if isinstance(goal, Struct) and goal.indicator == (";", 2):
            left = deref(goal.args[0])
            # (C -> T ; E): the arrow binds to this disjunction only.
            if isinstance(left, Struct) and left.indicator == ("->", 2):
                return [left] + self._flatten_disj(goal.args[1])
            return self._flatten_disj(goal.args[0]) + self._flatten_disj(
                goal.args[1])
        return [goal]

    def _extract_negation(self, inner: Term) -> Term:
        args = self._construct_args(inner)
        name = self.ctx.fresh_aux_name()
        head = self._make_goal(name, args)
        clauses = [
            Struct(":-", (head, Struct(",", (
                inner, Struct(",", (Atom("!"), Atom("fail"))))))),
            head if not args else Struct(
                name, tuple(Var() for _ in args)),
        ]
        self.ctx.define_procedure(name, len(args), clauses)
        return self._make_goal(name, args)

    @staticmethod
    def _make_goal(name: str, args: List[Var]) -> Term:
        if not args:
            return Atom(name)
        return Struct(name, tuple(args))

    # -------------------------------------------------------- var assignment

    def _permanent_vars(
        self, head_args: Sequence[Term], goals: List[Term]
    ) -> List[int]:
        """ids of variables occurring in >1 chunk (head+goal1 = chunk one)."""
        chunks: List[dict] = []
        first: dict = {}
        for arg in head_args:
            _goal_vars(arg, first)
        if goals:
            _goal_vars(goals[0], first)
        chunks.append(first)
        for goal in goals[1:]:
            chunks.append(_goal_vars(goal))
        counts: Dict[int, int] = {}
        order: List[int] = []
        for chunk in chunks:
            for vid in chunk:
                if vid not in counts:
                    counts[vid] = 0
                    order.append(vid)
                counts[vid] += 1
        return [vid for vid in order if counts[vid] > 1]

    @staticmethod
    def _temp_base(arity: int, goals: List[Term]) -> int:
        m = arity
        for goal in goals:
            goal = deref(goal)
            if isinstance(goal, Struct):
                m = max(m, goal.arity)
        return m

    # ----------------------------------------------------------- head codegen

    def _compile_head_arg(self, st: "_ClauseState", code: List[tuple],
                          arg: Term, position: int) -> None:
        arg = deref(arg)
        ai = ("x", position)
        if isinstance(arg, Var):
            reg, first = st.var_register(arg)
            code.append((I.GET_VARIABLE if first else I.GET_VALUE, reg, ai))
            return
        if isinstance(arg, Atom):
            if arg is NIL:
                code.append((I.GET_NIL, ai))
            else:
                code.append((I.GET_CONSTANT, st.const(arg), ai))
            return
        if isinstance(arg, (int, float)):
            code.append((I.GET_CONSTANT, st.const(arg), ai))
            return
        assert isinstance(arg, Struct)
        queue: List[Tuple[tuple, Struct]] = []
        self._head_structure(st, code, arg, ai, queue)
        while queue:
            reg, sub = queue.pop(0)
            self._head_structure(st, code, sub, reg, queue)

    def _head_structure(self, st: "_ClauseState", code: List[tuple],
                        term: Struct, reg: tuple,
                        queue: List[Tuple[tuple, Struct]]) -> None:
        if term.indicator == (".", 2):
            code.append((I.GET_LIST, reg))
        else:
            fid = st.functor(term)
            code.append((I.GET_STRUCTURE, fid, reg))
        for sub in term.args:
            sub = deref(sub)
            if isinstance(sub, Var):
                sreg, first = st.var_register(sub)
                code.append(
                    (I.UNIFY_VARIABLE if first else I.UNIFY_VALUE, sreg))
            elif isinstance(sub, Atom):
                if sub is NIL:
                    code.append((I.UNIFY_NIL,))
                else:
                    code.append((I.UNIFY_CONSTANT, st.const(sub)))
            elif isinstance(sub, (int, float)):
                code.append((I.UNIFY_CONSTANT, st.const(sub)))
            else:
                assert isinstance(sub, Struct)
                fresh = st.fresh_temp()
                code.append((I.UNIFY_VARIABLE, fresh))
                queue.append((fresh, sub))

    # ----------------------------------------------------------- body codegen

    def _compile_goal(self, st: "_ClauseState", code: List[tuple],
                      goal: Term, last: bool, has_env: bool) -> None:
        goal = deref(goal)

        if goal is self.CUT_ATOM:
            code.append((I.CUT, ("y", st.cut_slot)))
            if last:
                self._epilogue(code, has_env)
            return
        if goal is Atom("true"):
            if last:
                self._epilogue(code, has_env)
            return
        if goal is Atom("fail") or goal is Atom("false"):
            code.append((I.FAIL_OP,))
            return

        name, arity, args = self._goal_parts(goal)

        # Load argument registers.
        for i, arg in enumerate(args):
            self._compile_put(st, code, arg, i)

        if is_builtin_indicator(name, arity):
            code.append((I.ESCAPE, name, arity))
            if last:
                self._epilogue(code, has_env)
            return

        pid = self.ctx.intern(name, arity)
        if last:
            if has_env:
                code.append((I.DEALLOCATE,))
            code.append((I.EXECUTE, pid, arity))
        else:
            code.append((I.CALL, pid, arity))

    @staticmethod
    def _epilogue(code: List[tuple], has_env: bool) -> None:
        if has_env:
            code.append((I.DEALLOCATE,))
        code.append((I.PROCEED,))

    @staticmethod
    def _goal_parts(goal: Term) -> Tuple[str, int, Sequence[Term]]:
        if isinstance(goal, Atom):
            return goal.name, 0, ()
        if isinstance(goal, Struct):
            return goal.name, goal.arity, goal.args
        raise TypeError_("callable goal", goal)

    def _compile_put(self, st: "_ClauseState", code: List[tuple],
                     arg: Term, position: int) -> None:
        arg = deref(arg)
        ai = ("x", position)
        if isinstance(arg, Var):
            reg, first = st.var_register(arg)
            code.append((I.PUT_VARIABLE if first else I.PUT_VALUE, reg, ai))
            return
        if isinstance(arg, Atom):
            if arg is NIL:
                code.append((I.PUT_NIL, ai))
            else:
                code.append((I.PUT_CONSTANT, st.const(arg), ai))
            return
        if isinstance(arg, (int, float)):
            code.append((I.PUT_CONSTANT, st.const(arg), ai))
            return
        assert isinstance(arg, Struct)
        self._put_structure(st, code, arg, ai)

    def _put_structure(self, st: "_ClauseState", code: List[tuple],
                       term: Struct, target: tuple) -> None:
        """Bottom-up structure construction: children first."""
        child_regs: List[Optional[tuple]] = []
        for sub in term.args:
            sub = deref(sub)
            if isinstance(sub, Struct):
                fresh = st.fresh_temp()
                self._put_structure(st, code, sub, fresh)
                child_regs.append(fresh)
            else:
                child_regs.append(None)
        if term.indicator == (".", 2):
            code.append((I.PUT_LIST, target))
        else:
            code.append((I.PUT_STRUCTURE, st.functor(term), target))
        for sub, creg in zip(term.args, child_regs):
            sub = deref(sub)
            if creg is not None:
                code.append((I.UNIFY_VALUE, creg))
            elif isinstance(sub, Var):
                reg, first = st.var_register(sub)
                code.append(
                    (I.UNIFY_VARIABLE if first else I.UNIFY_VALUE, reg))
            elif isinstance(sub, Atom):
                if sub is NIL:
                    code.append((I.UNIFY_NIL,))
                else:
                    code.append((I.UNIFY_CONSTANT, st.const(sub)))
            else:
                code.append((I.UNIFY_CONSTANT, st.const(sub)))

    # -------------------------------------------------------------- indexing

    def _arg_index_key(self, arg: Term) -> Tuple[str, Optional[tuple]]:
        """(kind, key) of one head argument — position 0 drives the
        first-argument switch (§3.2.2), the full tuple drives the
        optimizer's per-argument chain demotion."""
        arg = deref(arg)
        if isinstance(arg, Var):
            return ("var", None)
        if arg is NIL:
            return ("nil", ("atom", self.ctx.intern("[]", 0)))
        if isinstance(arg, Atom):
            return ("constant", ("atom", self.ctx.intern(arg.name, 0)))
        if isinstance(arg, int):
            return ("constant", ("int", arg))
        if isinstance(arg, float):
            return ("constant", ("flt", arg))
        assert isinstance(arg, Struct)
        if arg.indicator == (".", 2):
            return ("list", None)
        return ("structure",
                ("fun", self.ctx.intern(arg.name, arg.arity)))


class _ClauseState:
    """Per-clause register-allocation state."""

    def __init__(self, ctx: CompileContext, arity: int, goals: list,
                 perm_index: Dict[int, int], cut_slot: Optional[int],
                 temp_base: int):
        self.ctx = ctx
        self.arity = arity
        self.goals = goals
        self.perm_index = perm_index
        self.cut_slot = cut_slot
        self.temp_index: Dict[int, int] = {}
        self._next_temp = temp_base

    def var_register(self, var: Var) -> Tuple[tuple, bool]:
        """(register, is_first_occurrence) for *var*."""
        vid = id(var)
        if vid in self.perm_index:
            slot = self.perm_index[vid]
            first = vid not in self.temp_index
            self.temp_index.setdefault(vid, -1)  # mark seen
            return (("y", slot), first)
        if vid in self.temp_index:
            return (("x", self.temp_index[vid]), False)
        reg = self._next_temp
        self._next_temp += 1
        self.temp_index[vid] = reg
        return (("x", reg), True)

    def fresh_temp(self) -> tuple:
        reg = self._next_temp
        self._next_temp += 1
        return ("x", reg)

    def const(self, value: Term) -> tuple:
        if isinstance(value, Atom):
            return ("atom", self.ctx.intern(value.name, 0))
        if isinstance(value, int):
            return ("int", value)
        if isinstance(value, float):
            return ("flt", value)
        raise TypeError_("constant", value)

    def functor(self, term: Struct) -> int:
        return self.ctx.intern(term.name, term.arity)


def compile_clause(clause: Term, context: CompileContext) -> CompiledClause:
    """Convenience wrapper: compile one clause in *context*."""
    return ClauseCompiler(context).compile_clause(clause)


def compile_procedure(clauses: List[Term], context: CompileContext,
                      index: bool = True) -> List[tuple]:
    """Compile a whole procedure: clause code + choice instructions +
    first-argument indexing (see :mod:`repro.wam.indexing`)."""
    from .indexing import build_procedure_code  # cycle-free late import

    compiled = [compile_clause(c, context) for c in clauses]
    return build_procedure_code(compiled, index=index)
