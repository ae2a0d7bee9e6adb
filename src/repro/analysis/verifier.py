"""WAM code verification: structural rules + abstract interpretation.

The structural pass (V rules) checks that a code block is well-formed
without reasoning about data flow: every instruction is a known opcode
with operands of the right shape, every jump lands inside the block,
every ``try_me_else``/``retry_me_else`` points at the next alternative
of a well-nested chain, every ``escape`` names a registered built-in,
and every dictionary reference resolves.  It is cheap (one linear scan)
and is the dynamic loader's default gate for code fetched from the EDB.

The abstract pass (A rules) interprets the instruction control-flow
graph over a small abstract state — the set of initialised X registers,
the environment (size + initialised Y slots) and the unify read/write
mode — to a fixpoint, proving no register is read before it is
written, no permanent slot escapes its ``allocate`` size, and every
``unify_*`` executes under a structure context.  The abstraction
mirrors the emulator's actual backtracking contract: a choice point
restores only argument registers ``X0..arity-1``
(:meth:`Machine._push_cp` saves ``x[:arity]``), and a ``call`` or
``escape`` invalidates temporaries (the compiler's chunk model never
carries a temporary across a goal boundary).

Rule ids are stable and documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import VerifyError
from ..wam import instructions as I
from ..wam.compiler import CompiledClause, is_builtin_indicator

__all__ = ["Finding", "RULES", "check_code", "check_clause",
           "verify_code", "verify_clause"]

#: Verifier rule glossary (ids are stable; see docs/ANALYSIS.md).
RULES: Dict[str, str] = {
    "V101": "operand shape: unknown opcode, wrong operand count, or a "
            "malformed operand (register, constant, functor id, count)",
    "V102": "jump target out of range, or an unresolved symbolic label "
            "in executable code",
    "V103": "dictionary reference (atom, functor or procedure id) does "
            "not resolve to a live dictionary entry",
    "V104": "try_me_else/retry_me_else alternative does not point at "
            "the retry_me_else/trust_me of a well-nested chain",
    "V105": "environment discipline: allocate/deallocate mismatch, or "
            "conflicting environment states at a control-flow join",
    "V106": "block termination: empty block, or the last instruction "
            "falls through past the end of the code",
    "V107": "escape target is not a registered built-in",
    "V108": "switch table malformed: bad key shape or non-dict table",
    "V109": "label pseudo-instruction present in assembled code",
    "V110": "try/retry is not followed by the retry/trust of its chain",
    "A201": "an X (temporary) register is read before any write on "
            "some executable path",
    "A202": "a Y (permanent) slot is read before any write, or its "
            "index is outside the allocated environment",
    "A203": "a permanent slot, cut barrier or get_level is touched "
            "with no environment allocated",
    "A204": "unify instruction outside a read/write-mode context (no "
            "preceding get/put_structure or get/put_list)",
    "A205": "allocate size exceeds use: a permanent slot inside the "
            "declared environment is never referenced",
    "A206": "put_unsafe_value outside the clause's final goal: a call "
            "intervenes before the environment is discarded",
}

# Terminal instructions: control never falls through to offset+1.
_TERMINATORS = frozenset({I.PROCEED, I.EXECUTE, I.FAIL_OP,
                          I.HALT_SUCCESS})
#: ops that may legally be the last instruction of a block
_VALID_LAST = _TERMINATORS | {I.TRUST, I.SWITCH_ON_TERM,
                              I.SWITCH_ON_CONSTANT, I.SWITCH_ON_STRUCTURE,
                              I.SWITCH_ON_ARG}

_REG_BOUND = 1 << 16  # sanity bound on register indices


@dataclass(frozen=True)
class Finding:
    """One verifier diagnostic: rule id, instruction offset, message."""
    rule: str
    offset: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.rule} @{self.offset}: {self.message}"


# =====================================================================
# Operand shape checking (V101)
# =====================================================================

def _is_reg(x) -> bool:
    return (isinstance(x, tuple) and len(x) == 2 and x[0] in ("x", "y")
            and isinstance(x[1], int) and not isinstance(x[1], bool)
            and 0 <= x[1] < _REG_BOUND)


def _is_xreg(x) -> bool:
    return _is_reg(x) and x[0] == "x"


def _is_yreg(x) -> bool:
    return _is_reg(x) and x[0] == "y"


def _is_const(x) -> bool:
    if not (isinstance(x, tuple) and len(x) == 2):
        return False
    tag, value = x
    if tag == "atom":
        return isinstance(value, int) and not isinstance(value, bool)
    if tag == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if tag == "flt":
        return isinstance(value, float)
    return False


def _is_fid(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_label(x) -> bool:
    # symbolic labels (strings) are shape-valid; V102 rejects them in
    # executable code separately, with a clearer message
    return isinstance(x, str) or (
        isinstance(x, int) and not isinstance(x, bool))


def _is_name(x) -> bool:
    return isinstance(x, str) and bool(x)


#: opcode -> ((checker, description), ...) for ordinary instructions;
#: the switch instructions have bespoke checks below.
_SHAPES: Dict[str, Tuple[Tuple[object, str], ...]] = {
    I.GET_VARIABLE: ((_is_reg, "register"), (_is_xreg, "argument register")),
    I.GET_VALUE: ((_is_reg, "register"), (_is_xreg, "argument register")),
    I.GET_CONSTANT: ((_is_const, "constant"), (_is_xreg, "argument register")),
    I.GET_NIL: ((_is_xreg, "argument register"),),
    I.GET_STRUCTURE: ((_is_fid, "functor id"), (_is_xreg, "argument register")),
    I.GET_LIST: ((_is_xreg, "argument register"),),
    I.PUT_VARIABLE: ((_is_reg, "register"), (_is_xreg, "argument register")),
    I.PUT_VALUE: ((_is_reg, "register"), (_is_xreg, "argument register")),
    I.PUT_UNSAFE_VALUE: ((_is_yreg, "permanent register"),
                         (_is_xreg, "argument register")),
    I.PUT_CONSTANT: ((_is_const, "constant"), (_is_xreg, "argument register")),
    I.PUT_NIL: ((_is_xreg, "argument register"),),
    I.PUT_STRUCTURE: ((_is_fid, "functor id"), (_is_xreg, "argument register")),
    I.PUT_LIST: ((_is_xreg, "argument register"),),
    I.UNIFY_VARIABLE: ((_is_reg, "register"),),
    I.UNIFY_VALUE: ((_is_reg, "register"),),
    I.UNIFY_LOCAL_VALUE: ((_is_reg, "register"),),
    I.UNIFY_CONSTANT: ((_is_const, "constant"),),
    I.UNIFY_NIL: (),
    I.UNIFY_VOID: ((_is_count, "count"),),
    I.ALLOCATE: ((_is_count, "environment size"),),
    I.DEALLOCATE: (),
    I.CALL: ((_is_fid, "procedure id"), (_is_count, "arity")),
    I.EXECUTE: ((_is_fid, "procedure id"), (_is_count, "arity")),
    I.PROCEED: (),
    I.TRY_ME_ELSE: ((_is_label, "label"),),
    I.RETRY_ME_ELSE: ((_is_label, "label"),),
    I.TRUST_ME: (),
    I.TRY: ((_is_label, "label"),),
    I.RETRY: ((_is_label, "label"),),
    I.TRUST: ((_is_label, "label"),),
    I.NECK_CUT: (),
    I.GET_LEVEL: ((_is_yreg, "permanent register"),),
    I.CUT: ((_is_yreg, "permanent register"),),
    I.ESCAPE: ((_is_name, "builtin name"), (_is_count, "arity")),
    I.FAIL_OP: (),
    I.NOOP: (),
    I.HALT_SUCCESS: (),
    I.LABEL: ((_is_name, "label name"),),
}

_SWITCH_OPS = (I.SWITCH_ON_TERM, I.SWITCH_ON_CONSTANT,
               I.SWITCH_ON_STRUCTURE)


def _switch_key_ok(op: str, key) -> bool:
    if not (isinstance(key, tuple) and len(key) == 2):
        return False
    if op == I.SWITCH_ON_STRUCTURE:
        return key[0] == "fun" and _is_fid(key[1])
    return _is_const(key)


# =====================================================================
# Structural pass
# =====================================================================

def _structural(code: List[tuple], dictionary,
                findings: List[Finding]) -> bool:
    """V rules over *code*; returns True when clean enough for the
    abstract pass to run (shape and targets all valid)."""
    n = len(code)
    if n == 0:
        findings.append(Finding("V106", 0, "empty code block"))
        return False
    sound = True

    def bad(rule: str, offset: int, message: str) -> None:
        nonlocal sound
        sound = False
        findings.append(Finding(rule, offset, message))

    for i, instr in enumerate(code):
        if not isinstance(instr, tuple) or not instr:
            bad("V101", i, f"not an instruction tuple: {instr!r}")
            continue
        op = instr[0]
        if op == I.LABEL:
            bad("V109", i, f"label pseudo-instruction {instr[1]!r} in "
                "assembled code")
            continue
        if op in _SWITCH_OPS:
            _check_switch(code, i, instr, dictionary, bad)
            continue
        if op == I.SWITCH_ON_ARG:
            _check_switch_on_arg(code, i, instr, dictionary, bad)
            continue
        shape = _SHAPES.get(op)
        if shape is None:
            bad("V101", i, f"unknown opcode {op!r}")
            continue
        if len(instr) - 1 != len(shape):
            bad("V101", i, f"{op} takes {len(shape)} operand(s), "
                f"got {len(instr) - 1}")
            continue
        for operand, (check, what) in zip(instr[1:], shape):
            if not check(operand):
                bad("V101", i, f"{op}: malformed {what} {operand!r}")
        # jump targets (V102) and chain nesting (V104/V110)
        if op in (I.TRY_ME_ELSE, I.RETRY_ME_ELSE, I.TRY, I.RETRY,
                  I.TRUST):
            target = instr[1]
            if not _target_ok(code, i, target, bad):
                continue
            if op in (I.TRY_ME_ELSE, I.RETRY_ME_ELSE):
                alt = code[target][0] if isinstance(code[target], tuple) \
                    and code[target] else None
                if alt not in (I.RETRY_ME_ELSE, I.TRUST_ME):
                    bad("V104", i, f"{op} alternative at {target} is "
                        f"{alt!r}, expected retry_me_else/trust_me")
        if op in (I.TRY, I.RETRY):
            nxt = code[i + 1][0] if (
                i + 1 < n and isinstance(code[i + 1], tuple)
                and code[i + 1]) else None
            if nxt not in (I.RETRY, I.TRUST):
                bad("V110", i, f"{op} is followed by {nxt!r}, expected "
                    "retry/trust")
        # dictionary resolvability (V103) and escape targets (V107)
        if dictionary is not None:
            if op in (I.GET_STRUCTURE, I.PUT_STRUCTURE,
                      I.CALL, I.EXECUTE):
                if _is_fid(instr[1]) and not dictionary.is_live(instr[1]):
                    bad("V103", i, f"{op}: dead dictionary id {instr[1]}")
            elif op in (I.GET_CONSTANT, I.PUT_CONSTANT, I.UNIFY_CONSTANT):
                const = instr[1]
                if (_is_const(const) and const[0] == "atom"
                        and not dictionary.is_live(const[1])):
                    bad("V103", i, f"{op}: dead atom id {const[1]}")
        if op == I.ESCAPE and _is_name(instr[1]) and _is_count(instr[2]):
            if not is_builtin_indicator(instr[1], instr[2]):
                bad("V107", i, f"escape target {instr[1]}/{instr[2]} is "
                    "not a registered builtin")

    last = code[-1]
    last_op = last[0] if isinstance(last, tuple) and last else None
    if last_op not in _VALID_LAST and last_op in _SHAPES:
        bad("V106", n - 1, f"block ends with fall-through "
            f"instruction {last_op!r}")

    # Environment discipline is a plain linear property for jump-free
    # code (single clause bodies); over blocks with control flow the
    # abstract pass enforces it path-sensitively instead.
    ops = {instr[0] for instr in code
           if isinstance(instr, tuple) and instr}
    if sound and not (ops & ({I.TRY_ME_ELSE, I.RETRY_ME_ELSE, I.TRY,
                              I.RETRY, I.TRUST, I.SWITCH_ON_ARG}
                             | set(_SWITCH_OPS))):
        env = False
        for i, instr in enumerate(code):
            op = instr[0]
            if op == I.ALLOCATE:
                if env:
                    bad("V105", i, "allocate with an environment "
                        "already allocated")
                env = True
            elif op == I.DEALLOCATE:
                if not env:
                    bad("V105", i, "deallocate with no environment "
                        "allocated")
                env = False
            elif op in (I.PROCEED, I.EXECUTE) and env:
                bad("V105", i, f"{op} with the environment still "
                    "allocated")
            if op in _TERMINATORS:
                break  # anything after is unreachable in jump-free code
    return sound


def _target_ok(code: List[tuple], i: int, target, bad) -> bool:
    if isinstance(target, str):
        bad("V102", i, f"unresolved symbolic label {target!r}")
        return False
    if not isinstance(target, int) or isinstance(target, bool) \
            or not (0 <= target < len(code)):
        bad("V102", i, f"jump target {target!r} outside "
            f"[0, {len(code)})")
        return False
    return True


def _check_switch(code: List[tuple], i: int, instr: tuple,
                  dictionary, bad) -> None:
    op = instr[0]
    if op == I.SWITCH_ON_TERM:
        if len(instr) != 5:
            bad("V101", i, f"switch_on_term takes 4 labels, "
                f"got {len(instr) - 1}")
            return
        for target in instr[1:]:
            _target_ok(code, i, target, bad)
        return
    if len(instr) != 3:
        bad("V101", i, f"{op} takes (table, default), "
            f"got {len(instr) - 1} operand(s)")
        return
    table, default = instr[1], instr[2]
    if not isinstance(table, dict):
        bad("V108", i, f"{op}: table is {type(table).__name__}, "
            "expected dict")
        return
    for key, target in table.items():
        if not _switch_key_ok(op, key):
            bad("V108", i, f"{op}: malformed key {key!r}")
        elif dictionary is not None:
            ident = key[1] if key[0] in ("atom", "fun") else None
            if ident is not None and not dictionary.is_live(ident):
                bad("V103", i, f"{op}: dead dictionary id {ident} "
                    f"in key {key!r}")
        _target_ok(code, i, target, bad)
    _target_ok(code, i, default, bad)


def _check_switch_on_arg(code: List[tuple], i: int, instr: tuple,
                         dictionary, bad) -> None:
    """switch_on_arg (argpos, {const_key: label}, lvar, lmiss)."""
    if len(instr) != 5:
        bad("V101", i, f"switch_on_arg takes (argpos, table, lvar, "
            f"lmiss), got {len(instr) - 1} operand(s)")
        return
    argpos, table, lvar, lmiss = instr[1:]
    if not _is_count(argpos):
        bad("V101", i, f"switch_on_arg: malformed argument position "
            f"{argpos!r}")
    if not isinstance(table, dict):
        bad("V108", i, f"switch_on_arg: table is "
            f"{type(table).__name__}, expected dict")
        return
    for key, target in table.items():
        if not _is_const(key):
            bad("V108", i, f"switch_on_arg: malformed key {key!r}")
        elif (dictionary is not None and key[0] == "atom"
                and not dictionary.is_live(key[1])):
            bad("V103", i, f"switch_on_arg: dead dictionary id "
                f"{key[1]} in key {key!r}")
        _target_ok(code, i, target, bad)
    _target_ok(code, i, lvar, bad)
    _target_ok(code, i, lmiss, bad)


# =====================================================================
# Abstract interpretation
# =====================================================================

@dataclass(frozen=True)
class _State:
    """Abstract machine state at one instruction offset.

    ``xs`` — initialised X registers; ``nperm``/``ys`` — environment
    size and initialised Y slots (``nperm is None`` = no environment);
    ``mode`` — inside a unify read/write-mode context.
    """
    xs: FrozenSet[int]
    nperm: Optional[int]
    ys: FrozenSet[int]
    mode: bool


def _meet(a: _State, b: _State) -> Tuple[_State, bool]:
    """Join-point meet; second value flags an environment conflict."""
    conflict = (a.nperm is None) != (b.nperm is None) or a.nperm != b.nperm
    if conflict or a.nperm is None:
        nperm, ys = None, frozenset()
    else:
        nperm, ys = a.nperm, a.ys & b.ys
    return _State(a.xs & b.xs, nperm, ys, a.mode and b.mode), conflict


class _AbstractPass:
    """Worklist fixpoint over the instruction CFG (A rules + V105)."""

    def __init__(self, code: List[tuple], arity: int,
                 findings: List[Finding]):
        self.code = code
        self.arity = arity
        self.findings = findings
        self._emitted: Set[Tuple[str, int, str]] = set()
        self.states: List[Optional[_State]] = [None] * len(code)
        self.reached: Set[int] = set()

    def emit(self, rule: str, offset: int, message: str) -> None:
        key = (rule, offset, message)
        if key not in self._emitted:
            self._emitted.add(key)
            self.findings.append(Finding(rule, offset, message))

    # ------------------------------------------------------------- run

    def run(self) -> None:
        entry = _State(frozenset(range(self.arity)), None, frozenset(),
                       False)
        self.states[0] = entry
        work = [0]
        while work:
            i = work.pop()
            state = self.states[i]
            assert state is not None
            self.reached.add(i)
            for target, succ in self._transfer(i, self.code[i], state):
                old = self.states[target]
                if old is None:
                    merged = succ
                else:
                    merged, conflict = _meet(old, succ)
                    if conflict:
                        self.emit("V105", target,
                                  "conflicting environment states at "
                                  "control-flow join")
                    if merged == old:
                        continue
                self.states[target] = merged
                work.append(target)
        self._check_permanent_liveness()

    # -------------------------------------------------------- transfer

    def _read_reg(self, reg, state: _State, i: int, op: str) -> None:
        kind, idx = reg
        if kind == "x":
            if idx not in state.xs:
                self.emit("A201", i, f"{op} reads uninitialised X{idx}")
        else:
            if state.nperm is None:
                self.emit("A203", i, f"{op} touches Y{idx} with no "
                          "environment allocated")
            elif idx >= state.nperm:
                self.emit("A202", i, f"{op} reads Y{idx} outside the "
                          f"allocated environment of size {state.nperm}")
            elif idx not in state.ys:
                self.emit("A202", i, f"{op} reads uninitialised Y{idx}")

    def _write_reg(self, reg, state: _State, i: int,
                   op: str) -> _State:
        kind, idx = reg
        if kind == "x":
            return _State(state.xs | {idx}, state.nperm, state.ys,
                          state.mode)
        if state.nperm is None:
            self.emit("A203", i, f"{op} touches Y{idx} with no "
                      "environment allocated")
            return state
        if idx >= state.nperm:
            self.emit("A202", i, f"{op} writes Y{idx} outside the "
                      f"allocated environment of size {state.nperm}")
            return state
        return _State(state.xs, state.nperm, state.ys | {idx},
                      state.mode)

    def _need_mode(self, state: _State, i: int, op: str) -> None:
        if not state.mode:
            self.emit("A204", i, f"{op} outside a read/write-mode "
                      "context")

    def _transfer(self, i: int, instr: tuple, state: _State
                  ) -> List[Tuple[int, _State]]:
        op = instr[0]
        xs, nperm, ys = state.xs, state.nperm, state.ys
        mode = False  # any non-unify instruction ends the unify context
        out: List[Tuple[int, _State]] = []

        def fall(s: _State) -> None:
            if i + 1 < len(self.code):
                out.append((i + 1, s))

        def bt_edge(target: int, s: _State) -> None:
            # Backtracking restores only the argument registers the
            # choice point saved (x[:arity]) and resets the unify mode.
            out.append((target,
                        _State(s.xs & frozenset(range(self.arity)),
                               s.nperm, s.ys, False)))

        if op in (I.GET_VARIABLE,):
            self._read_reg(instr[2], state, i, op)
            fall(self._write_reg(instr[1],
                                 _State(xs, nperm, ys, mode), i, op))
        elif op == I.GET_VALUE:
            self._read_reg(instr[1], state, i, op)
            self._read_reg(instr[2], state, i, op)
            fall(_State(xs, nperm, ys, mode))
        elif op in (I.GET_CONSTANT, I.GET_NIL):
            self._read_reg(instr[-1], state, i, op)
            fall(_State(xs, nperm, ys, mode))
        elif op in (I.GET_STRUCTURE, I.GET_LIST):
            self._read_reg(instr[-1], state, i, op)
            fall(_State(xs, nperm, ys, True))
        elif op == I.PUT_VARIABLE:
            s = self._write_reg(instr[1], _State(xs, nperm, ys, mode),
                                i, op)
            fall(self._write_reg(instr[2], s, i, op))
        elif op in (I.PUT_VALUE, I.PUT_UNSAFE_VALUE):
            self._read_reg(instr[1], state, i, op)
            fall(self._write_reg(instr[2],
                                 _State(xs, nperm, ys, mode), i, op))
        elif op in (I.PUT_CONSTANT, I.PUT_NIL):
            fall(self._write_reg(instr[-1],
                                 _State(xs, nperm, ys, mode), i, op))
        elif op in (I.PUT_STRUCTURE, I.PUT_LIST):
            fall(self._write_reg(instr[-1],
                                 _State(xs, nperm, ys, True), i, op))
        elif op == I.UNIFY_VARIABLE:
            self._need_mode(state, i, op)
            fall(self._write_reg(instr[1],
                                 _State(xs, nperm, ys, state.mode),
                                 i, op))
        elif op in (I.UNIFY_VALUE, I.UNIFY_LOCAL_VALUE):
            self._need_mode(state, i, op)
            self._read_reg(instr[1], state, i, op)
            fall(_State(xs, nperm, ys, state.mode))
        elif op in (I.UNIFY_CONSTANT, I.UNIFY_NIL, I.UNIFY_VOID):
            self._need_mode(state, i, op)
            fall(_State(xs, nperm, ys, state.mode))
        elif op == I.ALLOCATE:
            if nperm is not None:
                self.emit("V105", i, "allocate with an environment "
                          "already allocated")
            fall(_State(xs, instr[1], frozenset(), mode))
        elif op == I.DEALLOCATE:
            if nperm is None:
                self.emit("V105", i, "deallocate with no environment "
                          "allocated")
            fall(_State(xs, None, frozenset(), mode))
        elif op == I.CALL:
            for k in range(instr[2]):
                if k not in xs:
                    self.emit("A201", i, f"call reads uninitialised "
                              f"argument register X{k}")
            # the callee clobbers every temporary register
            fall(_State(frozenset(), nperm, ys, mode))
        elif op == I.ESCAPE:
            for k in range(instr[2]):
                if k not in xs:
                    self.emit("A201", i, f"escape reads uninitialised "
                              f"argument register X{k}")
            # a resumed escape generator restores only its arguments
            fall(_State(frozenset(range(instr[2])), nperm, ys, mode))
        elif op == I.EXECUTE:
            for k in range(instr[2]):
                if k not in xs:
                    self.emit("A201", i, f"execute reads uninitialised "
                              f"argument register X{k}")
            if nperm is not None:
                self.emit("V105", i, "execute with the environment "
                          "still allocated")
        elif op == I.PROCEED:
            if nperm is not None:
                self.emit("V105", i, "proceed with the environment "
                          "still allocated")
        elif op in (I.FAIL_OP, I.HALT_SUCCESS):
            pass  # terminal; backtracking discards the frame
        elif op in (I.TRY_ME_ELSE, I.RETRY_ME_ELSE):
            s = _State(xs, nperm, ys, mode)
            fall(s)
            bt_edge(instr[1], s)
        elif op == I.TRUST_ME:
            fall(_State(xs, nperm, ys, mode))
        elif op in (I.TRY, I.RETRY):
            s = _State(xs, nperm, ys, mode)
            out.append((instr[1], s))
            bt_edge(i + 1, s)
        elif op == I.TRUST:
            out.append((instr[1], _State(xs, nperm, ys, mode)))
        elif op == I.SWITCH_ON_TERM:
            if self.arity < 1:
                self.emit("A201", i, "switch_on_term reads X0 of a "
                          "0-ary procedure")
            s = _State(xs, nperm, ys, mode)
            for target in instr[1:]:
                out.append((target, s))
        elif op in (I.SWITCH_ON_CONSTANT, I.SWITCH_ON_STRUCTURE):
            if self.arity < 1:
                self.emit("A201", i, f"{op} reads X0 of a 0-ary "
                          "procedure")
            s = _State(xs, nperm, ys, mode)
            for target in instr[1].values():
                out.append((target, s))
            out.append((instr[2], s))
        elif op == I.SWITCH_ON_ARG:
            if instr[1] not in xs:
                self.emit("A201", i, f"switch_on_arg reads "
                          f"uninitialised X{instr[1]}")
            s = _State(xs, nperm, ys, mode)
            for target in instr[2].values():
                out.append((target, s))
            out.append((instr[3], s))
            out.append((instr[4], s))
        elif op == I.GET_LEVEL:
            fall(self._write_reg(instr[1],
                                 _State(xs, nperm, ys, mode), i, op))
        elif op == I.CUT:
            self._read_reg(instr[1], state, i, op)
            fall(_State(xs, nperm, ys, mode))
        elif op in (I.NECK_CUT, I.NOOP):
            fall(_State(xs, nperm, ys, mode))
        else:  # pragma: no cover - structural pass rejects these first
            fall(_State(xs, nperm, ys, mode))
        return out

    # -------------------------------------------- linear-region checks

    def _check_permanent_liveness(self) -> None:
        """A205/A206 over each allocate's linear region.  Clause bodies
        are linear (control constructs compile to auxiliary
        procedures), so a forward scan to the region's terminator sees
        exactly the permanent references of that environment."""
        code = self.code
        stop = _TERMINATORS | {I.TRY, I.RETRY, I.TRUST, I.TRUST_ME,
                               I.TRY_ME_ELSE, I.RETRY_ME_ELSE,
                               I.SWITCH_ON_ARG} | \
            set(_SWITCH_OPS)
        for i, instr in enumerate(code):
            if instr[0] == I.ALLOCATE and i in self.reached:
                nperm = instr[1]
                used: Set[int] = set()
                unsafe_at: List[int] = []
                for j in range(i + 1, len(code)):
                    op = code[j][0]
                    if op == I.DEALLOCATE or op in stop:
                        break
                    if op == I.CALL and unsafe_at:
                        for at in unsafe_at:
                            self.emit("A206", at,
                                      "put_unsafe_value before an "
                                      "intervening call: the unsafe "
                                      "binding must feed the final "
                                      "goal only")
                        unsafe_at = []
                    if op == I.PUT_UNSAFE_VALUE:
                        unsafe_at.append(j)
                    used.update(operand[1] for operand in code[j][1:]
                                if _is_yreg(operand))
                dead = sorted(set(range(nperm)) - used)
                if dead:
                    self.emit("A205", i,
                              f"allocate {nperm}: permanent slot(s) "
                              f"{dead} never referenced")


# =====================================================================
# Entry points
# =====================================================================

def check_code(code: List[tuple], *, arity: Optional[int] = None,
               dictionary=None, level: str = "full") -> List[Finding]:
    """Verify one assembled code block; return every finding.

    ``level="structural"`` runs the V rules only; ``"full"`` adds the
    abstract interpretation (A rules) when *arity* is known.  The
    abstract pass only runs over structurally sound code — dataflow
    over malformed instructions would chase noise.
    """
    if level not in ("structural", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    findings: List[Finding] = []
    sound = _structural(list(code), dictionary, findings)
    if level == "full" and sound and arity is not None:
        _AbstractPass(list(code), arity, findings).run()
    return findings


def check_clause(clause: CompiledClause, dictionary=None,
                 level: str = "full") -> List[Finding]:
    """Verify one compiled clause's code (arity from the clause)."""
    return check_code(clause.code, arity=clause.arity,
                      dictionary=dictionary, level=level)


def verify_code(code: List[tuple], *, arity: Optional[int] = None,
                dictionary=None, level: str = "full",
                procedure: str = "") -> None:
    """As :func:`check_code`, raising :class:`VerifyError` on the first
    finding (the loader's rejection path)."""
    findings = check_code(code, arity=arity, dictionary=dictionary,
                          level=level)
    if findings:
        first = findings[0]
        raise VerifyError(first.rule, first.offset, first.message,
                          procedure)


def verify_clause(clause: CompiledClause, dictionary=None,
                  level: str = "full", procedure: str = "") -> None:
    findings = check_clause(clause, dictionary=dictionary, level=level)
    if findings:
        first = findings[0]
        raise VerifyError(first.rule, first.offset, first.message,
                          procedure)
