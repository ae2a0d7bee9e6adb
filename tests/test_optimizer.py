"""WAM optimizer: determinism-driven dispatch.

The correctness net behind docs/OPTIMIZER.md:

* unit tests for the clause partition behind ``Optimizer.plan_guard``;
* execution tests for ``switch_on_arg`` dispatch (hit / miss /
  unbound);
* the corpus differential suite — every ``tests/corpus/*.pl`` program
  and the E1/E7/E8 workloads run under ``optimize="off"`` and
  ``"full"`` with identical answers, order and errors, plus pinned
  expected answers for representative goals;
* golden-file regression listings (before/after disassembly) for a
  dozen representative procedures, regenerated with
  ``REPRO_REGEN_GOLDEN=1``; a procedure without a guard lists the
  same code at both levels;
* negative paths: the armed-fault reject (F901), verifier and D301
  gate rejections, and the proof that a rejected block falls back to
  exactly the unoptimized code — unverified optimized code never runs.
"""

import importlib.util
import os
import pathlib

import pytest

from repro import EduceStar, measure, term_to_text
from repro.errors import VerifyError
from repro.obs import render_prometheus
from repro.wam import instructions as I
from repro.wam.compiler import CompiledClause
from repro.wam.indexing import (build_procedure_code, build_procedure_layout,
                                partition_clauses)
from repro.wam.machine import Machine
from repro.wam.optimizer import (OPT_LEVELS, Optimizer,
                                 build_optimized_block, default_level)

TESTS_DIR = pathlib.Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
GOLDEN_DIR = CORPUS_DIR / "golden"

A = ("atom", 1)
B = ("atom", 2)
C = ("atom", 3)


# ------------------------------------------------------------------ helpers

def collect(engine, goal, limit=50):
    """``(rendered answers in order, exception class name or None)``."""
    rendered, err = [], None
    try:
        for sol in engine.solve(goal, limit=limit):
            rendered.append(tuple(sorted(
                (name, term_to_text(value))
                for name, value in sol.bindings.items())))
    except Exception as exc:          # differential: compare error types
        err = type(exc).__name__
    return rendered, err


def opcodes(code):
    return {instr[0] for instr in code}


def consulted_procedures(machine, text):
    """Consult *text*; return its procedures sorted by indicator."""
    before = set(machine.procedures)
    machine.consult(text)
    fresh = [proc for pid, proc in machine.procedures.items()
             if pid not in before and not proc.name.startswith("$")]
    return sorted(fresh, key=lambda p: (p.name, p.arity))


def open_goal(name, arity):
    if arity == 0:
        return name
    return f"{name}({', '.join(f'Z{i}' for i in range(arity))})"


# =====================================================================
# Unit tests — clause partition and guard planning
# =====================================================================

def _clause(*arg_keys, head_name="p"):
    return CompiledClause(code=[], head_name=head_name,
                          arity=len(arg_keys), arg_keys=arg_keys)


def _const(v):
    return ("constant", v)


VAR = ("var", None)
LIST = ("list", None)


class TestPartitionClauses:
    def test_groups_in_first_appearance_order(self):
        F = ("fun", 9)
        clauses = [_clause(_const(B)), _clause(VAR), _clause(_const(A)),
                   _clause(LIST), _clause(("structure", F)),
                   _clause(_const(B)), _clause(LIST), _clause(VAR)]
        part = partition_clauses(clauses, 0)
        assert list(part.groups.items()) == [
            (("constant", B), [0, 5]), (("constant", A), [2]),
            (("structure", F), [4])]
        assert part.var_positions == [1, 7]
        assert part.list_positions == [3, 6]

    def test_nil_folds_into_constants(self):
        # the loader's facts path keys [] as a constant, the compiler
        # as nil: both land in one group, as in the switch table
        clauses = [_clause(("nil", A)), _clause(_const(A)),
                   _clause(_const(B))]
        assert partition_clauses(clauses, 0).groups == {
            ("constant", A): [0, 1], ("constant", B): [2]}

    def test_positions_and_argpos_select_the_chain(self):
        clauses = [_clause(_const(A), _const(C)),
                   _clause(_const(A), VAR),
                   _clause(_const(B), _const(C))]
        part = partition_clauses(clauses, 1, [2, 1])
        assert part.groups == {("constant", C): [2]}
        assert part.var_positions == [1]
        assert partition_clauses(clauses, 0, []).groups == {}

    def test_switch_tables_nil_atoms_and_vars(self):
        """[] and atom keys mixed with a variable-headed clause: the
        pinned listing of the first-argument switch."""
        m = Machine(optimize="off")
        m.consult("p([], a). p(X, b). p(x, c). p([], d). p(y, e). "
                  "p(x, f).")
        clauses = m.procedure("p", 2).compiled
        layout = build_procedure_layout(clauses)
        code, entries = layout.code, layout.entries
        nil, x, y = (("atom", m.dictionary.lookup(name, 0))
                     for name in ("[]", "x", "y"))
        # lists, structures and unknown constants reach clause 1 alone
        assert entries[1] == 15
        assert code[0] == (I.SWITCH_ON_TERM, 10, 1, 15, 15)
        assert code[1] == (I.SWITCH_ON_CONSTANT, {nil: 2, x: 5, y: 8}, 15)
        assert list(code[1][1]) == [nil, x, y]

        def chain(offset):
            targets = []
            while True:
                op, target = code[offset]
                targets.append(entries.index(target))
                if op == I.TRUST:
                    return targets
                offset += 1

        assert [chain(t) for t in code[1][1].values()] == [
            [0, 1, 3], [1, 2, 5], [1, 4]]


class TestChainGuard:
    """The local pairwise-distinct-constants proof of
    :meth:`Optimizer.plan_guard`, as ``(argpos, {key: position})``."""

    @staticmethod
    def guard(clauses, positions, min_arg):
        plan = Optimizer("full").plan_guard(clauses, positions, min_arg)
        if plan is None:
            return None
        assert plan.var_positions == () and not plan.mode_driven
        return plan.argpos, {key: pos for key, (pos,) in plan.table.items()}

    def test_distinct_constants_guard(self):
        clauses = [_clause(_const(A)), _clause(_const(B))]
        assert self.guard(clauses, [0, 1], min_arg=0) == (0, {A: 0, B: 1})

    def test_duplicate_constants_rejected(self):
        clauses = [_clause(_const(A)), _clause(_const(A))]
        assert self.guard(clauses, [0, 1], min_arg=0) is None

    def test_later_position_used_when_first_dup(self):
        clauses = [_clause(_const(A), _const(B)),
                   _clause(_const(A), _const(C))]
        assert self.guard(clauses, [0, 1], min_arg=0) == (1, {B: 0, C: 1})

    def test_min_arg_skips_first_position(self):
        clauses = [_clause(_const(A), _const(B)),
                   _clause(_const(C), _const(B))]
        assert self.guard(clauses, [0, 1], min_arg=1) is None
        assert self.guard(clauses, [0, 1], min_arg=0) == (0, {A: 0, C: 1})

    def test_var_argument_blocks_position(self):
        clauses = [_clause(VAR), _clause(_const(B))]
        assert self.guard(clauses, [0, 1], min_arg=0) is None

    def test_structure_argument_blocks_position(self):
        clauses = [_clause(("structure", ("fun", 4))), _clause(_const(B))]
        assert self.guard(clauses, [0, 1], min_arg=0) is None

    def test_nil_counts_as_constant(self):
        clauses = [_clause(("nil", A)), _clause(_const(B))]
        assert self.guard(clauses, [0, 1], min_arg=0) == (0, {A: 0, B: 1})

    def test_missing_metadata_rejected(self):
        # per-argument keys are required: no clause can lack them
        with pytest.raises(TypeError):
            CompiledClause(code=[], head_name="p", arity=1)

    def test_single_clause_chain_rejected(self):
        assert self.guard([_clause(_const(A))], [0], min_arg=0) is None

    def test_table_maps_to_chain_positions(self):
        clauses = [_clause(_const(A)), _clause(_const(B)),
                   _clause(_const(C))]
        # positions select a sub-chain; the table maps back to them
        guard = self.guard(clauses, [2, 0], min_arg=0)
        assert guard == (0, {C: 2, A: 0})
        assert list(guard[1]) == [C, A]

    def test_local_proof_counts_a_demotion(self):
        optimizer = Optimizer("full")
        clauses = [_clause(_const(A)), _clause(_const(B))]
        optimizer.plan_guard(clauses, [0, 1], 0)
        with optimizer.muted():
            optimizer.plan_guard(clauses, [0, 1], 0)
        assert optimizer.chains_demoted == 1


# =====================================================================
# Optimized execution semantics
# =====================================================================

def machines(program, **kw):
    """The same program consulted at every level."""
    out = {}
    for level in OPT_LEVELS:
        m = Machine(optimize=level, **kw)
        m.consult(program)
        out[level] = m
    return out

def assert_agree(ms, goal, limit=50):
    results = {level: collect(m, goal, limit=limit)
               for level, m in ms.items()}
    baseline = results["off"]
    for level, got in results.items():
        assert got == baseline, (
            f"{goal}: optimize={level} diverged:\n"
            f"  off : {baseline}\n  {level}: {got}")
    return baseline


class TestOptimizedExecution:
    def test_switch_on_arg_hit_miss_unbound(self):
        ms = machines("age(alice, 30). age(bob, 31). age(carol, 32).")
        assert ms["full"].optimizer.chains_demoted > 0
        hit = assert_agree(ms, "age(P, 31)")
        assert hit == ([(("P", "bob"),)], None)
        assert assert_agree(ms, "age(P, 99)") == ([], None)     # table miss
        assert assert_agree(ms, "age(P, [x])") == ([], None)    # list → miss
        unbound = assert_agree(ms, "age(P, N)")                  # var path
        assert [dict(a)["P"] for a in unbound[0]] == \
            ["alice", "bob", "carol"]

    def test_switch_on_arg_inside_multiclause_key(self):
        # key 'paris' selects a 2-clause chain; arg 1 disambiguates it
        ms = machines("road(paris, lyon). road(paris, nice). "
                      "road(lyon, nice).")
        assert_agree(ms, "road(paris, nice)")
        assert_agree(ms, "road(paris, X)")
        assert_agree(ms, "road(X, nice)")

    def test_unindexed_chain_demotion(self):
        program = "".join(f"item(k{i}, {i}). " for i in range(50))
        ms = machines(program, index=False)
        stats = {}
        for level, m in ms.items():
            with measure(m) as meas:
                for i in (0, 13, 37, 49):
                    assert collect(m, f"item(k{i}, V)") == \
                        ([(("V", str(i)),)], None)
            stats[level] = meas
        assert stats["full"]["cp_created"] < stats["off"]["cp_created"]
        assert stats["full"]["instr_count"] < stats["off"]["instr_count"]

    def test_set_optimize_rebuilds_at_runtime(self):
        m = Machine(optimize="off")
        m.consult("age(alice, 30). age(bob, 31). age(carol, 32).")
        code_off = list(m.procedure("age", 2).code)
        assert I.SWITCH_ON_ARG not in opcodes(code_off)
        m.set_optimize("full")
        assert I.SWITCH_ON_ARG in opcodes(m.procedure("age", 2).code)
        assert collect(m, "age(P, 31)") == ([(("P", "bob"),)], None)
        m.set_optimize("off")
        assert m.procedure("age", 2).code == code_off

    def test_dynamic_procedures_reoptimized_on_assert(self):
        m = Machine(optimize="full")
        m.solve_once("dynamic(age/2)")
        m.solve_once("assertz(age(alice, 30))")
        m.solve_once("assertz(age(bob, 31))")
        m.solve_once("assertz(age(carol, 32))")
        assert collect(m, "age(P, 32)") == ([(("P", "carol"),)], None)
        assert I.SWITCH_ON_ARG in opcodes(m.procedure("age", 2).code)


# =====================================================================
# Corpus differential suite (every tests/corpus/*.pl, both levels)
# =====================================================================

def _corpus_files():
    return sorted(CORPUS_DIR.glob("*.pl"))


# pinned answers for representative corpus goals (rendered bindings)
PINNED = {
    "indexing_shapes.pl": [
        ("dispatch(b, R)", [(("R", "const_b"),)]),
        ("dispatch(X, int_42)", [(("X", "42"),)]),
        ("only(two, N)", [(("N", "2"),)]),
        ("any(known, R)",
         [(("R", "var_clause(known)"),), (("R", "const"),)]),
    ],
    "cut_negation.pl": [
        ("classify(-5, R)", [(("R", "neg"),)]),
        ("classify(0, R)", [(("R", "zero"),)]),
        ("classify(7, R)", [(("R", "pos"),)]),
        ("guard(13, R)", [(("R", "rejected"),)]),
        ("guard(1, R)", [(("R", "ok"),)]),
    ],
    "disjunction.pl": [
        ("kind(sat, K)", [(("K", "rest"),)]),
        ("kind(mon, K)", [(("K", "work"),)]),
        ("nested(a, Y)", [(("Y", "1"),), (("Y", "2"),)]),
    ],
    "deep_structures.pl": [
        ("sumtree(node(leaf(1), leaf(2)), S)", [(("S", "3"),)]),
        ("build(3, T)", [(("T", "node(node(node(leaf(0),leaf(0)),"
                          "node(leaf(0),leaf(0))),node(node(leaf(0),"
                          "leaf(0)),node(leaf(0),leaf(0))))"),)]),
    ],
}


class TestCorpusDifferential:
    @pytest.mark.parametrize(
        "path", _corpus_files(), ids=lambda p: p.name)
    def test_corpus_agrees_across_levels(self, path):
        text = path.read_text(encoding="utf-8")
        results = {}
        for level in OPT_LEVELS:
            machine = Machine(optimize=level)
            procs = consulted_procedures(machine, text)
            assert procs, f"{path.name}: no procedures consulted"
            level_results = {}
            for proc in procs:
                goal = open_goal(proc.name, proc.arity)
                level_results[goal] = collect(machine, goal)
            for goal, expected in PINNED.get(path.name, ()):
                got, err = collect(machine, goal)
                assert err is None and got == expected, (
                    f"{path.name} @ optimize={level}: {goal} gave "
                    f"{(got, err)}, pinned {expected}")
            assert machine.optimizer.rejects == 0, \
                f"{path.name} @ {level}: gate rejected a block"
            results[level] = level_results
        for level in OPT_LEVELS[1:]:
            assert results[level] == results["off"], (
                f"{path.name}: optimize={level} diverged from off on "
                + ", ".join(g for g in results["off"]
                            if results[level][g] != results["off"][g]))


# =====================================================================
# Workload differential: E1 (MVV), E7 (choice points), E8 (EDB rules)
# =====================================================================

E7_NONDET_PROGRAM = """
color(r). color(g). color(b). color(y).
adj(1,2). adj(1,3). adj(2,3). adj(2,4). adj(3,4).
ok(A-CA, B-CB) :- (adj(A,B) ; adj(B,A)), !, CA \\== CB.
ok(_, _).
colouring([C1,C2,C3,C4]) :-
    color(C1), color(C2), color(C3), color(C4),
    ok(1-C1, 2-C2), ok(1-C1, 3-C3), ok(2-C2, 3-C3),
    ok(2-C2, 4-C4), ok(3-C3, 4-C4).
"""

E8_PROGRAM = """
tree_sum(leaf(V), V).
tree_sum(node(L, R), S) :-
    tree_sum(L, SL), tree_sum(R, SR), S is SL + SR.

build_tree(0, leaf(1)) :- !.
build_tree(N, node(L, R)) :-
    N1 is N - 1, build_tree(N1, L), build_tree(N1, R).
"""


class TestWorkloadDifferential:
    def test_e1_mvv_queries_agree(self):
        from repro.workloads import mvv
        data = mvv.generate(seed=11, scale=0.12)
        queries = mvv.class1_queries(data, 4) + mvv.class2_queries(data, 3)
        results, stats = {}, {}
        for level in ("off", "full"):
            session = mvv.load_educestar(
                data, session=EduceStar(optimize=level))
            with measure(session.machine) as meas:
                results[level] = [collect(session, q) for q in queries]
            stats[level] = meas
            assert session.machine.optimizer.rejects == 0
        assert results["full"] == results["off"]
        assert any(answers for answers, _ in results["off"])
        assert stats["full"]["cp_created"] <= stats["off"]["cp_created"]

    def test_e7_colouring_agrees_unindexed(self):
        ms = machines(E7_NONDET_PROGRAM, index=False)
        answers = assert_agree(ms, "colouring(C)", limit=40)
        assert len(answers[0]) == 40 and answers[1] is None

    def test_e7_bound_lookups_drop_choicepoints(self):
        program = "".join(f"item(k{i}, {i}).\n" for i in range(50))
        stats = {}
        for level in ("off", "full"):
            m = Machine(index=False, optimize=level)
            m.consult(program)
            with measure(m) as meas:
                for i in range(50):
                    assert m.solve_once(f"item(k{i}, _)") is not None
            stats[level] = meas
        # the guard dispatches every bound lookup straight to its
        # clause: all 50 chain choice points disappear (one per query
        # remains for the top-level goal itself)
        assert stats["off"]["cp_created"] - stats["full"]["cp_created"] >= 45
        assert stats["full"]["instr_count"] < stats["off"]["instr_count"] / 2

    def test_e8_stored_rules_agree(self):
        results = {}
        for level in ("off", "full"):
            star = EduceStar(optimize=level)
            star.store_program(E8_PROGRAM)
            results[level] = collect(
                star, "build_tree(7, T), tree_sum(T, S)", limit=1)
            assert star.machine.optimizer.rejects == 0
        assert results["full"] == results["off"]
        answers, err = results["off"]
        assert err is None and dict(answers[0])["S"] == "128"


# =====================================================================
# Golden-file regression listings (before/after disassembly)
# =====================================================================

GOLDEN_PROGRAM = """
facts3(a, b, c).
facts3(d, e, f).

point(p(1, 2, 3)).
point(p(4, 5, 6)).

headtail([H|T], H, T).

callee(A, B, f(A, B)).
caller(X, R) :- callee(X, k, R).

agetab(alice, 30).
agetab(bob, 31).
agetab(carol, 32).

road(paris, lyon).
road(paris, nice).
road(lyon, nice).

member2(X, [X|_]).
member2(X, [_|T]) :- member2(X, T).

nrev2([], []).
nrev2([H|T], R) :- nrev2(T, RT), append(RT, [H], R).

classify2(N, neg) :- N < 0, !.
classify2(0, zero) :- !.
classify2(_, pos).

zip2([], [], []).
zip2([X|Xs], [Y|Ys], [X-Y|Zs]) :- zip2(Xs, Ys, Zs).

weekend2(sat).
weekend2(sun).
"""

GOLDEN_PROCEDURES = [
    ("facts3", 3), ("point", 1), ("headtail", 3), ("callee", 3),
    ("caller", 2), ("agetab", 2), ("road", 2), ("member2", 2),
    ("nrev2", 2), ("classify2", 2), ("zip2", 3), ("weekend2", 1),
]


def _golden_listing(name, arity):
    from repro.wam.debugger import disassemble
    sections = []
    for level in ("off", "full"):
        machine = Machine(optimize=level)
        machine.consult(GOLDEN_PROGRAM)
        sections.append(f"%% optimize={level}\n"
                        f"{disassemble(machine, name, arity)}\n")
    return "\n".join(sections)


class TestGoldenListings:
    @pytest.mark.parametrize(
        "name,arity", GOLDEN_PROCEDURES,
        ids=[f"{n}_{a}" for n, a in GOLDEN_PROCEDURES])
    def test_listing_matches_golden(self, name, arity):
        listing = _golden_listing(name, arity)
        path = GOLDEN_DIR / f"{name}_{arity}.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(listing, encoding="utf-8")
            return
        assert path.exists(), \
            f"{path} missing — regenerate with REPRO_REGEN_GOLDEN=1"
        assert listing == path.read_text(encoding="utf-8"), (
            f"{name}/{arity} listing changed; review the diff and "
            "regenerate with REPRO_REGEN_GOLDEN=1 if intended")

    def test_goldens_exercise_the_passes(self):
        full = "".join(
            (GOLDEN_DIR / f"{n}_{a}.txt").read_text(encoding="utf-8")
            .split("%% optimize=full", 1)[1]
            for n, a in GOLDEN_PROCEDURES
            if (GOLDEN_DIR / f"{n}_{a}.txt").exists())
        assert I.SWITCH_ON_ARG in full

    def test_unguarded_goldens_equal_the_unoptimized_listing(self):
        """Without a ``switch_on_arg`` guard the optimizer leaves a
        block alone: its ``full`` listing is the ``off`` one, byte for
        byte."""
        unguarded = 0
        for name, arity in GOLDEN_PROCEDURES:
            text = (GOLDEN_DIR / f"{name}_{arity}.txt").read_text(
                encoding="utf-8")
            off, full = (section.strip("\n") for section in
                         text.split("%% optimize=off\n", 1)[1]
                         .split("%% optimize=full\n", 1))
            if I.SWITCH_ON_ARG in full:
                continue
            unguarded += 1
            assert full == off, f"{name}/{arity}: full differs from off"
        assert unguarded


# =====================================================================
# Negative paths — the gate never lets unverified code run
# =====================================================================

class TestNegativePaths:
    def test_armed_reject_falls_back(self):
        m = Machine(optimize="full")
        m.optimizer.arm_reject(1)
        m.consult("conf(a, 1). conf(b, 2).")
        assert m.optimizer.rejects == 1
        assert m.optimizer.last_reject[0] == "conf/2"
        assert m.optimizer.last_reject[1] == "F901"
        # the block that runs is the unoptimized one...
        assert I.SWITCH_ON_ARG not in opcodes(m.procedure("conf", 2).code)
        # ...and it still answers correctly
        assert collect(m, "conf(X, 2)") == ([(("X", "b"),)], None)
        # the armed fault is consumed: the next block optimizes again
        m.consult("conf2(a, 1). conf2(b, 2).")
        assert m.optimizer.rejects == 1
        assert I.SWITCH_ON_ARG in opcodes(m.procedure("conf2", 2).code)

    def test_reject_lands_on_flight_recorder(self):
        """A gate fallback is a `wam_opt.reject` event on the session
        store's ring, interleaved with the rest of the event stream and
        carrying the rule id and procedure that tripped it."""
        from repro import EduceStar
        kb = EduceStar()
        kb.store.events.enabled = True
        kb.machine.optimizer.arm_reject(1)
        kb.consult("conf(a, 1). conf(b, 2).")
        rejects = [e for e in kb.store.events.tail(50)
                   if e["kind"] == "wam_opt.reject"]
        assert len(rejects) == 1
        event = rejects[0]
        assert event["procedure"] == "conf/2"
        assert event["rule"] == "F901"
        assert isinstance(event["offset"], int)
        # Ring disabled (the default for bare sessions): no recording.
        kb.store.events.enabled = False
        kb.machine.optimizer.arm_reject(1)
        kb.consult("conf3(a, 1). conf3(b, 2).")
        assert kb.machine.optimizer.rejects == 2
        assert not [e for e in kb.store.events.tail(50)
                    if e["kind"] == "wam_opt.reject"
                    and e["procedure"] == "conf3/2"]

    def _compiled(self, program, name, arity):
        m = Machine(optimize="off")
        m.consult(program)
        return m, m.procedure(name, arity).compiled

    def test_gate_rejects_verifier_finding(self):
        m, compiled = self._compiled("pair(a, b). pair(c, d).",
                                     "pair", 2)
        opt = Optimizer("full")
        layout = build_procedure_layout(compiled, index=True,
                                        optimizer=opt)
        # corrupt a head constant to a dead dictionary id (V103)
        for offset, instr in enumerate(layout.code):
            if instr[0] == I.GET_CONSTANT:
                layout.code[offset] = (I.GET_CONSTANT, ("atom", 10 ** 6),
                                       instr[2])
                break
        else:
            pytest.fail("expected a get_constant instruction")
        with pytest.raises(VerifyError) as exc:
            opt.gate(compiled, layout, index=True,
                     dictionary=m.dictionary, procedure="pair/2")
        assert exc.value.rule.startswith("V")

    def test_gate_rejects_rebuild_mismatch(self):
        m, compiled = self._compiled("pair(a, b). pair(c, d).",
                                     "pair", 2)
        opt = Optimizer("full")
        layout = build_procedure_layout(compiled, index=True,
                                        optimizer=opt)
        # swap a clause's two head instructions: the code still
        # verifies (same shapes, same registers, live constants), but no
        # longer equals the rebuild of its clause set (D301)
        code = layout.code
        for offset in range(len(code) - 1):
            if code[offset][0] == code[offset + 1][0] == I.GET_CONSTANT:
                code[offset], code[offset + 1] = \
                    code[offset + 1], code[offset]
                break
        else:
            pytest.fail("expected two adjacent get_constant instructions")
        with pytest.raises(VerifyError) as exc:
            opt.gate(compiled, layout, index=True,
                     dictionary=m.dictionary, procedure="pair/2")
        assert exc.value.rule == "D301"

    def test_rejected_block_is_exactly_the_naive_code(self, monkeypatch):
        m, compiled = self._compiled(
            "age(alice, 30). age(bob, 31). age(carol, 32).", "age", 2)
        opt = Optimizer("full")

        def failing_gate(*args, **kwargs):
            raise VerifyError("X999", 0, "injected", "age/2")

        monkeypatch.setattr(Optimizer, "gate", failing_gate)
        code = build_optimized_block(compiled, index=True, optimizer=opt,
                                     dictionary=m.dictionary,
                                     procedure="age/2")
        assert code == build_procedure_code(compiled, index=True)
        assert opt.rejects == 1
        assert opt.last_reject == ("age/2", "X999", 0)

    def test_gate_passes_untampered_block(self):
        m, compiled = self._compiled("pair(a, b). pair(c, d).",
                                     "pair", 2)
        opt = Optimizer("full")
        layout = build_procedure_layout(compiled, index=True,
                                        optimizer=opt)
        opt.gate(compiled, layout, index=True,
                 dictionary=m.dictionary, procedure="pair/2")  # no raise


# =====================================================================
# Knob plumbing: session, loader cache, REPL, exposition, counters
# =====================================================================

class TestKnobPlumbing:
    def test_suite_default_is_full(self):
        # conftest flips the process default so the whole suite runs
        # optimized (docs/OPTIMIZER.md)
        assert default_level() == "full"
        assert Machine().optimizer.level == "full"

    def test_invalid_level_rejected(self):
        for level in ("fast", "peephole"):
            with pytest.raises(ValueError):
                Machine(optimize=level)
            with pytest.raises(ValueError):
                Optimizer(level)
            with pytest.raises(ValueError):
                Machine(optimize="full").set_optimize(level)
            with pytest.raises(ValueError):
                EduceStar(optimize=level)
            star = EduceStar(optimize="full")
            with pytest.raises(ValueError):
                star.set_optimize(level)
            assert star.optimize == "full"

    def test_session_knob_and_property(self):
        star = EduceStar(optimize="off")
        assert star.optimize == "off"
        star.set_optimize("full")
        assert star.optimize == "full"
        assert star.machine.optimizer is star.loader.optimizer

    def test_loader_serves_fresh_blocks_after_flip(self):
        star = EduceStar(optimize="full")
        star.store_program("edge(a, b). edge(b, c). edge(c, d).")
        expected = ([(("X", "b"),)], None)
        assert collect(star, "edge(a, X)") == expected
        star.set_optimize("off")
        assert collect(star, "edge(a, X)") == expected
        star.set_optimize("full")
        assert collect(star, "edge(a, X)") == expected

    def test_counters_flow_into_machine_and_session(self):
        star = EduceStar(optimize="full")
        star.machine.consult("f3(a, b, c). f3(d, e, f).")
        counters = star.counters()
        assert counters["wam_opt_blocks"] > 0
        assert counters["wam_opt_rejects"] == 0

    def test_counters_in_prometheus_exposition(self):
        star = EduceStar(optimize="full")
        star.machine.consult("f3(a, b, c). f3(d, e, f).")
        text = render_prometheus(star.metrics.snapshot())
        for counter in ("wam_opt_blocks", "wam_opt_chains_demoted",
                        "wam_opt_mode_guards", "wam_opt_rejects"):
            assert f"educe_{counter}" in text

    def test_reset_counters_covers_optimizer(self):
        m = Machine(optimize="full")
        m.consult("f3(a, b, c).")
        assert m.counters()["wam_opt_blocks"] > 0
        m.reset_counters()
        assert m.counters()["wam_opt_blocks"] == 0


def _load_repl():
    path = TESTS_DIR.parent / "examples" / "repl.py"
    spec = importlib.util.spec_from_file_location("educe_repl", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReplCommand:
    def test_optimize_set_and_show(self, capsys):
        repl = _load_repl()
        star = EduceStar(optimize="full")
        repl.command(star, ":optimize off", interactive=False)
        assert star.optimize == "off"
        assert "optimize off" in capsys.readouterr().out
        repl.command(star, ":optimize", interactive=False)
        out = capsys.readouterr().out
        assert "optimize off" in out and "wam_opt_blocks" in out

    def test_optimize_rejects_unknown_level(self, capsys):
        repl = _load_repl()
        star = EduceStar(optimize="full")
        for level in ("warp", "peephole"):
            repl.command(star, f":optimize {level}", interactive=False)
            assert "usage: :optimize" in capsys.readouterr().out
            assert star.optimize == "full"
