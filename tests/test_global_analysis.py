"""Whole-program analysis: call graph, modes, determinism, consumers.

Covers the `repro.analysis.global_` package (docs/ANALYSIS.md,
"Whole-program analysis") and its three consumers: the WAM optimizer's
mode-driven dispatch, the Datalog strategy planner's determinism
short-circuit, and the linter's M rules.
"""

import json
import re


from repro import EduceStar
from repro.analysis.global_ import (ANY, GROUND, NONVAR, analyze_program,
                                    build_call_graph, builtin_signature,
                                    infer_cardinality, infer_modes, join,
                                    leq, mode_string, program_from_text,
                                    refine, tarjan_sccs)

# A dispatch shape no local analysis can index: the key column (arg 1)
# repeats constants, the first argument is a variable in every head.
DISPATCH = """
    act(S, k1, on) :- mark(on).
    act(S, k1, off) :- mark(off).
    act(S, k2, off).
    mark(_).
    route(S, R) :- lookup(S, K), act(S, K, R).
    lookup(c, k1).
    lookup(d, k2).
"""


def analyzed(text):
    return analyze_program(program_from_text(text))


# =====================================================================
# Mode lattice
# =====================================================================

class TestLattice:
    def test_join_weakens(self):
        assert join(GROUND, NONVAR) == NONVAR
        assert join(GROUND, ANY) == ANY
        assert join(GROUND, GROUND) == GROUND

    def test_refine_strengthens(self):
        assert refine(ANY, NONVAR) == NONVAR
        assert refine(NONVAR, GROUND) == GROUND
        assert refine(GROUND, ANY) == GROUND

    def test_order(self):
        assert leq(GROUND, NONVAR) and leq(NONVAR, ANY)
        assert not leq(ANY, GROUND)

    def test_mode_string_letters(self):
        assert mode_string((GROUND, NONVAR, ANY)) == "gna"


# =====================================================================
# Call graph
# =====================================================================

class TestCallGraph:
    def test_edges_and_sites(self):
        program = program_from_text(DISPATCH)
        graph = build_call_graph(program)
        assert graph.edges[("route", 2)] == {("lookup", 2), ("act", 3)}
        callees = {site.callee for site in graph.sites
                   if site.caller == ("route", 2)}
        assert callees == {("lookup", 2), ("act", 3)}

    def test_metapredicate_goal_arguments(self):
        program = program_from_text("""
            p(1).
            q(L) :- length(L, _).
            main :- findall(X, p(X), L), q(L).
            % lint: external main/0
        """)
        graph = build_call_graph(program)
        assert ("p", 1) in graph.edges[("main", 0)]
        assert ("q", 1) in graph.edges[("main", 0)]

    def test_dynamic_declaration_is_external(self):
        program = program_from_text("""
            :- dynamic(counter/1).
            bump :- counter(N).
            % lint: external bump/0
        """)
        assert ("counter", 1) in program.externals

    def test_pragma_external(self):
        program = program_from_text("p :- helper(1).\n"
                                    "% lint: external helper/1\n")
        assert ("helper", 1) in program.externals

    def test_recursive_detection(self):
        program = program_from_text("""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            edge(a, b).
        """)
        graph = build_call_graph(program)
        assert graph.recursive(("path", 2))
        assert not graph.recursive(("edge", 2))

    def test_sccs_reverse_topological(self):
        program = program_from_text(DISPATCH)
        graph = build_call_graph(program)
        for site in graph.sites:
            if graph.scc_of[site.caller] != graph.scc_of[site.callee]:
                assert graph.scc_of[site.callee] < \
                    graph.scc_of[site.caller]

    def test_tarjan_on_cycle(self):
        a, b, c = ("a", 0), ("b", 0), ("c", 0)
        sccs = tarjan_sccs({a: {b}, b: {a, c}, c: set()})
        assert [c] in sccs
        assert sorted([a, b]) in [sorted(s) for s in sccs]

    def test_entries_are_uncalled_roots(self):
        program = program_from_text(DISPATCH)
        assert program.entries == [("route", 2)]

    def test_recursive_root_is_entry(self):
        """A predicate only its own recursion reaches must seed at ⊤ —
        otherwise its call modes would be self-justified by the
        bootstrap call."""
        program = program_from_text("""
            path(X, Z) :- edge(X, Y), path(Y, Z).
            path(X, Y) :- edge(X, Y).
            edge(a, b).
        """)
        assert ("path", 2) in program.entries


# =====================================================================
# Groundness / mode inference
# =====================================================================

class TestModes:
    def test_builtin_signatures(self):
        sig = builtin_signature(("is", 2))
        assert sig.demands == (1,)
        assert sig.success[0] == GROUND
        assert builtin_signature(("no_such_builtin", 3)) is None

    def test_facts_succeed_ground(self):
        report = analyzed("p(1). p(2). main :- p(X).\n"
                          "% lint: external main/0\n")
        info = report.info("p", 1)
        assert mode_string(info.success_modes) == "g"
        assert mode_string(info.call_modes) == "a"

    def test_call_modes_from_call_sites(self):
        report = analyzed(DISPATCH)
        act = report.info("act", 3)
        # S and K flow from lookup/2's ground facts; R is the output.
        assert mode_string(act.call_modes) == "gga"
        assert mode_string(act.success_modes) == "ggg"

    def test_entry_call_modes_are_top(self):
        report = analyzed(DISPATCH)
        route = report.info("route", 2)
        assert route.entry
        assert mode_string(route.call_modes) == "aa"

    def test_unification_refines_both_sides(self):
        report = analyzed("eq(X) :- X = done. main :- eq(V).\n"
                          "% lint: external main/0\n")
        assert mode_string(report.info("eq", 1).success_modes) == "g"

    def test_findall_output_nonvar(self):
        report = analyzed("""
            p(1).
            collect(L) :- findall(X, p(X), L).
            main :- collect(Out).
            % lint: external main/0
        """)
        succ = report.info("collect", 1).success_modes
        assert leq(succ[0], NONVAR)

    def test_recursive_program_terminates_without_widening(self):
        program = program_from_text("""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            edge(a, b). edge(b, c).
            main :- path(a, T).
            % lint: external main/0
        """)
        result = infer_modes(program)
        assert not result.widened
        assert mode_string(result.call_modes[("path", 2)]) == "ga"
        assert mode_string(result.success_modes[("path", 2)]) == "gg"

    def test_called_tracking(self):
        program = program_from_text(DISPATCH)
        result = infer_modes(program)
        assert ("act", 3) in result.called
        assert ("route", 2) not in result.called


# =====================================================================
# Cardinality / determinism classes
# =====================================================================

class TestCardinality:
    def test_class_spectrum(self):
        report = analyzed("""
            f(X) :- fail.
            id(X).
            s(a).
            m(X) :- X = a.
            m(X) :- X = b.
            b. b.
            main :- f(A), id(B), s(C), m(D), b.
            % lint: external main/0
        """)
        expect = {("f", 1): "fails", ("id", 1): "det",
                  ("s", 1): "semidet", ("m", 1): "nondet",
                  ("b", 0): "multi"}
        for (name, arity), cls in expect.items():
            assert report.info(name, arity).determinism == cls, name

    def test_recursion_widens_max(self):
        report = analyzed("""
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            edge(a, b).
            main :- path(a, T).
            % lint: external main/0
        """)
        assert report.info("path", 2).determinism in ("nondet", "multi")

    def test_det_under_modes_discriminating_position(self):
        """Pairwise-distinct constants at a position every call site
        binds drop the max to one solution — the advisory analog of
        the optimizer's mode-driven dispatch."""
        report = analyzed("""
            d(X, k1).
            d(X, k2).
            main :- d(foo, k1).
            % lint: external main/0
        """)
        info = report.info("d", 2)
        assert info.determinism == "semidet"
        assert info.det_arg == 1

    def test_no_det_under_modes_when_keys_repeat(self):
        report = analyzed(DISPATCH)
        assert report.info("act", 3).det_arg is None

    def test_cardinality_direct(self):
        program = program_from_text("one(X) :- X = a. main :- one(Z).\n"
                                    "% lint: external main/0\n")
        graph = build_call_graph(program)
        cards = infer_cardinality(program, graph)
        low, high = cards.cards[("one", 1)]
        assert (low, high) == (0, 1)


# =====================================================================
# Report surface
# =====================================================================

class TestReport:
    def test_counters(self):
        counters = analyzed(DISPATCH).counters()
        for key in ("analysis_global_predicates", "analysis_global_sccs",
                    "analysis_global_iterations",
                    "analysis_global_widenings"):
            assert key in counters
        assert counters["analysis_global_predicates"] == 4

    def test_bound_args_excludes_entries(self):
        bound = analyzed(DISPATCH).bound_args()
        assert bound[("act", 3)] == (0, 1)
        assert ("route", 2) not in bound  # entry: call modes are ⊤

    def test_to_dict_is_json_clean(self):
        payload = json.loads(json.dumps(analyzed(DISPATCH).to_dict()))
        assert payload["kind"] == "global_analysis"
        by_ind = {p["indicator"]: p for p in payload["predicates"]}
        assert by_ind["act/3"]["call_modes"] == "gga"
        assert by_ind["act/3"]["determinism"] == "nondet"
        assert payload["entries"] == ["route/2"]

    def test_describe_single_predicate(self):
        report = analyzed(DISPATCH)
        text = report.describe("act", 3)
        assert "call=gga" in text and "succ=ggg" in text
        assert "no analysed predicate" in report.describe("nope", 9)


# =====================================================================
# M rules (via the linter)
# =====================================================================

class TestModeRules:
    def lint(self, text):
        from repro.analysis.lint import lint_text
        return lint_text(text)

    def rules(self, text):
        return {(f.rule, f.indicator) for f in self.lint(text)}

    def test_m201_fresh_variable_demanded_ground(self):
        found = self.rules("p(X) :- Y is Z + 1, X = Y.\n"
                           "main :- p(V).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("M201", "p/1") in found

    def test_m201_quiet_when_bound_upstream(self):
        found = self.rules("p(X, Y) :- X = 2, Y is X + 1.\n"
                           "main :- p(A, B).\n"
                           "% lint: external main/0\n")
        assert not any(rule == "M201" for rule, _ in found)

    def test_m202_always_fails(self):
        found = self.rules("p(X) :- q(X), fail.\nq(1).\n"
                           "main :- p(V).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("M202", "p/1") in found
        assert ("M202", "main/0") in found  # failure propagates up

    def test_m203_dead_choice_point(self):
        found = self.rules("d(X, k1).\nd(X, k2).\n"
                           "main :- d(foo, k1).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("M203", "d/2") in found

    def test_m_rules_waivable(self):
        clean = self.lint("% lint: disable=M202\n"
                          "% lint: disable=L101\n"
                          "p(X) :- fail.\nmain :- p(V).\n"
                          "% lint: external main/0\n")
        assert not any(f.rule.startswith("M") for f in clean)

    def test_l106_unknown_rule_id(self):
        found = self.rules("% lint: disable=Z999\np(1).\n"
                           "main :- p(X).\n"
                           "% lint: external main/0\n"
                           "% lint: disable=L101\n")
        assert ("L106", "Z999") in found

    def test_l106_itself_waivable(self):
        clean = self.lint("% lint: disable=Z999\n"
                          "% lint: disable=L106\n"
                          "% lint: disable=L101\n"
                          "p(1).\nmain :- p(X).\n"
                          "% lint: external main/0\n")
        assert not any(f.rule == "L106" for f in clean)

    def test_pragma_on_clause_continuation_line(self):
        """Pragmas are file-scoped comments; one trailing a clause
        continuation line waives the same way as a line of its own."""
        clean = self.lint("p(X) :-\n"
                          "    q(X).   % lint: disable=L102\n"
                          "main :- p(V).\n"
                          "% lint: external main/0\n"
                          "% lint: disable=L101\n")
        assert not any(f.rule == "L102" for f in clean)


# =====================================================================
# Optimizer consumer: mode-driven dispatch
# =====================================================================

def _compiled(program_text, name, arity, **kwargs):
    kb = EduceStar(optimize="full", **kwargs)
    kb.consult(program_text)
    return kb, kb.machine.procedure(name, arity)


def _mode_plan(proc, positions, min_arg, bound_positions):
    """The plan :meth:`Optimizer.plan_guard` makes for *proc* when the
    whole-program analysis proved *bound_positions* ground."""
    from repro.wam.optimizer import Optimizer
    optimizer = Optimizer("full")
    optimizer.set_global_modes({proc.indicator: tuple(bound_positions)})
    return optimizer.plan_guard(proc.compiled, positions, min_arg)


class TestModeGuardPlanning:
    def test_mode_guard_plans_subchains(self):
        kb, proc = _compiled(DISPATCH, "act", 3)
        plan = _mode_plan(proc, range(len(proc.compiled)), 0,
                          bound_positions=(0, 1))
        assert plan is not None and plan.mode_driven
        assert plan.argpos == 1
        # two keys: k1 -> the sub-chain {0, 1}, k2 -> clause 2 alone
        assert sorted(plan.table.values()) == [(0, 1), (2,)]
        assert plan.var_positions == ()

    def test_mode_guard_needs_two_keys(self):
        kb, proc = _compiled("a(X, k) :- t. a(Y, k) :- t. t.", "a", 2)
        assert _mode_plan(proc, range(2), 0, (1,)) is None

    def test_mode_guard_refuses_structure_keys(self):
        kb, proc = _compiled(
            "a(X, f(1)) :- t. a(X, k1) :- t. a(X, k1). t.", "a", 2)
        assert _mode_plan(proc, range(len(proc.compiled)), 0, (1,)) is None

    def test_mode_guard_keeps_var_clauses_in_every_target(self):
        kb, proc = _compiled(
            "a(k1, X) :- t. a(Y, X) :- t. a(k2, X) :- t. a(k1, z). t.",
            "a", 2)
        plan = _mode_plan(proc, range(4), 0, (0,))
        assert plan is not None and plan.argpos == 0
        assert list(plan.table.values()) == [(0, 1, 3), (1, 2)]
        assert plan.var_positions == (1,)

    def test_plan_guard_uses_global_map(self):
        kb, proc = _compiled(DISPATCH, "act", 3)
        optimizer = kb.machine.optimizer
        assert optimizer.plan_guard(proc.compiled,
                                    list(range(3)), 0) is None
        optimizer.set_global_modes({("act", 3): (0, 1)})
        plan = optimizer.plan_guard(proc.compiled, list(range(3)), 0)
        assert plan is not None and plan.mode_driven

    def test_set_global_modes_bumps_epoch(self):
        kb = EduceStar(optimize="full")
        optimizer = kb.machine.optimizer
        before = optimizer.modes_epoch
        optimizer.set_global_modes({})
        assert optimizer.modes_epoch == before + 1


class TestModeGuardDifferential:
    GOALS = ("route(c, R)", "route(d, R)", "route(X, Y)",
             "act(c, k1, R)", "act(c, k2, R)", "act(c, k9, R)",
             "act(c, K, off)", "act(V, W, Z)", "act(c, [k1], R)")

    @staticmethod
    def answers(kb, goal):
        sols = [tuple(sorted((n, repr(v)) for n, v in s.bindings.items()))
                for s in kb.solve(goal)]
        return re.sub(r"_G\d+", "_", repr(sols))

    def test_answers_identical_across_all_call_patterns(self):
        base = EduceStar(optimize="full")
        base.consult(DISPATCH)
        modes = EduceStar(optimize="full")
        modes.consult(DISPATCH)
        report = modes.apply_global_modes()
        assert ("act", 3) in report.bound_args()
        for goal in self.GOALS:
            assert self.answers(modes, goal) == \
                self.answers(base, goal), goal
        assert modes.machine.counters()["wam_opt_mode_guards"] >= 1

    def test_no_modes_means_identical_listing(self):
        """Without an applied analysis the generalized guard planner
        must emit byte-identical code to the legacy path."""
        one = EduceStar(optimize="full")
        one.consult(DISPATCH)
        two = EduceStar(optimize="full")
        two.consult(DISPATCH)
        two.apply_global_modes()
        two.clear_global_modes()
        for name, arity in (("act", 3), ("route", 2), ("mark", 1)):
            pa = one.machine.procedure(name, arity)
            pb = two.machine.procedure(name, arity)
            assert [str(i) for i in pa.code] == [str(i) for i in pb.code]

    def test_mode_guard_cuts_instructions(self):
        base = EduceStar(optimize="full")
        base.consult(DISPATCH)
        modes = EduceStar(optimize="full")
        modes.consult(DISPATCH)
        modes.apply_global_modes()

        def instructions(kb):
            before = kb.machine.instr_count
            for _ in kb.solve("route(c, R)"):
                pass
            return kb.machine.instr_count - before

        assert instructions(modes) < instructions(base)


# =====================================================================
# Session integration
# =====================================================================

class TestSessionIntegration:
    def test_analysis_cached_until_program_changes(self):
        kb = EduceStar()
        kb.consult("p(1).")
        first = kb.global_analysis()
        assert kb.global_analysis() is first
        kb.consult("q(2).")
        second = kb.global_analysis()
        assert second is not first
        assert kb.local_counters()["analysis_global_runs"] == 2

    def test_counters_surface(self):
        kb = EduceStar()
        kb.consult(DISPATCH)
        kb.global_analysis()
        counters = kb.local_counters()
        assert counters["analysis_global_predicates"] >= 4
        assert counters["analysis_global_sccs"] >= 4

    def test_apply_and_clear(self):
        kb = EduceStar(optimize="full")
        kb.consult(DISPATCH)
        kb.apply_global_modes()
        assert kb.machine.optimizer.global_bound_args
        kb.clear_global_modes()
        assert not kb.machine.optimizer.global_bound_args

    def test_explain_procedure_annotations(self):
        kb = EduceStar(optimize="full")
        kb.consult(DISPATCH)
        kb.apply_global_modes()
        plan = kb.explain("act(c, k1, R)")
        node = plan.root.find("procedure")
        assert node is not None
        assert node.attrs["call_modes"] == "gga"
        assert node.attrs["success_modes"] == "ggg"
        assert node.attrs["determinism"] == "nondet"

    def test_describe_modes_helper(self):
        from repro.analysis import describe_modes
        kb = EduceStar()
        kb.consult(DISPATCH)
        assert "act/3" in describe_modes(kb)
        assert "call=gga" in describe_modes(kb, "act", 3)


# =====================================================================
# Datalog consumer: determinism short-circuit
# =====================================================================

class TestDatalogShortcut:
    def session(self):
        kb = EduceStar()
        kb.store_relation("edge", [("a", "b"), ("b", "c")])
        kb.store_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        return kb

    def test_choose_short_circuits_on_det(self):
        from repro.relational.datalog.strategy import choose
        kb = self.session()
        decision = choose(kb.datalog.analysis(), ("reach", 2), kb.store,
                          global_info=((GROUND, GROUND), "det"))
        assert decision.strategy == "topdown"
        assert decision.mode_shortcut
        assert decision.determinism == "det"
        assert decision.call_modes == "gg"

    def test_force_overrides_shortcut(self):
        from repro.relational.datalog.strategy import choose
        kb = self.session()
        decision = choose(kb.datalog.analysis(), ("reach", 2), kb.store,
                          mode="force",
                          global_info=((GROUND, GROUND), "det"))
        assert decision.strategy == "bottomup"
        assert not decision.mode_shortcut

    def test_multi_keeps_costing(self):
        from repro.relational.datalog.strategy import choose
        kb = self.session()
        decision = choose(kb.datalog.analysis(), ("reach", 2), kb.store,
                          global_info=((ANY, ANY), "nondet"))
        assert not decision.mode_shortcut
        assert decision.determinism == "nondet"

    def test_engine_counts_shortcuts(self):
        kb = self.session()
        kb.datalog.modes_provider = \
            lambda ind: ((GROUND, GROUND), "semidet")
        list(kb.solve("reach(a, X)"))
        assert kb.datalog.mode_shortcuts >= 1
        assert kb.datalog.counters()["datalog_mode_shortcuts"] >= 1

    def test_strategy_never_changes_answers(self):
        kb = self.session()
        kb.datalog.modes_provider = \
            lambda ind: ((GROUND, GROUND), "semidet")
        shortcut = sorted(str(s.bindings) for s in kb.solve("reach(a, X)"))
        plain = self.session()
        plain.datalog.modes_provider = None
        assert shortcut == sorted(str(s.bindings)
                                  for s in plain.solve("reach(a, X)"))


# =====================================================================
# CLI exit-code matrix
# =====================================================================

class TestCliExitCodes:
    def run(self, *argv):
        from repro.analysis.cli import main
        return main(list(argv))

    def write(self, tmp_path, text, name="unit.pl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    CLEAN = ("p(1).\np(2).\nmain :- p(X), write(X).\n"
             "% lint: external main/0\n")
    FINDING = "p(X) :- fail.\nmain :- p(V).\n% lint: external main/0\n"
    BROKEN = "p(1"

    def test_corpus_clean(self, capsys):
        assert self.run("corpus") == 0

    def test_lint_matrix(self, tmp_path, capsys):
        assert self.run("lint", self.write(tmp_path, self.CLEAN)) == 0
        assert self.run("lint", self.write(tmp_path, self.FINDING)) == 1
        assert self.run("lint", self.write(tmp_path, self.BROKEN)) == 2
        assert self.run("lint", str(tmp_path / "missing.pl")) == 2

    def test_verify_matrix(self, tmp_path, capsys):
        assert self.run("verify", self.write(tmp_path, self.CLEAN)) == 0
        assert self.run("verify", self.write(tmp_path, self.BROKEN)) == 2

    def test_modes_matrix(self, tmp_path, capsys):
        assert self.run("modes", self.write(tmp_path, self.CLEAN)) == 0
        assert self.run("modes", self.write(tmp_path, self.FINDING)) == 1
        assert self.run("modes", self.write(tmp_path, self.BROKEN)) == 2
        assert self.run("modes", str(tmp_path / "missing.pl")) == 2

    def test_modes_corpus_sweep_is_clean(self, capsys):
        assert self.run("modes") == 0
        out = capsys.readouterr().out
        assert "0 mode finding(s)" in out

    def test_modes_json(self, tmp_path, capsys):
        assert self.run("modes", "--json",
                        self.write(tmp_path, self.CLEAN)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["report"]["kind"] == "global_analysis"

    def test_usage_error(self, capsys):
        assert self.run("frobnicate") == 2
        assert self.run("modes", "--bogus-flag") == 2
