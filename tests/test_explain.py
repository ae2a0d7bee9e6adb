"""EXPLAIN/ANALYZE differential suite (docs/OBSERVABILITY.md).

The plan is only trustworthy if it never lies about execution, so the
core checks are differential:

* for every corpus program and every graph-workload case, the strategy
  the plan *names* must be the strategy that *executes* (cross-checked
  against the counter deltas the run leaves behind);
* in ANALYZE mode the per-pass ``delta_rows`` on the stratum nodes
  must sum to the fixpoint's total derived rows — the plan neither
  invents nor loses a tuple;
* EXPLAIN alone evaluates nothing, so it is safe to run on every
  predicate of every corpus program, terminating or not.
"""

import glob
import json
import os

import pytest

from repro import EduceStar
from repro.workloads import graphs

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                       "corpus", "*.pl")))

# Topdown programs with safe, terminating goals for ANALYZE.
TOPDOWN_CASES = [
    ("p(a). p(b). p(c).", "p(X)"),
    ("e(1,2). e(2,3). e(3,4). t(X,Y) :- e(X,Y). "
     "t(X,Y) :- e(X,Z), t(Z,Y).", "t(1, X)"),
    ("f(0, 1) :- !. f(N, F) :- N > 0, M is N - 1, f(M, G), "
     "F is N * G.", "f(6, X)"),
    ("m(X) :- member(X, [q,w,e]).", "m(X)"),
]


def build_graph_session(case, **kwargs) -> EduceStar:
    kb = EduceStar(**kwargs)
    for name, rows in case["relations"].items():
        kb.store_relation(name, rows)
    kb.store_program(case["program"])
    return kb


# =====================================================================
# Topdown plans
# =====================================================================

class TestTopdown:
    @pytest.mark.parametrize("program,goal", TOPDOWN_CASES)
    def test_explain_names_topdown_and_analyze_confirms(self, program,
                                                        goal):
        kb = EduceStar()
        kb.consult(program)
        plan = kb.explain(goal)
        assert plan.mode == "explain"
        assert plan.strategy == "topdown"
        assert plan.executed is None          # nothing ran
        proc = plan.root.find("procedure")
        assert proc is not None
        assert proc.attrs["source"] == "main-memory"

        before = kb.metrics.snapshot()
        analyzed = kb.analyze(goal)
        delta = kb.metrics.diff(kb.metrics.snapshot(), before)
        assert analyzed.mode == "analyze"
        assert analyzed.executed == "topdown" == analyzed.strategy
        assert analyzed.root.actual["answers"] >= 1
        # Counter-delta cross-check: the WAM ran, the fixpoint did not.
        assert analyzed.root.actual["instr_count"] > 0
        assert not delta.get("datalog_bottomup")

    def test_procedure_code_shape_matches_compiled_block(self):
        kb = EduceStar()
        kb.consult("p(a). p(b). p(c).")
        plan = kb.explain("p(X)")
        proc = plan.root.find("procedure")
        block = kb.machine.procedure("p", 1)
        assert proc.attrs["instructions"] == len(block.code)
        assert proc.attrs["clauses"] == 3
        assert proc.attrs["choice_instrs"] >= 0

    def test_prelude_and_undefined_goals(self):
        kb = EduceStar()
        # Prelude predicates are ordinary main-memory procedures.
        member = kb.explain("member(X, [a])").root.find("procedure")
        assert member.attrs["source"] == "main-memory"
        assert member.attrs["clauses"] == 2
        assert kb.explain("no_such_pred(X)").root.find(
            "procedure").attrs["source"] == "undefined"

    def test_optimizer_node_always_present(self):
        kb = EduceStar()
        kb.consult("p(a).")
        node = kb.explain("p(X)").root.find("optimizer")
        assert node is not None
        assert node.label == kb.machine.optimizer.level
        assert "wam_opt_blocks" in node.attrs

    def test_explain_is_side_effect_free(self):
        """EXPLAIN alone executes nothing — the machine's instruction
        counter does not move."""
        kb = EduceStar()
        kb.consult("p(a). q(X) :- p(X).")
        before = kb.machine.instr_count
        kb.explain("q(X)")
        assert kb.machine.instr_count == before

    def test_counters(self):
        kb = EduceStar()
        kb.consult("p(a).")
        kb.explain("p(X)")
        kb.analyze("p(X)")
        counters = kb.counters()
        assert counters["explain_queries"] == 2   # analyze explains too
        assert counters["analyze_queries"] == 1


# =====================================================================
# Corpus sweep: EXPLAIN is total over everything the suite compiles
# =====================================================================

class TestCorpusSweep:
    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
    def test_explain_every_corpus_predicate(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            program = fh.read()
        kb = EduceStar()
        kb.consult(program)
        explained = 0
        for proc in list(kb.machine.procedures.values()):
            if proc.kind != "static" or proc.name.startswith("$"):
                continue
            args = ", ".join(f"A{i}" for i in range(proc.arity))
            goal = f"{proc.name}({args})" if proc.arity else proc.name
            plan = kb.explain(goal)
            assert plan.strategy == "topdown"
            pnode = plan.root.find("procedure")
            assert pnode is not None, goal
            assert pnode.attrs["source"] == "main-memory"
            assert pnode.attrs["instructions"] > 0
            # JSON round-trip: parse of the serialisation is the dict.
            assert json.loads(plan.to_json()) == plan.to_dict()
            explained += 1
        assert explained > 0, f"{path} defined no static predicates"


# =====================================================================
# Bottom-up plans over the graph workloads (E13)
# =====================================================================

class TestBottomup:
    @pytest.mark.parametrize("seed", range(0, 10, 3))
    def test_analyze_passes_sum_to_fixpoint_total(self, seed):
        for case in graphs.differential_cases(seed):
            kb = build_graph_session(case, datalog="force")
            for goal in case["goals"]:
                plan = kb.analyze(goal)
                if plan.executed != "bottomup":
                    continue
                assert plan.strategy == "bottomup", (
                    f"{case['name']}/{goal}: executed bottom-up but "
                    f"planned {plan.strategy}")
                derived = plan.root.actual["derived_rows"]
                per_pass = [
                    row for node in plan.root.walk()
                    if node.op == "stratum"
                    for row in node.actual["delta_rows"]]
                assert sum(per_pass) == derived, (
                    f"{case['name']}/{goal}: per-pass deltas "
                    f"{sum(per_pass)} != fixpoint total {derived}")
                # Per-rule rows nest inside their stratum's total.
                for node in plan.root.walk():
                    if node.op == "rule":
                        assert node.actual["rows"] == sum(
                            node.actual["pass_rows"])

    @pytest.mark.parametrize("seed", range(0, 10, 3))
    def test_auto_planner_prediction_matches_execution(self, seed):
        """datalog="auto": whatever the plan predicts is what runs,
        verified against the counter deltas."""
        for case in graphs.differential_cases(seed):
            kb = build_graph_session(case, datalog="auto")
            for goal in case["goals"]:
                predicted = kb.explain(goal).strategy
                before = kb.metrics.snapshot()
                plan = kb.analyze(goal)
                delta = kb.metrics.diff(kb.metrics.snapshot(), before)
                assert plan.executed == predicted, (
                    f"{case['name']}/{goal}: planned {predicted}, "
                    f"executed {plan.executed}")
                ran_bottomup = bool(delta.get("datalog_bottomup"))
                assert ran_bottomup == (predicted == "bottomup")

    def test_magic_adornment_in_plan(self):
        kb = EduceStar(datalog="force")
        kb.store_relation("edge", [(i, i + 1) for i in range(30)])
        kb.store_program(
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- edge(X, Y), path(Y, Z).\n")
        plan = kb.explain("path(0, X)")
        assert plan.strategy == "bottomup"
        magic = plan.root.find("magic")
        assert magic is not None
        assert magic.attrs["adornment"] == "bf"
        assert magic.attrs["bound_args"] == 1
        # And the decision subtree carries the cost inputs.
        decision = plan.root.find("decision")
        assert decision.attrs["min_rows"] == kb.datalog.min_rows
        assert decision.attrs["base_rows"] >= 30
        # Strata and rules were named without running anything.
        assert [n.op for n in plan.root.walk()].count("rule") >= 2

    def test_unbound_goal_reports_no_adornment(self):
        kb = EduceStar(datalog="force")
        kb.store_relation("edge", [(1, 2), (2, 3)])
        kb.store_program(
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- edge(X, Y), path(Y, Z).\n")
        magic = kb.explain("path(X, Y)").root.find("magic")
        assert magic.attrs["bound_args"] == 0
        assert magic.label == "none"


# =====================================================================
# EDB procedures and cached blocks
# =====================================================================

class TestStoredProcedures:
    def test_cached_blocks_in_plan(self):
        kb = EduceStar()
        kb.store_relation("road", [("a", "b"), ("b", "c"), ("c", "d")])
        for _ in kb.solve("road(a, X)"):
            pass
        plan = kb.explain("road(a, X)")
        pnode = plan.root.find("procedure")
        assert pnode.attrs["source"] == "edb"
        assert pnode.attrs["mode"] == "facts"
        assert pnode.attrs["rows"] == 3
        blocks = [c for c in pnode.children if c.op == "cached_block"]
        assert blocks, "loader cache is warm but the plan shows no block"
        for block in blocks:
            assert block.attrs["instructions"] > 0

    def test_text_rendering_shape(self):
        kb = EduceStar(datalog="force")
        kb.store_relation("edge", [(i, i + 1) for i in range(5)])
        kb.store_program(
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- edge(X, Y), path(Y, Z).\n")
        text = kb.analyze("path(0, X)").format()
        lines = text.splitlines()
        assert lines[0].startswith("ANALYZE ")
        assert any(line.lstrip().startswith("actual:") for line in lines)
        assert any("decision" in line for line in lines)


# =====================================================================
# Service: explain-on-submit
# =====================================================================

class TestServiceExplain:
    def test_explain_on_submit(self):
        from repro.service import QueryService
        svc = QueryService(workers=1, queue_size=8, explain=True)
        try:
            svc.store_relation("edge", [(1, 2), (2, 3), (3, 4)])
            svc.store_program(
                "reach(X, Y) :- edge(X, Y).\n"
                "reach(X, Z) :- edge(X, Y), reach(Y, Z).\n")
            ticket = svc.submit("reach(1, X)")
            answers = ticket.result(timeout=30)
            assert len(answers) == 3
            assert ticket.explain is not None
            assert ticket.explain.strategy in ("topdown", "bottomup")
            assert json.loads(ticket.explain.to_json())["kind"] == \
                "explain_plan"
            # Per-ticket override: explain=False suppresses capture.
            quiet = svc.submit("reach(1, X)", explain=False)
            quiet.result(timeout=30)
            assert quiet.explain is None
        finally:
            svc.shutdown()

    def test_submit_explain_opt_in(self):
        """Default service: no plan capture unless the ticket asks."""
        from repro.service import QueryService
        svc = QueryService(workers=1, queue_size=8)
        try:
            svc.store_relation("edge", [(1, 2)])
            plain = svc.submit("edge(X, Y)")
            plain.result(timeout=30)
            assert plain.explain is None
            asked = svc.submit("edge(X, Y)", explain=True)
            asked.result(timeout=30)
            assert asked.explain is not None
            assert asked.explain.root.find("procedure") is not None
        finally:
            svc.shutdown()
