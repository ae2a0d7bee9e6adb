"""Unit tests for the WAM clause compiler, indexing and assembler."""

import pytest

from repro.dictionary import SegmentedDictionary
from repro.errors import MachineError
from repro.lang.reader import read_term
from repro.wam import instructions as I
from repro.wam.assembler import assemble
from repro.wam.compiler import (
    CompileContext,
    compile_clause,
    compile_procedure,
    split_clause,
)


@pytest.fixture
def ctx():
    return CompileContext(SegmentedDictionary(segment_capacity=256))


def ops(compiled):
    return [i[0] for i in compiled.code]


class TestSplitClause:
    def test_fact(self):
        head, body = split_clause(read_term("p(a)"))
        assert head.indicator == ("p", 1) and body == []

    def test_rule(self):
        head, body = split_clause(read_term("p :- q, r, s"))
        assert len(body) == 3

    def test_true_body_is_fact(self):
        _, body = split_clause(read_term("p :- true"))
        assert body == []

    def test_bad_head_raises(self):
        from repro.errors import TypeError_
        with pytest.raises(TypeError_):
            split_clause(read_term("1 :- q"))


class TestFactCompilation:
    def test_constant_fact(self, ctx):
        cc = compile_clause(read_term("p(a, 1)"), ctx)
        assert ops(cc) == [I.GET_CONSTANT, I.GET_CONSTANT, I.PROCEED]

    def test_nil_fact(self, ctx):
        cc = compile_clause(read_term("p([])"), ctx)
        assert ops(cc)[0] == I.GET_NIL

    def test_one_instruction_per_term(self, ctx):
        # §2.1: p(a, b) compiles to two get_constant (plus control).
        cc = compile_clause(read_term("p(a, b)"), ctx)
        consts = [i for i in cc.code if i[0] == I.GET_CONSTANT]
        assert len(consts) == 2

    def test_structure_fact(self, ctx):
        cc = compile_clause(read_term("p(f(X, g(Y)))"), ctx)
        assert ops(cc)[0] == I.GET_STRUCTURE
        assert I.UNIFY_VARIABLE in ops(cc)
        # nested g(Y) processed via a queued fresh register
        assert ops(cc).count(I.GET_STRUCTURE) == 2

    def test_list_fact(self, ctx):
        cc = compile_clause(read_term("p([a|T])"), ctx)
        assert ops(cc)[0] == I.GET_LIST

    def test_repeated_var_uses_get_value(self, ctx):
        cc = compile_clause(read_term("p(X, X)"), ctx)
        assert ops(cc)[:2] == [I.GET_VARIABLE, I.GET_VALUE]


class TestRuleCompilation:
    def test_chain_rule_uses_execute(self, ctx):
        cc = compile_clause(read_term("p(X) :- q(X)"), ctx)
        assert ops(cc)[-1] == I.EXECUTE
        assert I.ALLOCATE not in ops(cc)  # single goal, no permanents

    def test_multi_goal_gets_environment(self, ctx):
        cc = compile_clause(read_term("p(X) :- q(X), r(X)"), ctx)
        assert ops(cc)[0] == I.ALLOCATE
        assert I.DEALLOCATE in ops(cc)
        assert ops(cc)[-1] == I.EXECUTE  # last-call optimisation

    def test_permanent_variable_in_y_register(self, ctx):
        cc = compile_clause(read_term("p(X, Y) :- q(X), r(Y)"), ctx)
        y_regs = [i for i in cc.code
                  if len(i) > 1 and isinstance(i[1], tuple)
                  and i[1][0] == "y"]
        assert y_regs  # Y occurs in head and second goal

    def test_nonpermanent_stays_temporary(self, ctx):
        # X appears in head + first goal only: one chunk, temporary.
        cc = compile_clause(read_term("p(X) :- q(X), r(1)"), ctx)
        allocate = next(i for i in cc.code if i[0] == I.ALLOCATE)
        assert allocate[1] == 0

    def test_builtin_goal_compiles_to_escape(self, ctx):
        cc = compile_clause(read_term("p(X, Y) :- Y is X + 1"), ctx)
        assert (I.ESCAPE, "is", 2) in cc.code

    def test_fail_compiles_to_fail_op(self, ctx):
        cc = compile_clause(read_term("p :- fail"), ctx)
        assert (I.FAIL_OP,) in cc.code

    def test_goal_structure_built_bottom_up(self, ctx):
        cc = compile_clause(read_term("p :- q(f(g(1)))"), ctx)
        puts = [i[0] for i in cc.code if i[0] == I.PUT_STRUCTURE]
        # g(1) built first, then f(...)
        assert len(puts) == 2


class TestCut:
    def test_cut_reserves_level_slot(self, ctx):
        cc = compile_clause(read_term("p(X) :- q(X), !, r(X)"), ctx)
        assert ops(cc)[0] == I.ALLOCATE
        assert ops(cc)[1] == I.GET_LEVEL
        assert I.CUT in ops(cc)

    def test_cut_only_body(self, ctx):
        cc = compile_clause(read_term("p :- !"), ctx)
        assert I.CUT in ops(cc)
        assert ops(cc)[-1] == I.PROCEED


class TestControlExtraction:
    def test_disjunction_creates_aux(self, ctx):
        captured = []
        ctx.define_procedure = lambda n, a, c: captured.append((n, a, c))
        compile_clause(read_term("p(X) :- (q(X) ; r(X))"), ctx)
        assert len(captured) == 1
        name, arity, clauses = captured[0]
        assert arity == 1 and len(clauses) == 2

    def test_if_then_else_aux_has_cut(self, ctx):
        captured = []
        ctx.define_procedure = lambda n, a, c: captured.append((n, a, c))
        compile_clause(read_term("p(X) :- (q(X) -> r(X) ; s(X))"), ctx)
        _, _, clauses = captured[0]
        from repro.lang.writer import term_to_text
        assert "!" in term_to_text(clauses[0])

    def test_negation_aux_two_clauses(self, ctx):
        captured = []
        ctx.define_procedure = lambda n, a, c: captured.append((n, a, c))
        compile_clause(read_term("p(X) :- \\+ q(X)"), ctx)
        _, _, clauses = captured[0]
        assert len(clauses) == 2

    def test_variable_goal_becomes_metacall(self, ctx):
        cc = compile_clause(read_term("p(G) :- G"), ctx)
        assert any(i[0] == I.ESCAPE and i[1] == "call" for i in cc.code)


class TestFirstArgMetadata:
    @pytest.mark.parametrize("text,kind", [
        ("p(a)", "constant"),
        ("p(42)", "constant"),
        ("p(1.5)", "constant"),
        ("p(X)", "var"),
        ("p([])", "nil"),
        ("p([H|T])", "list"),
        ("p(f(X))", "structure"),
        ("p", "var"),
    ])
    def test_kinds(self, ctx, text, kind):
        assert compile_clause(read_term(text), ctx).first_arg_kind == kind


class TestProcedureIndexing:
    def _code(self, ctx, texts, index=True):
        return compile_procedure([read_term(t) for t in texts], ctx,
                                 index=index)

    def test_single_clause_no_choice(self, ctx):
        code = self._code(ctx, ["p(a)"])
        assert all(i[0] not in (I.TRY_ME_ELSE, I.TRY) for i in code)

    def test_multi_clause_has_switch(self, ctx):
        code = self._code(ctx, ["p(a)", "p(b)", "p(c)"])
        assert code[0][0] == I.SWITCH_ON_TERM
        assert any(i[0] == I.SWITCH_ON_CONSTANT for i in code)

    def test_index_disabled(self, ctx):
        code = self._code(ctx, ["p(a)", "p(b)"], index=False)
        assert all(i[0] != I.SWITCH_ON_TERM for i in code)
        assert any(i[0] == I.TRY_ME_ELSE for i in code)

    def test_all_var_heads_skip_switch(self, ctx):
        code = self._code(ctx, ["p(X) :- q(X)", "p(Y) :- r(Y)"])
        assert all(i[0] != I.SWITCH_ON_TERM for i in code)

    def test_structure_switch(self, ctx):
        code = self._code(ctx, ["p(f(1))", "p(g(2))"])
        assert any(i[0] == I.SWITCH_ON_STRUCTURE for i in code)

    def test_empty_procedure_fails(self, ctx):
        code = compile_procedure([], ctx)
        assert code == [(I.FAIL_OP,)]


class TestAssembler:
    def test_labels_resolved(self):
        code = assemble([
            (I.TRY_ME_ELSE, "L1"),
            (I.PROCEED,),
            (I.LABEL, "L1"),
            (I.TRUST_ME,),
            (I.PROCEED,),
        ])
        assert code[0] == (I.TRY_ME_ELSE, 2)

    def test_duplicate_label_raises(self):
        with pytest.raises(MachineError):
            assemble([(I.LABEL, "X"), (I.LABEL, "X")])

    def test_undefined_label_raises(self):
        with pytest.raises(MachineError):
            assemble([(I.TRY, "nowhere")])

    def test_switch_tables_resolved(self):
        code = assemble([
            (I.SWITCH_ON_CONSTANT, {("int", 1): "A"}, "B"),
            (I.LABEL, "A"),
            (I.PROCEED,),
            (I.LABEL, "B"),
            (I.FAIL_OP,),
        ])
        assert code[0][1] == {("int", 1): 1}
        assert code[0][2] == 2
