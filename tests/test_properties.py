"""Cross-layer property tests (hypothesis).

These pin the system's load-bearing invariants:

* pre-unification soundness — the filter never loses a clause the
  emulator could use, at any depth (§4's "necessary but not sufficient");
* codec totality — every compilable clause round-trips through the
  relative-address encoding;
* EDB-vs-main-memory equivalence — a program answers identically
  whether compiled internally or stored in the EDB and dynamically
  loaded.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.session import EduceStar
from repro.lang.writer import format_clause, term_to_text
from repro.terms import Atom, Struct, Var
from repro.wam.machine import Machine

# ------------------------------------------------------------ term makers

_const_names = st.sampled_from(["a", "b", "c", "d", "e"])
_functors = st.sampled_from(["f", "g", "h"])


def head_args(depth=2):
    """Head-argument terms: constants, ints, vars, nested structures."""
    leaves = st.one_of(
        _const_names.map(Atom),
        st.integers(0, 9),
        st.just(None),  # placeholder for a fresh Var (built later)
    )
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda n, args: ("struct", n, tuple(args)),
            _functors,
            st.lists(children, min_size=1, max_size=2),
        ),
        max_leaves=4,
    )


def _reify(spec):
    if spec is None:
        return Var()
    if isinstance(spec, tuple) and spec[0] == "struct":
        return Struct(spec[1], tuple(_reify(a) for a in spec[2]))
    return spec


def _probe_goal(probe):
    """findall(I, p(A, B, I), L) as a term with named query vars."""
    ivar, lvar = Var("I"), Var("Found")
    call = Struct("p", (_reify(probe[0]), _reify(probe[1]), ivar))
    return Struct("findall", (ivar, call, lvar))


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.tuples(head_args(), head_args()),
                   min_size=1, max_size=8),
    probe=st.tuples(head_args(), head_args()),
)
def test_preunification_soundness(heads, probe):
    """At every depth, querying the EDB-stored facts returns exactly
    what the in-memory compiled program returns (same clause ids, same
    order)."""
    clauses = [
        Struct("p", (_reify(a), _reify(b), i))
        for i, (a, b) in enumerate(heads)
    ]
    program = "\n".join(format_clause(c) for c in clauses)

    reference = Machine()
    reference.consult(program)
    want = term_to_text(reference.solve_once(_probe_goal(probe))["Found"])

    for depth in ("none", "shallow", "full"):
        session = EduceStar(preunify_depth=depth)
        session.store_program(program)
        got = term_to_text(
            session.solve_once(_probe_goal(probe))["Found"])
        assert got == want, f"depth={depth}"


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.tuples(head_args(), head_args()),
                   min_size=1, max_size=6),
)
def test_codec_roundtrip_random_clauses(heads):
    from repro.dictionary import SegmentedDictionary
    from repro.edb.codec import decode_code, encode_code
    from repro.edb.external_dict import ExternalDictionary
    from repro.bang.catalog import Catalog
    from repro.bang.pager import Pager
    from repro.wam.compiler import ClauseCompiler, CompileContext

    ctx = CompileContext(SegmentedDictionary(segment_capacity=512))
    compiler = ClauseCompiler(ctx)
    ext = ExternalDictionary(Catalog(Pager(buffer_pages=8)))
    for i, (a, b) in enumerate(heads):
        clause = Struct("q", (_reify(a), _reify(b), i))
        code = compiler.compile_clause(clause).code
        relative = encode_code(code, ctx.dictionary, ext)
        assert decode_code(relative, ctx.dictionary, ext) == code


@settings(max_examples=25, deadline=None)
@given(
    facts=st.lists(st.tuples(st.integers(0, 5), _const_names),
                   min_size=1, max_size=10),
    pivot=st.integers(0, 5),
)
def test_edb_equals_main_memory(facts, pivot):
    """Same program: EDB-stored vs consulted — identical answers."""
    program = "".join(
        f"r({n}, {s}).\n" for n, s in dict.fromkeys(facts))
    program += "pick(S) :- r(%d, S).\n" % pivot

    internal = Machine()
    internal.consult(program)
    want = sorted(str(s["S"]) for s in internal.solve("pick(S)"))

    session = EduceStar()
    session.store_program(program)
    got = sorted(str(s["S"]) for s in session.solve("pick(S)"))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.tuples(head_args(), head_args()),
                   min_size=1, max_size=8),
    body_len=st.integers(0, 3),
)
def test_random_clauses_verify_clean(heads, body_len):
    """Everything the compiler emits passes full static verification
    (docs/ANALYSIS.md): every clause, and the assembled procedure block
    with its switch tables.  The determinism analysis of the honest
    block reports no findings either."""
    from repro.analysis import analyze_clauses, check_clause, check_code
    from repro.dictionary import SegmentedDictionary
    from repro.wam.compiler import ClauseCompiler, CompileContext
    from repro.wam.indexing import build_procedure_layout

    ctx = CompileContext(SegmentedDictionary(segment_capacity=512))
    compiler = ClauseCompiler(ctx)
    compiled = []
    for i, (a, b) in enumerate(heads):
        head = Struct("p", (_reify(a), _reify(b), i))
        if body_len:
            # a chain body exercises environments and permanent vars
            shared = Var()
            goals = [Struct("q", (shared, _reify(a)))
                     for _ in range(body_len)]
            body = goals[0]
            for goal in goals[1:]:
                body = Struct(",", (body, goal))
            clause = Struct(":-", (head, body))
        else:
            clause = head
        compiled.append(compiler.compile_clause(clause))
    for cc in compiled:
        assert check_clause(cc, dictionary=ctx.dictionary) == []
    layout = build_procedure_layout(compiled)
    assert check_code(list(layout.code), arity=3,
                      dictionary=ctx.dictionary) == []
    report = analyze_clauses(compiled, layout=layout)
    assert report.findings == []


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["x", "y", "z"])),
    min_size=1, max_size=25))
def test_relops_match_python_semantics(rows):
    """db_select/db_project/db_count agree with plain Python."""
    session = EduceStar()
    rows = list(dict.fromkeys(rows))
    session.store_relation("t", rows)

    assert session.solve_once("db_count(t/2, N)")["N"] == len(rows)

    session.solve_once("db_select(t/2, t(_, x), only_x)")
    want = len([r for r in rows if r[1] == "x"])
    assert session.solve_once("db_count(only_x/2, N)")["N"] == want

    session.solve_once("db_project(t/2, [2], tags)")
    want = len({r[1] for r in rows})
    assert session.solve_once("db_count(tags/1, N)")["N"] == want


# ================================================================
# Optimizer differential fuzzer (docs/OPTIMIZER.md)
#
# Random clause sets run on two machines — ``optimize="off"`` and
# ``optimize="full"`` — and must produce identical answers *in the
# same order* for every goal, while every consulted procedure passes
# ``verify="full"`` on both.  Failures print the seed so the case can
# be replayed with ``_optimizer_fuzz_case(seed)``.
# ================================================================

_FUZZ_ATOMS = ("a", "b", "c", "d", "e")


def _random_program(rng):
    lines = []
    for name, arity in (("p", 2), ("q", 1), ("r", 3)):
        for _ in range(rng.randint(2, 6)):
            args = []
            for _k in range(arity):
                roll = rng.random()
                if roll < 0.5:
                    args.append(rng.choice(_FUZZ_ATOMS))
                elif roll < 0.8:
                    args.append(str(rng.randint(0, 5)))
                else:
                    args.append(f"V{rng.randint(0, 1)}")
            lines.append(f"{name}({', '.join(args)}).")
    # rules drive call-chain codegen
    lines.append("s(X, Y) :- p(X, Y).")
    lines.append("s(X, Y) :- q(X), r(X, Y, _).")
    lines.append("u(X) :- p(a, X).")
    # list clauses drive get_list/unify_variable codegen
    lines.append("t([H|T], H, T).")
    lines.append("t([], nil, nil).")
    return "\n".join(lines)


def _random_goals(rng):
    goals = ["p(A, B)", "q(A)", "r(A, B, C)", "s(A, B)", "u(A)",
             "t(A, B, C)", "t([a, b, c], H, T)"]
    goals.append(f"p({rng.choice(_FUZZ_ATOMS)}, B)")
    goals.append(f"p(A, {rng.randint(0, 5)})")
    goals.append(f"r(A, {rng.choice(_FUZZ_ATOMS)}, C)")
    goals.append(f"s({rng.choice(_FUZZ_ATOMS)}, B)")
    return goals


def _collect_answers(machine, goal, limit=30):
    from tests.test_optimizer import collect
    return collect(machine, goal, limit=limit)


def _optimizer_fuzz_case(seed, off, full):
    import random

    from repro.analysis.verifier import verify_code

    rng = random.Random(seed)
    program = _random_program(rng)
    goals = _random_goals(rng)
    for machine in (off, full):
        before = set(machine.procedures)
        machine.consult(program)
        for pid, proc in machine.procedures.items():
            if pid in before or proc.name.startswith("$"):
                continue
            verify_code(list(proc.code), arity=proc.arity,
                        dictionary=machine.dictionary, level="full",
                        procedure=f"{proc.name}/{proc.arity}")
    for goal in goals:
        got_off = _collect_answers(off, goal)
        got_full = _collect_answers(full, goal)
        assert got_full == got_off, (
            f"optimizer fuzz seed={seed}: {goal} diverged\n"
            f"  program:\n{program}\n"
            f"  off : {got_off}\n  full: {got_full}")
    assert full.optimizer.rejects == 0, (
        f"optimizer fuzz seed={seed}: gate rejected a block "
        f"{full.optimizer.last_reject}")


def test_optimizer_differential_fuzz():
    """≥100 random clause sets: off and full agree answer-for-answer,
    in order, and every block is verify="full" clean on both sides."""
    off = Machine(optimize="off")
    full = Machine(optimize="full")
    for seed in range(120):
        _optimizer_fuzz_case(seed, off, full)


def test_optimizer_differential_fuzz_unindexed():
    """The same differential with first-argument indexing disabled:
    the chain-demotion pass guards whole procedures (positions ≥ 0)."""
    off = Machine(optimize="off", index=False)
    full = Machine(optimize="full", index=False)
    for seed in range(200, 230):
        _optimizer_fuzz_case(seed, off, full)

# ================================================================
# Whole-program analysis soundness (docs/ANALYSIS.md)
# ================================================================

def _is_ground_term(term):
    if isinstance(term, Var):
        return False
    if isinstance(term, Struct):
        return all(_is_ground_term(a) for a in term.args)
    return True


def _modes_conforming_goal(ind, call_modes, rng):
    """A top-level goal at least as bound as the inferred call modes:
    ground terms where the analysis proved ground/nonvar, fresh
    variables elsewhere.  Such a call sits below the call abstraction,
    so the inferred success modes and cardinality bounds apply."""
    from repro.analysis.global_ import ANY
    name, arity = ind
    args, var_names = [], []
    for i, m in enumerate(call_modes):
        if m == ANY:
            args.append(f"M{i}")
            var_names.append((i, f"M{i}"))
        elif rng.random() < 0.7:
            args.append(rng.choice(_FUZZ_ATOMS))
        else:
            args.append(str(rng.randint(0, 5)))
    goal = f"{name}({', '.join(args)})" if arity else name
    return goal, var_names


def _modes_soundness_case(seed, machine):
    import random

    from repro.analysis.global_ import (GROUND, NONVAR, analyze_program,
                                        program_from_text)

    rng = random.Random(seed)
    program_text = _random_program(rng)
    machine.consult(program_text)
    report = analyze_program(program_from_text(program_text))
    assert not report.modes.widened, (
        f"modes fuzz seed={seed}: fixpoint widened on a program this "
        f"small\n{program_text}")

    limit = 60
    for ind, info in sorted(report.infos.items()):
        if info.source != "clauses":
            continue
        goal, var_names = _modes_conforming_goal(
            ind, info.call_modes, rng)
        solutions = []
        for sol in machine.solve(goal):
            solutions.append(dict(sol.bindings))
            if len(solutions) >= limit:
                break

        # Success-mode soundness: every answer binding at a position
        # inferred ground/nonvar must actually be ground/nonvar.
        for bindings in solutions:
            for pos, var_name in var_names:
                value = bindings.get(var_name)
                if value is None:
                    continue
                succ = info.success_modes[pos]
                if succ == GROUND:
                    assert _is_ground_term(value), (
                        f"modes fuzz seed={seed}: {goal} bound "
                        f"{var_name}={value!r} but position {pos} of "
                        f"{info.indicator} has success mode ground\n"
                        f"{program_text}")
                elif succ == NONVAR:
                    assert not isinstance(value, Var), (
                        f"modes fuzz seed={seed}: {goal} left "
                        f"{var_name} unbound but position {pos} of "
                        f"{info.indicator} has success mode nonvar\n"
                        f"{program_text}")

        # Cardinality soundness: the observed solution count must sit
        # inside the inferred [min, max] interval.
        low, high = report.cards.cards[ind]
        count = len(solutions)
        assert count >= low, (
            f"modes fuzz seed={seed}: {goal} produced {count} "
            f"solution(s), below the inferred minimum {low} "
            f"({info.determinism})\n{program_text}")
        if count < limit:
            assert count <= high, (
                f"modes fuzz seed={seed}: {goal} produced {count} "
                f"solution(s), above the inferred maximum {high} "
                f"({info.determinism})\n{program_text}")


def test_global_analysis_soundness_fuzz():
    """≥100 random programs: for calls conforming to the inferred call
    modes, observed runtime bindings respect the inferred success
    modes and observed solution counts respect the inferred
    cardinality interval."""
    machine = Machine(optimize="full")
    for seed in range(110):
        _modes_soundness_case(seed, machine)


def test_global_analysis_corpus_totality():
    """The fixpoint terminates without widening on every shipped
    corpus unit, and the analysis is total: every defined predicate
    gets call modes, success modes, and a determinism class."""
    from repro.analysis.corpus import corpus_entries
    from repro.analysis.global_ import analyze_program, program_from_text

    for entry in corpus_entries():
        program = program_from_text(entry.text,
                                    extra_defined=tuple(entry.extra_defined))
        report = analyze_program(program)
        assert not report.modes.widened, entry.name
        for ind in program.clauses:
            info = report.infos[ind]
            assert info.call_modes is not None, (entry.name, ind)
            assert info.success_modes is not None, (entry.name, ind)
            assert info.determinism in ("fails", "det", "semidet",
                                        "multi", "nondet"), \
                (entry.name, ind)
