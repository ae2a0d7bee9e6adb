#!/usr/bin/env python3
"""An interactive Educe* top level.

A minimal shell over an :class:`~repro.EduceStar` session:

* ``?- Goal.``  or just ``Goal.``     — solve; ``;`` for more answers
* ``:- Directive.``                    — op/3, pred/1, dynamic/1, ...
* ``[consult 'file.pl'].`` style loading via the commands below
* shell commands (no terminating dot):

  ==============  ==============================================
  ``:load F``     consult a Prolog file into main memory
  ``:store F``    compile a Prolog file into the EDB
  ``:save F``     persist the EDB (atomic checkpoint; see
                  docs/DURABILITY.md)
  ``:open F``     reopen a saved EDB in a fresh session, running
                  crash recovery; prints the recovery report
  ``:listing P``  show clauses / disassembly for predicate P
  ``:trace``      toggle per-query tracing (``:trace on|off``);
                  when on, each query prints its profile: span
                  tree, counter deltas, simulated-1990-ms breakdown
  ``:stats``      session counters by component + simulated-ms
                  breakdown + the last traced query's profile
  ``:top``        live telemetry dashboard: latency histograms
                  (count/p50/p90/p99/max) and hot counters,
                  refreshing once a second on a tty (Ctrl-C to
                  stop; renders once when piped)
  ``:events N``   tail of the flight recorder — the last N (default
                  20) structured events: evictions, WAL poisoning,
                  recovery, ... (docs/OBSERVABILITY.md)
  ``:export F``   append the last traced query's profile to F
                  as JSON lines (see docs/OBSERVABILITY.md)
  ``:plan G``     explain how goal G would be evaluated without
                  running it: top-down (WAM) or bottom-up
                  (semi-naive Datalog), the planner's reason, the
                  strata, and the magic-set adornment for the bound
                  arguments (docs/DATALOG.md)
  ``:explain G``  the full EXPLAIN plan tree for goal G — strategy
                  decision with cost inputs, magic adornment,
                  strata/rules or compiled code shape, optimizer
                  state; ``:explain analyze G`` also runs the goal
                  and attaches measurements (answers, wall time,
                  counter deltas, per-pass fixpoint delta rows);
                  docs/OBSERVABILITY.md, "Explain plans"
  ``:profile``    sampled WAM profiler (docs/OBSERVABILITY.md):
                  ``:profile on [interval]`` starts sampling,
                  ``:profile off`` stops, ``:profile`` prints the
                  per-predicate attribution table, ``:profile
                  folded F`` writes flamegraph.pl-compatible
                  folded stacks to F, ``:profile reset`` clears
  ``:verify P``   static analysis of predicate P (``name/arity``):
                  structural + abstract verification of its compiled
                  code, first-argument partitions, dead clauses
                  (rule glossary: docs/ANALYSIS.md)
  ``:modes [P]``  whole-program analysis of the loaded program
                  (docs/ANALYSIS.md): inferred call/success modes
                  (``g``/``n``/``a`` letters) and determinism class
                  per predicate — all of them, or just ``name`` /
                  ``name/arity``; ``:modes apply`` feeds the proven
                  bindings to the optimizer (mode-driven dispatch),
                  ``:modes clear`` reverts
  ``:optimize [L]``  show or set the code-optimization level —
                  ``off`` or ``full`` (determinism-driven dispatch);
                  with no argument prints the level and the
                  ``wam_opt_*`` counters (docs/OPTIMIZER.md)
  ``:lint [F]``   lint a Prolog file — or, with no argument, the
                  whole shipped corpus (prelude, workloads,
                  examples), same as ``python -m repro.analysis``
  ``:help``       this text
  ``:quit``       leave
  ==============  ==============================================

Run:  python examples/repl.py            (interactive)
      echo "X is 6*7." | python examples/repl.py   (piped)
"""

import sys
import time

from repro import EduceStar, term_to_text
from repro.errors import ReproError

# Counter groups for :stats (full glossary: docs/OBSERVABILITY.md).
_STATS_GROUPS = (
    ("machine", ("instr_count", "data_refs", "cp_refs", "cp_created",
                 "backtracks", "calls", "unify_ops", "compile_count",
                 "heap_high_water", "gc_runs", "gc_cells_recovered")),
    ("loader", ("loads", "cache_hits", "clauses_fetched",
                "clauses_delivered", "resolutions",
                "preunify_executions", "preunify_rejections")),
    ("parser", ("parsed_chars",)),
    ("storage", ("reads", "writes", "bytes_read", "bytes_written",
                 "pages", "buffer_hits", "buffer_misses",
                 "buffer_evictions", "buffer_writebacks",
                 "buffer_resident")),
)

TRACE = {"on": False}


def show_solutions(session, goal_text: str, interactive: bool) -> None:
    try:
        solutions = session.solve(goal_text, profile=TRACE["on"])
        found = False
        for solution in solutions:
            found = True
            if solution.bindings:
                bindings = ",  ".join(
                    f"{name} = {term_to_text(value)}"
                    for name, value in sorted(solution.bindings.items()))
                print(bindings)
            else:
                print("true.")
                break
            if interactive:
                answer = input("more? (;) ").strip()
                if answer != ";":
                    break
            else:
                break
        if not found:
            print("false.")
        if TRACE["on"]:
            solutions.close()   # finalise the profile
            if session.last_profile is not None:
                print(session.last_profile.format())
    except ReproError as exc:
        print(f"error: {exc}")


def show_stats(session) -> None:
    snapshot = session.metrics.snapshot()
    shown = set()
    for group, keys in _STATS_GROUPS:
        lines = [f"    {key}: {snapshot[key]:g}"
                 for key in keys if key in snapshot]
        shown.update(keys)
        if lines:
            print(f"  {group}:")
            print("\n".join(lines))
    extra = [k for k in sorted(snapshot) if k not in shown]
    if extra:
        print("  other:")
        for key in extra:
            print(f"    {key}: {snapshot[key]:g}")
    sim = session.cost_model.breakdown(snapshot)
    print(f"  simulated 1990 ms (whole session): "
          f"{sim['total_ms']:.2f} "
          f"(cpu {sim['cpu_ms']:.2f} + io {sim['io_ms']:.2f})")
    terms = {**sim["cpu"], **sim["io"]}
    body = "  ".join(f"{k}={v:.2f}" for k, v in terms.items() if v)
    if body:
        print(f"    by term: {body}")
    if session.last_profile is not None:
        print("  last traced query:")
        for line in session.last_profile.format().splitlines():
            print("    " + line)


#: counters worth a dashboard line, in display order
_TOP_COUNTERS = (
    "instr_count", "calls", "backtracks", "loads", "cache_hits",
    "reads", "writes", "buffer_hits", "buffer_misses",
    "buffer_evictions", "wal_appends", "events_recorded",
    "events_dropped",
)


def render_top(snapshot: dict) -> str:
    """The telemetry dashboard: one line per histogram family, then
    the hot counters.  Histogram families are recognised the same way
    the registry recognises them (``X.count`` + ``X.sum``)."""
    from repro.obs.registry import _histogram_families
    lines = [f"  {'histogram (ms)':<24}{'count':>8}{'p50':>9}"
             f"{'p90':>9}{'p99':>9}{'max':>10}"]
    families = sorted(_histogram_families(snapshot))
    for base in families:
        count = snapshot.get(f"{base}.count", 0)
        cells = []
        for suffix in ("p50", "p90", "p99", "max"):
            value = snapshot.get(f"{base}.{suffix}")
            cells.append("-" if value is None else f"{value:.3f}")
        lines.append(f"  {base:<24}{count:>8g}{cells[0]:>9}"
                     f"{cells[1]:>9}{cells[2]:>9}{cells[3]:>10}")
    if not families:
        lines.append("  (no observations yet)")
    lines.append("")
    lines.append("  counters:")
    for key in _TOP_COUNTERS:
        if key in snapshot:
            lines.append(f"    {key:<22} {snapshot[key]:g}")
    return "\n".join(lines)


def show_top(session, interactive: bool) -> None:
    if not interactive:
        print(render_top(session.metrics.snapshot()))
        return
    try:
        while True:
            # Home + clear-to-end keeps the refresh flicker-free.
            print("\033[H\033[J" + render_top(session.metrics.snapshot()))
            print("\n  (refreshing every 1s — Ctrl-C to return)")
            time.sleep(1.0)
    except KeyboardInterrupt:
        print()


def show_events(session, arg: str) -> None:
    try:
        n = int(arg) if arg else 20
    except ValueError:
        print("usage: :events [N]")
        return
    events = session.store.events.tail(n)
    if not events:
        print("  (flight recorder is empty)")
        return
    for event in events:
        attrs = "  ".join(f"{k}={v}" for k, v in event.items()
                          if k not in ("seq", "ts", "kind"))
        stamp = time.strftime("%H:%M:%S", time.localtime(event["ts"]))
        print(f"  #{event['seq']:<6} {stamp}  {event['kind']:<16} {attrs}")


def command(session, line: str, interactive: bool):
    parts = line.split(None, 1)
    cmd = parts[0]
    arg = parts[1].strip() if len(parts) > 1 else ""
    if cmd == ":quit":
        return None
    if cmd == ":help":
        print(__doc__)
    elif cmd == ":load" and arg:
        session.machine.consult_file(arg)
        print(f"loaded {arg}")
    elif cmd == ":store" and arg:
        with open(arg, "r", encoding="utf-8") as f:
            session.store_program(f.read())
        print(f"stored {arg} in the EDB")
    elif cmd == ":save" and arg:
        session.save(arg)
        print(f"saved EDB to {arg} (checkpoint atomic, WAL reset)")
    elif cmd == ":open" and arg:
        session = EduceStar.open(arg)
        report = session.store.recovery
        if report is not None:
            print(report.format())
        else:
            print(f"opened {arg}")
        dropped = [p for p in session.store.procedures()
                   if p.mode == "rules"]
        if dropped and not len(session.store.datalog_rules):
            names = ", ".join(f"{p.name}/{p.arity}" for p in dropped[:8])
            print(f"  note: {len(dropped)} stored rules procedure(s) "
                  f"({names}) have no live Datalog rulebase — it was "
                  "dropped with the checkpoint, so recursive queries "
                  "run on the WAM until re-stored (docs/DATALOG.md)")
    elif cmd == ":listing" and arg:
        session.machine.output.clear()
        if session.solve_once(f"listing({arg})") is not None:
            print("".join(session.machine.output), end="")
        else:
            print(f"no such predicate: {arg}")
    elif cmd == ":stats":
        show_stats(session)
    elif cmd == ":top":
        show_top(session, interactive)
    elif cmd == ":events":
        show_events(session, arg)
    elif cmd == ":trace":
        if arg not in ("", "on", "off"):
            print("usage: :trace [on|off]")
        else:
            TRACE["on"] = (arg == "on") if arg else not TRACE["on"]
            print(f"tracing {'on' if TRACE['on'] else 'off'}")
    elif cmd == ":optimize":
        from repro.wam.optimizer import OPT_LEVELS
        if arg and arg not in OPT_LEVELS:
            print("usage: :optimize [off|full]")
        elif arg:
            session.set_optimize(arg)
            print(f"optimize {arg}")
        else:
            opt = {k: v for k, v in session.counters().items()
                   if k.startswith("wam_opt_")}
            print(f"optimize {session.optimize} ({opt})")
    elif cmd == ":plan" and arg:
        print(session.datalog.explain(arg.rstrip(".")))
    elif cmd == ":explain" and arg:
        head, _, rest = arg.partition(" ")
        if head == "analyze" and rest:
            print(session.analyze(rest.strip().rstrip(".")).format())
        else:
            print(session.explain(arg.rstrip(".")).format())
    elif cmd == ":profile":
        sub, _, rest = arg.partition(" ")
        rest = rest.strip()
        if sub == "on":
            interval = int(rest) if rest.isdigit() else None
            prof = session.enable_profiling(interval)
            print(f"profiling on (interval {prof.interval})")
        elif sub == "off":
            session.disable_profiling()
            print("profiling off")
        elif sub == "reset":
            if session.profiler is not None:
                session.profiler.reset()
            print("profile cleared")
        elif sub == "folded" and rest:
            if session.profiler is None:
                print("no profiler (:profile on first)")
            else:
                lines = session.profiler.folded()
                with open(rest, "a", encoding="utf-8") as f:
                    for fold in lines:
                        f.write(fold + "\n")
                print(f"appended {len(lines)} folded stacks to {rest}")
        elif sub == "":
            if session.profiler is None:
                print("no profiler (:profile on first)")
            else:
                print(session.profiler.format(
                    cost_model=session.cost_model))
        else:
            print("usage: :profile [on [interval]|off|reset|folded F]")
    elif cmd == ":verify" and arg:
        from repro.analysis import describe_procedure
        name, slash, arity_text = arg.rpartition("/")
        if not slash or not arity_text.isdigit():
            print("usage: :verify name/arity")
        else:
            print(describe_procedure(session, name, int(arity_text)))
    elif cmd == ":modes":
        from repro.analysis import describe_modes
        if arg == "apply":
            report = session.apply_global_modes(refresh=True)
            bound = report.bound_args()
            print(f"applied: {len(bound)} predicate(s) with proven-"
                  "ground arguments feed mode-driven dispatch "
                  f"(wam_opt_mode_guards counts uses)")
            if session.optimize != "full":
                print(f"note: optimize is '{session.optimize}' — "
                      "guards plant only at :optimize full")
        elif arg == "clear":
            session.clear_global_modes()
            print("cleared: optimizer back to call-site-only guards")
        elif arg:
            name, slash, arity_text = arg.rpartition("/")
            if slash and arity_text.isdigit():
                print(describe_modes(session, name, int(arity_text)))
            else:
                print(describe_modes(session, arg))
        else:
            print(describe_modes(session))
    elif cmd == ":lint":
        from repro.analysis.corpus import CorpusEntry, corpus_entries
        from repro.analysis.lint import lint_text
        if arg:
            with open(arg, "r", encoding="utf-8") as f:
                entries = [CorpusEntry(arg, f.read())]
        else:
            entries = corpus_entries()
        total = 0
        for entry in entries:
            findings = lint_text(entry.text, name=entry.name,
                                 extra_defined=entry.extra_defined)
            total += len(findings)
            for finding in findings:
                print(f"  {entry.name}: {finding.rule} "
                      f"{finding.indicator}: {finding.message}")
        print(f"{len(entries)} unit(s), {total} finding(s)")
    elif cmd == ":export" and arg:
        if session.last_profile is None:
            print("no traced query yet (:trace, then run a query)")
        else:
            from repro.obs import write_json_lines
            n = write_json_lines(arg, [session.last_profile])
            print(f"appended {n} JSON lines to {arg}")
    else:
        print(f"unknown command {line!r}; :help for help")
    return session


def main() -> None:
    session = EduceStar()
    interactive = sys.stdin.isatty()
    if interactive:
        print("Educe* top level — :help for commands, :quit to leave")
    buffer = ""
    while True:
        try:
            prompt = "?- " if not buffer else "   "
            line = input(prompt if interactive else "")
        except EOFError:
            break
        line = line.strip()
        if not line:
            continue
        if not buffer and line.startswith(":") and not line.startswith(":-"):
            try:
                session = command(session, line, interactive)
            except (ReproError, OSError) as exc:
                print(f"error: {exc}")
                continue
            if session is None:
                break
            continue
        buffer += " " + line
        if not buffer.rstrip().endswith("."):
            continue
        text = buffer.strip()
        buffer = ""
        if text.startswith("?-"):
            text = text[2:].strip()
        if text.startswith(":-"):
            try:
                session.consult(text + ("" if text.endswith(".") else "."))
                print("true.")
            except ReproError as exc:
                print(f"error: {exc}")
            continue
        show_solutions(session, text.rstrip("."), interactive)


if __name__ == "__main__":
    main()
