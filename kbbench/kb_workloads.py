"""The four workloads.  Each builds its data and its operation stream
from the seed and drives the system through its public API only
(``EduceStar``, ``QueryService``, ``ExternalStore``,
``repro.workloads.*``).

A workload is run as:

* ``prepare(seed)`` — query pools and reference answers (untimed;
  computed in a child process where they are large);
* ``setup(seed)`` — generate data, load the EDB, consult or store the
  rules, warm the caches (timed as ``setup_s``; ``release()`` drops a
  set-up system before the next set-up);
* ``operations(seed, blocks)`` — the fixed operation sequence;
* ``run(ops, rec)`` — the closed loop; returns one ``OpResult`` per
  operation.  Each answer is checked against its reference as it
  arrives, outside the operation's latency, and then dropped;
  ``wisconsin_service`` keeps a digest of each result and checks it
  in :meth:`failures`, after the system is closed;
* ``audit()`` — durability misses (``kb_update`` only).

Operations come in blocks of fixed composition (for example four reads
after every write), so a seed changes which keys and routes are asked,
not the kinds and number of operations in a block.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro import EduceStar, QueryService
from repro.lang.writer import term_to_text
from repro.relational.algebra import Filter, HashJoin, RangeSelect, Scan, Select
from repro.workloads import mvv, wisconsin

import kb_reference

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class OpResult:
    kind: str                      # "read" or "write"
    latency_s: float
    #: ``perf_counter`` time at which the answer reached the client
    done_at: float = 0.0
    error: Optional[str] = None
    #: whether the answer matched its reference
    ok: bool = False
    #: what the benchmark expects and what the system answered, held
    #: only until the answer is checked (for wisconsin_service, the
    #: operation and the digest of its result, checked after the run)
    expected: Any = None
    answer: Any = None
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: nominal operations per second at the commit that defined the
    #: benchmark, on a 2-core x86-64 container: sizes a run of
    #: ``--seconds`` seconds as a fixed operation count
    rate = 1.0
    #: operations per block; ``throughput_ops`` is the median of the
    #: blocks' rates
    block = 1
    #: blocks run, untimed, after the set-ups and before the timed pass
    warmup_blocks = 0

    def prepare(self, seed: int) -> None:
        pass

    def release(self) -> None:
        self.session = None

    def registry(self):
        """The MetricsRegistry whose snapshots bracket a timed pass."""
        return self.session.metrics

    def audit(self) -> int:
        return 0

    def close(self) -> None:
        self.release()

    def details(self) -> Dict[str, Any]:
        return {}

    def failures(self, results: List[OpResult]) -> int:
        """Operations that raised or answered wrongly."""
        return sum(1 for r in results if r.error is not None or not r.ok)

    def run(self, ops: list, rec=None, deadline: float = math.inf,
            first: int = 0) -> List[OpResult]:
        """Single-client closed loop: each operation starts when the
        previous one has answered.  No operation starts after
        *deadline* (a ``perf_counter`` time).  The client's time spent
        checking answers is left out of ``done_at``.  Spans are tagged
        with operation ids counted from *first*."""
        out = []
        checking = 0.0
        for index, op in enumerate(ops):
            if perf_counter() > deadline:
                break
            if rec is not None:
                rec.set_op(first + index)
                rec.enter("op")
            start = perf_counter()
            try:
                result = self.execute(op)
            except Exception as exc:  # an operation failure is counted
                result = OpResult(op[0], 0.0, error=repr(exc))
            finally:
                # Traced, the operation's span is its latency, so the
                # layers' self times add up to it exactly.
                latency = (perf_counter() - start if rec is None
                           else rec.exit())
            result.latency_s = latency
            done = perf_counter()
            result.done_at = done - checking
            if result.error is None:
                result.ok = self.check(result)
            result.expected = result.answer = None
            checking += perf_counter() - done
            out.append(result)
        return out


# ---------------------------------------------------------------- mvv_warm

class MvvWarm(Workload):
    """Table 1 "second run": warm replays of class-1/class-2 routes."""

    name = "mvv_warm"
    rate = 70.0
    #: one pass over the pools: 16 class-1 routes, 4 class-2 routes
    block = 20

    def prepare(self, seed: int) -> None:
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "kb_reference.py"),
             "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=150)
        reference = json.loads(child.stdout)
        self.class1, self.class2 = reference["class1"], reference["class2"]
        self.expected = reference["expected"]

    def setup(self, seed: int) -> None:
        data = mvv.generate(seed=seed)
        self.session = mvv.load_educestar(data, EduceStar(optimize="full"))
        for query in self.class1 + self.class2:
            list(self.session.solve(query))

    def operations(self, seed: int, blocks: int) -> list:
        """Each block asks every pool query once, one class-2 route
        after every four class-1 routes, in a seeded order."""
        rng = random.Random(seed * 1009 + 3)
        ops = []
        for _ in range(blocks):
            class1, class2 = list(self.class1), list(self.class2)
            rng.shuffle(class1)
            rng.shuffle(class2)
            for c2 in class2:
                picks = [class1.pop() for _ in range(4)]
                picks.insert(2, c2)
                ops.extend(("read", q) for q in picks)
        return ops

    def execute(self, op) -> OpResult:
        query = op[1]
        answer = list(self.session.solve(query))
        return OpResult("read", 0.0, expected=self.expected[query],
                        answer=answer)

    def check(self, result: OpResult) -> bool:
        return sorted(term_to_text(s["Plan"])
                      for s in result.answer) == result.expected


# ------------------------------------------------------- wisconsin_service

W = len(wisconsin.ATTRS)
# Operation mix of one block: clustered point selects (Q3) and 1 %
# selects (Q1) dominate, with 10 % selects (Q2) and the Q4/Q5 hash joins.
WISCONSIN_BLOCK = ["point", "sel1", "point", "sel1", "sel10", "point", "q4",
                   "sel1", "point", "sel1", "point", "sel10", "point",
                   "sel1", "q5", "point"]


def _wisconsin_plan(session, op):
    kind = op[0]
    tenk1 = session.relation("tenk1", W)
    if kind == "point":
        return Select(tenk1, {wisconsin.UNIQUE2: op[1]})
    lo, hi = op[1], op[2]
    if kind in ("sel1", "sel10"):
        return RangeSelect(tenk1, wisconsin.UNIQUE1, lo, hi)
    tenk2 = session.relation("tenk2", W)
    if kind == "q4":
        return HashJoin(RangeSelect(tenk2, wisconsin.UNIQUE1, lo, hi),
                        Scan(tenk1), wisconsin.UNIQUE1, wisconsin.UNIQUE1)
    two_way = HashJoin(RangeSelect(tenk1, wisconsin.UNIQUE1, lo, hi),
                       RangeSelect(tenk2, wisconsin.UNIQUE1, lo, hi),
                       wisconsin.UNIQUE1, wisconsin.UNIQUE1)
    reduced = Filter(two_way, lambda r: r[wisconsin.ONEPERCENT] < 1000)
    return HashJoin(reduced, Scan(session.relation("onek", W)),
                    wisconsin.ONEPERCENT, wisconsin.UNIQUE1)


class WisconsinService(Workload):
    """Wisconsin at the paper's sizes through QueryService(workers=2)."""

    name = "wisconsin_service"
    rate = 50.0
    block = len(WISCONSIN_BLOCK)
    in_flight = 2

    def failures(self, results: List[OpResult]) -> int:
        """Compare each result's digest with one computed in plain
        Python from ``wisconsin.generate_rows``.  Runs after the system
        is closed, so the reference rows never share the peak RSS."""
        if not results:
            return 0
        seed = self.seed
        tenk1 = wisconsin.generate_rows(10000, seed)
        t1 = {r[0]: r for r in tenk1}
        t2 = {r[0]: r for r in wisconsin.generate_rows(10000, seed + 1)}
        onek = {r[0]: r for r in wisconsin.generate_rows(1000, seed + 2)}
        failed = 0
        for result in results:
            op = result.expected
            kind = op[0]
            if kind == "point":
                rows = [tenk1[op[1]]]
            else:
                keys = range(op[1], op[2] + 1)
                if kind in ("sel1", "sel10"):
                    rows = [t1[k] for k in keys]
                elif kind == "q4":
                    rows = [t2[k] + t1[k] for k in keys]
                else:
                    rows = [t1[k] + t2[k] + onek[t1[k][6]] for k in keys]
            failed += (result.error is not None or result.answer
                       != kb_reference.wisconsin_digest(rows))
        return failed

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.service = QueryService(workers=2, queue_size=2 * self.in_flight)
        db = wisconsin.WisconsinDB.build(session=self.service.admin,
                                         seed=seed)
        self.sizes = dict(db.sizes)
        self.pages = self.service.store.pager.disk.page_count
        self.run(self.operations(seed + 7919, 1))

    def release(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.shutdown()
            self.service = None

    def details(self) -> Dict[str, Any]:
        return {"relation_rows": self.sizes, "relation_pages": self.pages,
                "pool_pages": self.service.store.pager.buffer.capacity}

    def operations(self, seed: int, blocks: int) -> list:
        rng = random.Random(seed * 1009 + 5)
        ops = []
        for _ in range(blocks):
            for kind in WISCONSIN_BLOCK:
                if kind == "point":
                    ops.append(("point", rng.randrange(10000)))
                else:
                    width = 100 if kind == "sel1" else 1000
                    lo = rng.randrange(10000 - width + 1)
                    ops.append((kind, lo, lo + width - 1))
        return ops

    def run(self, ops: list, rec=None, deadline: float = math.inf,
            first: int = 0) -> List[OpResult]:
        """One generator thread keeps two tickets in flight; each
        ticket reports its completion on a queue, so the generator
        submits the next operation as soon as either answers."""
        done: "queue.Queue[int]" = queue.Queue()
        exec_s = [0.0] * len(ops)
        results: List[Optional[OpResult]] = [None] * len(ops)

        def goal_for(index, op):
            def goal(session):
                if rec is not None:
                    rec.set_op(first + index)
                    rec.enter("op")
                try:
                    plan = _wisconsin_plan(session, op)
                    rows = list(plan.rows())
                    return rows, wisconsin.plan_tuple_ops(plan)
                finally:
                    if rec is not None:
                        exec_s[index] = rec.exit()
                    done.put(index)
            return goal

        tickets: Dict[int, Any] = {}
        started: Dict[int, float] = {}
        nxt = 0

        def submit():
            nonlocal nxt
            index = nxt
            nxt += 1
            started[index] = perf_counter()
            tickets[index] = self.service.submit(goal_for(index, ops[index]))

        while nxt < len(ops) and len(tickets) < self.in_flight:
            submit()
        while tickets:
            index = done.get()
            ticket = tickets.pop(index)
            result = OpResult("read", 0.0, expected=ops[index])
            try:
                rows, tuple_ops = ticket.result()
            except Exception as exc:  # an operation failure is counted
                result.error = repr(exc)
            end = perf_counter()
            if nxt < len(ops) and perf_counter() < deadline:
                submit()
            result.latency_s = end - started.pop(index)
            result.done_at = end
            if result.error is None:
                result.answer = kb_reference.wisconsin_digest(rows)
                result.extra = {"tuple_ops": tuple_ops,
                                "rows": len(rows),
                                "queue_wait_ms": ticket.queue_wait_ms,
                                "exec_ms": ticket.execute_ms}
                rows = None
            if rec is not None:
                # The service's share of the operation: queue wait,
                # lock acquisition and the hand-back to the client.
                rec.add("service", end - result.latency_s, end,
                        result.latency_s - exec_s[index], first + index)
            results[index] = result
        return [r for r in results if r is not None]

    def registry(self):
        return self.service.metrics


# ------------------------------------------------------ sliding windows

class _Window:
    """The benchmark's model of a sliding window of distinct keys: the
    write path retires the oldest key and adds a new one."""

    def __init__(self, size: int, seed: int) -> None:
        self.rng = random.Random(seed * 1009 + 11)
        self.payloads = {k: self._payload(k) for k in range(size)}
        self.live = list(range(size))    # oldest first
        self.oldest = 0
        self.next_key = size
        self.retired: List[int] = []

    def _payload(self, key: int) -> str:
        a, b, c = (self.rng.randrange(97), self.rng.randrange(13),
                   self.rng.randrange(7))
        return f"item({key},w{a},[{b},{c}])"

    def slide(self):
        """(new key, its payload, retired key) for the next write."""
        key = self.next_key
        self.next_key += 1
        payload = self._payload(key)
        return key, payload, self.live[self.oldest]

    def commit(self, key: int, payload: str) -> None:
        retired = self.live[self.oldest]
        self.oldest += 1
        self.live.append(key)
        self.payloads[key] = payload
        del self.payloads[retired]
        self.retired.append(retired)

    def pick(self, op) -> tuple:
        """Resolve a read: (key, expected payload or None)."""
        _, u, absent = op
        if absent and self.retired:
            key = self.retired[int(u * len(self.retired))]
            return key, None
        size = len(self.live) - self.oldest
        key = self.live[self.oldest + int(u * size)]
        return key, self.payloads[key]

    def keys(self) -> set:
        return set(self.live[self.oldest:])


def _window_ops(seed: int, blocks: int) -> list:
    """Blocks of one write and four bound reads; the last read of every
    other block asks for a retired key, whose answer must be empty."""
    rng = random.Random(seed * 1009 + 13)
    ops = []
    for b in range(blocks):
        ops.append(("write",))
        for i in range(4):
            ops.append(("read", rng.random(), i == 3 and b % 2 == 1))
    return ops


class KbUpdate(Workload):
    """A durable KB: one stored compiled-rules procedure updated by
    assert_external + ExternalStore.retract_clause."""

    name = "kb_update"
    rate = 13.0
    block = 5
    clauses = 4000
    #: the cost of a block steps up by about half after its first ten
    #: to twelve blocks, when the interpreter's young-generation garbage
    #: collections become several times dearer, and stays there; the
    #: timed pass measures that steady state
    warmup_blocks = 16

    def __init__(self) -> None:
        self.root = os.path.join(os.path.dirname(HERE), ".kbbench", "tmp")
        self.dirs: List[str] = []

    def setup(self, seed: int) -> None:
        os.makedirs(self.root, exist_ok=True)
        home = tempfile.mkdtemp(dir=self.root)
        self.dirs.append(home)
        self.path = os.path.join(home, "kb.edb")
        self.window = _Window(self.clauses, seed)
        self.session = EduceStar.create(self.path, optimize="full")
        self.session.store_program("\n".join(
            f"kb({k}, R) :- R = {p}." for k, p in self.window.payloads.items()))
        list(self.session.solve(f"kb({self.clauses // 2}, R)"))

    def close(self) -> None:
        self.release()
        for home in self.dirs:
            shutil.rmtree(home, ignore_errors=True)

    def details(self) -> Dict[str, Any]:
        store = self.session.store
        return {"kb_pages": store.clause_count_pages("kb", 2),
                "pool_pages": store.pager.buffer.capacity,
                "flush_policy": "WAL fsync on every append"}

    def operations(self, seed: int, blocks: int) -> list:
        return _window_ops(seed, blocks)

    def execute(self, op) -> OpResult:
        window = self.window
        if op[0] == "write":
            key, payload, retired = window.slide()
            clause = f"kb({key}, R) :- R = {payload}."
            self.session.assert_external(clause)
            # A key is its clause's id (audit() checks this).
            self.session.store.retract_clause("kb", 2, retired)
            window.commit(key, payload)
            return OpResult("write", 0.0, extra={"user_bytes": len(clause)})
        key, expected = window.pick(op)
        answer = [s["R"] for s in self.session.solve(f"kb({key}, R)")]
        return OpResult("read", 0.0, expected=expected, answer=answer)

    def check(self, result: OpResult) -> bool:
        if result.kind == "write":
            return True
        texts = [term_to_text(t) for t in result.answer]
        return texts == ([] if result.expected is None
                         else [result.expected])

    def audit(self) -> int:
        """Reopen the EDB from its files (recovery replays the WAL) and
        count acknowledged asserts and retracts it does not reflect."""
        reopened = EduceStar.open(self.path)
        ids = {sc.summaries[0][1]: sc.clause_id
               for sc in reopened.store.fetch_clauses("kb", 2)}
        if any(key != cid for key, cid in ids.items()):
            # The writes retract by clause id and take a key's id to be
            # the key, which holds while the store numbers a procedure's
            # clauses 0, 1, ... in assert order.
            raise RuntimeError("kb_update: stored clause ids no longer "
                               "equal the clause keys; the write path "
                               "must look the ids up")
        stored = set(ids)
        live = self.window.keys()
        misses = len(live - stored) + len(stored - live)
        for key in self.window.live[-4:]:
            answers = [term_to_text(s["R"])
                       for s in reopened.solve(f"kb({key}, R)")]
            misses += answers != [self.window.payloads[key]]
        return misses


class DynUpdate(Workload):
    """The WAM's in-memory dynamic database under retract + assertz."""

    name = "dyn_update"
    rate = 9.5
    block = 5
    clauses = 2000

    def setup(self, seed: int) -> None:
        self.window = _Window(self.clauses, seed)
        self.session = EduceStar()
        self.session.consult(":- dynamic(d/2).")
        for key, payload in self.window.payloads.items():
            self.session.solve_once(f"assertz(d({key}, {payload}))")
        self.session.solve_once(f"d({self.clauses // 2}, X)")

    def details(self) -> Dict[str, Any]:
        proc = self.session.machine.procedure("d", 2)
        return {"dynamic_clauses": len(proc.clauses)}

    def operations(self, seed: int, blocks: int) -> list:
        return _window_ops(seed, blocks)

    def execute(self, op) -> OpResult:
        window = self.window
        session = self.session
        if op[0] == "write":
            key, payload, retired = window.slide()
            removed = session.solve_once(f"retract(d({retired}, _))")
            added = session.solve_once(f"assertz(d({key}, {payload}))")
            window.commit(key, payload)
            return OpResult("write", 0.0, expected=True,
                            answer=removed is not None and added is not None)
        key, expected = window.pick(op)
        answer = session.solve_once(f"d({key}, X)")
        return OpResult("read", 0.0, expected=expected, answer=answer)

    def check(self, result: OpResult) -> bool:
        if result.kind == "write":
            return result.answer is True
        text = None if result.answer is None else term_to_text(
            result.answer["X"])
        return text == result.expected


WORKLOADS = {w.name: w for w in (MvvWarm, WisconsinService, KbUpdate,
                                 DynUpdate)}
