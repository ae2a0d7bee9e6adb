"""Reference answers that do not come from the WAM compiler.

* MVV class-1 answers come from the Educe baseline interpreter
  (``repro.engine.educe_baseline``).
* MVV class-2 answers come from :class:`MvvModel`, a plain-Python
  evaluation of the journey rules over the generated relations.  The
  baseline needs about 2.5 s per class-2 query, more than a run can
  spend on checking; it agrees with this evaluation on the pools the
  benchmark draws.
* Wisconsin results are computed from ``wisconsin.generate_rows``.

The MVV pools and their answers are computed in a child process, so
neither the baseline nor the model shows in the workload's peak RSS::

    python3 kbbench/kb_reference.py --seed N

prints ``{"class1": [...], "class2": [...], "expected": {query: sorted
answer texts}}`` as JSON.

:meth:`MvvModel.answers` also estimates a query's cost, which
:func:`mvv_pools` uses to draw query pools of similar cost on every
seed (kbbench/pool_spread.py measures what that buys).
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Dict, List, Tuple

_QUERY = re.compile(r"(\w+)\((\w+), (\w+), (\d+), Plan\)")

#: cost of one answer, in inspected tuples: each answer runs one or two
#: findall-driven next_departure calls.  A least-squares fit of warm
#: class-2 times on the reference container gave about 2.5 ms per answer
#: and 0.055 ms per inspected tuple.
ANSWER_COST = 45


def query_parts(query: str) -> Tuple[str, str, str, int]:
    match = _QUERY.fullmatch(query)
    if match is None:
        raise ValueError(f"not an MVV journey query: {query!r}")
    kind, a, b, t0 = match.groups()
    return kind, a, b, int(t0)


class MvvModel:
    """The §5.1 journey rules evaluated directly over the relations."""

    def __init__(self, data) -> None:
        self.on_line: Dict[str, List[tuple]] = {}
        self.line_stops: Dict[tuple, List[tuple]] = {}
        for row in data.schedule3:
            line, direction, seq, stop = row[0], row[1], row[2], row[3]
            self.on_line.setdefault(stop, []).append((line, direction, seq))
            self.line_stops.setdefault((line, direction), []).append(
                (seq, stop))
        self.departures: Dict[tuple, List[int]] = {}
        for line, direction, hh, mm, _ in data.schedule2:
            self.departures.setdefault((line, direction), []).append(
                hh * 60 + mm)
        self.work = 0

    def _next_departure(self, line, direction, t0):
        times = self.departures.get((line, direction), ())
        later = [t for t in times if t >= t0]
        return min(later) if later else None

    def _class1(self, a, b, t0):
        for line, direction, qa in self.on_line.get(a, ()):
            self.work += 1
            for line_b, dir_b, qb in self.on_line.get(b, ()):
                if (line_b, dir_b, qb) != (line, direction, qa + 1):
                    continue
                dep = self._next_departure(line, direction, t0)
                if dep is not None:
                    yield f"journey({line},{direction},{dep},{dep + 2})"

    def _route(self, a, b, t0):
        for line, direction, qa in self.on_line.get(a, ()):
            self.work += 1
            for line_b, dir_b, qb in self.on_line.get(b, ()):
                if (line_b, dir_b) != (line, direction) or not qa < qb:
                    continue
                dep = self._next_departure(line, direction, t0)
                if dep is not None:
                    yield f"direct({line},{dep},{dep + (qb - qa) * 2})"
        for l1, d1, qa in self.on_line.get(a, ()):
            for qc, c in self.line_stops[(l1, d1)]:
                self.work += 1
                if not qa < qc:
                    continue
                for l2, d2, qc2 in self.on_line.get(c, ()):
                    self.work += 1
                    for line_b, dir_b, qb in self.on_line.get(b, ()):
                        if ((line_b, dir_b) != (l2, d2) or not qc2 < qb
                                or l1 == l2):
                            continue
                        dep1 = self._next_departure(l1, d1, t0)
                        if dep1 is None:
                            continue
                        arr1 = dep1 + (qc - qa) * 2 + 3
                        dep2 = self._next_departure(l2, d2, arr1)
                        if dep2 is None:
                            continue
                        arr = dep2 + (qb - qc2) * 2
                        yield f"change({l1},{c},{l2},{dep1},{arr})"

    def answers(self, query: str) -> Tuple[List[str], int]:
        """Sorted answer texts of *query* and its estimated cost: the
        schedule tuples it inspects plus :data:`ANSWER_COST` per answer."""
        kind, a, b, t0 = query_parts(query)
        self.work = 0
        solve = self._class1 if kind == "class1" else self._route
        found = sorted(solve(a, b, t0))
        return found, self.work + ANSWER_COST * len(found)


#: cost targets of the MVV query pools, as estimated by
#: :meth:`MvvModel.answers`: the middle of the class-1 candidates, and a
#: class-2 route of about 55 ms warm on the reference container.  Every
#: seed draws queries whose estimated cost is near these targets, so a
#: seed changes which routes are asked, not how much work a run does.
CLASS1_WORK, CLASS2_WORK = 145, 1000


def _closest(scored: List[tuple], target: int, k: int) -> List[str]:
    """The *k* queries whose cost is nearest *target* (ties broken by
    query text), in their original order."""
    chosen = sorted(scored, key=lambda qw: (abs(qw[1] - target), qw[0]))[:k]
    keep = {q for q, _ in chosen}
    return [q for q, _ in scored if q in keep]


def mvv_pools(data, seed: int, model: MvvModel):
    """Class-1 and class-2 query pools of similar cost on every seed."""
    from repro.workloads import mvv
    pools = []
    for queries, target, k in (
            (mvv.class1_queries(data, 64, seed=seed + 1), CLASS1_WORK, 16),
            (mvv.class2_queries(data, 40, seed=seed + 2), CLASS2_WORK, 4)):
        scored = [(q, model.answers(q)[1]) for q in dict.fromkeys(queries)]
        pools.append(_closest(scored, target, k))
    return pools[0], pools[1]


def wisconsin_digest(rows) -> Tuple[int, int]:
    """Order-insensitive digest of a result: (row count, hash sum)."""
    return len(rows), sum(map(hash, rows))


def mvv_reference(seed: int) -> dict:
    """The seed's MVV pools and the answers expected for them."""
    from repro.lang.writer import term_to_text
    from repro.workloads import mvv

    data = mvv.generate(seed=seed)
    model = MvvModel(data)
    class1, class2 = mvv_pools(data, seed, model)
    expected = {q: model.answers(q)[0] for q in class2}
    baseline = mvv.load_baseline(data)
    for q in class1:
        expected[q] = sorted(term_to_text(s["Plan"])
                             for s in baseline.solve(q))
    return {"class1": class1, "class2": class2, "expected": expected}


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    json.dump(mvv_reference(seed), sys.stdout)
