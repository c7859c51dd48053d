"""In-memory spans for the traced benchmark run.

A span records one call the benchmark makes into a blindsim public
function: name, start, end, parent span and op id.  Spans are kept in
flat arrays and written out when the run ends.  Aggregates (call count,
total time, self time) are updated as each span closes, so every call is
counted even when the span store is full.

Self time is a span's duration minus the durations of its children.  Two
kinds of children exist:

* nested calls, made inside the parent's interval (the semantics hook
  that ``step`` calls back into);
* *replays*: the same public function called on the same inputs right
  after the parent stopped its clock, to time a layer that the parent
  runs internally (``decode`` and ``MemoryImage.store`` under ``step``,
  ``import_region`` under ``handle_frame``).  Their time lies outside
  the parent's interval and is excluded from the traced op time, so
  replays change no reply, state or simulated count.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter

_now = time.perf_counter
MAX_SPANS = 400_000  # spans stored; later ones are counted but not stored


class NullTracer:
    """Untraced stand-in: calls straight through, records nothing."""

    active = False
    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    replay = call

    def begin(self, name, replay=False):
        pass

    def stop(self):
        pass

    def close(self):
        pass

    def count(self, name, n=1):
        pass


class Tracer:
    active = True

    def __init__(self) -> None:
        self.t0 = _now()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.replay_flag = bytearray()
        self.dropped = 0
        self.op = -1
        # open spans: [index or -1 when not stored, name, start, end,
        # child time, replay, inside a replay]
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_total: Counter = Counter()
        self.counts: Counter = Counter()
        self.replay_time = 0.0

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, replay: bool = False) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        in_replay = replay or (parent is not None and parent[6])
        index = -1
        if len(self.start) < MAX_SPANS:
            index = len(self.start)
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(parent[0] if parent is not None else -1)
            self.op_id.append(self.op)
            self.replay_flag.append(1 if replay else 0)
        else:
            self.dropped += 1
        start = _now()
        stack.append([index, name, start, None, 0.0, replay, in_replay])
        if index >= 0:
            self.start[index] = start

    def stop(self) -> None:
        """Stop the innermost span's clock; replays may follow before close."""
        self._stack[-1][3] = _now()

    def close(self) -> None:
        end_time = _now()
        index, name, start, stopped, child, replay, in_replay = self._stack.pop()
        end = stopped if stopped is not None else end_time
        duration = end - start
        if index >= 0:
            self.end[index] = end
        self.calls[name] += 1
        self.total[name] += duration
        self.self_total[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if replay and not (self._stack and self._stack[-1][6]):
            self.replay_time += duration

    def unwind(self, depth: int) -> None:
        """Close spans left open by a call that raised."""
        while len(self._stack) > depth:
            self.close()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def replay(self, name, fn, *args, **kwargs):
        self.begin(name, replay=True)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # -- reading ------------------------------------------------------------

    def mean_us(self, *names: str) -> float:
        calls = sum(self.calls[n] for n in names)
        return sum(self.total[n] for n in names) / calls * 1e6 if calls else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls[name]
        return self.self_total[name] / calls * 1e6 if calls else 0.0

    def write(self, path) -> int:
        """Write stored spans as gzip'd JSON lines; returns the span count."""
        n = len(self.start)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(n):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name_id[i]],
                            "start_us": round((self.start[i] - self.t0) * 1e6, 3),
                            "end_us": round((self.end[i] - self.t0) * 1e6, 3),
                            "parent": self.parent[i],
                            "op": self.op_id[i],
                            "replay": bool(self.replay_flag[i]),
                        }
                    )
                    + "\n"
                )
        return n
