"""Spans and counts for the traced run of the rtec benchmark.

The library has no instrumentation of its own, so the tracer wraps public
functions in the namespaces their callers look them up in (for example
`rtec.pipeline.build_parser`, which `build_pipeline` calls, and
`UniformParser.parse`, which `Pipeline.run_unambiguous` calls) and restores
them afterwards.  A span is (name, start, end, parent, request); spans stay
in memory until the run writes them out.  Layer names follow the modules.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

from rtec import expr, machines, pipeline

# (namespace, attribute, span name); the span name is the module that
# defines the function, whatever namespace the caller uses
WRAPPED = [
    (expr, "parse_rte", "expr.parse_rte"),
    (expr, "label_occurrences", "expr.label_occurrences"),
    (pipeline, "build_pipeline", "pipeline.build_pipeline"),
    (pipeline, "build_parser", "parser_build.build_parser"),
    (pipeline, "build_evaluator", "evaluator_build.build_evaluator"),
    (pipeline, "build_functionality_checker",
     "pipeline.build_functionality_checker"),
    (pipeline, "build_unambiguity_acceptor",
     "pipeline.build_unambiguity_acceptor"),
    (pipeline, "determinize", "machines.determinize"),
    (pipeline, "uniformize_parser", "pipeline.uniformizer_init"),
    (pipeline.UniformParser, "parse", "pipeline.uniform_parse"),
    (machines.Dfa, "accepts", "machines.dfa_accepts"),
    (pipeline, "run_two_way", "machines.run_two_way"),
    (machines, "run_two_way", "machines.run_two_way"),
    (machines, "enumerate_outputs", "machines.enumerate_outputs"),
]


class Tracer:
    """In-memory span recorder with counters filled at the same boundaries."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, request]
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.two_way_args = []  # replayed untimed for steps and reversals
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        after = self._hooks().get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters recorded where the work happens -----------------------------

    def _hooks(self):
        counts = self.counts

        def accepts(_args, result):
            if not result:
                counts["gate_rejects"] += 1

        def parse(args, result):
            if result is not None:
                counts["parsed_letters"] += len(args[1])
                counts["parsed_symbols"] += len(result)

        def two_way(args, _result):
            self.two_way_args.append((args[0], args[1]))

        def enumerate_(_args, result):
            counts["bracketings"] += len(result.outputs)
            counts["truncated_words"] += int(result.truncated)

        return {"machines.dfa_accepts": accepts,
                "pipeline.uniform_parse": parse,
                "machines.run_two_way": two_way,
                "machines.enumerate_outputs": enumerate_}

    # -- installation -----------------------------------------------------------

    def install(self):
        for (ns, attr, name) in WRAPPED:
            original = ns.__dict__[attr]
            self._saved.append((ns, attr, original))
            setattr(ns, attr, self.wrap(name, original))

    def uninstall(self):
        for (ns, attr, original) in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for (_n, start, end, parent, _r) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _p, _r) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def call_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


def replay_two_way(args) -> tuple:
    """Steps and head reversals of recorded two-way calls, rerun untimed
    with the trace on."""
    steps = reversals = 0
    for (evaluator, word) in args:
        res = machines.run_two_way(evaluator, word, want_trace=True)
        trace = res.trace
        steps += max(0, len(trace) - 1)
        signs = evaluator.signs
        for (a, b) in zip(trace, trace[1:]):
            if signs[a.state] != signs[b.state]:
                reversals += 1
    return steps, reversals


def useful_states(t: machines.OneWayTransducer) -> int:
    """States both reachable from the initial state and co-reachable to a
    final state."""
    fwd, bwd = defaultdict(list), defaultdict(list)
    for (src, _a, _o, dst) in t.transitions:
        fwd[src].append(dst)
        bwd[dst].append(src)
    return len(_closure({t.initial}, fwd) & _closure(set(t.finals), bwd))


def reachable_states(nfa: machines.Nfa) -> int:
    adj = defaultdict(list)
    for (src, _a, dst) in nfa.transitions:
        adj[src].append(dst)
    return len(_closure({nfa.initial}, adj))


def _closure(start: set, adj) -> set:
    seen = set(start)
    stack = list(start)
    while stack:
        s = stack.pop()
        for d in adj.get(s, ()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen
