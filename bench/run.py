"""rtec benchmark: compile time and per-word evaluation latency.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop: each word is submitted
only after the previous evaluation returned.  Every evaluation is checked
against its reference (see workloads.py).  With --trace 0 the run makes
passes for about S seconds, at least two: a pass compiles the workload's
expressions from text (set-up) and then evaluates every job once under both
semantics.  Timings are expressed at a reference host speed (see HostSpeed)
and a job's latency is its median over the passes.  With --trace 1 it makes
one pass untraced, the same pass traced, and prints the per-layer metrics.
The last line of standard output is the result; the line before it records
the run's provenance.  The exit code is 1 when any output was wrong, 2 on
bad arguments or a missing source tree.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Tail percentile: the highest of these with at least ten jobs beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)

# Seconds one probe() takes on the idle 2-core host the benchmark was sized
# on (the 5th percentile of the probes of six 30-second runs), and the
# interval between probes during a run.
PROBE_REF_S = 0.00097
PROBE_EVERY_S = 0.25


# ---------------------------------------------------------------------------
# Host speed

def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that allocates no tracked
    objects, so the library's heap and the collector do not affect it."""
    t0 = perf_counter()
    d = {}
    for i in range(20000):
        d[i & 255] = i
    return perf_counter() - t0


class HostSpeed:
    """Probe timings over a run, to express timings at a reference speed.

    Other tenants of a shared host slow every process on it, by up to 1.7x
    for stretches of seconds to minutes; a run of a minute may see none of
    it or nothing else.  Each timing is multiplied by PROBE_REF_S over the
    median of the two probes before it and the two after it.
    """

    def __init__(self):
        self.times = []
        self.values = []

    def sample(self):
        now = perf_counter()
        self.values.append(probe())
        self.times.append(now)

    def sample_if_due(self):
        if not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        k = bisect.bisect(self.times, t)
        near = self.values[max(0, k - 2):k + 2]
        return PROBE_REF_S / statistics.median(near)

    def slowdown(self) -> float:
        return statistics.median(self.values) / PROBE_REF_S


# ---------------------------------------------------------------------------
# Compile and evaluate, through module attributes so the tracer's wrappers
# are the functions called

def compile_all(work, expr_mod, pipeline_mod, tracer=None) -> list:
    out = []
    for i, spec in enumerate(work.exprs):
        if tracer is not None:
            tracer.request = ("compile", i)
            span = tracer.begin("bench.compile")
        h = expr_mod.label_occurrences(
            expr_mod.parse_rte(spec.text, spec.sigma, spec.gamma))
        out.append(pipeline_mod.build_pipeline(h, spec.sigma))
        if tracer is not None:
            tracer.end(span)
    return out


def relational(pl, word, machines_mod):
    """As `rtec eval --mode relational`: every bracketing, then the
    evaluator on each."""
    res = machines_mod.enumerate_outputs(pl.parser, word)
    values = set()
    for al in res.outputs:
        r = machines_mod.run_two_way(pl.evaluator, al)
        if r.status == "accept":
            values.add(r.output)
    return values, res.truncated


def rsem_ok(job, values, truncated) -> bool:
    # an infinite value set is cut off on both sides; the machine must
    # report the cut and agree with the oracle on what it enumerated
    return values == job.rsem and (truncated or not job.rsem_truncated)


class Loop:
    """Closed-loop evaluation of jobs, recording (start, job, unambiguous
    seconds, relational seconds) per evaluation."""

    def __init__(self, work, machines_mod, tracer=None, host=None):
        self.work = work
        self.pipelines = None
        self.machines = machines_mod
        self.tracer = tracer
        self.host = host
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.undefined = 0
        self.errors = []

    def _fail(self, job, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %r on %r" % (
                what, self.work.exprs[job.expr].text[:80], job.word[:40]))

    def job(self, j: int):
        job = self.work.jobs[j]
        pl = self.pipelines[job.expr]
        tr = self.tracer
        if self.host is not None:
            self.host.sample_if_due()
        if tr is not None:
            tr.request = ("job", j)
            span = tr.begin("bench.ueval")
        start = t0 = perf_counter()
        try:
            value = pl.run_unambiguous(job.word)
            raised = None
        except Exception:  # a raise is a failed evaluation, not a crash
            raised = traceback.format_exc(limit=2)
        t1 = perf_counter()
        if tr is not None:
            tr.end(span)
        u_s = t1 - t0
        self.attempted += 1
        if raised is not None:
            self._fail(job, "unambiguous raised " + raised.strip()[-200:])
        elif value != job.usem:
            self._fail(job, "unambiguous value %r" % (value,))
        elif value is None:
            self.undefined += 1

        if tr is not None:
            span = tr.begin("bench.reval")
        t0 = perf_counter()
        try:
            values, truncated = relational(pl, job.word, self.machines)
            raised = None
        except Exception:
            raised = traceback.format_exc(limit=2)
        t1 = perf_counter()
        if tr is not None:
            tr.end(span)
        self.samples.append((start, j, u_s, t1 - t0))
        self.attempted += 1
        if raised is not None:
            self._fail(job, "relational raised " + raised.strip()[-200:])
        elif not rsem_ok(job, values, truncated):
            self._fail(job, "relational values %r" % (sorted(values)[:4],))

    def run_pass(self):
        for stratum in self.work.strata:
            for j in stratum:
                self.job(j)


# ---------------------------------------------------------------------------
# Statistics

def percentile(sorted_xs, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def latency_metrics(prefix: str, lat: list) -> tuple:
    xs = sorted(lat)
    p = tail_percentile(len(xs))
    metrics = {
        prefix + "_words_per_s": (len(xs) / sum(xs), "1/s"),
        prefix + "_p50_ms": (percentile(xs, 50.0) * 1e3, "ms"),
        prefix + "_tail_ms": (percentile(xs, p) * 1e3, "ms"),
    }
    info = {prefix + "_tail_percentile": p, prefix + "_jobs": len(xs),
            prefix + "_jobs_beyond_tail": int(len(xs) * (100.0 - p) / 100.0)}
    return metrics, info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Provenance

def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "rtec").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit_id(), "source_sha256": source_digest()}


# ---------------------------------------------------------------------------
# The two kinds of run

def run_untraced(work, seconds, mods) -> tuple:
    expr_mod, machines_mod, pipeline_mod = mods
    host = HostSpeed()
    loop = Loop(work, machines_mod, host=host)
    compiles = []   # (start, seconds)
    u_passes, r_passes = [], []   # per pass, each job's corrected seconds
    start = perf_counter()
    while len(u_passes) < 2 or perf_counter() - start < seconds:
        for _ in range(work.compiles_per_pass):
            loop.pipelines = None
            gc.collect()
            host.sample()
            t0 = perf_counter()
            loop.pipelines = compile_all(work, expr_mod, pipeline_mod)
            compiles.append((t0, perf_counter() - t0))
            host.sample()
        gc.collect()
        loop.run_pass()
        host.sample()
        # fold the pass into fixed-size arrays so the harness's memory does
        # not grow with the number of passes
        u_pass = array("d", bytes(8 * len(work.jobs)))
        r_pass = array("d", bytes(8 * len(work.jobs)))
        for (t0, j, u_s, r_s) in loop.samples:
            f = host.factor(t0)
            u_pass[j] = u_s * f
            r_pass[j] = r_s * f
        loop.samples = []
        u_passes.append(u_pass)
        r_passes.append(r_pass)
    wall = perf_counter() - start

    setup = [dt * host.factor(t0) for (t0, dt) in compiles]
    jobs = range(len(work.jobs))
    u_metrics, u_info = latency_metrics(
        "ueval", [statistics.median(p[j] for p in u_passes) for j in jobs])
    r_metrics, r_info = latency_metrics(
        "reval", [statistics.median(p[j] for p in r_passes) for j in jobs])
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(u_metrics)
    metrics.update(r_metrics)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    passes = len(u_passes)
    info = {"setup_runs_s": setup,
            "setup_runs_wall_s": [dt for (_t, dt) in compiles],
            "host_slowdown": host.slowdown(), "probes": len(host.values),
            "passes": passes, "measured_wall_s": wall,
            "undefined_per_pass": loop.undefined // passes}
    info.update(u_info)
    info.update(r_info)
    return loop, metrics, info


def run_traced(work, mods, out_path) -> tuple:
    import tracing

    expr_mod, machines_mod, pipeline_mod = mods

    gc.collect()
    t0 = perf_counter()
    plain = Loop(work, machines_mod)
    plain.pipelines = compile_all(work, expr_mod, pipeline_mod)
    plain.run_pass()
    untraced_wall = perf_counter() - t0
    plain.pipelines = None

    tr = tracing.Tracer()
    gc.collect()
    tr.install()
    try:
        t0 = perf_counter()
        loop = Loop(work, machines_mod, tr)
        loop.pipelines = pipelines = compile_all(work, expr_mod, pipeline_mod,
                                                 tr)
        loop.run_pass()
        traced_wall = perf_counter() - t0
    finally:
        tr.uninstall()

    steps, reversals = tracing.replay_two_way(tr.two_way_args)
    bounds_bad = []
    sizes = {"parser": 0, "useful": 0, "evaluator": 0, "checker_nominal": 0,
             "checker_transitions": 0, "checker_reachable": 0, "acceptor": 0}
    for spec, pl in zip(work.exprs, pipelines):
        sizes["parser"] += pl.parser.n_states
        sizes["useful"] += tracing.useful_states(pl.parser)
        sizes["evaluator"] += pl.evaluator.n_states
        sizes["checker_nominal"] += pl.checker.n_states
        sizes["checker_transitions"] += len(pl.checker.transitions)
        sizes["checker_reachable"] += tracing.reachable_states(pl.checker)
        sizes["acceptor"] += pl.acceptor.n_states
        rep = pipeline_mod.check_size_bounds(pl.expr, spec.sigma, pl)
        if not (rep.ok and rep.parser_states == pl.parser.n_states
                and rep.evaluator_states == pl.evaluator.n_states
                and rep.checker_states == pl.checker.n_states):
            bounds_bad.append(spec.text[:80])
    # the result counts the evaluations of both passes
    loop.attempted += plain.attempted
    loop.failed += plain.failed + len(bounds_bad)
    loop.errors.extend(plain.errors)
    loop.errors.extend("size bounds: %s" % t for t in bounds_bad[:5])

    self_s = tr.self_times()
    calls = tr.call_counts()
    c = tr.counts

    def s(name):
        return self_s.get(name, 0.0)

    metrics = {
        "expr.parse_s": (s("expr.parse_rte") + s("expr.label_occurrences"),
                         "s"),
        "parser_build.build_parser_s": (s("parser_build.build_parser"), "s"),
        "parser_build.parser_states": (sizes["parser"], "count"),
        "parser_build.useful_states": (sizes["useful"], "count"),
        "parser_build.useful_ratio": (sizes["useful"] / sizes["parser"],
                                      "ratio"),
        "evaluator_build.build_evaluator_s":
            (s("evaluator_build.build_evaluator"), "s"),
        "evaluator_build.evaluator_states": (sizes["evaluator"], "count"),
        "pipeline.build_functionality_checker_s":
            (s("pipeline.build_functionality_checker"), "s"),
        "pipeline.checker_transitions": (sizes["checker_transitions"],
                                         "count"),
        "pipeline.checker_reachable_states": (sizes["checker_reachable"],
                                              "count"),
        "pipeline.checker_nominal_states": (sizes["checker_nominal"],
                                            "count"),
        "pipeline.build_unambiguity_acceptor_s":
            (s("pipeline.build_unambiguity_acceptor"), "s"),
        "machines.determinize_s": (s("machines.determinize"), "s"),
        "pipeline.acceptor_states": (sizes["acceptor"], "count"),
        "machines.dfa_accepts_s": (s("machines.dfa_accepts"), "s"),
        "pipeline.gate_rejects": (c["gate_rejects"], "count"),
        "pipeline.undefined": (loop.undefined, "count"),
        "pipeline.uniformizer_init_s": (s("pipeline.uniformizer_init"), "s"),
        "pipeline.uniform_parse_s": (s("pipeline.uniform_parse"), "s"),
        "pipeline.bracket_ratio": (c["parsed_symbols"]
                                   / max(1, c["parsed_letters"]), "ratio"),
        "machines.run_two_way_s": (s("machines.run_two_way"), "s"),
        "machines.two_way_calls": (calls["machines.run_two_way"], "count"),
        "machines.two_way_steps": (steps, "count"),
        "machines.head_reversals": (reversals, "count"),
        "machines.enumerate_outputs_s": (s("machines.enumerate_outputs"),
                                         "s"),
        "machines.bracketings": (c["bracketings"], "count"),
        "machines.truncated_words": (c["truncated_words"], "count"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    info = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans": len(tr.spans),
            "useful_ratio_base": "parser states, summed over expressions",
            "bracket_ratio_base": "letters of words with a selected parsing",
            "spans_file": os.path.relpath(out_path, ROOT)}
    tr.write(out_path)
    return loop, metrics, info


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus-short", "long-words", "compile-heavy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    if not (SRC / "rtec" / "__init__.py").is_file():
        print("rtec sources not found under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from rtec import expr, machines, pipeline
    return expr, machines, pipeline


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    mods = load_library()
    import workloads

    work = workloads.build(args.workload, args.seed)
    if args.trace:
        out = BENCH_DIR / "out" / ("trace-%s-seed%d.json.gz"
                                   % (args.workload, args.seed))
        loop, metrics, info = run_traced(work, mods, out)
    else:
        loop, metrics, info = run_untraced(work, args.seconds, mods)
    info.update(provenance(args))
    info.update(work.notes)
    info["fail_ratio"] = loop.failed / loop.attempted
    info["fail_ratio_base"] = ("evaluations attempted, unambiguous and "
                               "relational")
    for line in loop.errors:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
