"""Diff the runtime results and compiled machines of two trees of rtec: a
git revision and the working tree, or the working tree against itself.

    python tools/parent_diff.py [REV] [--small]

REV is any revision git names, such as HEAD~1; it is exported with `git
archive` into a temporary directory.  Without REV both sides are the
working tree.  Each side runs in its own subprocess on the same job list,
REV's side with PYTHONHASHSEED=1 and the working tree's with 2, so a
self-diff also checks that no result depends on the hash seed.  Each side
writes one canonical JSON line per result, in four sections:

  runs     `run_unambiguous`, and the sorted values and the truncated flag
           of `run_relational`, on the acceptance corpus (all 127 words up
           to length 6 each) and on the long-words and compile-heavy jobs
           of seeds 1-3 of `bench/workloads.py`;
  two_way  (status, output, trace) of the traced run and (status, output)
           of the untraced run of the evaluator on every parsing of the
           corpus words up to length 4, with `machines.SWEEP_MIN_TAPE` at 0
           and at 256;
  long     `run_unambiguous`, and where the word has at most 16 outputs the
           sorted values and the truncated flag of `run_relational`, on
           words that take the block walks: per expression of the corpus
           and of 300 `corpus._random_expr` draws (seeds 1-300, depth
           seed mod 4), eight seeded random words of its domain of at
           least `machines.SWEEP_MIN_TAPE` letters, each followed by three
           one-letter changes: anywhere, in its last two blocks, and to a
           foreign letter;
  compile  the state count, the transition count and a sha256 of
           `json.dumps(to_json_dict(m))` for each machine m of a fresh
           pipeline: the parser, the evaluator, the checker B, the
           acceptor and the dom and udom DFAs, on the corpus expressions,
           the long-words and compile-heavy texts, and 400
           `corpus._random_expr` draws (seeds 0-199, depth seed mod 4),
           each plain and wrapped in `star(esum(e, base(r_eps(), "x")))`.

`--small` takes a slice: the tiny workloads of seed 1, the two-way runs of
their corpus expressions on words up to length 3, the long words of 40
corpus expressions and 20 draws, and the machines of the tiny workloads'
expressions and of the draws of seeds 0-19.  The tool prints
each section's line count and mismatches, with the first few, and exits 1
on any mismatch (2 if a side fails).  The job list comes from the working
tree's `bench/workloads.py`, which it only imports.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import deque
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SECTIONS = ("runs", "two_way", "long", "compile")
GATES = (0, 256)
SHOWN = 3  # mismatches printed per section
DRAWS = range(1, 301)  # seeds of section long's expression draws
WORDS = 8  # random domain words per expression of section long
MOST = 16  # most outputs of a long word whose relational run is compared
MACHINES = ("parser", "evaluator", "checker", "acceptor", "dom", "udom")


def build_jobs(small: bool) -> dict:
    """The job list both sides run: expressions as (text, sigma, gamma)
    and, per section, what to run on them."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    import workloads
    seeds = (1,) if small else (1, 2, 3)
    exprs, runs = [], []

    def add(spec) -> int:
        key = [spec.text, spec.sigma, spec.gamma]
        if key not in exprs:
            exprs.append(key)
        return exprs.index(key)

    corpus = workloads.corpus_short(1, tiny=small)
    plan = [("corpus-short", 1, corpus)]
    plan += [(name, seed, workloads.build(name, seed, tiny=small))
             for name in ("long-words", "compile-heavy") for seed in seeds]
    for (name, seed, w) in plan:
        ids = [add(spec) for spec in w.exprs]
        runs += [[name, seed, ids[job.expr], job.word] for job in w.jobs]
    return {"exprs": exprs, "runs": runs,
            "two_way": {"exprs": [add(spec) for spec in corpus.exprs],
                        "words": workloads.words_upto(
                            corpus.exprs[0].sigma, 3 if small else 4)},
            "long": long_jobs(corpus.exprs, small, add),
            "compile": compile_jobs([spec for (_n, _s, w) in plan
                                     for spec in w.exprs], small, add)}


def compile_jobs(specs, small: bool, add) -> list:
    """Section compile's expressions: `specs`, then the draws of seeds
    0-199 (0-19 with `small`), each plain and wrapped; each once."""
    import workloads
    from rtec import corpus
    from rtec.expr import base, esum, pretty, r_eps, star

    ids = [add(spec) for spec in specs]
    for seed in range(20 if small else 200):
        e = corpus._random_expr(random.Random(seed), seed % corpus.MAX_DEPTH)
        for d in (e, star(esum(e, base(r_eps(), "x")))):
            ids.append(add(workloads.ExprSpec(pretty(d), corpus.SIGMA,
                                              corpus.GAMMA)))
    return list(dict.fromkeys(ids))


def long_jobs(specs, small: bool, add) -> list:
    """Section long's [expression, word, whether to run it relationally]:
    the words of the corpus expressions `specs` and of the draws."""
    import workloads
    from rtec import corpus, machines
    from rtec.expr import label_occurrences, parse_rte, pretty
    from rtec.pipeline import build_pipeline

    (specs, draws) = (specs[:40], DRAWS[:20]) if small else (specs, DRAWS)
    texts = [spec.text for spec in specs]
    for seed in draws:
        rng = random.Random(seed)
        e = corpus._random_expr(rng, seed % corpus.MAX_DEPTH)
        while not corpus.acceptable(e):
            e = corpus._random_expr(rng, seed % corpus.MAX_DEPTH)
        texts.append(pretty(e))
    (rng, jobs) = (random.Random(27), [])
    for text in texts:
        i = add(workloads.ExprSpec(text, corpus.SIGMA, corpus.GAMMA))
        pl = build_pipeline(label_occurrences(
            parse_rte(text, corpus.SIGMA, corpus.GAMMA)), corpus.SIGMA)
        for _ in range(WORDS):
            w = domain_word(pl.domains[0], corpus.SIGMA, rng,
                            machines.SWEEP_MIN_TAPE + rng.randrange(64))
            if w is None:
                break
            # one-letter changes: anywhere, in the last two blocks, and to a
            # foreign letter
            (n, words) = (len(w), [w])
            for (k, c) in ((rng.randrange(n), None),
                           (n - 1 - rng.randrange(2 * machines.BLOCK), None),
                           (rng.randrange(n), "z")):
                c = c or rng.choice(corpus.SIGMA.replace(w[k], ""))
                words.append(w[:k] + c + w[k + 1:])
            jobs += [[i, v, output_count(pl.parser.walker, v) <= MOST]
                     for v in words]
    return jobs


def domain_word(dfa, sigma: str, rng, least: int):
    """A random word of the DFA's language of at least `least` letters: a
    random walk over the states that can still reach a final state, then
    a shortest way to one; None where the walk gets stuck."""
    from rtec.symbols import letter
    moves = {s: [(c, dfa.delta[(s, letter(c))]) for c in sigma
                 if (s, letter(c)) in dfa.delta]
             for s in range(dfa.n_states)}
    back = {}
    for (s, ways) in moves.items():
        for (_c, t) in ways:
            back.setdefault(t, set()).add(s)
    (live, todo) = (set(dfa.finals), list(dfa.finals))
    while todo:
        for s in back.get(todo.pop(), ()):
            if s not in live:
                live.add(s)
                todo.append(s)
    (s, word) = (dfa.initial, [])
    while len(word) < least:
        ways = [(c, t) for (c, t) in moves[s] if t in live]
        if s not in live or not ways:
            return None
        (c, s) = rng.choice(ways)
        word.append(c)
    # breadth first from s to the nearest final state
    (came, queue) = ({s: None}, deque([s]))
    while s not in dfa.finals:
        s = queue.popleft()
        for (c, t) in moves[s]:
            if t not in came:
                came[t] = (s, c)
                queue.append(t)
    finish = []
    while came[s] is not None:
        (s, c) = came[s]
        finish.append(c)
    return "".join(word + finish[::-1])


def output_count(walker, word) -> int:
    """How many outputs the walk on `word` has, counted per node and
    position through the walker's segments, not walked one by one."""
    co = walker.coreach(word) + [None]
    nodes = {} if walker.start.isdisjoint(co[0]) else {walker.start: 1}
    stops = 0
    for (t, a) in enumerate((*word, None)):
        (now, nodes) = (nodes, {})
        for (node, n) in now.items():
            for nxt in walker._segment(node, co[t], co[t + 1], a)[1::2]:
                if nxt is None:
                    stops += n
                else:
                    nodes[nxt] = nodes.get(nxt, 0) + n
    return stops


def emit(jobs: dict, out) -> None:
    """One side: run the jobs on the rtec found first on sys.path and
    write the canonical result lines to `out`."""
    import rtec
    from rtec import machines
    from rtec.expr import label_occurrences, parse_rte
    from rtec.pipeline import build_pipeline
    from rtec.symbols import Coded, render

    pipelines = {}

    def build(i):
        (text, sigma, gamma) = jobs["exprs"][i]
        return build_pipeline(label_occurrences(parse_rte(text, sigma, gamma)),
                              sigma)

    def pipeline(i):
        if i not in pipelines:
            pipelines[i] = build(i)
        return pipelines[i]

    def line(*fields):
        out.write(json.dumps(fields, ensure_ascii=False,
                             separators=(",", ":")) + "\n")

    line("from", os.path.dirname(rtec.__file__))
    for (name, seed, i, word) in jobs["runs"]:
        pl = pipeline(i)
        (values, truncated) = pl.run_relational(word)
        line("runs", name, seed, i, word, pl.run_unambiguous(word),
             sorted(values), truncated)
    gate = machines.SWEEP_MIN_TAPE
    for g in GATES:
        machines.SWEEP_MIN_TAPE = g
        for i in jobs["two_way"]["exprs"]:
            pl = pipeline(i)
            walker = pl.parser.walker
            for word in jobs["two_way"]["words"]:
                parsings = sorted(([render(s) for s in walker.decode(al)], al)
                                  for al in walker.outputs(word))
                for (syms, al) in parsings:
                    res = machines.run_two_way(pl.evaluator, Coded(al), True)
                    plain = machines.run_two_way(pl.evaluator, Coded(al))
                    line("two_way", g, i, word, syms,
                         res.status, res.output, [list(c) for c in res.trace],
                         plain.status, plain.output)
    machines.SWEEP_MIN_TAPE = gate
    for (i, word, relational) in jobs["long"]:
        pl = pipeline(i)
        found = pl.run_unambiguous(word)
        (values, truncated) = pl.run_relational(word) if relational \
            else (None, None)
        line("long", i, word, found,
             None if values is None else sorted(values), truncated)
    for i in jobs["compile"]:
        # a fresh pipeline, so no machine is kept past its line
        pl = build(i)
        for (name, m) in zip(MACHINES, (pl.parser, pl.evaluator, pl.checker,
                                        pl.acceptor, *pl.domains)):
            d = machines.to_json_dict(m)
            line("compile", i, name, d["states"], len(d["transitions"]),
                 hashlib.sha256(json.dumps(d).encode()).hexdigest())


def export(rev: str, into: Path) -> Path:
    """The tree of `rev`, exported from git into `into`."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                          rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def compare(name: str, old: list, new: list) -> int:
    """Print a section's counts and first mismatches; the mismatches."""
    bad = [(a, b) for (a, b) in zip(old, new) if a != b]
    extra = abs(len(old) - len(new))
    print("%s: %d lines on the old side, %d on the new, %d mismatches"
          % (name, len(old), len(new), len(bad) + extra))
    for (a, b) in bad[:SHOWN]:
        (a, b) = (json.loads(a), json.loads(b))
        at = next(i for i in range(len(a)) if a[i] != b[i])
        (x, y) = (json.dumps(a[at]), json.dumps(b[at]))
        # from a little before the first character that differs
        cut = max(0, next((i for i, (c, d) in enumerate(zip(x, y)) if c != d),
                          min(len(x), len(y))) - 20)
        print("  %.160s: field %d, from character %d\n    old: %.100s\n"
              "    new: %.100s" % (json.dumps(a[:5]), at, cut, x[cut:],
                                  y[cut:]))
    if extra:
        print("  %d lines on one side only" % extra)
    return len(bad) + extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Diff runtime results and compiled machines against a "
                    "git revision.")
    ap.add_argument("rev", nargs="?",
                    help="revision to diff against (default: the working "
                         "tree itself)")
    ap.add_argument("--small", action="store_true",
                    help="run a small slice of the jobs")
    ap.add_argument("--emit", metavar="JOBS", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        with open(args.emit) as fh:
            emit(json.load(fh), sys.stdout)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "jobs.json").write_text(json.dumps(build_jobs(args.small)))
        old_root = export(args.rev, tmp / "old") if args.rev else REPO
        procs = []
        for (side, root, seed) in (("old", old_root, 1), ("new", REPO, 2)):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=str(root / "src"))
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--emit", str(tmp / "jobs.json")]
            with open(tmp / (side + ".jsonl"), "w") as fh:
                procs.append(subprocess.Popen(cmd, env=env, stdout=fh))
        if any([p.wait() for p in procs]):
            print("a side failed", file=sys.stderr)
            return 2
        lines = [(tmp / (side + ".jsonl")).read_text().splitlines()
                 for side in ("old", "new")]
    for (side, found) in zip(("old", "new"), lines):
        print("%s: rtec from %s" % (side, json.loads(found[0])[1]))
    bad = 0
    for name in SECTIONS:
        (old, new) = ([ln for ln in side if ln.startswith('["%s"' % name)]
                      for side in lines)
        bad += compare(name, old, new)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
