"""Diff the runtime results of two trees of rtec: a git revision and the
working tree, or the working tree against itself.

    python tools/parent_diff.py [REV] [--small]

REV is any revision git names, such as HEAD~1; it is exported with `git
archive` into a temporary directory.  Without REV both sides are the
working tree.  Each side runs in its own subprocess on the same job list,
REV's side with PYTHONHASHSEED=1 and the working tree's with 2, so a
self-diff also checks that no result depends on the hash seed.  Each side
writes one canonical JSON line per result, in two sections:

  runs     `run_unambiguous`, and the sorted values and the truncated flag
           of `run_relational`, on the acceptance corpus (all 127 words up
           to length 6 each) and on the long-words and compile-heavy jobs
           of seeds 1-3 of `bench/workloads.py`;
  two_way  (status, output, trace) of the traced run and (status, output)
           of the untraced run of the evaluator on every parsing of the
           corpus words up to length 4, with `machines.SWEEP_MIN_TAPE` at 0
           and at 256.

`--small` takes a slice: the tiny workloads of seed 1, and the two-way
runs of their corpus expressions on words up to length 3.  The tool prints
each section's line count and mismatches, with the first few, and exits 1
on any mismatch (2 if a side fails).  The job list comes from the working
tree's `bench/workloads.py`, which it only imports.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SECTIONS = ("runs", "two_way")
GATES = (0, 256)
SHOWN = 3  # mismatches printed per section


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
                            corpus.exprs[0].sigma, 3 if small else 4)}}


def emit(jobs: dict, out) -> None:
    """One side: run the jobs on the rtec found first on sys.path and
    write the canonical result lines to `out`."""
    import rtec
    from rtec import machines
    from rtec.expr import label_occurrences, parse_rte
    from rtec.pipeline import build_pipeline
    from rtec.symbols import Coded, render

    pipelines = {}

    def pipeline(i):
        if i not in pipelines:
            (text, sigma, gamma) = jobs["exprs"][i]
            pipelines[i] = build_pipeline(
                label_occurrences(parse_rte(text, sigma, gamma)), sigma)
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
        description="Diff runtime results against a git revision.")
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
