"""Command line front end.

Subcommands: compile, eval, check, dump, oracle.  Exit codes: 0 success,
1 check failure or undefined result, 2 usage or syntax errors, expressions
nested too deeply and values past the oracle's limit.  Alphabets
come from --sigma/--gamma or a key=value config file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .expr import (RteSyntaxError, TreeTooDeep, label_occurrences, parse_rte,
                   pretty)
from .machines import (enumerate_outputs, is_reversible, nfa_accepts,
                       run_two_way, to_dot, to_json_dict)
from .oracle import Oracle, OracleLimitError, check_kstar_conditions
from .evaluator_build import evaluator_shape_ok
from .parser_build import parser_invariants_ok
from .pipeline import build_pipeline, check_size_bounds
from .symbols import render_word


class UsageError(Exception):
    """Bad command-line input; reported in one line with exit code 2."""


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError("cannot read %s %s: %s"
                         % (what, path, exc.strerror or exc))


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


def _load_config(path: str) -> dict:
    conf = {}
    for raw in _read(path, "config file").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError("bad config line in %s: %r" % (path, line))
        key, val = line.split("=", 1)
        conf[key.strip()] = val.strip()
    return conf


def _alphabets(args) -> tuple:
    sigma, gamma = args.sigma, args.gamma
    if getattr(args, "config", None):
        conf = _load_config(args.config)
        sigma = sigma or conf.get("sigma")
        gamma = gamma or conf.get("gamma")
    if not sigma:
        raise UsageError("missing input alphabet (--sigma or config)")
    if len(set(sigma)) < len(sigma):
        raise UsageError("input alphabet %r repeats a letter" % sigma)
    return sigma, gamma or ""


def _expression(args, sigma, gamma):
    text = args.expr
    if args.expr_file:
        text = _read(args.expr_file, "expression file").strip()
    if text is None:
        raise UsageError("missing expression (--expr or --expr-file)")
    return parse_rte(text, sigma, gamma), text


def _words_upto(sigma: str, n: int):
    for m in range(n + 1):
        for t in itertools.product(sigma, repeat=m):
            yield "".join(t)


def cmd_compile(args) -> int:
    sigma, gamma = _alphabets(args)
    expr, _text = _expression(args, sigma, gamma)
    h = label_occurrences(expr)
    pl = build_pipeline(h, sigma)
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError("cannot make directory %s: %s"
                         % (out, exc.strerror or exc))
    rep = check_size_bounds(h, sigma, pl)
    dom = pl.domains[0]
    for (name, m) in (("parser", pl.parser), ("evaluator", pl.evaluator),
                      ("checker", pl.checker), ("acceptor", pl.acceptor),
                      ("dom", dom)):
        _write(out / (name + ".json"), json.dumps(to_json_dict(m), indent=1))
    metrics = {
        "expression": pretty(expr),
        "size": rep.expr_size,
        "width": rep.expr_width,
        "parser_states": rep.parser_states,
        "evaluator_states": rep.evaluator_states,
        "checker_states": rep.checker_states,
        "dom_acceptor_states_minimal": dom.n_states,
        "parser_bound": rep.parser_bound,
        "evaluator_bound": rep.evaluator_bound,
        "bounds_ok": rep.ok,
        "checks": [{"name": n, "actual": a, "bound": b, "ok": g}
                   for (n, a, b, g) in rep.entries],
    }
    _write(out / "metrics.json", json.dumps(metrics, indent=1))
    print("wrote parser/evaluator/checker/acceptor/dom/metrics to %s" % out)
    if not rep.ok:
        print("warning: size bounds violated", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    sigma, gamma = _alphabets(args)
    expr, _text = _expression(args, sigma, gamma)
    h = label_occurrences(expr)
    word = args.word
    pl = build_pipeline(h, sigma)
    if args.mode == "relational":
        if args.show_parsing:
            for al in sorted(enumerate_outputs(pl.parser, word).outputs,
                             key=render_word):
                print("parsing:", render_word(al))
        (values, truncated) = pl.run_relational(word)
        print("{%s}" % ", ".join('"%s"' % v for v in sorted(values)))
        if truncated:
            print("warning: output set truncated (unbounded iteration)",
                  file=sys.stderr)
        return 0
    if args.show_parsing:
        al = pl.uniformizer.unique(word)
        if al is not None:
            print("parsing:", render_word(al))
    value = pl.run_unambiguous(word)
    if value is None:
        print("undefined")
        return 1
    print('"%s"' % value)
    return 0


def cmd_check(args) -> int:
    if args.max_len < 0:
        raise UsageError("--max-len must be at least 0, got %d"
                         % args.max_len)
    sigma, gamma = _alphabets(args)
    expr, text = _expression(args, sigma, gamma)
    h = label_occurrences(expr)
    o = Oracle(h)
    pl = build_pipeline(h, sigma)
    failures = []

    def report(kind, word, got, want):
        failures.append((kind, word, got, want))
        print("FAIL %s on %r: machine %r vs oracle %r"
              % (kind, word, got, want))

    rep = check_size_bounds(h, sigma, pl)
    if not rep.ok:
        for (name, actual, bound, good) in rep.entries:
            if not good:
                report("bound:" + name, "", actual, bound)
    if not is_reversible(pl.evaluator):
        report("reversible", "", False, True)
    if not evaluator_shape_ok(pl.evaluator, h):
        report("evaluator-shape", "", False, True)
    if not parser_invariants_ok(pl.parser):
        report("parser-invariants", "", False, True)
    (dd, ud) = pl.domains
    for w in _words_upto(sigma, args.max_len):
        parsed = enumerate_outputs(pl.parser, w)
        exp = o.parsings(h, w)
        if not (parsed.truncated or exp.truncated) \
                and parsed.outputs != exp.items:
            report("parsings", w, sorted(map(render_word, parsed.outputs)),
                   sorted(map(render_word, exp.items)))
        rsem = o.rsem(h, w)
        if not (parsed.truncated or rsem.truncated):
            # each parsing runs once, for both the run and the value checks
            got = set()
            for al in parsed.outputs:
                r = run_two_way(pl.evaluator, al)
                if r.status != "accept":
                    report("evaluator-run", w, r.status, "accept")
                    break
                got.add(r.output)
            else:
                if got != rsem.items:
                    report("relational", w, sorted(got), sorted(rsem.items))
        multi = o.dom(h, w) and not o.udom(h, w)
        if nfa_accepts(pl.checker, w) != multi:
            report("checker", w, not multi, multi)
        if pl.acceptor.accepts(w) == multi:
            report("acceptor", w, multi, not multi)
        if dd.accepts(w) != o.dom(h, w):
            report("dom", w, dd.accepts(w), o.dom(h, w))
        if ud.accepts(w) != o.udom(h, w):
            report("udom", w, ud.accepts(w), o.udom(h, w))
        got_u = pl.run_unambiguous(w)
        if got_u != o.usem(h, w):
            report("unambiguous", w, got_u, o.usem(h, w))
        if h.kind in ("kstar", "kstar_rev"):
            for al in parsed.outputs:
                if not check_kstar_conditions(al, h, o):
                    report("kstar-conditions", w, render_word(al), "ok")
    if failures:
        print("%d failure(s) for %s" % (len(failures), text))
        return 1
    print("all checks passed for %s (words up to length %d)"
          % (text, args.max_len))
    return 0


def cmd_dump(args) -> int:
    if args.machine not in ("parser", "evaluator", "checker", "acceptor"):
        print("unknown machine %r (expected parser|evaluator|checker|acceptor)"
              % args.machine, file=sys.stderr)
        return 2
    sigma, gamma = _alphabets(args)
    expr, _text = _expression(args, sigma, gamma)
    h = label_occurrences(expr)
    # the checker and the acceptor are built on first use only
    m = getattr(build_pipeline(h, sigma), args.machine)
    text = to_dot(m, args.machine) if args.format == "dot" \
        else json.dumps(to_json_dict(m), indent=1)
    if args.out:
        _write(Path(args.out), text)
        print("wrote %s" % args.out)
    else:
        print(text)
    return 0


def cmd_oracle(args) -> int:
    sigma, gamma = _alphabets(args)
    expr, _text = _expression(args, sigma, gamma)
    h = label_occurrences(expr)
    o = Oracle(h)
    w = args.word
    print("dom:", o.dom(h, w))
    print("udom:", o.udom(h, w))
    rsem = o.rsem(h, w)
    print("rsem: {%s}%s" % (", ".join('"%s"' % v for v in sorted(rsem.items)),
                            " (truncated)" if rsem.truncated else ""))
    u = o.usem(h, w)
    print("usem:", '"%s"' % u if u is not None else "undefined")
    ps = o.parsings(h, w)
    for al in sorted(ps.items, key=render_word):
        print("parsing:", render_word(al))
    if ps.truncated:
        print("(parsings truncated)")
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="rtec", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, word=False):
        p.add_argument("--expr", help="expression text")
        p.add_argument("--expr-file", help="file containing the expression")
        p.add_argument("--sigma", help="input alphabet, e.g. ab")
        p.add_argument("--gamma", help="output alphabet, e.g. cd#")
        p.add_argument("--config", help="key=value config file")
        if word:
            p.add_argument("word", help="input word")

    p = sub.add_parser("compile", help="build and dump all machines")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a word")
    common(p, word=True)
    p.add_argument("--mode", choices=("relational", "unambiguous"),
                   default="unambiguous")
    p.add_argument("--show-parsing", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="differential suite on one expression")
    common(p)
    p.add_argument("--max-len", type=int, default=5)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dump", help="export one machine")
    common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--machine", default="parser")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("oracle", help="brute-force semantics of a word")
    common(p, word=True)
    p.set_defaults(func=cmd_oracle)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except TreeTooDeep:
        print("expression nested too deeply", file=sys.stderr)
        return 2
    except RteSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("expression nested too deeply", file=sys.stderr)
        return 2
    except OracleLimitError as exc:
        print("oracle limit: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
