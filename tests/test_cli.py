import json
import os
import subprocess
import sys
from pathlib import Path

from rtec import cli, pipeline
from rtec.cli import main
import pytest

from rtec.expr import MAX_NESTING, MAX_TREE_DEPTH
from rtec.machines import enumerate_outputs, to_json_dict

from conftest import SIGMA, deep_texts, mk, nested_factors, words_upto


def test_eval_unambiguous(capsys):
    rc = main(["eval", "--expr", "dup{#}", "--sigma", "ab",
               "--gamma", "ab#", "ab"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == '"ab#ab"'


def test_eval_undefined(capsys):
    rc = main(["eval", "--expr", '(a -> "c") + (a -> "d")', "--sigma", "ab",
               "--gamma", "cd", "a"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "undefined"


def test_eval_relational(capsys):
    rc = main(["eval", "--mode", "relational", "--expr",
               '(a -> "c") + (a -> "d")', "--sigma", "ab", "--gamma", "cd",
               "--show-parsing", "a"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '{"c", "d"}' in out
    assert "parsing:" in out


def test_eval_truncation_warning(capsys):
    rc = main(["eval", "--mode", "relational", "--expr", '(@ -> "x")*',
               "--sigma", "ab", "--gamma", "x", "a"])
    assert rc == 0
    assert "truncated" in capsys.readouterr().err


def test_syntax_error_exit_code(capsys):
    rc = main(["eval", "--expr", '(a -> "c"', "--sigma", "ab",
               "--gamma", "c", "a"])
    assert rc == 2
    assert "syntax error" in capsys.readouterr().err


def test_nesting_limit_exit_code(capsys):
    def nested(depth):
        return "(" * depth + 'a -> "c"' + ")" * depth

    rc = main(["eval", "--expr", nested(MAX_NESTING), "--sigma", "ab",
               "--gamma", "c", "a"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == '"c"'
    rc = main(["eval", "--expr", nested(MAX_NESTING + 1), "--sigma", "ab",
               "--gamma", "c", "a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "syntax error" in err and "nested deeper" in err


def test_compile_writes_dumps(tmp_path, capsys):
    rc = main(["compile", "--expr", '(a -> "c") . (b -> "d")',
               "--sigma", "ab", "--gamma", "cd",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["bounds_ok"]
    assert metrics["parser_states"] <= metrics["size"]
    parser = json.loads((tmp_path / "out" / "parser.json").read_text())
    assert parser["type"] == "1nft"
    assert (tmp_path / "out" / "evaluator.json").exists()
    assert (tmp_path / "out" / "checker.json").exists()
    assert (tmp_path / "out" / "acceptor.json").exists()


def test_compile_write_failure_exit_code(tmp_path, capsys):
    args = ["compile", "--expr", '(a -> "c")', "--sigma", "ab",
            "--gamma", "c", "--out-dir"]
    # the output directory cannot be made under a regular file
    (tmp_path / "file").write_text("")
    assert main(args + [str(tmp_path / "file" / "sub")]) == 2
    err = capsys.readouterr().err
    assert "cannot make directory" in err
    assert len(err.strip().splitlines()) == 1
    # nor can a file be written where a directory stands
    (tmp_path / "out" / "checker.json").mkdir(parents=True)
    assert main(args + [str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "checker.json" in err
    assert len(err.strip().splitlines()) == 1


def test_compile_files_do_not_depend_on_the_hash_seed(tmp_path):
    import rtec
    src = str(Path(rtec.__file__).resolve().parents[1])
    exprs = ['(a -> "")* . (b -> "") + (a -> "") . (b -> "")*',
             '(a -> "c")* . (b -> "d")',
             '(a*b -> "c") odot (ab* -> "d")']
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for i, text in enumerate(exprs):
            out = tmp_path / seed / str(i)
            subprocess.run([sys.executable, "-m", "rtec.cli", "compile",
                            "--expr", text, "--sigma", "ab", "--gamma", "cd",
                            "--out-dir", str(out)],
                           env=env, check=True, capture_output=True)
        outs.append({p.relative_to(tmp_path / seed): p.read_bytes()
                     for p in sorted((tmp_path / seed).rglob("*.json"))})
    assert len(outs[0]) == 6 * len(exprs)
    assert outs[0] == outs[1]


def test_check_passes(capsys):
    rc = main(["check", "--expr", 'kstar{2, a}((a -> "c") . (a -> "d"))',
               "--sigma", "ab", "--gamma", "cd", "--max-len", "4"])
    assert rc == 0
    assert "all checks passed" in capsys.readouterr().out


def test_check_rejects_negative_max_len(capsys):
    rc = main(["check", "--expr", '(a -> "c")', "--sigma", "ab",
               "--gamma", "cd", "--max-len", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert captured.err.strip() == (
        "usage error: --max-len must be at least 0, got -1")


def test_check_runs_each_parsing_once(capsys, monkeypatch):
    # "a" has two parsings and "b" one, its only one
    text = '((a -> "c") + (a -> "d")) + (b -> "e")'
    pl = pipeline.build_pipeline(mk(text), SIGMA)
    words = words_upto(3)
    parsings = 0
    for w in words:
        res = enumerate_outputs(pl.parser, w)
        assert not res.truncated
        parsings += len(res.outputs)
    unique = sum(pl.uniformizer.unique(w) is not None for w in words)
    assert (parsings, unique) == (3, 1)
    runs = {"cli": 0, "pipeline": 0}
    for (name, mod) in (("cli", cli), ("pipeline", pipeline)):
        def counting(*args, name=name, real=mod.run_two_way):
            runs[name] += 1
            return real(*args)

        monkeypatch.setattr(mod, "run_two_way", counting)
    rc = main(["check", "--expr", text, "--sigma", SIGMA, "--gamma", "cde",
               "--max-len", "3"])
    assert rc == 0, capsys.readouterr().out
    # each parsing once for the check, and the unique one once more for
    # the unambiguous value
    assert runs == {"cli": parsings, "pipeline": unique}


def test_check_compares_the_acceptor(capsys, monkeypatch):
    # an acceptor of dom instead of its complement minus udom
    monkeypatch.setattr(pipeline, "build_unambiguity_acceptor",
                        lambda dom, udom: dom)
    rc = main(["check", "--expr", '(a -> "c") + (a -> "d")', "--sigma",
               SIGMA, "--gamma", "cd", "--max-len", "2"])
    assert rc == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert fails and all(line.startswith("FAIL acceptor ") for line in fails)
    assert "FAIL acceptor on 'a': machine True vs oracle False" in fails


def test_dump_dot(tmp_path, capsys):
    rc = main(["dump", "--expr", "dup{#}", "--sigma", "ab", "--gamma", "ab#",
               "--machine", "evaluator", "--format", "dot",
               "--out", str(tmp_path / "m.dot")])
    assert rc == 0
    text = (tmp_path / "m.dot").read_text()
    assert "digraph" in text
    # five nodes for the duplicate evaluator
    assert sum(1 for line in text.splitlines() if "circle" in line) == 5


def test_dump_write_failure_exit_code(tmp_path, capsys):
    rc = main(["dump", "--expr", "dup{#}", "--sigma", "ab", "--gamma", "ab#",
               "--out", str(tmp_path / "absent" / "m.dot")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_dump_unknown_machine(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_pipeline", built.append)
    rc = main(["dump", "--expr", "rev", "--sigma", "ab", "--gamma", "",
               "--machine", "nonsense"])
    assert rc == 2
    assert "unknown machine 'nonsense'" in capsys.readouterr().err
    # refused before anything is built
    assert built == []


def test_dump_builds_only_the_machine_it_prints(capsys, monkeypatch):
    calls = []
    real = pipeline.build_functionality_checker

    def checker(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "build_functionality_checker", checker)
    args = ["dump", "--expr", '(a -> "c") + (a -> "d")', "--sigma", "ab",
            "--gamma", "cd", "--format", "json", "--machine"]
    for (machine, kind) in (("parser", "1nft"), ("evaluator", "2nft")):
        assert main(args + [machine]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == kind
    assert calls == []
    assert main(args + ["checker"]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "nfa"
    assert len(calls) == 1


def test_compile_builds_a_root_chained_star_once(tmp_path, capsys,
                                                 monkeypatch):
    # the domain automata of a chained star at the root read the pipeline's
    # own parser and checker B, and equal those `domain_dfas` builds
    text = 'kstar{3, a+b}(((a+b)(a+b)(a+b) -> "c") . rev)'
    (dom, udom) = pipeline.domain_dfas(mk(text), SIGMA)
    want = {"dom.json": dom,
            "acceptor.json": pipeline.build_unambiguity_acceptor(dom, udom)}
    calls = []
    for name in ("build_parser", "build_functionality_checker"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, name=name,
                            real=real: calls.append(name) or real(*args))
    rc = main(["compile", "--expr", text, "--sigma", SIGMA, "--gamma", "c",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert sorted(calls) == ["build_functionality_checker", "build_parser"]
    for (name, m) in want.items():
        assert (tmp_path / name).read_text() == json.dumps(to_json_dict(m),
                                                           indent=1)


def test_dump_parser_base_counts(capsys):
    rc = main(["dump", "--expr", 'a -> "c"', "--sigma", "ab", "--gamma", "c",
               "--machine", "parser", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == 4  # nl + 3


def test_oracle_command(capsys):
    rc = main(["oracle", "--expr", 'kstar{2, a}((a -> "c") . (a -> "d"))',
               "--sigma", "ab", "--gamma", "cd", "aaa"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dom: True" in out and 'usem: "cdcd"' in out


def test_config_file(tmp_path, capsys):
    conf = tmp_path / "rtec.conf"
    conf.write_text("# alphabets\nsigma = ab\ngamma = cd\n")
    rc = main(["eval", "--expr", '(a -> "c")', "--config", str(conf), "a"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == '"c"'


@pytest.mark.parametrize("command", ["compile", "eval", "check"])
def test_repeated_input_letter_exit_code(command, tmp_path, capsys):
    conf = tmp_path / "rtec.conf"
    conf.write_text("sigma = aba\ngamma = cd\n")
    rest = {"compile": ["--out-dir", str(tmp_path / "out")],
            "eval": ["a"], "check": ["--max-len", "1"]}[command]
    for (alphabet, shown) in ((["--sigma", "aa", "--gamma", "cd"], "'aa'"),
                              (["--config", str(conf)], "'aba'")):
        rc = main([command, "--expr", '(a -> "c")'] + alphabet + rest)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: input alphabet %s repeats a letter\n" % shown)
    assert not (tmp_path / "out").exists()


def test_deep_tree_exit_code(capsys):
    # 600 postfix stars nest without parentheses, so MAX_NESTING does not
    # stop them
    rc = main(["eval", "--expr", '(a -> "x")' + "*" * 600, "--sigma", "ab",
               "--gamma", "x", "a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.strip() == "expression nested too deeply"
    assert "Traceback" not in err


def test_oracle_limit_exit_code(capsys):
    rc = main(["oracle", "--expr", nested_factors(65), "--sigma", "ab",
               "--gamma", "c", "a" * 65])
    assert rc == 2
    assert "MAX_OUTPUT_LEN" in capsys.readouterr().err


def test_malformed_config_line_exit_code(tmp_path, capsys):
    conf = tmp_path / "rtec.conf"
    conf.write_text("sigma = ab\ngamma cd\n")
    rc = main(["eval", "--expr", '(a -> "c")', "--config", str(conf), "a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config line" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = main(["eval", "--expr", '(a -> "c")', "--config",
               str(tmp_path / "absent.conf"), "a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err
    assert len(err.strip().splitlines()) == 1


def test_missing_expr_file_exit_code(tmp_path, capsys):
    rc = main(["eval", "--expr-file", str(tmp_path / "absent.rte"),
               "--sigma", "ab", "--gamma", "c", "a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read expression file" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("shape", sorted(deep_texts(3)))
def test_tree_depth_limit_exit_code(shape, capsys):
    args = ["--sigma", "ab", "--gamma", "x", "a"]
    rc = main(["eval", "--expr", deep_texts(MAX_TREE_DEPTH)[shape]] + args)
    out = capsys.readouterr().out.strip()
    assert (rc, out) in ((0, '"x"'), (1, "undefined"))
    rc = main(["eval", "--expr", deep_texts(MAX_TREE_DEPTH + 1)[shape]]
              + args)
    assert rc == 2
    assert capsys.readouterr().err.strip() == "expression nested too deeply"
