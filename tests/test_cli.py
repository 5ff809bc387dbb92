import json

import pytest

from corpus import LOOPING_REFUTATION
from deepflow.cli import main
from deepflow.derivation import KS, check, dparse, dprint, is_proof
from deepflow.families import demo_proof, max_ai_paths_flow
from deepflow.flow import to_json
from deepflow.formula import fparse


@pytest.fixture()
def demo_path(tmp_path):
    p = tmp_path / "demo.sksd"
    p.write_text(dprint(demo_proof()))
    return p


def test_check_exit_codes(tmp_path, demo_path, capsys):
    assert main(["check", str(demo_path), "--system", "SKS"]) == 0
    # the demo proof uses a cocontraction, which KS lacks
    assert main(["check", str(demo_path), "--system", "KS"]) == 1
    bad = tmp_path / "bad.sksd"
    bad.write_text("(and (form a)")
    assert main(["check", str(bad)]) == 2
    missing = tmp_path / "nope.sksd"
    assert main(["check", str(missing)]) == 2


@pytest.mark.parametrize("text, pos", [("(form x y)", 8), ("(form (a & b) c)", 14)])
def test_check_rejects_two_formulas_in_one_form(tmp_path, capsys, text, pos):
    bad = tmp_path / "bad.sksd"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: parse error in {bad}: expected ')' after the formula at position {pos}\n"


def test_check_rejects_a_negated_unit(tmp_path, capsys):
    bad = tmp_path / "bad.sksd"
    bad.write_text("(form (~T|a))")
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: parse error in {bad}: T is a unit, not a variable name at position 8\n"


def test_metrics_names_the_file_of_bad_input_once(tmp_path, capsys):
    bad_flow = tmp_path / "bad.flow.json"
    bad_flow.write_text('{"nodes":[{"id":0,"kind":"aid"}],"edges":[]}')
    assert main(["metrics", str(bad_flow)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad_flow}: invalid flow: [('arity-violation', 'node 0 (aid) has 0/2 out-edges')]\n"
    not_json = tmp_path / "not.flow.json"
    not_json.write_text("nope")
    assert main(["metrics", str(not_json)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {not_json}: invalid flow JSON: malformed "
        "(JSONDecodeError('Expecting value: line 1 column 1 (char 0)'))\n"
    )
    bad_id = tmp_path / "bad_id.flow.json"
    bad_id.write_text('{"nodes":[{"id":"x","kind":"aid"}],"edges":[]}')
    assert main(["metrics", str(bad_id)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {bad_id}: invalid flow JSON: malformed "
        "(ValueError(\"invalid literal for int() with base 10: 'x'\"))\n"
    )
    bad_proof = tmp_path / "bad.sksd"
    bad_proof.write_text("(form (~T|a))")
    assert main(["metrics", str(bad_proof)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: parse error in {bad_proof}: T is a unit, not a variable name at position 8\n"


def test_json_report_echoes_the_parsed_argv(monkeypatch, demo_path, capsys):
    monkeypatch.setattr("sys.argv", ["deepflow", "some", "extra", "args"])
    assert main(["metrics", str(demo_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == f"metrics {demo_path} --json"
    monkeypatch.setattr("sys.argv", ["deepflow", "check", str(demo_path), "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == f"check {demo_path} --json"


def test_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sksd"
    bad.write_bytes(b"(form a\xff)")
    for argv in (["check", str(bad)], ["metrics", str(bad)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in out + err


def test_check_deeply_nested_formula(tmp_path, capsys):
    deep = tmp_path / "deep.sksd"
    deep.write_text("(form " + "(" * 30000 + "a" + "&a)" * 30000 + ")\n")
    assert main(["check", str(deep)]) == 0
    out, err = capsys.readouterr()
    assert "PASS check: SKS proof=False size=30001" in out
    assert "Traceback" not in out + err


def test_tt_deeply_nested_formula(capsys):
    deep = "(" * 30000 + "a" + "&a)" * 30000
    assert main(["tt", deep]) == 1
    out, err = capsys.readouterr()
    assert f"FAIL tautology: {deep} is not a tautology" in out
    assert "Traceback" not in out + err


def test_flow_outputs(tmp_path, demo_path, capsys):
    dot = tmp_path / "f.dot"
    js = tmp_path / "f.json"
    assert main(["flow", str(demo_path), "--dot", str(dot), "--json", str(js)]) == 0
    text = dot.read_text()
    assert sum(text.count(f'label="{k}"') for k in ("aid", "awd", "acd", "aiu", "awu", "acu")) == 7
    assert json.loads(js.read_text())["nodes"]
    leafonly = tmp_path / "leaf.sksd"
    leafonly.write_text("(form (a&b))\n")
    dot2 = tmp_path / "leaf.dot"
    assert main(["flow", str(leafonly), "--dot", str(dot2)]) == 0
    assert 'label="a' not in dot2.read_text()


def test_normalize_command(tmp_path, demo_path, capsys):
    out = tmp_path / "out.sksd"
    trace = tmp_path / "trace.json"
    assert main(["normalize", str(demo_path), "--out", str(out), "--trace", str(trace)]) == 0
    d = dparse(out.read_text())
    assert check(d, KS).ok and is_proof(d)
    steps = json.loads(trace.read_text())
    assert steps and all("rule" in s and "size_after" in s for s in steps)
    # a normal KS proof is returned unchanged
    again = tmp_path / "again.sksd"
    assert main(["normalize", str(out), "--out", str(again)]) == 0
    assert again.read_text() == out.read_text()
    # a non-proof derivation is refused
    nonproof = tmp_path / "np.sksd"
    nonproof.write_text("(form a)\n")
    assert main(["normalize", str(nonproof), "--out", str(tmp_path / "x.sksd")]) == 1


def test_metrics_command(tmp_path, capsys):
    flow_file = tmp_path / "m.flow.json"
    flow_file.write_text(to_json(max_ai_paths_flow()))
    assert main(["metrics", str(flow_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["open_ai_paths"] == "5"
    empty = tmp_path / "empty.flow.json"
    empty.write_text('{"nodes": [], "edges": []}')
    assert main(["metrics", str(empty), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["edges"] == 0 and report["metrics"]["open_ai_paths"] == "0"
    # an identity whose two out-edges enter one cut has unboundedly many ai-paths
    loop = tmp_path / "loop.flow.json"
    loop.write_text(
        '{"nodes": [{"id": 0, "kind": "aid"}, {"id": 1, "kind": "aiu"}], "edges": ['
        '{"id": 2, "from": [0, 0], "to": [1, 0]}, {"id": 3, "from": [0, 1], "to": [1, 1]}]}'
    )
    assert main(["metrics", str(loop)]) == 1
    assert "FAIL metrics: ai-path state graph is cyclic" in capsys.readouterr().out
    dup = tmp_path / "dup.flow.json"
    dup.write_text('{"nodes": [{"id": 0, "kind": "aid"}, {"id": 0, "kind": "aid"}], "edges": []}')
    assert main(["metrics", str(dup)]) == 2
    assert "duplicate node id 0" in capsys.readouterr().err


def test_translate_command(tmp_path, capsys):
    res = tmp_path / "unit.res"
    res.write_text("p res multiset\na 0: a\na 1: ~a\nr 2 = res 0 1 on a\n")
    out = tmp_path / "unit.sksd"
    assert main(["translate", str(res), "--out", str(out)]) == 0
    d = dparse(out.read_text())
    assert check(d, KS).ok and is_proof(d)
    bad = tmp_path / "bad.res"
    bad.write_text("p res set\nr 0 = res 1 2 on a\n")
    assert main(["translate", str(bad), "--out", str(tmp_path / "no.sksd")]) == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("p res set\na 0: x* ~x2\n", 2),  # an empty literal after '*'
        ("p res set\na 0: x\na 1: ~x\nr 2 = res 0 1 on *\n", 4),
        ("p res set fmax x\n", 1),
        # a literal the formula reader cannot read back from the proof
        ("p res set tree\na 0: y(\na 1: ~y(\nr 2 = res 0 1 on y(\n", 2),
        # a variable named T would print as the unit T
        ("p res set tree\na 0: ~T\na 1: T\nr 2 = res 0 1 on T\n", 2),
    ],
)
def test_translate_rejects_malformed_refutations(tmp_path, capsys, text, line):
    res = tmp_path / "bad.res"
    res.write_text(text)
    out = tmp_path / "bad.sksd"
    assert main(["translate", str(res), "--out", str(out)]) == 2
    assert f"parse error: line {line}:" in capsys.readouterr().err
    assert not out.exists()


def test_translate_compiles_a_tree_like_refutation_without_loops(tmp_path, capsys):
    # each axiom of a .res file has its own index, so a tree-like image takes
    # no copies, and its flow has no contraction loop
    res = tmp_path / "loop.res"
    res.write_text(LOOPING_REFUTATION)
    out = tmp_path / "loop.sksd"
    assert main(["translate", str(res), "--out", str(out)]) == 0
    d = dparse(out.read_text())
    assert check(d, KS).ok and is_proof(d)


def test_translate_refuses_a_set_mode_dag(tmp_path, capsys):
    res = tmp_path / "dag.res"
    res.write_text("p res set\na 0: a\na 1: ~a\nr 2 = res 0 1 on a\n")
    out = tmp_path / "dag.sksd"
    assert main(["translate", str(res), "--out", str(out)]) == 1
    assert "FAIL translate: set-mode refutations are only supported tree-like" in capsys.readouterr().out
    assert not out.exists()


def test_tt_and_gen_php(tmp_path, capsys):
    out = tmp_path / "t.sksd"
    assert main(["tt", "(a|~a)", "--out", str(out)]) == 0
    assert check(dparse(out.read_text()), KS).ok
    assert main(["tt", "(a|b)"]) == 1  # not a tautology
    php_out = tmp_path / "php.sksd"
    assert main(["gen-php", "1", "F", "--out", str(php_out)]) == 0
    d = dparse(php_out.read_text())
    assert check(d, KS).ok and is_proof(d)


def test_bench_tower(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "tower", "1..6", "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("family,param,input_size")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        n = int(row[1])
        assert int(row[4]) <= 3 * n + 3  # wk-first stays linear
        assert int(row[5]) >= 2**n - 1  # cont-first blows up


def test_bad_bench_range_is_a_usage_error(capsys):
    assert main(["bench", "tower", "3..x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad range '3..x'") and "Traceback" not in err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.sksd"
    assert main(["tt", "(a|~a)", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
