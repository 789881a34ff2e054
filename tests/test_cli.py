import json
import time

import pytest

from dendro.cli import run
from dendro.core import BroadPoset, Flavour, MonotoneMap, corolla, identity, star
from dendro.terms import parse_term, to_broad


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_corolla(capsys):
    code, out, _ = invoke(capsys, "check", "r(a,b)")
    assert code == 0
    assert out.splitlines()[0] == "dendroidal: true; degree 1; leaves a,b"


def test_check_json_round_trip(capsys):
    code, out, _ = invoke(capsys, "--output=json", "check", "r(a,b)")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["is_dendroidal"] is True
    assert payload["degree"] == 1


def test_info_example(capsys):
    code, out, _ = invoke(capsys, "info", "r(b(e,f),c,d())")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["root"] == "r"
    assert lines["leaves"] == "c,e,f"
    assert lines["stumps"] == "d"
    assert lines["inner edges"] == "b,d"
    assert lines["degree"] == "3"


def test_info_json_poset_parses(capsys):
    code, out, _ = invoke(capsys, "--output=json", "info", "r(a,b)")
    payload = json.loads(out)
    assert BroadPoset.from_json(payload["poset"]) == to_broad(
        parse_term("r(a,b)"), Flavour.COMMUTATIVE
    )


def test_subtrees_maximal(capsys):
    code, out, _ = invoke(capsys, "subtrees", "r(b(e,f),c,d())", "--maximal")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 4"
    assert "inner face" in out and "outer face" in out


def test_hom_count(capsys):
    code, out, _ = invoke(capsys, "hom", "x", "r(a,b)")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 3"


def test_hom_budget_exit(capsys):
    code, _, err = invoke(capsys, "--budget=2", "hom", "r(a,b)", "r(c,d)")
    assert code == 3
    assert "budget" in err


def test_factor_constant(capsys):
    code, out, _ = invoke(
        capsys, "factor", "r(a)", "s(p,q)", "--map", "a=>s,r=>s"
    )
    assert code == 0
    assert "degeneracies: 1" in out
    assert "faces: 1" in out
    assert "composite matches: true" in out


def test_factor_not_monotone_exits_one(capsys):
    code, _, err = invoke(capsys, "factor", "r(a)", "s(p,q)", "--map", "a=>p,r=>s")
    assert code == 1
    assert "monotone" in err


def test_factor_partial_map_is_error(capsys):
    code, _, err = invoke(capsys, "factor", "r(a)", "s(p,q)", "--map", "r=>s")
    assert code == 1
    assert "total" in err


def test_graft_command(capsys):
    code, out, _ = invoke(capsys, "graft", "r(a,b)", "--at", "a", "m(k)")
    assert code == 0
    assert out.splitlines()[0] == "r(a(k),b)"
    assert "renamed: m=>a" in out


def test_parse_error_exit_two(capsys):
    code, _, err = invoke(capsys, "check", "r(a,,b)")
    assert code == 2
    assert "position" in err


def test_planar_flavour_flag(capsys):
    code, out, _ = invoke(capsys, "--flavour=planar", "hom", "r(a,b)", "r(c,d)")
    assert code == 0
    # planar corolla endomorphism target only admits the order-preserving maps
    assert out.strip().splitlines()[-1] == "total: 1"


def test_dot_output(capsys):
    code, out, _ = invoke(capsys, "dot", "r(b(e,f),c,d())")
    assert code == 0
    assert out.startswith("digraph tree {")
    assert '"e" -> "b";' in out
    assert '"stump_d" [shape=point];' in out
    assert out.strip().endswith("}")


def test_dot_names_a_stump_point_apart_from_every_edge(capsys):
    code, out, _ = invoke(capsys, "dot", "r(stump_b,b())")
    assert code == 0
    assert out.splitlines() == [
        "digraph tree {",
        "  rankdir=BT;",
        '  "b";',
        '  "r";',
        '  "stump_b";',
        '  "stump_b\'" [shape=point];',
        '  "stump_b\'" -> "b";',
        '  "b" -> "r";',
        '  "stump_b" -> "r";',
        "}",
    ]


def test_tensor_command(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(star("x").to_json()))
    right.write_text(json.dumps(corolla(2).to_json()))
    code, out, _ = invoke(capsys, "--output=json", "tensor", str(left), str(right))
    assert code == 0
    payload = json.loads(out)
    result = BroadPoset.from_json(payload["poset"])
    assert len(result.carrier) == 3


def test_product_command(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(corolla(3).to_json()))
    right.write_text(json.dumps(corolla(2).to_json()))
    code, out, _ = invoke(capsys, "--output=json", "product", str(left), str(right))
    payload = json.loads(out)
    result = BroadPoset.from_json(payload["poset"])
    assert len(result.carrier) == 12 and not result.relation
    assert len(payload["projection_left"]) == 12


@pytest.mark.parametrize("command", ["tensor", "product"])
def test_colliding_pair_names_exit_one(tmp_path, capsys, command):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(BroadPoset.build(Flavour.COMMUTATIVE, ["x", "x,y"]).to_json()))
    right.write_text(json.dumps(BroadPoset.build(Flavour.COMMUTATIVE, ["y,z", "z"]).to_json()))
    code, out, err = invoke(capsys, command, str(left), str(right))
    assert (code, out) == (1, "")
    assert err == "error: pairs ('x', 'y,z') and ('x,y', 'z') are both named '(x,y,z)'\n"


def test_pushout_command(tmp_path, capsys):
    s, g2 = star("x"), corolla(2)
    other = corolla(2, root="m", leaf_prefix="k")
    f = MonotoneMap.from_dict(s, g2, {"x": "l1"})
    g = MonotoneMap.from_dict(s, other, {"x": "m"})
    left = tmp_path / "f.json"
    right = tmp_path / "g.json"
    left.write_text(json.dumps(f.to_json()))
    right.write_text(json.dumps(g.to_json()))
    code, out, _ = invoke(capsys, "--output=json", "pushout", str(left), str(right))
    assert code == 0
    payload = json.loads(out)
    result = BroadPoset.from_json(payload["poset"])
    assert len(result.carrier) == 5


def test_missing_file_exit_two(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "tensor", str(tmp_path / "no.json"), str(tmp_path / "no.json")
    )
    assert code == 2


def test_factor_json_round_trips_serializers(capsys):
    code, out, _ = invoke(
        capsys, "--output=json", "factor", "r(a)", "s(p,q)", "--map", "a=>s,r=>s"
    )
    assert code == 0
    payload = json.loads(out)["factorization"]
    iso = MonotoneMap.from_json(payload["iso"])
    degs = [MonotoneMap.from_json(m) for m in payload["degeneracies"]]
    faces = [MonotoneMap.from_json(m) for m in payload["faces"]]
    assert iso.to_json() == payload["iso"]
    assert [m.to_json() for m in degs] == payload["degeneracies"]
    assert [m.to_json() for m in faces] == payload["faces"]
    assert payload["kinds"][0]["type"] == "outer"


def test_output_deterministic(capsys):
    first = invoke(capsys, "--output=json", "subtrees", "r(b(e,f),c,d())")
    second = invoke(capsys, "--output=json", "subtrees", "r(b(e,f),c,d())")
    assert first == second


def test_output_deterministic_across_processes():
    import os
    import subprocess
    import sys

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "dendro.cli", "--output=json", "subtrees", "r(b(e,f),c,d())"],
            capture_output=True,
            env=env,
            check=True,
        ).stdout

    assert run_once("1") == run_once("42")


def test_overflow_message_deterministic_across_processes(tmp_path):
    """A word over the bound, and a pushout that glues z ≤ y onto
    x·y ≤ z, a cycle through x·y ≤ y that no bound holds: each names the
    same element under every hash seed."""
    import os
    import subprocess
    import sys

    C = Flavour.COMMUTATIVE
    corolla_2 = BroadPoset.build(C, ["x", "y", "z"], [(["x", "y"], "z")])
    shared = BroadPoset.build(C, ["s", "t"])
    legs = {
        "f": MonotoneMap.from_dict(shared, corolla_2, {"s": "z", "t": "y"}),
        "g": MonotoneMap.from_dict(shared, BroadPoset.build(C, ["p", "q"], [(["p"], "q")]), {"s": "p", "t": "q"}),
    }
    trees = {"A": to_broad(parse_term("r(a(b,c),d)"), C), "B": to_broad(parse_term("s(x,y)"), C)}
    paths = {}
    for name, value in [*trees.items(), *legs.items()]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(value.to_json()))
        paths[name] = str(path)

    def run_once(seed, *argv):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-m", "dendro.cli", *argv], capture_output=True, env=env)
        return done.returncode, done.stderr

    for argv, named in [
        (["--max-word-len=3", "tensor", paths["A"], paths["B"]], b"below (a,s)"),
        (["pushout", paths["f"], paths["g"]], b"p is on or above a cycle"),
    ]:
        first = run_once("1", *argv)
        assert first[0] == 3
        assert named in first[1]
        assert first == run_once("7", *argv) == run_once("42", *argv)


def test_bad_pair_message_deterministic_across_processes(tmp_path):
    """Three pairs with letters outside the carrier: the least is named,
    where the first met in the relation's frozenset followed the hash seed."""
    import os
    import subprocess
    import sys

    relation = [{"source": [x], "target": t} for x, t in (("x", "a"), ("y", "b"), ("z", "a"))]
    bad, ok = tmp_path / "bad.json", tmp_path / "ok.json"
    bad.write_text(json.dumps({"flavour": "commutative", "carrier": ["a", "b"], "relation": relation}))
    ok.write_text(json.dumps(to_broad(parse_term("s(x,y)"), Flavour.COMMUTATIVE).to_json()))

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "dendro.cli", "tensor", str(bad), str(ok)], capture_output=True, env=env
        )
        return done.returncode, done.stderr

    first = run_once("1")
    assert first[0] == 1
    assert b"letter 'x' not in carrier" in first[1]
    assert first == run_once("4")

@pytest.mark.parametrize("maximal", [[], ["--maximal"]])
@pytest.mark.parametrize("output", ["text", "json"])
def test_subtrees_list_the_faces_once(monkeypatch, capsys, output, maximal):
    from dendro import category

    faces, payloads = [], []
    list_faces, to_json = category._faces, BroadPoset.to_json
    monkeypatch.setattr(category, "_faces", lambda poset: faces.append(poset) or list_faces(poset))
    monkeypatch.setattr(BroadPoset, "to_json", lambda poset: payloads.append(poset) or to_json(poset))
    code, out, _ = invoke(capsys, f"--output={output}", "subtrees", *maximal, "r(b(e,f),c,d(),g())")
    assert code == 0
    assert len(faces) == 1
    count = json.loads(out)["count"] if output == "json" else int(out.splitlines()[-1].split()[-1])
    assert len(payloads) == (count if output == "json" else 0)


@pytest.mark.parametrize("flavour", list(Flavour))
def test_subtree_kinds_are_the_classified_faces(capsys, flavour):
    from dendro import category, structure
    from dendro.terms import enumerate_trees, print_term

    for term in enumerate_trees(4, flavour):
        tree = to_broad(term, flavour)
        for maximal in [[], ["--maximal"]]:
            argv = [f"--flavour={flavour.value}", "subtrees", *maximal, print_term(term)]
            _, text, _ = invoke(capsys, *argv)
            code, out, _ = invoke(capsys, "--output=json", *argv)
            assert code == 0
            entries = json.loads(out)["subtrees"]
            for entry in entries:
                sub = BroadPoset.from_json(entry["poset"])
                maximal_sub = structure.degree(sub) == structure.degree(tree) - 1
                kind = category.classify_maximal(tree, sub).to_json() if maximal_sub else None
                assert entry.get("face") == kind
            assert sum("[" in line for line in text.splitlines()) == sum("face" in e for e in entries)


GAMMA2 = corolla(2).to_json()


@pytest.mark.parametrize(
    "data, message",
    [
        ({k: v for k, v in GAMMA2.items() if k != "relation"}, "lacks 'relation'"),
        (dict(GAMMA2, flavour="cyclic"), "unknown flavour"),
        (dict(GAMMA2, carrier=["l1", "l2", 3]), "strings"),
    ],
)
def test_malformed_poset_json_exit_two(tmp_path, capsys, data, message):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(data))
    code, _, err = invoke(capsys, "tensor", str(path), str(path))
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "recursion"),
        (b'{"flavour": "planar", "carrier": [' + b"1" * 5000 + b"]}", "digits"),
    ],
    ids=["not utf-8", "nested too deep", "over-long number"],
)
def test_undecodable_json_input_exits_two(tmp_path, capsys, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = invoke(capsys, "tensor", str(path), str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_product_of_non_poset_exit_one(tmp_path, capsys):
    cycle = {
        "flavour": "commutative",
        "carrier": ["a", "b"],
        "relation": [{"source": ["a"], "target": "b"}, {"source": ["b"], "target": "a"}],
    }
    left, right = tmp_path / "cycle.json", tmp_path / "unit.json"
    left.write_text(json.dumps(cycle))
    right.write_text(json.dumps(star("u").to_json()))
    code, out, err = invoke(capsys, "product", str(left), str(right))
    assert code == 1
    assert out == ""
    assert "not a broad poset" in err


def test_deep_term_parse_error_exit_two(capsys):
    code, _, err = invoke(capsys, "check", "".join(f"d{i}(" for i in range(1200)) + "x,,")
    assert code == 2
    assert "expected an identifier" in err


def test_check_refuses_a_relation_over_budget(capsys):
    """A 3,000-deep chain has about 4.5 million relation pairs: they are
    counted, not written."""
    depth = 3000
    text = "".join(f"d{i}(" for i in range(depth)) + "x" + ")" * depth
    start = time.perf_counter()
    code, out, err = invoke(capsys, "check", text)
    assert code == 3
    assert out == ""
    assert "more than 1000000 pairs" in err
    assert time.perf_counter() - start < 10


def test_check_does_not_validate_a_tree(refuse, capsys):
    """The report of a tree is read off its vertex map: no pair is written
    and no substitution is tried."""
    from dendro import core

    refuse(core, "_substitution_sites", "a tree was validated pair by pair")
    refuse(core, "_tree_relation", "a tree's pairs were written")
    code, out, _ = invoke(capsys, "--output=json", "check", "q(b(e,f),c,d())")
    assert code == 0
    assert json.loads(out)["validation"] == {
        "transitive": True,
        "antisymmetric": True,
        "stratified": True,
        "violations": [],
    }


def test_violations_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    # e3 ≤ e1 and e3 ≤ e2 over ε ≤ e3 each miss one pair
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "flavour": "commutative",
        "carrier": ["e1", "e2", "e3"],
        "relation": [
            {"source": ["e3"], "target": "e2"},
            {"source": [], "target": "e3"},
            {"source": ["e2"], "target": "e1"},
            {"source": ["e3"], "target": "e1"},
        ],
    }))

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "dendro.cli", "tensor", str(path), str(path)],
            capture_output=True,
            env=env,
        )
        return done.returncode, done.stdout, done.stderr

    first = run_once("1")
    assert first[0] == 1
    assert first == run_once("4")


def test_collapse_message_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    # p, q, r go up one chain and down the other, so a2 and a3 collapse onto a1
    chain_a = BroadPoset.build(
        Flavour.COMMUTATIVE, ["a1", "a2", "a3"], [(["a1"], "a2"), (["a1"], "a3"), (["a2"], "a3")]
    )
    chain_b = chain_a.rename({"a1": "b1", "a2": "b2", "a3": "b3"})
    shared = BroadPoset.build(Flavour.COMMUTATIVE, ["p", "q", "r"])
    legs = [
        MonotoneMap.from_dict(shared, chain_a, {"p": "a1", "q": "a2", "r": "a3"}),
        MonotoneMap.from_dict(shared, chain_b, {"p": "b3", "q": "b2", "r": "b1"}),
    ]
    paths = []
    for name, leg in zip("fg", legs):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(leg.to_json()))
        paths.append(str(path))

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "dendro.cli", "pushout", *paths],
            capture_output=True,
            env=env,
        )
        return done.returncode, done.stderr

    first = run_once("0")
    assert first[0] == 1
    assert first == run_once("1")


@pytest.mark.parametrize("command", ["tensor", "pushout"])
@pytest.mark.parametrize("bound", ["0", "-2"])
def test_word_length_below_one_exit_two(tmp_path, capsys, command, bound):
    c1 = corolla(1)
    data = c1.to_json() if command == "tensor" else identity(c1).to_json()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exit_info:
        run([f"--max-word-len={bound}", command, str(path), str(path)])
    assert exit_info.value.code == 2
    assert "--max-word-len: must be at least 1" in capsys.readouterr().err


def test_map_literal_error_reports_its_offset(capsys):
    code, out, err = invoke(capsys, "factor", "r(a)", "s(p,q)", "--map", "a=>s, r")
    assert code == 2
    assert out == ""
    assert err == "error: expected 'a=>b' in map literal, got 'r' (at position 6)\n"


def test_map_literal_rejects_a_repeated_edge(capsys):
    code, out, err = invoke(capsys, "factor", "r(a)", "s(p,q)", "--map", "a=>p,a=>s,r=>s")
    assert code == 2
    assert out == ""
    assert err == "error: edge 'a' is assigned twice in map literal (at position 5)\n"


def test_reader_closing_the_pipe_early_is_quiet():
    """The JSON is about 90 KB, more than a pipe holds, so the writer is
    still printing when its reader goes away."""
    import subprocess
    import sys

    term = "r(a(b,c),d(e,f),g(h,i),j(k,l))"
    child = subprocess.Popen(
        [sys.executable, "-m", "dendro.cli", "--output", "json", "subtrees", term],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 0
    assert err == b""


# tree pairs with stumps and unary vertices, each with maps in both flavours
# but the fifth, which has none when planar
HOM_PAIRS = [
    ("r(a,b)", "s(c,d)"),
    ("r(a(b))", "s(t(u),v)"),
    ("r(a(),b)", "s(t(),u,v())"),
    ("r(a(b(c)),d())", "s(t(u(w,x)),v())"),
    ("r(a,b(c()))", "s(t(u()),v(w))"),
    ("r(a(b,c),d)", "s(t(u,v),w(x()))"),
]

# runs each command line of a JSON list read from stdin through the command's
# entry point in this one process, printing each one's exit code and stdout
RUN_ALL = """
import contextlib, io, json, sys
from dendro.cli import run
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    print(repr((argv, code, out.getvalue())))
"""


def test_hom_and_factor_deterministic_across_processes():
    import os
    import subprocess
    import sys

    from dendro.core import enumerate_monotone

    commands = []
    for flavour in Flavour:
        for source, target in HOM_PAIRS:
            maps = enumerate_monotone(
                to_broad(parse_term(source), flavour), to_broad(parse_term(target), flavour)
            )
            literals = sorted({",".join(f"{k}=>{v}" for k, v in m.pairs) for m in maps[:1] + maps[-1:]})
            for output in ("text", "json"):
                flags = [f"--flavour={flavour.value}", f"--output={output}"]
                commands.append([*flags, "hom", source, target])
                commands += [[*flags, "factor", source, target, "--map", m] for m in literals]

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", RUN_ALL],
            input=json.dumps(commands),
            capture_output=True,
            env=env,
            check=True,
            text=True,
        )
        return done.stdout.encode()

    first = run_once("0")
    assert first.count(b"\n") == len(commands)
    assert first == run_once("5")
