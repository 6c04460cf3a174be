"""Command line behavior: exit codes, JSON shape, input forms, determinism."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgraphs
from conftest import build_charge_instance, stalled_aux_instance
from critgraphs import Graph, extremal_chain, parse_graph6, write_edge_list, write_graph6
from critgraphs.cli import _build_parser, main
from critgraphs.coloring import CHOOSE_MAX_VERTICES

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


def g6(g):
    return write_graph6(g)


def stdin_of(text):
    """A stand-in for sys.stdin that holds text as UTF-8 bytes, as a pipe does."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


# exit codes

def test_exit_0_on_verified(capsys):
    code, doc = run(capsys, "at", g6(Graph.cycle(4)), "--uniform", "2")
    assert code == 0
    assert doc["verdicts"]["f_at"] is True
    cert = doc["verdicts"]["certificate"]
    assert cert["ee"] != cert["eo"]
    assert len(cert["arcs"]) == 4


def test_exit_1_on_falsified(capsys):
    code, doc = run(capsys, "at", g6(Graph.cycle(5)), "--uniform", "2")
    assert code == 1
    assert doc["verdicts"]["f_at"] is False
    assert "certificate" not in doc["verdicts"]


def test_exit_2_on_budget(capsys):
    code, doc = run(capsys, "at", g6(Graph.complete(8)), "--uniform", "7")
    assert code == 2
    assert doc["budget"]["exceeded"] is True
    assert "error" in doc


def test_at_edge_budget_covers_the_certificate_count(capsys):
    # the certificate's EE/EO count runs under the --max-edges the caller gave
    code, doc = run(capsys, "at", g6(Graph.cycle(24)), "--uniform", "3", "--max-edges", "30")
    assert code == 0
    assert doc["verdicts"]["f_at"] is True
    cert = doc["verdicts"]["certificate"]
    assert len(cert["arcs"]) == 24 and cert["ee"] != cert["eo"]


def test_exit_3_on_bad_graph(capsys):
    code, doc = run(capsys, "analyze", "this is not graph6", "--k", "5")
    assert code == 3
    assert "error" in doc


def test_exit_3_on_usage_error(capsys):
    code = main(["no-such-command"])
    assert code == 3
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,command", [(["chi", "-x"], "chi"), (["no-such-command"], None)])
def test_usage_error_prints_one_document(capsys, argv, command):
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert code == 3
    assert doc["command"] == command
    assert doc["error"].startswith("usage error: ")
    assert doc["exit"] == 3
    assert "usage error" in err


def test_help_returns_0(capsys):
    assert main(["chi", "-h"]) == 0
    assert "usage:" in capsys.readouterr().out


# main() builds its parser once per process and shares it between calls

def _doc_minus_runtime(argv):
    code, out = _main_output(argv)
    doc = json.loads(out)
    doc.pop("runtime", None)
    return code, doc


# one call of every subcommand, usage errors and help included
_EVERY_COMMAND = [
    ["analyze", "Dhc", "--k", "4"],
    ["bounds", "--k", "5"],
    ["verify-trees", "--k", "5", "--n-max", "4"],
    ["construct", "--k", "5", "--m", "1"],
    ["at", "Dhc", "--uniform", "3"],
    ["at", "Dhc", "--number"],
    ["choose", "Dhc", "--uniform", "2"],
    ["paint", "Dhc", "--f", "2,2,2,2,2"],
    ["chi", "Dhc"],
    ["critical", "Dhc", "--k", "3", "--notion", "list"],
    ["discharge", "Dhc", "--k", "4", "--mode", "gallai-sec2"],
    ["reduce-check", "D~w", "--k", "5", "--x", "3"],
    ["census", "-", "--k", "4"],
    ["at", "Dhc", "--f", "2,2,2,2,2", "--uniform", "3"],
    ["no-such-command"],
    ["-h"],
    ["chi", "-h"],
]


def test_parser_is_built_once():
    _main_output(["chi", "Dhc"])
    before = _build_parser.cache_info()
    for argv in _EVERY_COMMAND:
        _main_output(argv)
    after = _build_parser.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(_EVERY_COMMAND)


@pytest.mark.parametrize(
    "first,then",
    [
        (["at", "Dhc", "--f", "2,2,2,2,2", "--uniform", "3"], ["at", "Dhc", "--uniform", "3"]),
        (["at", "-h"], ["at", "Dhc", "--uniform", "3"]),
        (["chi", "-h"], ["chi", "Dhc"]),
        (["no-such-command"], ["chi", "Dhc"]),
    ],
)
def test_failed_call_leaves_the_parser_as_built(first, then):
    _build_parser.cache_clear()
    reference = _doc_minus_runtime(then)
    first_code, first_out = _main_output(first)
    assert first_code == (0 if "-h" in first else 3)
    assert _doc_minus_runtime(then) == reference
    # and the failed call itself reads the same on the used parser
    assert _main_output(first) == (first_code, first_out)


def test_defaults_do_not_leak_between_calls():
    code, doc = _doc_minus_runtime(["critical", "Bw", "--k", "3", "--notion", "list", "--max-vertices", "5"])
    assert code == 0 and doc["budget"]["max_vertices"] == 5
    code, doc = _doc_minus_runtime(["critical", "Bw", "--k", "3", "--notion", "list"])
    assert code == 0 and doc["budget"]["max_vertices"] == CHOOSE_MAX_VERTICES
    code, doc = _doc_minus_runtime(["at", "Dhc", "--number"])
    assert code == 0 and doc["verdicts"] == {"at_number": 3}
    code, doc = _doc_minus_runtime(["at", "Dhc", "--uniform", "3"])
    assert code == 0 and doc["inputs"]["f"] == [3] * 5
    assert "at_number" not in doc["verdicts"] and doc["verdicts"]["f_at"] is True


@pytest.mark.parametrize("command", ["choose", "paint", "at"])
def test_f_list_matches_uniform(capsys, command):
    code_f, by_f = run(capsys, command, g6(Graph.cycle(5)), "--f", "3,3 3, 3,3")
    code_u, by_u = run(capsys, command, g6(Graph.cycle(5)), "--uniform", "3")
    assert code_f == code_u == 0
    assert by_f["inputs"] == by_u["inputs"]
    assert by_f["verdicts"] == by_u["verdicts"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["choose", g6(Graph.cycle(5)), "--f", "3,3"], "f has 2 entries for 5 vertices"),
        (["paint", g6(Graph.cycle(5)), "--f", "3,3,x,3,3"], "f entries must be integers"),
        (["reduce-check", "Bw", "--k", "5", "--y", "a"], "y entries must be integers"),
        (["choose", "Bw", "--f", "\u0662,\u0662,\u0662"], "f entries must be integers"),
        (["choose", "Bw", "--f", "1_0,2,2"], "f entries must be integers"),
        (["choose", "Bw", "--f", "3\u00a03\u00a03"], "f entries must be integers"),
    ],
)
def test_exit_3_on_bad_integer_list(capsys, argv, error):
    code, doc = run(capsys, *argv)
    assert code == 3
    assert doc["exit"] == 3
    assert error in doc["error"]


def test_exit_3_on_missing_list_size(capsys):
    code, doc = run(capsys, "choose", g6(Graph.cycle(4)))
    assert code == 3
    assert "--f or --uniform" in doc["error"]


def test_exit_3_on_missing_file(capsys):
    code, doc = run(capsys, "analyze", "@/no/such/file", "--k", "5")
    assert code == 3


def test_exit_3_on_non_ascii_graph6(capsys):
    code, doc = run(capsys, "chi", "B\u00e9")
    assert code == 3
    assert doc["exit"] == 3 and "byte offset 1" in doc["error"]


@pytest.mark.parametrize("where", ["file", "stdin", "census"])
def test_exit_3_on_undecodable_bytes(capsys, monkeypatch, tmp_path, where):
    data = b"2 1\n0 1\xe9\n"
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    argv = {
        "file": ["chi", "@%s" % path],
        "stdin": ["chi", "-"],
        "census": ["census", str(path), "--k", "4"],
    }[where]
    code, doc = run(capsys, *argv)
    assert code == 3
    assert "0xe9 at byte offset 7" in doc["error"]


@pytest.mark.parametrize("token", ["--2", "\u00b2"])
def test_exit_3_on_bad_edge_list_token(capsys, monkeypatch, token):
    # stdin is checked as ASCII before the edge-list parser sees it
    monkeypatch.setattr(sys, "stdin", stdin_of("3 1\n0 %s\n" % token))
    code, doc = run(capsys, "chi", "-")
    assert code == 3
    error = {"--2": "line 2", "\u00b2": "byte 0xc2 at byte offset 6 of stdin is not ASCII"}
    assert error[token] in doc["error"]


@pytest.mark.parametrize("data,offset", [(b"2\xe2\x80\x831\n0 1\n", 1), (b"\xe2\x80\x83Dhc\n", 0)])
@pytest.mark.parametrize("where", ["file", "stdin"])
def test_exit_3_on_non_ascii_space(capsys, monkeypatch, tmp_path, data, offset, where):
    # an EM SPACE would split an edge-list header, and strip() would drop it
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, doc = run(capsys, "chi", {"file": "@%s" % path, "stdin": "-"}[where])
    assert code == 3
    name = "stdin" if where == "stdin" else repr(str(path))
    assert doc["error"] == "byte 0xe2 at byte offset %d of %s is not ASCII" % (offset, name)


def test_stdin_error_offset_counts_from_the_first_byte():
    """A pipe delivers stdin in chunks; the offset of a non-ASCII byte still
    counts from the first byte of the stream."""
    src = str(Path(critgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys\nfrom critgraphs.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    data = b"2 1\n" + b"\n" * 10_000 + b"0 1\xe9\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, "chi", "-"],
        input=data, capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "byte 0xe9 at byte offset 10007 of stdin is not ASCII"


@pytest.mark.parametrize(
    "argv,code,key,want",
    [
        (["analyze", "@{clique}", "--k", "5"], 0, "w_vertices", list(range(150))),
        (["reduce-check", "@{clique}", "--k", "5", "--x", "0"], 1, "status", "hypotheses failed"),
        (["chi", "@{cycle}", "--max-vertices", "151"], 0, "chromatic_number", 3),
    ],
    ids=["analyze K150", "reduce-check K150", "chi C151"],
)
def test_deep_searches_nest_no_frame_per_vertex(tmp_path, argv, code, key, want):
    """Bron-Kerbosch on K150 and DSATUR on C151 each print one document under
    a recursion limit of 100, so neither takes a frame per clique or coloured
    vertex (a search that did would fail on K1005 and C1501 at the default
    limit too)."""
    src = str(Path(critgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    clique, cycle = tmp_path / "k150.g6", tmp_path / "c151.txt"
    clique.write_text(g6(Graph.complete(150)) + "\n")
    cycle.write_text(write_edge_list(Graph.cycle(151)))
    script = "import sys\nfrom critgraphs.cli import main\nsys.setrecursionlimit(100)\nsys.exit(main(sys.argv[1:]))\n"
    argv = [a.format(clique=clique, cycle=cycle) for a in argv]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env, timeout=120)
    assert proc.stderr == b""
    doc = json.loads(proc.stdout)
    assert proc.returncode == code and doc["command"] == argv[0]
    assert doc["verdicts"][key] == want


def _main_output(argv):
    """Exit code and stdout of main(argv), with an empty stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin_of("")
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_chi_any_token_prints_one_document(token):
    # "--" makes argparse pass every token, even "-x", on to the graph reader
    code, out = _main_output(["chi", "--", token])
    assert code in (0, 1, 2, 3)
    assert json.loads(out)["command"] == "chi"


@settings(max_examples=200, deadline=None)
@given(st.binary())
def test_chi_any_file_bytes_prints_one_document(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-graph"
    path.write_bytes(data)
    code, out = _main_output(["chi", "@%s" % path])
    assert code in (0, 1, 2, 3)
    assert json.loads(out)["command"] == "chi"


# every subcommand that reads a graph; budgets kept small for a fuzz run
_GRAPH_ARGV = [
    ["analyze", "--k", "{k}"],
    ["at", "--uniform", "{u}", "--max-edges", "10"],
    ["at", "--number", "--max-edges", "10"],
    ["choose", "--uniform", "{u}", "--max-vertices", "7"],
    ["paint", "--uniform", "{u}", "--max-vertices", "7"],
    ["critical", "--k", "{k}", "--notion", "chromatic", "--max-vertices", "7"],
    ["critical", "--k", "{k}", "--notion", "list", "--max-vertices", "7"],
    ["critical", "--k", "{k}", "--notion", "online", "--max-vertices", "7"],
    ["critical", "--k", "{k}", "--notion", "at", "--max-edges", "10"],
    ["discharge", "--k", "{k}"],
    ["reduce-check", "--k", "{k}", "--x", "0", "--max-edges", "10"],
    ["reduce-check", "--k", "{k}", "--y", "0,1", "--max-edges", "10", "--max-states", "50"],
]


def _small_graph6(n, bits):
    return write_graph6(Graph(n, [e for e, b in zip(combinations(range(n), 2), bits) if b]))


# a token starting with '@' names a file, which the byte fuzz above covers
_GRAPH_TOKENS = st.one_of(
    st.text().filter(lambda t: t == "@" or not t.startswith("@")),
    st.builds(_small_graph6, st.integers(0, 8), st.lists(st.booleans(), max_size=28)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_GRAPH_ARGV), st.integers(-1, 8), st.integers(-1, 4), _GRAPH_TOKENS)
def test_graph_commands_print_one_document(argv, k, u, token):
    argv = [a.format(k=k, u=u) for a in argv]
    code, out = _main_output(argv + ["--", token])
    assert code in (0, 1, 2, 3)
    doc = json.loads(out)
    assert doc["command"] == argv[0]


# the byte fuzz of chi for every subcommand reading a file, except analyze,
# discharge and reduce-check, which budget no part of an edge-list header:
# there a header such as "4000 0" costs seconds
_FILE_ARGV = [
    [argv[0], "@{path}", *argv[1:]]
    for argv in _GRAPH_ARGV
    if argv[0] in ("at", "choose", "paint", "critical")
] + [["census", "{path}", *argv[1:]] for argv in _GRAPH_ARGV if argv[0] == "critical"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FILE_ARGV), st.integers(-1, 6), st.integers(-1, 4), st.binary(max_size=40))
def test_file_commands_print_one_document(tmp_path_factory, argv, k, u, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-file"
    path.write_bytes(data)
    argv = [a.format(k=k, u=u, path=path) for a in argv]
    code, out = _main_output(argv)
    assert code in (0, 1, 2, 3)
    assert json.loads(out)["command"] == argv[0]


# random bytes almost never parse as graph6, so the byte fuzz above seldom
# reaches a census row; these streams hold only records that parse
_CENSUS_ARGV = [argv for argv in _FILE_ARGV if argv[0] == "census"]
_GRAPH6_RECORDS = st.lists(
    st.builds(_small_graph6, st.integers(0, 6), st.lists(st.booleans(), max_size=15)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_CENSUS_ARGV), st.integers(-1, 6), _GRAPH6_RECORDS)
def test_census_of_graph6_records_prints_one_document(tmp_path_factory, argv, k, records):
    path = tmp_path_factory.getbasetemp() / "census-records"
    path.write_text("".join(r + "\n" for r in records))
    argv = [a.format(k=k, path=path) for a in argv]
    code, out = _main_output(argv)
    assert code in (0, 2)
    doc = json.loads(out)
    assert doc["command"] == "census"
    rows = doc["verdicts"]["rows"].values()
    assert sum(row["graphs"] for row in rows) == len(records)
    # the edge bound divides by 2(k - 1), and the Dirac bound is negative below k = 2
    assert all((row["ky_edges"] is None) == (k < 2) for row in rows)
    assert all((row["dirac_2m"] is None) == (k < 2) for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["choose", "Bw", "--f", "1,1,1", "--uniform", "3"],
        ["paint", "Bw", "--f", "1,1,1", "--uniform", "3"],
        ["at", "Bw", "--f", "1,1,1", "--uniform", "3"],
        ["at", "Bw", "--number", "--f", "3,3,3"],
        ["at", "Bw", "--number", "--uniform", "3"],
        ["reduce-check", "Bw", "--k", "5", "--x", "0", "--y", "1"],
        ["critical", "Bw", "--k", "3", "--max-edges", "0"],
        ["critical", "Bw", "--k", "3", "--notion", "at", "--max-vertices", "0"],
        ["census", "-", "--k", "3", "--notion", "list", "--max-edges", "5"],
        ["reduce-check", "D~w", "--k", "5", "--x", "3", "--variant", "symmetric"],
        ["reduce-check", "D~w", "--k", "5", "--x", "3", "--max-states", "1"],
        ["discharge", "Ehfw", "--k", "4", "--mode", "gallai-sec2", "--preset", "ks"],
        ["reduce-check", "D~w", "--k", "5", "--y", " , "],
        ["reduce-check", "D~w", "--k", "5", "--y", "1,1,2"],
        ["verify-trees", "--k", "5", "--n-max", "0"],
        ["verify-trees", "--k", "5", "--n-max", "-1"],
        ["chi", "Dhc", "--max-vertices", "-1"],
        ["choose", "Bw", "--uniform", "2", "--max-vertices", "-1"],
        ["paint", "Bw", "--uniform", "2", "--max-vertices", "-1"],
        ["at", "Bw", "--uniform", "2", "--max-edges", "-1"],
        ["critical", "Bw", "--k", "3", "--max-vertices", "-1"],
        ["census", "-", "--k", "3", "--notion", "at", "--max-edges", "-1"],
        ["reduce-check", "D~w", "--k", "5", "--y", "1", "--max-states", "-1"],
        ["reduce-check", "D~w", "--k", "5", "--x", "3", "--max-edges", "-1"],
        ["bounds", "--k"],
    ],
)
def test_exit_3_on_conflicting_or_unread_options(argv):
    code, out = _main_output(argv)
    doc = json.loads(out)
    assert code == doc["exit"] == 3
    assert doc["command"] == argv[0]


def test_closed_stdout_keeps_the_exit_code():
    """A reader that closes stdout early, as `| head -1` does, gets the
    verdict's exit code and no traceback."""
    src = str(Path(critgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys\nfrom critgraphs.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for argv, expect in ((["bounds"], 0), (["at", "Bw", "--uniform", "1"], 1)):
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # before the child has started to write
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == expect
        assert err == b""


# input forms

def test_graph_from_stdin_edge_list(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_of("4 2\n0 1\n2 3\n"))
    code, doc = run(capsys, "analyze", "-", "--k", "4")
    assert code == 0
    assert doc["verdicts"]["n"] == 4 and doc["verdicts"]["m"] == 2


def test_graph_from_file_with_header(capsys, tmp_path):
    target = Graph.wheel(5)
    path = tmp_path / "g.g6"
    path.write_text(">>graph6<<%s\n" % g6(target), encoding="ascii")
    code, doc = run(capsys, "analyze", "@%s" % path, "--k", "4")
    assert code == 0
    assert doc["verdicts"]["n"] == 6
    assert doc["inputs"]["graph"] == g6(target)


def test_graph_file_forms_agree(capsys, tmp_path):
    target = Graph.wheel(5)
    as_list = tmp_path / "g.edges"
    as_list.write_text(write_edge_list(target), encoding="ascii")
    code_a, doc_a = run(capsys, "analyze", "@%s" % as_list, "--k", "4")
    code_b, doc_b = run(capsys, "analyze", g6(target), "--k", "4")
    assert code_a == code_b == 0
    assert doc_a["verdicts"] == doc_b["verdicts"]


def test_graph_file_holds_one_record(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Bw\n\nDhc\n", encoding="ascii")
    code, doc = run(capsys, "chi", "@%s" % path)
    assert code == 3
    assert "line 3" in doc["error"]
    # a header on a line of its own is not a record
    path.write_text(">>graph6<<\nBw\n", encoding="ascii")
    code, doc = run(capsys, "chi", "@%s" % path)
    assert code == 0
    assert doc["inputs"]["graph"] == "Bw"


@pytest.mark.parametrize(
    "argv",
    [
        ["chi"],
        ["choose", "--uniform", "3"],
        ["paint", "--uniform", "3"],
        ["critical", "--k", "3"],
        ["critical", "--k", "3", "--notion", "list"],
        ["critical", "--k", "3", "--notion", "online"],
    ],
)
def test_edge_list_header_over_budget_exits_before_the_body(capsys, monkeypatch, argv):
    # the body is malformed, so reading it would exit 3
    monkeypatch.setattr(sys, "stdin", stdin_of("2000000 1\nnot an edge\n"))
    code, doc = run(capsys, argv[0], "-", *argv[1:])
    assert code == 2
    assert doc["budget"]["exceeded"] is True
    assert "2000000 vertices" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["at", "--uniform", "3"],
        ["at", "--number"],
        ["critical", "--k", "3", "--notion", "at"],
    ],
)
def test_edge_list_header_over_edge_budget_exits_before_the_body(capsys, monkeypatch, argv):
    # the body is malformed, so reading it would exit 3
    monkeypatch.setattr(sys, "stdin", stdin_of("10 2000000\nnot an edge\n"))
    code, doc = run(capsys, argv[0], "-", *argv[1:])
    assert code == 2
    assert doc["budget"]["exceeded"] is True
    assert "2000000 edges" in doc["error"]
    # a negative count is the parser's to reject
    monkeypatch.setattr(sys, "stdin", stdin_of("-1 2000000\nnot an edge\n"))
    code, doc = run(capsys, argv[0], "-", *argv[1:])
    assert code == 3
    assert "negative count" in doc["error"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["critical", "@{}", "--k", "3", "--notion", "at"], "got n = 300000"),
        (["analyze", "@{}", "--k", "4"], "got n = 300000"),
        (["construct", "--kind", "chain", "--k", "30", "--m", "400"], "got n = 314000"),
        (["construct", "--kind", "clique-path", "--k", "5", "--m", "70000"], "got n = 280000"),
        # the generator's own argument check comes first
        (["construct", "--kind", "chain", "--k", "4", "--m", "100000"], "k must be at least 5"),
    ],
)
def test_graph_past_the_graph6_limit_exits_before_it_is_built(capsys, tmp_path, argv, error):
    # each report echoes its graph as graph6, which stops at 258047 vertices;
    # building the graph first took minutes and gigabytes
    path = tmp_path / "big.txt"
    path.write_text("300000 0\n")
    t0 = time.perf_counter()
    code, doc = run(capsys, *(a.format(path) for a in argv))
    assert time.perf_counter() - t0 < 1
    assert code == doc["exit"] == 3
    if error.startswith("got"):
        error = "graph6 supports n <= 258047, " + error
    assert doc["error"] == error


def test_bare_at_sign_is_k1(capsys):
    code, doc = run(capsys, "critical", "@", "--k", "1")
    assert code == 0
    assert doc["verdicts"]["critical"] is True
    code, doc = run(capsys, "chi", "@")
    assert code == 0
    assert doc["verdicts"]["chromatic_number"] == 1
    assert doc["inputs"]["graph"] == "@"


# determinism

def charge_g6():
    inst = build_charge_instance(
        5, [Graph.complete(4), Graph.complete(4)], "pair", label="pair"
    )
    return g6(inst.graph)


def test_reports_are_deterministic_modulo_runtime(capsys):
    instance = charge_g6()
    docs = []
    for _ in range(2):
        code, doc = run(capsys, "discharge", instance, "--k", "5")
        assert code == 0
        del doc["runtime"]
        docs.append(doc)
    assert docs[0] == docs[1]


# per-command shapes

@pytest.mark.parametrize("k,code", [(-3, 3), (3, 3), (4, 0)])
def test_analyze_k_starts_at_4(capsys, k, code):
    got, doc = run(capsys, "analyze", "Dhc", "--k", str(k))
    assert got == code
    if code:
        assert doc["exit"] == 3 and doc["error"] == "k must be at least 4"
    else:
        assert doc["inputs"] == {"graph": "Dhc", "k": 4}
        v = doc["verdicts"]
        assert (v["n"], v["m"], v["q"], v["blocks"]) == (5, 5, 0, [[0, 1, 2, 3, 4]])
        assert v["is_gallai_tree"] and v["in_T_k"]


def test_analyze_structure_fields(capsys):
    code, doc = run(capsys, "analyze", g6(Graph.wheel(5)), "--k", "4")
    v = doc["verdicts"]
    assert v["is_gallai_tree"] is False
    assert v["h_vertices"] == [] and v["higher_vertices"] == [5]
    assert sorted(map(sorted, v["l_components"])) == [[0, 1, 2, 3, 4]]
    assert v["elimination"]["symmetric"]["succeeded"] is True
    assert doc["paper_anchor"] == "Section 2 structure"


def test_bounds_table_values(capsys):
    code, doc = run(capsys, "bounds", "--k", "5", "7")
    assert code == 0
    rows = doc["verdicts"]["rows"]
    assert rows["7"]["here"]["exact"] == "924/151"
    assert rows["7"]["gallai"]["exact"] == "140/23"
    assert rows["5"]["here"]["display"] == "4.1000"
    assert rows["5"]["ks_critical"]["exact"] is None


def test_readme_examples_run():
    """Each `critgraphs ...` line of the README's command block that names no
    file prints one document and exits 0 or 1, and the trimmed construction
    shown after it matches the real one."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = [
        re.split(r" {2,}", line)[0].split()[1:]
        for line in text.splitlines()
        if line.startswith("critgraphs ") and ".g6" not in line
    ]
    assert len(examples) == 11
    docs = {}
    for argv in examples:
        code, out = _main_output(argv)
        assert code in (0, 1), argv
        docs[" ".join(argv)] = json.loads(out)
    shown = text.split("$ critgraphs ", 1)[1].split("```", 1)[0]
    argv, shown = shown.split("\n", 1)
    shown = re.sub(r",\s*\n\s*\.\.\.\s*\n", "\n", shown)
    real = docs[argv]
    for key, value in json.loads(shown).items():
        assert real[key] == value, key


@pytest.mark.parametrize("k,code", [(3, 3), (4, 3), (5, 0)])
def test_verify_trees_k_starts_at_5(capsys, k, code):
    got, doc = run(capsys, "verify-trees", "--k", str(k), "--n-max", "4")
    assert got == code
    if code:
        assert doc["exit"] == 3 and doc["error"] == "k must be at least 5"
    else:
        assert doc["inputs"] == {"k": 5, "n_max": 4}
        assert doc["verdicts"]["trees_checked"] == 8


def test_verify_trees_sweep(capsys):
    code, doc = run(capsys, "verify-trees", "--k", "5", "--n-max", "6")
    assert code == 0
    assert doc["verdicts"]["trees_checked"] == 33
    assert doc["verdicts"]["violations"] == 0


def test_construct_chain_is_tight(capsys):
    code, doc = run(capsys, "construct", "--kind", "chain", "--k", "5", "--m", "2")
    v = doc["verdicts"]
    assert (v["n"], v["edges"], v["q"]) == (20, 29, 2)
    assert v["two_norm"] == 58 and v["rhs"] == "58/1"
    assert v["tight"] is True


def test_construct_chain_past_62_vertices_uses_long_form(capsys):
    code, doc = run(capsys, "construct", "--kind", "chain", "--k", "7", "--m", "3")
    assert code == 0
    v = doc["verdicts"]
    assert v["n"] == 78 and v["tight"] is True
    assert v["graph6"].startswith("~")
    assert parse_graph6(v["graph6"]) == extremal_chain(7, 3)


def test_construct_clique_path_is_tight(capsys):
    code, doc = run(capsys, "construct", "--kind", "clique-path", "--k", "5", "--m", "2")
    v = doc["verdicts"]
    assert v["two_norm"] == 26 and v["rhs"] == "26/1"
    assert v["tight"] is True


def test_at_number(capsys):
    code, doc = run(capsys, "at", g6(Graph.cycle(5)), "--number")
    assert code == 0
    assert doc["verdicts"]["at_number"] == 3


def test_choose_reports_witness(capsys):
    k24 = Graph(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)])
    code, doc = run(capsys, "choose", g6(k24), "--uniform", "2")
    assert code == 1
    assert doc["verdicts"]["f_choosable"] is False
    bad = doc["verdicts"]["bad_assignment"]
    assert len(bad) == 6 and all(len(v) == 2 for v in bad.values())


def test_paint_verdicts(capsys):
    assert run(capsys, "paint", g6(Graph.cycle(4)), "--uniform", "2")[0] == 0
    assert run(capsys, "paint", g6(Graph.cycle(5)), "--uniform", "2")[0] == 1


def test_chi(capsys):
    code, doc = run(capsys, "chi", g6(Graph.wheel(5)))
    assert doc["verdicts"]["chromatic_number"] == 4


def test_critical_notions(capsys):
    assert run(capsys, "critical", g6(Graph.wheel(5)), "--k", "4")[0] == 0
    assert run(capsys, "critical", g6(Graph.cycle(6)), "--k", "3")[0] == 1
    code, doc = run(capsys, "critical", g6(Graph.complete(4)), "--k", "4", "--notion", "at")
    assert code == 0
    assert run(capsys, "critical", g6(Graph.cycle(4)), "--k", "3", "--notion", "list")[0] == 1
    # theta(2,2,4) is critical for the paint game but not for list coloring
    theta = Graph(7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)])
    assert run(capsys, "critical", g6(theta), "--k", "3", "--notion", "online")[0] == 0
    assert run(capsys, "critical", g6(theta), "--k", "3", "--notion", "list")[0] == 1


def test_discharge_gallai_mode(capsys):
    code, doc = run(capsys, "discharge", g6(Graph.wheel(5)), "--k", "4", "--mode", "gallai-sec2")
    assert code == 0
    v = doc["verdicts"]
    assert v["target"] == "40/13"
    assert v["final"]["0"] == "42/13" and v["final"]["5"] == "50/13"
    assert v["meets_target"] is True and v["conserved"] is True
    assert doc["paper_anchor"] == "Theorem 2.1"
    # Section 2 reads no preset; unset, it is still echoed as the default
    assert doc["inputs"]["preset"] == "smallP"


def test_discharge_main_mode_success(capsys):
    code, doc = run(capsys, "discharge", charge_g6(), "--k", "5")
    assert code == 0
    v = doc["verdicts"]
    assert v["mode"] == "lopsided"
    assert (v["epsilon"], v["gamma"], v["target"]) == ("1/10", "1/5", "41/10")
    assert v["meets_target"] is True
    assert v["audits"] and "audit_failures" not in v
    assert doc["paper_anchor"] == "Theorem 4.3"
    code, doc = run(capsys, "discharge", charge_g6(), "--k", "5", "--preset", "ks")
    assert code == 0 and doc["inputs"]["preset"] == "ks"


def test_discharge_reports_residual(capsys):
    g, _, _ = stalled_aux_instance(5, 4, 4)
    code, doc = run(capsys, "discharge", g6(g), "--k", "5")
    assert code == 1
    v = doc["verdicts"]
    assert v["elimination_failed"] is True
    assert len(v["residual_trees"]) == 4 and len(v["residual_highs"]) == 4
    assert all(len(e) == 2 for e in v["residual_edges"])


def test_discharge_mode_gate(capsys):
    code, doc = run(capsys, "discharge", g6(extremal_chain(5, 1)), "--k", "5",
                    "--mode", "symmetric")
    assert code == 3
    assert "error" in doc


@pytest.mark.parametrize("k,mode,error", [
    (5, "symmetric", "thm41 conditions fail for k=5: k-range"),
    (7, "lopsided", "thm43 conditions fail for k=7: k-range"),
])
def test_discharge_regime_failure_names_the_report(capsys, k, mode, error):
    code, doc = run(capsys, "discharge", g6(extremal_chain(5, 1)), "--k", str(k), "--mode", mode)
    assert code == 3
    assert doc["error"] == error


def test_reduce_check_single_verified(capsys):
    g = Graph.complete(5).remove_edge(3, 4)
    code, doc = run(capsys, "reduce-check", g6(g), "--k", "5", "--x", "3")
    assert code == 0
    assert doc["verdicts"]["status"] == "verified"
    assert doc["verdicts"]["certificate"]["ee"] != doc["verdicts"]["certificate"]["eo"]
    assert doc["paper_anchor"] == "Lemma 5.1"
    # Lemma 5.1 runs no induced-subgraph search, so no state budget applies
    assert doc["budget"]["max_states"] is None


def test_reduce_check_budget_exit(capsys):
    g = Graph.complete(5).remove_edge(3, 4)
    code, doc = run(capsys, "reduce-check", g6(g), "--k", "5", "--x", "3",
                    "--max-edges", "5")
    assert code == 2
    assert doc["verdicts"]["status"] == "not verified: budget"
    assert doc["budget"]["exceeded"] is True


def two_cliques_and_a_mark():
    """K4 + K4 and vertex 8 joined to one vertex of each: two trees give the
    marked vertex auxiliary degree at most 2, below either regime's floor."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(4 + a, 4 + b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(8, 0), (8, 4)]
    return g6(Graph(9, edges))


def test_reduce_check_marked_set(capsys):
    code, doc = run(capsys, "reduce-check", two_cliques_and_a_mark(), "--k", "5", "--y", "8")
    assert code == 1
    assert doc["verdicts"]["hypotheses"]["aux_degrees"] is False
    assert doc["paper_anchor"] == "Lemma 5.3"
    assert doc["verdicts"]["status"] == "hypotheses failed"
    assert doc["budget"]["max_states"] == critgraphs.reducible.MAX_EXPLORED


@pytest.mark.parametrize("k,anchor", [(6, "Lemma 5.3"), (7, "Lemma 5.2"), (8, "Lemma 5.2")])
def test_reduce_check_auto_variant_follows_k(capsys, k, anchor):
    code, doc = run(capsys, "reduce-check", two_cliques_and_a_mark(), "--k", str(k), "--y", "8")
    assert code == 1
    assert doc["verdicts"]["hypotheses"]["aux_degrees"] is False
    assert doc["paper_anchor"] == anchor


def test_reduce_check_requires_a_mark(capsys):
    code, doc = run(capsys, "reduce-check", g6(Graph.complete(4)), "--k", "5")
    assert code == 3


def test_census_stream(capsys, monkeypatch):
    lines = [
        g6(Graph.complete(4)),
        "",
        "@@@not-a-graph",
        ">>graph6<<%s" % g6(Graph.wheel(5)),
        g6(Graph.complete(3)),
    ]
    monkeypatch.setattr(sys, "stdin", stdin_of("\n".join(lines) + "\n"))
    code, doc = run(capsys, "census", "-", "--k", "4")
    assert code == 3
    v = doc["verdicts"]
    assert len(v["errors"]) == 1 and v["errors"][0]["line"] == 3
    assert v["rows"]["4"]["criticals"] == 1
    assert v["rows"]["4"]["min_edges"] == 6
    assert v["rows"]["6"]["witness"] == g6(Graph.wheel(5))
    assert v["rows"]["6"]["ky_edges"] == 10
    assert v["rows"]["3"]["criticals"] == 0


def test_census_budget_skips(capsys, tmp_path):
    path = tmp_path / "stream.g6"
    path.write_text(g6(Graph(17)) + "\n", encoding="ascii")
    code, doc = run(capsys, "census", str(path), "--k", "4")
    assert code == 2
    assert doc["verdicts"]["skipped"] == 1
    assert doc["budget"]["exceeded"] is True


@pytest.mark.parametrize(
    "notion,budget",
    [("list", (10, None)), ("at", (None, 20)), ("chromatic", (16, None)), ("online", (10, None))],
)
def test_census_reports_the_budget_it_applied(capsys, monkeypatch, notion, budget):
    monkeypatch.setattr(sys, "stdin", stdin_of(g6(Graph.complete(4)) + "\n"))
    code, doc = run(capsys, "census", "-", "--k", "4", "--notion", notion)
    assert code == 0
    assert (doc["budget"]["max_vertices"], doc["budget"]["max_edges"]) == budget
    _, crit = run(capsys, "critical", g6(Graph.complete(4)), "--k", "4", "--notion", notion)
    assert crit["budget"] == doc["budget"]


def test_census_clean_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_of(g6(Graph.complete(4)) + "\n"))
    code, doc = run(capsys, "census", "-", "--k", "4")
    assert code == 0
    assert doc["verdicts"]["avg_degree_bounds"]["main"] is None
    assert doc["verdicts"]["avg_degree_bounds"]["gallai"] == "40/13"


def test_console_entry_point():
    """Run the [project.scripts] entry in a fresh interpreter the way a
    generated launcher does, so no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert "critgraphs" in scripts
    module, attr = scripts["critgraphs"].split(":")
    launcher = (
        "import sys\n"
        "sys.argv[0] = 'critgraphs'\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    # This checkout's package first, so a stale install cannot answer.
    src = str(Path(critgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "bounds", "--k", "7"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdicts"]["rows"]["7"]["here"]["exact"] == "924/151"


@pytest.mark.skipif(
    shutil.which("critgraphs") is None,
    reason="critgraphs console script not installed on PATH",
)
def test_installed_console_script():
    proc = subprocess.run(
        ["critgraphs", "bounds", "--k", "7"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdicts"]["rows"]["7"]["here"]["exact"] == "924/151"
