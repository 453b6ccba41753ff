"""Command-line surface: formats, exit codes, determinism."""

import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hubauth
from hubauth import graph, topk
from hubauth.cli import main

from conftest import order_three_first_round

EX1_TEXT = "1 2\n1 3\n2 1\n2 3\n3 2\n3 4\n4 2\n"
EX3_TEXT = "2 1\n3 1\n4 1\n5 1\n6 2\n6 3\n6 4\n6 5\n"


@pytest.fixture
def ex1_file(tmp_path):
    p = tmp_path / "ex1.txt"
    p.write_text(EX1_TEXT)
    return str(p)


@pytest.fixture
def ex3_file(tmp_path):
    p = tmp_path / "ex3.txt"
    p.write_text(EX3_TEXT)
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_exp_exact_hub_example1(ex1_file, capsys):
    code, out, _ = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--side", "hub"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,score,rank"
    assert lines[1] == "1,2.3319,1"


def test_rank_degree_authority_example3(ex3_file, capsys):
    code, out, _ = run_cli(
        ["rank", "--input", ex3_file, "--base", "1", "--method", "degree", "--side", "authority"],
        capsys,
    )
    assert code == 0
    first = out.strip().splitlines()[1]
    assert first == "1,4.0000,1"


def test_rank_empty_file_exits_1_without_output(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, out, err = run_cli(
        ["rank", "--input", str(p), "--method", "degree", "--side", "hub"], capsys
    )
    assert code == 1
    assert out == ""
    assert "error" in err


def test_rank_missing_file_exits_1(capsys):
    code, out, err = run_cli(
        ["rank", "--input", "/nonexistent/g.txt", "--method", "degree", "--side", "hub"], capsys
    )
    assert code == 1
    assert out == ""


def test_rank_top_truncates(ex1_file, capsys):
    code, out, _ = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "hits", "--side", "authority", "--top", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,")


def test_rank_json_mirrors_csv_numbers(ex1_file, capsys):
    code, csv_out, _ = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--side", "hub", "--precision", "full"],
        capsys,
    )
    code2, json_out, _ = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--side", "hub", "--json"],
        capsys,
    )
    assert code == 0 and code2 == 0
    payload = json.loads(json_out)
    csv_scores = {row.split(",")[0]: float(row.split(",")[1]) for row in csv_out.strip().splitlines()[1:]}
    for row in payload["rows"]:
        csv_val = csv_scores[str(row["node"])]
        assert float(f"{row['score']:.12g}") == pytest.approx(csv_val, rel=1e-11)


def test_rank_deterministic_across_threads(ex1_file, capsys):
    args = ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-quad", "--side", "hub", "--precision", "full"]
    _, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    _, out4, _ = run_cli(args + ["--threads", "4"], capsys)
    assert out1 == out4


def test_rank_out_file(ex1_file, tmp_path, capsys):
    dest = tmp_path / "scores.csv"
    code, out, _ = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "degree", "--side", "hub", "--out", str(dest)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("node,score,rank")


def test_rank_invalid_alpha_exits_2(ex1_file, capsys):
    code, out, err = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "pagerank", "--side", "authority", "--alpha", "1.5"],
        capsys,
    )
    assert code == 2
    assert "alpha" in err


def test_rank_mtx_input(tmp_path, capsys):
    p = tmp_path / "ex1.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern general\n4 4 7\n1 2\n1 3\n2 1\n2 3\n3 2\n3 4\n4 2\n")
    code, out, _ = run_cli(
        ["rank", "--input", str(p), "--format", "mtx", "--method", "exp-exact", "--side", "hub"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "0,2.3319,1"  # mtx ids echoed 0-based


def test_topk_example3_hub(ex3_file, capsys):
    code, out, _ = run_cli(
        ["topk", "--input", ex3_file, "--base", "1", "--k", "1", "--side", "hub", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert [m["node"] for m in payload["members"]] == [6]
    assert payload["members"][0]["exact"]
    assert payload["certified"]


def test_topk_example1_authorities(ex1_file, capsys):
    code, out, _ = run_cli(
        ["topk", "--input", ex1_file, "--base", "1", "--k", "2", "--side", "authority"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("2,1,")
    assert lines[2].startswith("3,2,")


@pytest.mark.parametrize(
    "args",
    [
        ["rank", "--method", "exp-quad", "--side", "hub"],
        ["rank", "--method", "resolvent", "--side", "authority"],
        ["topk", "--k", "1", "--side", "hub"],
    ],
    ids=["exp-quad", "resolvent", "topk"],
)
def test_pmax_below_the_first_quadrature_order_exits_2(tmp_path, capsys, args):
    # 2n > 4000, so resolvent takes its quadrature path too
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(2001)))
    code, out, err = run_cli(args[:1] + ["--input", str(path), "--pmax", "2"] + args[1:], capsys)
    assert code == 2
    assert out == ""
    assert "p_max must be at least 3" in err


def test_topk_k_too_large_exits_2(ex1_file, capsys):
    code, _, err = run_cli(
        ["topk", "--input", ex1_file, "--base", "1", "--k", "10", "--side", "hub"], capsys
    )
    assert code == 2
    assert "eligible" in err


def test_topk_with_m_relaxation(ex1_file, capsys):
    code, out, _ = run_cli(
        ["topk", "--input", ex1_file, "--base", "1", "--k", "1", "--m", "2", "--side", "hub", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2
    assert payload["iterations"]["max"] <= 4  # Gram steps: the order-3 first round


def test_topk_json_reports_one_step_for_nodes_dropped_at_order_one(tmp_path, capsys, monkeypatch):
    # hubs 1 and 2 mirror each other, so the top 2 refines to order 9; hubs 3-9
    # fall to their order-1 brackets, and the path 10 -> ... -> 16 breaks down at once
    out = {
        0: [1, 2, 5, 6, 7, 8], 1: [3, 4, 6, 7, 8], 2: [3, 4, 6, 7, 8], 3: [1, 2, 5, 8], 4: [1, 2, 9],
        5: [1, 2, 3, 4], 6: [1, 2, 7, 9], 7: [4, 6], 8: [1, 2, 3, 7], 9: [5, 6, 7],
    }
    edges = [(u, v) for u, vs in out.items() for v in vs] + [(u, u + 1) for u in range(10, 16)]
    path = tmp_path / "mirror.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    args = ["topk", "--input", str(path), "--k", "2", "--side", "hub", "--json"]
    code, text, _ = run_cli(args, capsys)
    assert code == 0
    with monkeypatch.context() as patched:
        patched.setattr(topk._BracketPool, "start", order_three_first_round)
        code, reference_text, _ = run_cli(args, capsys)
    assert code == 0
    payload, reference = json.loads(text), json.loads(reference_text)
    dropped = [str(v) for v in range(3, 10)]
    assert [payload["iterations"]["per_node"].pop(v) for v in dropped] == [1] * 7
    assert [reference["iterations"]["per_node"].pop(v) for v in dropped] == [4] * 7
    assert payload["iterations"]["max"] == 9
    assert payload == reference


def test_compare_exp_vs_hits_authority(ex1_file, capsys):
    code, out, _ = run_cli(
        [
            "compare", "--input", ex1_file, "--base", "1",
            "--method", "exp-exact", "--method", "hits",
            "--side", "authority", "--ks", "4",
        ],
        capsys,
    )
    assert code == 0
    assert "overlap_at_4,1.0000" in out


def test_compare_method_against_itself(ex1_file, capsys):
    code, out, _ = run_cli(
        [
            "compare", "--input", ex1_file, "--base", "1",
            "--method", "katz", "--method", "katz",
            "--side", "hub", "--ks", "2",
        ],
        capsys,
    )
    assert code == 0
    assert "kendall_tau_b,1.0000" in out


def test_compare_exp_vs_katz_hub_full_report(ex1_file, capsys):
    code, out, _ = run_cli(
        [
            "compare", "--input", ex1_file, "--base", "1",
            "--method", "exp-exact", "--method", "katz",
            "--side", "hub", "--ks", "1,2,4", "--json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method_a"] == "exp-exact/hub"
    assert payload["method_b"] == "katz/hub"
    assert -1.0 <= payload["kendall_tau_b"] <= 1.0
    assert set(payload["overlap_at"]) == {"1", "2", "4"}
    assert len(payload["top_members"]["2"]["a"]) == 2


def test_compare_needs_two_methods(ex1_file, capsys):
    code, _, err = run_cli(
        ["compare", "--input", ex1_file, "--base", "1", "--method", "hits", "--side", "hub"],
        capsys,
    )
    assert code == 2
    assert "two" in err


def test_spectrum_two_cycle(tmp_path, capsys):
    p = tmp_path / "cyc.txt"
    p.write_text("0 1\n1 0\n")
    code, out, _ = run_cli(["spectrum", "--input", str(p)], capsys)
    assert code == 0
    assert "sigma1,1.0000" in out
    assert "symmetry_fraction,1.0000" in out


def test_spectrum_example2_degenerate(tmp_path, capsys):
    p = tmp_path / "ex2.txt"
    p.write_text("1 3\n2 1\n2 4\n3 2\n4 2\n")
    code, out, _ = run_cli(
        ["spectrum", "--input", str(p), "--base", "1", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_gap"] == pytest.approx(0.0, abs=1e-8)
    assert "degenerate" in payload["annotation"]


def test_spectrum_ritz_dump(ex1_file, tmp_path, capsys):
    # 8 steps from hub 0 span all 8 dimensions of B: the Ritz values are B's
    # eigenvalues, +-sigma_k of A
    dump = tmp_path / "ritz.txt"
    code, _, _ = run_cli(
        ["spectrum", "--input", ex1_file, "--base", "1", "--pmax", "8", "--ritz-out", str(dump)], capsys
    )
    assert code == 0
    values = [float(line) for line in dump.read_text().splitlines()]
    assert values == sorted(values)
    A = np.zeros((4, 4))
    for line in EX1_TEXT.splitlines():
        u, v = map(int, line.split())
        A[u - 1, v - 1] = 1.0
    sigma = np.linalg.svd(A, compute_uv=False)
    np.testing.assert_allclose(values, np.sort(np.concatenate([-sigma, sigma])), rtol=0, atol=1e-10)


def _child_env():
    """This process's environment with the imported hubauth's source dir on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(hubauth.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_script_entry_point(ex1_file):
    result = subprocess.run(
        [sys.executable, "-m", "hubauth.cli", "rank", "--input", ex1_file, "--base", "1",
         "--method", "degree", "--side", "hub"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "node,score,rank"


@pytest.mark.parametrize(
    "text,extra,code",
    [
        (EX1_TEXT, ["--method", "exp-quad"], 0),
        ("1 2\n2 x\n", ["--method", "exp-quad"], 1),
        (EX1_TEXT, ["--method", "pagerank", "--alpha", "2"], 2),
    ],
    ids=["good", "malformed", "bad-alpha"],
)
def test_module_entry_exits_like_in_process_main(tmp_path, capsys, text, extra, code):
    p = tmp_path / "graph.txt"
    p.write_text(text)
    argv = ["rank", "--input", str(p), "--base", "1", "--side", "hub"] + extra
    result = subprocess.run([sys.executable, "-m", "hubauth.cli"] + argv, capture_output=True, env=_child_env())
    frozen = gc.get_freeze_count()
    in_process = run_cli(argv, capsys)
    # main() leaves the collector alone; only the process entry freezes the heap
    assert gc.get_freeze_count() == frozen == 0
    assert in_process[0] == result.returncode == code
    assert (result.stdout, result.stderr) == (in_process[1].encode(), in_process[2].encode())
    assert (result.stdout != b"") == (code == 0) and (result.stderr != b"") == (code != 0)


def test_entry_freezes_the_heap_before_exit(ex1_file):
    # the console script runs the same function as python -m hubauth.cli
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        assert 'hubauth = "hubauth.cli:entry"' in fh.read().splitlines()
    argv = ["hubauth", "rank", "--input", ex1_file, "--base", "1", "--method", "degree", "--side", "hub"]
    probe = (
        "import atexit, gc, sys, hubauth.cli\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 1000, file=sys.stderr))\n"
        f"sys.argv = {argv!r}\n"
        "print('frozen before:', gc.get_freeze_count(), file=sys.stderr)\n"
        "hubauth.cli.entry()\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0
    assert result.stdout.startswith("node,score,rank\n")
    assert result.stderr.splitlines() == ["frozen before: 0", "frozen at exit: True"]


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("beyond-int64.txt", "0 1\n99999999999999999999 2\n", "line 2: node id 99999999999999999999 at or above the limit"),
        ("large-id.txt", "0 1\n99999999999 2\n", "line 2: node id 99999999999 at or above the limit"),
        (
            "large-size.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n% comment\n99999999999 99999999999 1\n1 2\n",
            "line 3: dimension 99999999999 at or above the limit",
        ),
    ],
)
def test_huge_node_ids_exit_1_before_allocating(tmp_path, capsys, name, text, message):
    # each input is rejected while parsing; none reaches an array of n entries
    p = tmp_path / name
    p.write_text(text)
    fmt = "mtx" if name.endswith(".mtx") else "edgelist"
    code, out, err = run_cli(["rank", "--input", str(p), "--format", fmt, "--method", "degree", "--side", "hub"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message} {graph.NODE_LIMIT}\n"


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only on "import *"
    checked = set()
    for info in pkgutil.iter_modules(hubauth.__path__):
        module = importlib.import_module(f"hubauth.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        assert [name for name in names if not hasattr(module, name)] == [], info.name
        checked.add(info.name)
    assert {"analysis", "graph", "linalg", "quadrature", "rankers", "topk"} <= checked
    # the package's own names load on first access, from the module that defines them
    assert hubauth.pagerank is hubauth.rankers.pagerank and hubauth.LanczosRun is hubauth.linalg.LanczosRun
    probe = "import hubauth\nfrom hubauth import *\nprint(sorted(set(hubauth.__all__) - set(dir())))\n"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
    # every submodule is an attribute of a fresh "import hubauth", as when the
    # package imported them all
    probe = (
        "import hubauth\n"
        "print(hubauth.linalg.LanczosRun is hubauth.LanczosRun, hubauth.topk.__name__, hubauth.errors.__name__)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True hubauth.topk hubauth.errors\n"
    with pytest.raises(AttributeError):
        hubauth.no_such_name
    with pytest.raises(AttributeError):
        hubauth.cli_not_a_module


def test_cli_import_leaves_heavy_scipy_modules_unloaded(ex1_file, tmp_path):
    env = _child_env()
    # on ex1 the exp-exact and HITS hub rankings differ, so tau-b is computed
    args = ["compare", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--method", "hits", "--side", "hub"]
    # the benchmark's four command shapes.  Graphs are NumPy CSR, and block
    # products on graphs this small run in NumPy: only a large graph's block
    # product or svds loads scipy.sparse, and these commands load no SciPy
    # module at all.  Nor numpy.ma, which costs about 10 ms to import.
    workload_shapes = [
        ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-quad", "--side", "hub"],
        ["topk", "--input", ex1_file, "--base", "1", "--k", "2", "--side", "authority"],
        ["compare", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--method", "spectral", "--side", "hub"],
        ["rank", "--input", ex1_file, "--base", "1", "--method", "pagerank", "--side", "authority",
         "--out", str(tmp_path / "pagerank.csv")],
    ]
    probe = (
        "import sys, hubauth.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        f"for argv in {workload_shapes!r}: assert hubauth.cli.main(argv) == 0\n"
        "print('numpy.ma loaded:', 'numpy.ma' in sys.modules)\n"
        f"hubauth.cli.main({args!r})\n"
        "print('scipy.stats loaded:', 'scipy.stats' in sys.modules)\n"
        "print('scipy loaded:', sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert "numpy.ma loaded: False" in lines
    assert (tmp_path / "pagerank.csv").read_text().startswith("node,score,rank\n")
    tau = next(float(line.split(",")[1]) for line in lines if line.startswith("kendall_tau_b,"))
    assert tau < 1.0
    assert "scipy.stats loaded: False" in lines
    assert "method_b,spectral/hub" in lines
    assert lines[-1] == "scipy loaded: []"


def test_pagerank_and_degree_runs_load_no_lanczos_quadrature_topk_or_analysis(ex1_file):
    # each command imports the modules it uses, and these two methods use
    # only graph and rankers
    unused = ["hubauth.linalg", "hubauth.quadrature", "hubauth.topk", "hubauth.analysis"]
    rank = ["rank", "--input", ex1_file, "--base", "1"]
    shapes = [rank + ["--method", "pagerank", "--side", side] + extra for side in ("hub", "authority") for extra in ([], ["--json"])]
    shapes.append(rank + ["--method", "degree", "--side", "hub", "--json"])
    for argv in shapes:
        probe = f"import sys, hubauth.cli\nassert hubauth.cli.main({argv!r}) == 0\nprint([m for m in {unused!r} if m in sys.modules])\n"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]", argv


@pytest.mark.parametrize(
    "args,spans",
    [
        (["topk", "--k", "2", "--side", "hub", "--json"], ["quadrature.radau", "linalg.lanczos"]),
        (["rank", "--method", "exp-quad", "--side", "hub", "--json"], ["quadrature.radau", "linalg.lanczos"]),
        (["spectrum", "--pmax", "8", "--ritz-out", "RITZ", "--json"], ["linalg.tridiag_eigen", "linalg.lanczos"]),
        # PageRank's A^T products are graph.spmv calls, counted on ingest-pagerank
        (["rank", "--method", "pagerank", "--side", "hub"], ["graph.spmv", "rankers.pagerank"]),
    ],
    ids=["topk", "exp-quad", "spectrum-ritz", "pagerank"],
)
def test_benchmark_tracer_runs_and_leaves_output_unchanged(ex1_file, tmp_path, args, spans):
    # perfbench/tracer.py wraps program functions by name, all of them whatever
    # the command; renaming or deleting one would otherwise break only the benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def argv(ritz):
        return [str(tmp_path / ritz) if a == "RITZ" else a for a in args[:1] + ["--input", ex1_file, "--base", "1"] + args[1:]]

    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "tracer.py"), str(spans_path)] + argv("traced.txt"),
        capture_output=True, env=env,
    )
    plain = subprocess.run([sys.executable, "-m", "hubauth.cli"] + argv("plain.txt"), capture_output=True, env=env)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    if "RITZ" in args:
        assert (tmp_path / "traced.txt").read_text() == (tmp_path / "plain.txt").read_text() != ""
    names = [span[0] for span in json.loads(spans_path.read_text())["spans"]]
    for name in spans:
        assert names.count(name) > 0, name


@pytest.mark.parametrize(
    "args",
    [
        ["rank", "--method", "exp-exact", "--side", "hub"],
        ["rank", "--method", "spectral", "--side", "hub"],
        ["rank", "--method", "exp-quad", "--side", "hub"],
        ["topk", "--k", "1", "--side", "hub"],
        ["spectrum"],
        ["spectrum", "--json"],
    ],
    ids=["exp-exact", "spectral", "exp-quad", "topk", "spectrum", "spectrum-json"],
)
def test_overflow_exits_3_with_one_error_line(tmp_path, capsys, args):
    # sigma_1 = 1000: cosh(1000) and e^1000 overflow double precision.  That is
    # a numerical failure, reported once, with no NumPy warning on the way
    p = tmp_path / "heavy.txt"
    p.write_text("0 1 1000\n1 0 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(args[:1] + ["--input", str(p)] + args[1:], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflow" in err


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    return calls


def test_compare_factors_a_once(ex1_file, capsys, monkeypatch):
    # both dense methods read one decomposition of the requested side's Gram matrix
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    code, _, _ = run_cli(
        ["compare", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--method", "spectral", "--side", "hub"],
        capsys,
    )
    assert code == 0
    assert (len(eigh), len(svd)) == (1, 0)


def test_rank_exp_exact_authority_never_forms_the_hub_gram_matrix(ex1_file, capsys, monkeypatch):
    from hubauth import cli

    loaded = []
    load = cli._load_graph
    monkeypatch.setattr(cli, "_load_graph", lambda args: loaded.append(load(args)) or loaded[-1])
    code, _, _ = run_cli(
        ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-exact", "--side", "authority"],
        capsys,
    )
    assert code == 0
    assert [key for key in vars(loaded[0]) if key.startswith("_dense_gram")] == ["_dense_gram_authority"]


def test_rank_exp_quad_side_matches_both_sides(ex1_file, capsys):
    from hubauth import exp_centrality_quadrature, load_edge_list

    hub, auth = exp_centrality_quadrature(load_edge_list(ex1_file, index_base=1))
    for side, sv in (("hub", hub), ("authority", auth)):
        code, out, _ = run_cli(
            ["rank", "--input", ex1_file, "--base", "1", "--method", "exp-quad", "--side", side, "--json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["node"] - 1: r["score"] for r in rows} == dict(enumerate(sv.scores.tolist()))


def test_runs_are_byte_identical(ex1_file, capsys):
    args = ["rank", "--input", ex1_file, "--base", "1", "--method", "hits", "--side", "hub", "--precision", "full"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
