"""Command-line interface: exit codes, RESULT lines, generation, benchmarks."""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divmax as dm
import divmax.cli as cli
from conftest import SQUARE


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def result_line(out: str) -> str:
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    assert len(lines) == 1, out
    return lines[0]


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    dm.save_instance(dm.MetricInstance.from_points(SQUARE), path)
    return str(path)


# -------------------------------------------------------------------- solve

def test_solve_brute_square(capsys, square_file):
    code, out, err = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                  "--k", "4", "--algo", "brute"])
    assert code == 0, err
    line = result_line(out)
    assert "algo=brute" in line and "objective=clique" in line
    assert "value=6.82842712" in line
    assert line.endswith("subset=0,1,2,3")
    assert any(l.startswith("# ") for l in out.splitlines())


def test_solve_q_flag(capsys, square_file):
    code, out, _ = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                "--q", "2", "--k", "2", "--algo", "brute"])
    assert code == 0
    line = result_line(out)
    assert "q=2" in line and "value=2" in line and line.endswith("subset=0,3")


def test_solve_with_oracle_ratio(capsys, square_file):
    code, out, _ = run(capsys, ["solve", "--in", square_file, "--objective", "star",
                                "--k", "4", "--algo", "ptas", "--eps", "0.5", "--oracle"])
    assert code == 0
    line = result_line(out)
    assert "oracle=" in line and "ratio=" in line
    ratio = float(line.split("ratio=")[1].split()[0])
    assert 0.5 * (1 - 1e-9) <= ratio <= 1.0 + 1e-9


def test_solve_brute_oracle_runs_brute_force_once(capsys, square_file, monkeypatch):
    # the brute solver's answer is the oracle; the line is as when both ran
    calls, brute = [], cli.brute_force_opt

    def spy(*args, **kwargs):
        calls.append(args)
        return brute(*args, **kwargs)

    monkeypatch.setattr(cli, "brute_force_opt", spy)
    code, out, err = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                  "--k", "3", "--algo", "brute", "--oracle"])
    assert code == 0, err
    assert len(calls) == 1
    assert result_line(out) == (f"RESULT algo=brute objective=clique q=1 k=3 n=4 "
                                f"instance={square_file} value=3.41421356 "
                                "oracle=3.41421356 ratio=1 subset=0,1,2")
    assert "# brute force: 4 subsets, 4 rescored" in out.splitlines()


def test_solve_ptas_guesses_line(capsys, tmp_path):
    path = str(tmp_path / "u.txt")
    assert cli.main(["gen", "uniform", "--n", "12", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["solve", "--in", path, "--objective", "clique",
                                "--k", "4", "--algo", "ptas", "--eps", "0.3"])
    assert code == 0
    sol = dm.solve(dm.load_instance(path), dm.Objective("clique"), 4, 0.3)
    m = sol.meta
    assert m["guesses"] == m["repeats"] + m["dominated"] + m["scored"]
    assert m["candidates"] == math.comb(12, 4)
    want = (f"# guesses: {m['guesses']} planned, {m['repeats']} repeats, "
            f"{m['dominated']} dominated, {m['scored']} scored ({m['exact']} exact); "
            f"{m['candidates']} candidates = 1.00 x C(12,4)")
    assert want in out.splitlines()
    line = result_line(out)
    assert f"candidates={m['candidates']} " in line
    assert "repeats" not in line and "dominated" not in line and "scored" not in line
    assert "exact" not in line


def test_solve_ptas_guesses_line_counts_exact_searches(capsys, tmp_path):
    # three tight clusters share cells at the coarse guesses, so only some
    # scored guesses have all-singleton cells and take the exact subset search
    path = str(tmp_path / "c.txt")
    inst = dm.gen_clustered(10, 0.05, [[3.0, 0.0], [0.0, 3.0], [-2.5, -2.5]], seed=2)
    dm.save_instance(inst, path)
    code, out, _ = run(capsys, ["solve", "--in", path, "--objective", "clique", "--k", "4",
                                "--algo", "ptas", "--eps", "0.25"])
    assert code == 0
    m = dm.solve(dm.load_instance(path), dm.Objective("clique"), 4, 0.25).meta
    assert 0 < m["exact"] < m["scored"]
    guesses = [line for line in out.splitlines() if line.startswith("# guesses: ")]
    assert len(guesses) == 1
    assert f", {m['scored']} scored ({m['exact']} exact); {m['candidates']} candidates" \
        in guesses[0]
    assert "exact" not in result_line(out)


def test_solve_ptas_guesses_line_names_the_exact_route(capsys, tmp_path):
    # the plan predicts 4844 rows, more than the 3003 subsets of 5 among 15
    # points, so one search of every subset replaces it; RESULT carries only
    # its candidates
    path = str(tmp_path / "c.txt")
    dm.save_instance(dm.gen_clustered(14, 0.1, [[2.0, 0.0]], seed=5, q=2.0), path)
    argv = ["solve", "--in", path, "--objective", "clique", "--q", "2", "--k", "5",
            "--algo", "ptas", "--eps", "0.5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    guesses = [line for line in out.splitlines() if line.startswith("# guesses: ")]
    assert guesses[0].endswith("; 3003 candidates = 1.00 x C(15,5); "
                               "exact search of C(15,5) = 3003 < 4844 rows planned")
    assert ", 1 scored (1 exact);" in guesses[0]
    assert "candidates=3003 " in result_line(out) and "planned" not in result_line(out)
    code, _, err = run(capsys, argv + ["--budget", "3002"])
    assert code == 2 and "3003 predicted candidates > budget 3002 (scale" in err
    path = str(tmp_path / "u.txt")
    dm.save_instance(dm.gen_clustered(10, 0.05, [[3.0, 0.0], [0.0, 3.0], [-2.5, -2.5]],
                                      seed=2), path)
    code, out, _ = run(capsys, ["solve", "--in", path, "--objective", "clique", "--k", "4",
                                "--algo", "ptas", "--eps", "0.25"])
    assert code == 0 and "exact search" not in out


def test_solve_brute_force_line(capsys, tmp_path):
    path = str(tmp_path / "u.txt")
    assert cli.main(["gen", "uniform", "--n", "12", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    opt = dm.brute_force_opt(dm.load_instance(path), dm.Objective("clique"), 4)
    want = f"# brute force: 495 subsets, {opt.meta['rescored']} rescored"
    solve = ["solve", "--in", path, "--objective", "clique", "--k", "4"]
    for algo in (["brute"], ["ptas", "--eps", "0.3", "--oracle"], ["greedy"]):
        code, out, _ = run(capsys, solve + ["--algo"] + algo)
        assert code == 0
        assert (want in out.splitlines()) == (algo != ["greedy"])
        # the counts stay off the byte-stable RESULT line
        assert "subsets" not in result_line(out) and "rescored" not in result_line(out)


def test_solve_fast_clique_path(capsys, square_file):
    code, out, _ = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                "--k", "3", "--algo", "fast-clique", "--eps", "0.1"])
    assert code == 0
    line = result_line(out)
    assert "algo=fast-clique" in line and "search_complete=True" in line


def test_solve_fast_clique_search_line(capsys, tmp_path):
    path = str(tmp_path / "u.txt")
    assert cli.main(["gen", "uniform", "--n", "12", "--seed", "1002", "--out", path]) == 0
    capsys.readouterr()
    argv = ["solve", "--in", path, "--objective", "clique", "--k", "4",
            "--algo", "fast-clique", "--eps", "0.2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert ("# search: 794 leaves searched, 794 predicted, budget 100000; complete, "
            "but value >= (1 - 8*eps) * OPT = -0.6 * OPT is vacuous since 8*eps >= 1"
            ) in out.splitlines()
    assert "search:" not in result_line(out) and "budget" not in result_line(out)
    code, out, _ = run(capsys, argv + ["--budget", "793"])
    assert code == 0
    swaps = dm.solve_fast(dm.load_instance(path), 4, 0.2, budget=793).meta["swaps"]
    assert (f"# search: 0 leaves searched, 794 predicted, budget 793; search skipped, "
            f"greedy + {swaps} swaps, no 1 - 8 eps guarantee") in out.splitlines()
    assert "search_complete=False" in result_line(out)


@pytest.mark.parametrize("eps,claim", [
    ("0.5", "but value >= (1 - 8*eps) * OPT = -3 * OPT is vacuous since 8*eps >= 1"),
    ("0.05", "so value >= (1 - 8*eps) * OPT = 0.6 * OPT holds"),
])
def test_solve_fast_clique_search_line_states_its_bound(capsys, tmp_path, eps, claim):
    path = str(tmp_path / "u.txt")
    assert cli.main(["gen", "uniform", "--n", "12", "--seed", "1002", "--out", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["solve", "--in", path, "--objective", "clique", "--k", "4",
                                "--algo", "fast-clique", "--eps", eps])
    assert code == 0
    search = [l for l in out.splitlines() if l.startswith("# search: ")]
    assert len(search) == 1 and search[0].endswith(f"; complete, {claim}")
    assert "OPT" not in result_line(out)


def test_solve_load_line(capsys, square_file, tmp_path):
    argv = ["solve", "--in", square_file, "--objective", "clique", "--k", "3",
            "--algo", "fast-clique", "--eps", "0.1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    load = [l for l in out.splitlines() if l.startswith("# load: ")]
    assert len(load) == 1
    assert re.fullmatch(r"# load: 4 points \(points, D=2, l2\) in \d+\.\d ms", load[0])
    # the load time stays off the byte-stable RESULT line
    assert result_line(out) == (f"RESULT algo=fast-clique objective=clique q=1 k=3 eps=0.1 "
                                f"n=4 instance={square_file} value=3.41421356 candidates=15 "
                                f"cells=4 search_complete=True subset=0,1,3")
    path = str(tmp_path / "m.txt")
    dm.save_instance(dm.MetricInstance.from_matrix(
        dm.MetricInstance.from_points(SQUARE).pow_matrix()), path)
    code, out, _ = run(capsys, ["solve", "--in", path, "--objective", "star", "--k", "2",
                                "--algo", "brute"])
    assert code == 0
    assert re.search(r"^# load: 4 points \(matrix\) in \d+\.\d ms$", out, re.M)


def test_solve_machine_line_is_byte_stable(capsys, tmp_path):
    path = str(tmp_path / "u.txt")
    assert cli.main(["gen", "uniform", "--n", "40", "--seed", "3", "--out", path]) == 0
    capsys.readouterr()
    argv = ["solve", "--in", path, "--objective", "clique", "--k", "4",
            "--algo", "brute", "--threads", "1"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert code == 0
    assert result_line(out1) == result_line(out2)
    # the thread count is shown on a '#' line and leaves the RESULT line alone
    code, out8, _ = run(capsys, argv[:-1] + ["8"])
    assert code == 0
    assert result_line(out8) == result_line(out1)
    assert "(threads=8)" in out8 and "(threads=1)" in out1


def test_solve_usage_errors(capsys, square_file):
    # argparse-level: missing required --k
    code, _, err = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                "--algo", "brute"])
    assert code == 1 and "error" in err
    # domain-level restrictions
    for argv in (
        ["solve", "--in", square_file, "--objective", "clique", "--q", "2",
         "--k", "2", "--algo", "fast-clique", "--eps", "0.2"],
        ["solve", "--in", square_file, "--objective", "star", "--k", "2",
         "--algo", "greedy"],
        ["solve", "--in", square_file, "--objective", "clique", "--k", "2",
         "--algo", "ptas"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 1 and "error" in err


def test_solve_negative_budget_is_a_usage_error(capsys, square_file):
    base = ["solve", "--in", square_file, "--objective", "clique", "--k", "2", "--eps", "0.5"]
    for algo in ("fast-clique", "ptas"):
        code, out, err = run(capsys, base + ["--algo", algo, "--budget", "-1"])
        assert (code, out) == (1, "") and "--budget must be >= 0, got -1" in err
    code, out, _ = run(capsys, base + ["--algo", "fast-clique", "--budget", "0"])
    assert code == 0 and "search_complete=False" in result_line(out)


def test_solve_runtime_errors(capsys, square_file, tmp_path):
    code, _, err = run(capsys, ["solve", "--in", str(tmp_path / "nope.txt"),
                                "--objective", "clique", "--k", "2", "--algo", "brute"])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("points 2 2 l2\n0 0\nnot numbers\n")
    code, _, err = run(capsys, ["solve", "--in", str(bad), "--objective", "clique",
                                "--k", "2", "--algo", "brute"])
    assert code == 2
    code, _, err = run(capsys, ["solve", "--in", square_file, "--objective",
                                "bipartition", "--k", "3", "--algo", "brute"])
    assert code == 2 and "even" in err


@pytest.mark.parametrize("algo", ["fast-clique", "ptas", "greedy", "brute"])
def test_solve_non_finite_input_exits_2(capsys, tmp_path, algo):
    # a NaN coordinate used to hang fast-clique's decomposition and fail ptas
    # with an AssertionError
    for text, line in (("points 2 4 l2\n0 0\n1 nan\n2 2\n3 0\n", 3),
                       ("points 2 4 l2\n0 0\n1 1\n2 2\ninf 0\n", 5),
                       ("matrix 3\n0 1 2\n1 0 nan\n2 1 0\n", 3)):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run(capsys, ["solve", "--in", str(bad), "--objective", "clique",
                                      "--k", "2", "--algo", algo, "--eps", "0.3"])
        assert code == 2 and "RESULT" not in out
        assert f"error: line {line}: " in err and "must be finite" in err


def test_solve_value_mismatch_exits_3(capsys, square_file, monkeypatch):
    def fake_solve(inst, obj, k, eps, **kw):
        return dm.Solution((0, 1), 999.0, "ptas")

    monkeypatch.setattr(cli, "solve", fake_solve)
    code, _, err = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                "--k", "2", "--algo", "ptas", "--eps", "0.5"])
    assert code == 3 and "does not match" in err


def test_solve_oracle_violation_exits_3(capsys, square_file, monkeypatch):
    def fake_oracle(inst, obj, k, **kw):
        return dm.Solution((0, 1), 0.5, "brute")

    monkeypatch.setattr(cli, "brute_force_opt", fake_oracle)
    code, _, err = run(capsys, ["solve", "--in", square_file, "--objective", "clique",
                                "--k", "2", "--algo", "greedy", "--oracle"])
    assert code == 3 and "exceeds the oracle" in err


# ---------------------------------------------------------------------- gen

def test_gen_uniform_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "u.txt")
    code, out, _ = run(capsys, ["gen", "uniform", "--n", "12", "--d", "3",
                                "--seed", "7", "--out", path])
    assert code == 0 and "RESULT cmd=gen kind=uniform n=12" in out
    inst = dm.load_instance(path)
    want = dm.gen_uniform(12, 3, seed=7)
    np.testing.assert_array_equal(inst.points, want.points)


def test_gen_is_byte_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    run(capsys, ["gen", "uniform", "--n", "9", "--seed", "2", "--out", a])
    run(capsys, ["gen", "uniform", "--n", "9", "--seed", "2", "--out", b])
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_gen_clustered(capsys, tmp_path):
    path = str(tmp_path / "c.txt")
    code, out, _ = run(capsys, ["gen", "clustered", "--n", "6", "--radius", "0.05",
                                "--outliers", "2,0;0,2", "--seed", "1", "--out", path])
    assert code == 0
    inst = dm.load_instance(path)
    assert inst.n == 8
    np.testing.assert_allclose(inst.points[6:], [[2.0, 0.0], [0.0, 2.0]])


def test_gen_ksum(capsys, tmp_path):
    path = str(tmp_path / "k.txt")
    code, out, _ = run(capsys, ["gen", "ksum", "--m=-1,1", "--k", "2", "--t", "1",
                                "--out", path])
    assert code == 0 and "n=4" in out
    inst = dm.load_instance(path, q=2.0)
    np.testing.assert_allclose(np.linalg.norm(inst.points, axis=1), 1.0, atol=1e-12)


def test_gen_graph12(capsys, tmp_path):
    path = str(tmp_path / "g.txt")
    code, out, _ = run(capsys, ["gen", "graph12", "--n", "8", "--p", "0.4",
                                "--seed", "5", "--out", path])
    assert code == 0
    inst = dm.load_instance(path, validate=True)
    off = inst.matrix[~np.eye(8, dtype=bool)]
    assert set(np.unique(off)) <= {1.0, 2.0}


def test_gen_bad_values_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["gen", "ksum", "--m=1,5", "--k", "2", "--t", "2",
                                "--out", str(tmp_path / "x.txt")])
    assert code == 2 and "exceed the bound" in err


# -------------------------------------------------------------------- bench

def test_bench_scaling_has_corner_and_uniform_rows(capsys, tmp_path):
    code, out, _ = run(capsys, ["bench", "--suite", "scaling", "--out",
                                str(tmp_path / "s.tsv")])
    assert code == 0
    rows = [r.split("\t") for r in (tmp_path / "s.tsv").read_text().splitlines()[2:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (layout, n) for layout in ("corners", "uniform") for n in (10_000, 20_000, 40_000, 80_000)]
    assert all(int(r[2]) == 4 for r in rows[:4])
    assert all(int(r[2]) > 100 for r in rows[4:])  # many cells: the sweep does the work


def test_bench_ratios_with_fixture_dir(capsys, tmp_path):
    fixdir = tmp_path / "fixtures"
    fixdir.mkdir()
    dm.save_instance(dm.gen_uniform(10, 2, seed=1), fixdir / "tiny.txt")
    out_path = str(tmp_path / "ratios.tsv")
    code, out, err = run(capsys, ["bench", "--suite", "ratios", "--fixtures",
                                  str(fixdir), "--eps", "0.4", "--out", out_path])
    assert code == 0, err
    body = Path(out_path).read_text()
    assert body.splitlines()[1].startswith("fixture\talgo")
    rows = [l for l in body.splitlines() if l.startswith("tiny.txt")]
    kinds = {r.split("\t")[2] for r in rows}
    assert kinds == {"clique", "star", "bipartition"}
    for r in rows:
        algo, _, value, oracle, ratio = r.split("\t")[1:]
        assert float(ratio) <= 1.0 + 1e-9
        if algo == "ptas":
            assert float(ratio) >= (1 - 0.4) * (1 - 1e-9)


def test_bench_ratios_empty_fixture_dir(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, ["bench", "--suite", "ratios", "--fixtures", str(empty),
                                "--out", str(tmp_path / "o.tsv")])
    assert code == 2 and "no .txt instance files" in err


def test_bench_unknown_suite_usage(capsys, tmp_path):
    code, _, err = run(capsys, ["bench", "--suite", "nope", "--out",
                                str(tmp_path / "o.tsv")])
    assert code == 1
    # no suite reads a thread count
    code, _, err = run(capsys, ["bench", "--suite", "scaling", "--threads", "2",
                                "--out", str(tmp_path / "o.tsv")])
    assert code == 1 and "--threads" in err


def test_main_builds_only_the_named_subcommand(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def spy(only=None):
        built.append(only)
        return build(only)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, ["solve", "--help"])[0] == 0
    assert run(capsys, ["gen", "uniform", "--help"])[0] == 0
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["nope"])[0] == 1
    assert built == ["solve", "gen", None, None]


def test_help_and_usage_errors_match_the_full_parser(capsys):
    # the top-level help lists every subcommand, a subcommand's help is the
    # one the full parser prints, and an unknown subcommand or an argument
    # no parser recognises is the same usage error with the same exit code
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and "{solve,gen,bench}" in out
    assert all(f"    {cmd}  " in out for cmd in ("solve", "gen", "bench"))
    solve = ["solve", "--in", "f", "--objective", "clique", "--k", "3", "--algo", "greedy"]
    for argv in (["solve", "--help"], ["gen", "ksum", "--help"], ["bench", "--help"],
                 ["nope"], ["solve", "--k", "3"], solve + ["--bogus"],
                 ["gen", "uniform", "--n", "5", "--seed", "1", "--out", "f", "--bogus"],
                 ["bench", "--suite", "ratios", "--out", "f", "--bogus"]):
        code, out, err = run(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full_out, full_err = capsys.readouterr()
        assert (out, err) == (full_out, full_err)
        assert code == (exc.value.code or 0)


@pytest.mark.parametrize("script", ("make_fixtures.py", "run_benchmarks.py"))
def test_script_runs_from_a_clean_checkout(script, tmp_path):
    # the scripts put the repo's src on sys.path themselves: no install and
    # no PYTHONPATH needed, from any working directory
    path = Path(__file__).resolve().parent.parent / "scripts" / script
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(path), "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: {script}")
