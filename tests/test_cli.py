"""End-to-end runs of the command line front end."""
import io
import os
import re
import subprocess
import sys
from pathlib import Path

from confl import cli
from confl.certificate import verify_certificate
from confl.cli import main
from confl.trs_format import parse_trs, print_trs

from systems import CHAIN4, FORK, R2, R3

MAYBE_SOURCE = "(RULES\n  f -> a\n  f -> b\n)\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def write_system(tmp_path, trs, name="sys.trs"):
    path = tmp_path / name
    path.write_text(print_trs(trs), encoding="utf-8")
    return path


def test_yes_run_with_certificate(tmp_path, capsys):
    path = write_system(tmp_path, R3)
    cert = tmp_path / "cert.txt"
    rc = main([str(path), "--certificate", str(cert)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "YES"
    assert any(ln.startswith("S = [") and "P = [" in ln for ln in out)
    ok, problems = verify_certificate(cert.read_text(), parse_trs(print_trs(R3)))
    assert ok, problems


def test_single_criterion_flag(tmp_path, capsys):
    path = write_system(tmp_path, R3)
    rc = main([str(path), "--criterion", "huet"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "YES"


def test_maybe_run(tmp_path, capsys):
    path = tmp_path / "bad.trs"
    path.write_text(MAYBE_SOURCE, encoding="utf-8")
    cert = tmp_path / "cert.txt"
    rc = main([str(path), "--max-steps", "2", "--timeout", "5",
               "--certificate", str(cert)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0] == "MAYBE"
    assert out[1]  # a reason is always given
    ok, problems = verify_certificate(cert.read_text())
    assert ok and problems == []


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.trs"
    path.write_text("(VAR x)\n(RULES x -> x)\n", encoding="utf-8")
    rc = main([str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.splitlines()[0] == "ERROR"
    assert str(path) in captured.err
    assert "2:" in captured.err  # the offending rule's line


def test_missing_file(capsys):
    rc = main(["/nonexistent/nowhere.trs"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.splitlines()[0] == "ERROR"
    assert "nowhere.trs" in captured.err


def test_module_entry_point(tmp_path):
    path = write_system(tmp_path, R3)
    proc = subprocess.run(
        [sys.executable, "-m", "confl.cli", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "YES"


def test_answers_do_not_depend_on_the_hash_seed(tmp_path):
    """A run's output and certificate are the same in every process: nothing
    the prover decides may follow the per-process order of str hashes.  Each
    system is decided by the CLI under two hash seeds, all six at once."""
    procs = {}
    for name, trs in (("chain4", CHAIN4), ("fork", FORK), ("R2", R2)):
        path = write_system(tmp_path, trs, f"{name}.trs")
        for seed in ("1", "2"):
            cert = tmp_path / f"{name}-{seed}.cert"
            procs[name, seed] = cert, subprocess.Popen(
                [sys.executable, "-m", "confl.cli", str(path), "--certificate", str(cert)],
                stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
    got = {}
    for key, (cert, proc) in procs.items():
        out, _ = proc.communicate(timeout=60)
        got[key] = (out, proc.returncode, cert.read_bytes())
    for name, verdict in (("chain4", "MAYBE"), ("fork", "MAYBE"), ("R2", "YES")):
        assert got[name, "1"] == got[name, "2"], name
        assert got[name, "1"][0].splitlines()[0] == verdict, name


def test_timeout_holds_inside_a_state(tmp_path):
    # wide9's parallel critical pairs number 4^9 in one state; the deadline
    # is checked while they are built, not only between states
    args = ",".join(f"+(x{i},y{i})" for i in range(9))
    names = " ".join(f"x{i} y{i}" for i in range(9))
    path = tmp_path / "wide9.trs"
    path.write_text(f"(VAR {names} x y z)\n(RULES\n  f({args}) -> c\n"
                    "  +(x,y) -> +(y,x)\n  +(+(x,y),z) -> +(x,+(y,z))\n)\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "confl.cli", str(path), "--timeout", "2"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    verdict, reason, *_ = proc.stdout.splitlines()
    assert verdict == "MAYBE"
    assert reason.startswith("timed out")


def test_timeout_holds_inside_one_rule_overlaps(tmp_path):
    # s⁵⁰⁰⁰(x) -> x overlaps itself at 5,000 positions, each unification
    # 5,000 deep; the deadline is checked before each of them
    n = 5000
    path = tmp_path / "s5000.trs"
    path.write_text(f"(VAR x)\n(RULES\n  {'s(' * n}x{')' * n} -> x\n)\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "confl.cli", str(path), "--timeout", "2"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    verdict, reason, *_ = proc.stdout.splitlines()
    assert verdict == "MAYBE"
    assert reason.startswith("timed out in critical_pairs")


def test_internal_error_exits_2_not_maybe(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli, "check_confluence", fail)
    rc = main([str(write_system(tmp_path, R3))])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.splitlines() == ["ERROR"]
    assert len(captured.err.splitlines()) == 1
    assert "injected failure" in captured.err


class ClosedPipe(io.TextIOBase):
    """Standard output whose reader has gone, as `confl ... | head -c0`
    leaves it: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_2_with_one_stderr_line(tmp_path, capsys, monkeypatch):
    path = write_system(tmp_path, R3)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main([str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == ["error: standard output is closed"]


def test_readme_example_matches_the_cli(tmp_path, capsys, monkeypatch):
    blocks = re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    source = next(b for b in blocks if b.startswith("(VAR"))
    command, *expected = next(b for b in blocks if b.startswith("$ confl ")).splitlines()
    assert command == "$ confl add.trs --certificate add.cert"
    (tmp_path / "add.trs").write_text(source, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc = main(["add.trs", "--certificate", "add.cert"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == expected
    ok, problems = verify_certificate((tmp_path / "add.cert").read_text(), parse_trs(source))
    assert ok, problems
