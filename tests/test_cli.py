import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from latcon.cli import (
    MAX_ELEMENTS,
    MAX_INPUT_CHARS,
    ParseError,
    build_parser,
    emit_dot,
    main,
    parse_lattice_text,
    serialize_lattice,
)
from latcon.lattice import make_boolean, make_chain
from latcon.poset import CycleError, canonical_form

N5_TEXT = "5\n0 1\n1 3\n3 4\n0 2\n2 4\n"


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "latcon.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_parse_n5():
    l = parse_lattice_text(N5_TEXT)
    assert l.n == 5
    assert l.poset.covers == ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4))


def test_parse_singleton():
    assert parse_lattice_text("1\n").n == 1


def test_parse_cycle():
    with pytest.raises(CycleError):
        parse_lattice_text("2\n0 1\n1 0\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_lattice_text("")
    with pytest.raises(ParseError):
        parse_lattice_text("x\n")
    with pytest.raises(ParseError):
        parse_lattice_text("2\n0\n")
    with pytest.raises(ParseError):
        parse_lattice_text("2\n0 5\n")
    with pytest.raises(ParseError, match="nonnegative"):
        parse_lattice_text("-1\n")


def test_parse_rejects_oversized_count():
    # a header alone must be refused before any n-sized structure is built
    for header in (f"{MAX_ELEMENTS + 1}\n", "1000000\n"):
        with pytest.raises(ParseError, match="above the limit"):
            parse_lattice_text(header)


def test_parse_accepts_count_at_limit():
    text = f"{MAX_ELEMENTS}\n" + "".join(f"{i} {i + 1}\n" for i in range(MAX_ELEMENTS - 1))
    assert parse_lattice_text(text).n == MAX_ELEMENTS


def test_parse_accepts_comments_and_crlf():
    l = parse_lattice_text("# comment\r\n3\r\n0 1\r\n1 2\r\n")
    assert l.n == 3


def test_parse_accepts_noncover_pairs():
    l = parse_lattice_text("3\n0 1\n1 2\n0 2\n")
    assert l.poset.covers == ((0, 1), (1, 2))


def test_roundtrip():
    l = parse_lattice_text(N5_TEXT)
    again = parse_lattice_text(serialize_lattice(l))
    assert again.poset.covers == l.poset.covers


def test_dot_edge_counts():
    assert emit_dot(make_chain(3)).count("->") == 2
    assert emit_dot(parse_lattice_text(N5_TEXT)).count("->") == 5
    assert emit_dot(make_boolean(3)).count("->") == 12


def test_dot_deterministic_shape():
    out = emit_dot(make_chain(2))
    assert out.startswith("digraph lattice {")
    assert "rankdir=BT" in out
    assert "v0 -> v1;" in out


def test_analyze_n5(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(N5_TEXT))
    rc = main(["analyze", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Con=5" in out
    assert "planar=true" in out
    assert "dismantlable=true" in out
    assert "verdict=many" in out
    assert "Con_oracle=5" in out
    # the one-element lattice has no quasiorder to count or print
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n"))
    assert main(["analyze", "-"]) == 0
    assert capsys.readouterr().out == (
        "n=1\nJir=0\nMir=0\nJred=0\nMred=0\nCon=1\nCon_oracle=1\n"
        "planar=true\nplanar_kr=true\nplanar_graph=true\ndismantlable=true\nverdict=many\n"
    )


def test_analyze_lfamily_pipeline(capsys):
    rc = main(["construct", "lfamily", "8", "-o", "-"])
    text = capsys.readouterr().out
    assert rc == 0
    sys_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        rc = main(["analyze", "-"])
    finally:
        sys.stdin = sys_stdin
    out = capsys.readouterr().out
    assert rc == 0
    assert "Con=8" in out
    assert "planar=false" in out
    assert "dismantlable=false" in out
    assert "verdict=few" in out


def test_construct_files(tmp_path):
    out = tmp_path / "c5.lat"
    assert main(["construct", "chain", "5", "-o", str(out)]) == 0
    assert parse_lattice_text(out.read_text()).n == 5

    m = tmp_path / "m3.lat"
    main(["construct", "mk", "3", "-o", str(m)])
    s = tmp_path / "sum.lat"
    assert main(["construct", "ordsum", str(out), str(m), "-o", str(s)]) == 0
    assert parse_lattice_text(s.read_text()).n == 10

    d = tmp_path / "dual.lat"
    assert main(["construct", "dual", str(m), "-o", str(d)]) == 0
    assert canonical_form(parse_lattice_text(d.read_text()).poset) == canonical_form(
        parse_lattice_text(m.read_text()).poset
    )

    p = tmp_path / "prod.lat"
    assert main(["construct", "product", str(out), str(m), "-o", str(p)]) == 0
    assert parse_lattice_text(p.read_text()).n == 25


def test_verify_exit_code_and_output(capsys):
    rc = main(["verify", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations=0" in out
    assert "classes=5" in out
    lines = [ln for ln in out.splitlines() if ";" in ln and not ln.startswith("covers")]
    assert len(lines) == 5


def test_verify_exits_1_on_violations(monkeypatch, capsys):
    """A many-congruence class reported non-planar is a violation: verify
    counts it and exits 1."""
    from latcon import enumeration

    monkeypatch.setattr(enumeration, "planar_and_dismantlable", lambda l: (False, True))
    assert main(["verify", "5"]) == 1
    out = capsys.readouterr().out
    assert "violations=5\n" in out
    rows = [ln.split(";") for ln in out.splitlines()[5:]]
    assert len(rows) == 5
    assert all(planar == "false" and many == "true" for _, _, planar, _, many in rows)


def test_verify_rejects_jobs_below_one(capsys):
    proc = run_cli(["verify", "5", "--jobs", "0"])
    assert proc.returncode == 2
    assert "--jobs: must be at least 1, got 0" in proc.stderr
    assert proc.stdout == ""
    for bad in ("-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "5", "--jobs", bad])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_verify_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    """Worker counts above the CPUs this process may run on are cut down
    before any pool starts: the affinity mask where the platform has one,
    os.cpu_count() where it has not.  verify reads verify_theorem from
    latcon.enumeration when it runs."""
    from latcon import cli, enumeration
    from latcon.enumeration import verify_theorem

    asked = []

    def serial_verify(n, jobs):
        asked.append(jobs)
        return verify_theorem(n)

    monkeypatch.setattr(enumeration, "verify_theorem", serial_verify)
    # One usable CPU of a machine with eight, as under taskset -c 0.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert main(["verify", "5", "--jobs", "2"]) == 0
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert main(["verify", "5", "--jobs", "64"]) == 0
    assert main(["verify", "5", "--jobs", "2"]) == 0
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert main(["verify", "5", "--jobs", "64"]) == 0
    assert main(["verify", "5", "--jobs", "2"]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["verify", "5", "--jobs", "8"]) == 0
    assert asked == [1, 3, 2, 3, 2, 1]
    capsys.readouterr()


def test_spectrum_output(capsys):
    rc = main(["spectrum", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "32 1" in out


def test_enumerate_output(capsys):
    """One cover list per class, `-` where there is none: the chains of
    n <= 2, which the sweep does not grow, and the two 4-element classes."""
    for n, lines in (
        ("1", ["-"]),
        ("2", ["0-1"]),
        ("4", ["0-1,0-2,1-3,2-3", "0-1,1-2,2-3"]),
    ):
        assert main(["enumerate", n]) == 0
        assert capsys.readouterr().out.splitlines() == lines


# sha256 of the stdout of each command at n = 9: a change to the
# canonical labels, the enumeration order or the report shows here.
GOLDEN_STDOUT_9 = {
    "enumerate": "783dc41959180a6784e35e02d1ef36a061a1a0047dc63ba69c0dafa316e74f12",
    "spectrum": "cd9d2adc9e0446c28c04f1db03d7f486cd400133a272688b553635c1cdbc2db1",
    "verify": "8894277134be7e0f31756dea48fe68a13c6d6b39f780b61762dfdad6014800fb",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT_9))
def test_stdout_at_9_matches_golden_hash(command, capsys):
    assert main([command, "9"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_9[command]


def test_embed_command(tmp_path, capsys):
    k = tmp_path / "k.lat"
    l = tmp_path / "l.lat"
    k.write_text("3\n0 1\n1 2\n")
    l.write_text(N5_TEXT)
    rc = main(["embed", str(k), str(l)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "embedding=" in out and "dual_embedding=" in out
    assert "none" not in out.splitlines()[0]


def test_embed_none(tmp_path, capsys):
    k = tmp_path / "k.lat"
    l = tmp_path / "l.lat"
    k.write_text("5\n0 1\n0 2\n0 3\n1 4\n2 4\n3 4\n")  # M3
    l.write_text("4\n0 1\n1 2\n2 3\n")
    rc = main(["embed", str(k), str(l)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "embedding=none" in out


def test_error_exit_code(tmp_path):
    bad = tmp_path / "bad.lat"
    bad.write_text("2\n0 1\n1 0\n")
    proc = run_cli(["analyze", str(bad)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "\n" not in proc.stderr.strip()


def test_cli_subprocess_analyze():
    proc = run_cli(["analyze", "-"], stdin=N5_TEXT)
    assert proc.returncode == 0
    assert "Con=5" in proc.stdout


# Runs one latcon command in a fresh interpreter.  In "block" mode
# importing networkx fails; otherwise the run exits 3 if the command
# imported it.
_WITHOUT_NETWORKX = """
import sys
block = sys.argv[1] == "block"
if block:
    sys.modules["networkx"] = None
from latcon.cli import main
rc = main(sys.argv[2:])
sys.stdout.flush()
sys.exit(3 if not block and "networkx" in sys.modules else rc)
"""


def test_commands_do_not_need_networkx(tmp_path):
    n5 = tmp_path / "n5.lat"
    n5.write_text(N5_TEXT)
    b3 = tmp_path / "b3.lat"
    b3.write_text(serialize_lattice(make_boolean(3)))
    for args in (["analyze", str(n5)], ["analyze", str(b3)], ["verify", "8"], ["spectrum", "8"]):
        runs = [
            subprocess.run(
                [sys.executable, "-c", _WITHOUT_NETWORKX, mode, *args],
                capture_output=True,
                text=True,
                timeout=600,
            )
            for mode in ("import", "block")
        ]
        assert [r.returncode for r in runs] == [0, 0], (args, [r.stderr for r in runs])
        assert runs[0].stdout == runs[1].stdout != "", args


def test_analyze_builds_quasiorder_once(monkeypatch, capsys):
    from latcon import cli, congruence

    calls = []
    real = congruence.jir_quasiorder

    def counted(l):
        calls.append(l.n)
        return real(l)

    monkeypatch.setattr(cli, "jir_quasiorder", counted)
    monkeypatch.setattr(congruence, "jir_quasiorder", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(N5_TEXT))
    assert main(["analyze", "-"]) == 0
    assert calls == [5]
    assert "Con=5\n" in capsys.readouterr().out


def test_analyze_output_matches_the_benchmark_pool(monkeypatch, capsys):
    """analyze prints, byte for byte, the output whose sha256
    perfbench/pool.json records for each of its 486 lattices.  Each
    input, with the catalog built beforehand, runs one TRO, for its
    planar= line, and one irreducible pass, which every reader shares;
    none asks for a parent's realizer, which only the sweep places
    into."""
    from latcon import lattice, planarity

    pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pool.json").read_text())
    entries = pool["n10"] + pool["big"]
    assert len(entries) == 486
    for n in {e["n"] for e in entries}:
        planarity.kr_catalog(n)
    calls = {"TRO": 0, "irreducible pass": 0, "parent realizer": 0}

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(planarity, "_transitive_orientation", counted("TRO", planarity._transitive_orientation))
    monkeypatch.setattr(lattice, "_irreducibles", counted("irreducible pass", lattice._irreducibles))
    monkeypatch.setattr(planarity, "_parent_realizer", counted("parent realizer", planarity._parent_realizer))
    for e in entries:
        text = "".join([f"{e['n']}\n", *(f"{a} {b}\n" for a, b in e["covers"])])
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["analyze", "-"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == e["stdout_sha256"], e["id"]
    assert calls == {"TRO": 486, "irreducible pass": 486, "parent realizer": 0}


def test_not_lattice_error_exit(tmp_path):
    bad = tmp_path / "anti.lat"
    bad.write_text("2\n")
    proc = run_cli(["analyze", str(bad)])
    assert proc.returncode == 2


def test_sweeps_reject_a_leaf_that_is_not_a_lattice(monkeypatch, capsys):
    """Every sweep command validates each leaf the growth emits: with the
    growth's join check broken, the grown non-lattices stop all three
    before they print anything."""
    from latcon import enumeration

    monkeypatch.setattr(enumeration, "_joins_total", lambda up, upset: True)
    for command in ("enumerate", "spectrum", "verify"):
        assert main([command, "6"]) == 2, command
        out, err = capsys.readouterr()
        assert out == "", command
        assert "NotLatticeError" in err, command


def test_sweeps_reject_sizes_outside_the_cap(monkeypatch, capsys):
    """The sweep commands take n in 1..HARD_MAX_N = 12 and reject the
    rest before any growth starts."""
    from latcon import enumeration

    def never(n):
        raise AssertionError(f"a sweep of n={n} started")

    monkeypatch.setattr(enumeration, "_parents", never)
    for argv in (
        *([command, n] for command in ("enumerate", "spectrum", "verify") for n in ("0", "13")),
        ["verify", "13", "--jobs", "2"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: SizeError:"), argv


def test_parser_builds():
    ap = build_parser()
    args = ap.parse_args(["verify", "7", "--jobs", "3"])
    assert args.n == 7 and args.jobs == 3


@pytest.mark.parametrize(
    "family,size",
    [
        ("boolean", "1000000"),
        ("boolean", "7"),
        ("chain", "1000000000"),
        ("chain", "65"),
        ("mk", "63"),
        ("lfamily", "65"),
        ("lfamily", "1000000000"),
    ],
)
def test_construct_rejects_oversized_before_building(family, size, monkeypatch, capsys):
    from latcon import cli

    def never(k):
        raise AssertionError(f"{family} {k} was built")

    monkeypatch.setitem(cli._SIZED_FAMILIES, family, (never, cli._SIZED_FAMILIES[family][1]))
    assert main(["construct", family, size, "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ConstructError:") and "above the limit" in captured.err


def test_construct_oversized_exits_at_once():
    for args in (["boolean", "1000000"], ["chain", str(10**9)]):
        proc = subprocess.run(
            [sys.executable, "-m", "latcon.cli", "construct", *args],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "above the limit" in proc.stderr


def test_construct_largest_sizes_read_back(capsys):
    for family, size, n in (("chain", "64", 64), ("boolean", "6", 64), ("mk", "62", 64), ("lfamily", "64", 64)):
        assert main(["construct", family, size, "-o", "-"]) == 0
        assert parse_lattice_text(capsys.readouterr().out).n == n


def test_construct_bad_parameters_exit_2(tmp_path, capsys):
    c9 = tmp_path / "c9.lat"
    c9.write_text(serialize_lattice(make_chain(9)))
    c40 = tmp_path / "c40.lat"
    c40.write_text(serialize_lattice(make_chain(40)))
    for args in (
        ["chain", "10**9"],
        ["chain", "five"],
        ["chain", "3", "4"],
        ["chain", "0"],
        ["product", str(c9)],
        ["dual", str(c9), str(c9)],
        ["product", str(c9), str(c9)],
        ["ordsum", str(c40), str(c40)],
    ):
        assert main(["construct", *args, "-o", "-"]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), args
    assert main(["construct", "product", str(c9), str(tmp_path / "missing.lat")]) == 2
    assert "FileNotFoundError" in capsys.readouterr().err


def test_oversized_input_exits_2(tmp_path, monkeypatch, capsys):
    """analyze reads at most MAX_INPUT_CHARS characters of a file or of
    stdin: one more is refused with exit 2 and one error line, and a
    lattice text of exactly the limit still parses."""
    at_limit = "2\n0 1\n#"
    at_limit += "x" * (MAX_INPUT_CHARS - len(at_limit))
    over = at_limit + "x"
    path = tmp_path / "input.lat"
    for text, rc in ((over, 2), (at_limit, 0)):
        path.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        for source in (str(path), "-"):
            assert main(["analyze", source]) == rc, (len(text), source)
            captured = capsys.readouterr()
            if rc:
                assert captured.out == ""
                assert captured.err.startswith("error: SizeError:") and captured.err.count("\n") == 1
            else:
                assert "n=2\n" in captured.out and captured.err == ""


def test_undecodable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.lat"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: UnicodeDecodeError:")


def test_internal_value_error_is_not_bad_input(tmp_path, monkeypatch, capsys):
    """Only input errors exit 2; a ValueError from inside the program is a bug and propagates."""
    from latcon import cli, enumeration

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    n5 = tmp_path / "n5.lat"
    n5.write_text(N5_TEXT)
    monkeypatch.setattr(cli, "count_downsets", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", str(n5)])
    monkeypatch.setattr(enumeration, "verify_theorem", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["verify", "5"])
    assert capsys.readouterr().err == ""
