"""Command-line behavior: reports, exit codes, determinism."""

import json
import subprocess
import sys

from ditop.cli import main
from ditop.gcomplex import parse_gcx, validate
from ditop import fixtures

from helpers import child_env


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


class TestPaths:
    def test_fix_b_report(self, capsys):
        code, out = run_cli("paths", "FIX-B", "v0", "v3", capsys=capsys)
        assert code == 0
        assert "H0(v0,v3) = Z^2" in out
        assert "H1(v0,v3) = 0" in out

    def test_square_report(self, capsys):
        code, out = run_cli("paths", "FIX-SQUARE", "s00", "s11", capsys=capsys)
        assert code == 0
        assert "H0(s00,s11) = Z^1" in out and "H1(s00,s11) = 0" in out

    def test_unknown_state_exit_2(self, capsys):
        code, _ = run_cli("paths", "FIX-B", "v0", "zz", capsys=capsys)
        assert code == 2

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "mini.gcx"
        p.write_text("state u\nstate v\nedge a : u -> v\n")
        code, out = run_cli("paths", str(p), "u", "v", capsys=capsys)
        assert code == 0 and "H0(u,v) = Z^1" in out


class TestTraceSpace:
    def test_self_trace(self, capsys):
        code, out = run_cli("trace-space", "FIX-A", "c2", "c2", capsys=capsys)
        assert code == 0
        assert "extra-point yes" in out and "points 1" in out

    def test_cell_pair(self, capsys):
        code, out = run_cli("trace-space", "FIX-B", "d1", "d3", capsys=capsys)
        assert code == 0 and "points 2" in out


class TestNatsys:
    def test_fix_a_value_line(self, capsys):
        code, out = run_cli("natsys", "FIX-A", capsys=capsys)
        assert code == 0
        assert "value [c2] : 1 component" in out

    def test_fix_edge_six_objects(self, capsys):
        code, out = run_cli("natsys", "FIX-EDGE", capsys=capsys)
        assert code == 0
        assert out.count("object ") == 6
        assert out.count(": 1 component") == 6

    def test_repeat_runs_identical(self, capsys):
        _, out1 = run_cli("natsys", "FIX-B", "--val", "hom:1", capsys=capsys)
        _, out2 = run_cli("natsys", "FIX-B", "--val", "hom:1", capsys=capsys)
        assert out1 == out2


class TestCheckOpen:
    def test_crush_not_open(self, capsys):
        code, out = run_cli(
            "check-open", "crush.cmap", "FIX-A", "FIX-B", "--val", "pi0",
            capsys=capsys,
        )
        assert code == 1
        assert out.startswith("NOT OPEN")
        assert "witness [c2]" in out.splitlines()[1]

    def test_comparison_open(self, capsys):
        code, out = run_cli("check-open", "--comparison", "FIX-A", capsys=capsys)
        assert code == 0 and out.strip() == "OPEN"


class TestBisim:
    def test_edge_vs_split_yes(self, capsys):
        code, out = run_cli(
            "bisim", "FIX-EDGE", "FIX-EDGE-split", "--val", "pi0", capsys=capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "BISIMILAR yes"
        assert "triple" in out

    def test_mismatch_no(self, capsys):
        code, out = run_cli("bisim", "FIX-EDGE", "FIX-B", capsys=capsys)
        assert code == 1
        assert out.splitlines()[0] == "BISIMILAR no"

    def test_bad_valuation_exit_2(self, capsys):
        for val in ("hom:x", "hom:-1"):
            code = main(["bisim", "FIX-A", "FIX-B", "--val", val])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == (
                f"error: valuation must be pi0 or hom:<k>, got {val!r}\n"
            )


class TestSubdivideImport:
    def test_subdivide_edge_valid_gcx(self, capsys):
        code, out = run_cli("subdivide", "FIX-SQUARE", "--edge", "a", capsys=capsys)
        assert code == 0
        y = parse_gcx(out)
        assert validate(y).ok
        assert "a_1" in y.edges and "a_2" in y.edges

    def test_subdivide_cell(self, capsys):
        code, out = run_cli(
            "subdivide", "FIX-SQUARE", "--cell", "q", "--chord", "2", capsys=capsys
        )
        assert code == 0
        y = parse_gcx(out)
        assert validate(y).ok and "q_top" in y.cells2

    def test_import_pcx(self, capsys):
        src = str(fixtures.source_path("FIX-SQUARE.pcx"))
        code, out = run_cli("import-pcx", src, capsys=capsys)
        assert code == 0
        assert "cell2 q : a,b => c,d" in out


class TestPathsCommands:
    def test_dt(self, capsys):
        code, out = run_cli(
            "dt",
            "FIX-HOLLOW",
            "--path",
            "path : a b clock: 0/1,1/2 1/1,3/2",
            "--val",
            "pi0",
            capsys=capsys,
        )
        assert code == 0
        assert "trace [a,s01,b]" in out
        assert "consistent yes" in out

    def test_naturalize(self, capsys):
        code, out = run_cli(
            "naturalize",
            "FIX-HOLLOW",
            "--path",
            "path : a b clock: 0/1,0/1 1/3,3/2 1/1,2/1",
            capsys=capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "path : a b clock: 0/1,0/1 1/1,2/1"

    def test_naturalize_rejects_partial(self, capsys):
        code, _ = run_cli(
            "naturalize",
            "FIX-HOLLOW",
            "--path",
            "path : a b clock: 0/1,0/1 1/1,1/1",
            capsys=capsys,
        )
        assert code == 2


class TestRenormalize:
    def test_roundtrip(self, tmp_path, capsys):
        ident = [[[0, 1], [0, 1]], [[1, 1], [1, 1]]]
        gamma1 = [[[[0, 1], [0, 1]], [[1, 1], [1, 1]]]]  # one component, id
        gamma2 = [[[[0, 1], [1, 1]], [[1, 1], [2, 1]]]]  # t + 1
        spec = {
            "word": [
                {"gamma": gamma1, "phi": ident, "length": [1, 2]},
                {"gamma": gamma2, "phi": ident, "length": [1, 2]},
            ],
            "clock": [[[0, 1], [1, 2]], [[1, 1], [1, 1]]],  # (1+t)/2
        }
        f = tmp_path / "word.json"
        f.write_text(json.dumps(spec))
        code, out = run_cli("renormalize", str(f), capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["word"]) == 1
        assert data["word"][0]["gamma"] == gamma2
        assert data["clock"] == ident


class TestUserAndInternalErrors:
    """Bad input exits 2 with a message; a fault of the program exits 3."""

    def test_unordered_clock_is_a_parse_error(self, capsys):
        code = main(
            ["dt", "FIX-HOLLOW", "--path", "path : a b clock: 1/1,0/1 0/1,0/1"]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: bad clock: breakpoint t-coordinates must strictly increase\n"
        )

    def test_renormalize_missing_key(self, tmp_path, capsys):
        f = tmp_path / "word.json"
        f.write_text(json.dumps({"word": [], "clok": []}))
        code = main(["renormalize", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: renormalize input lacks the key 'clock'\n"

    def test_renormalize_zero_denominator(self, tmp_path, capsys):
        ident = [[[0, 1], [0, 1]], [[1, 1], [1, 1]]]
        piece = {"gamma": [ident], "phi": ident, "length": [1, 0]}
        f = tmp_path / "word.json"
        f.write_text(json.dumps({"word": [piece], "clock": ident}))
        code = main(["renormalize", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: renormalize input has a zero denominator\n"

    def test_renormalize_bad_shape(self, tmp_path, capsys):
        f = tmp_path / "word.json"
        f.write_text("[1, 2]")
        code = main(["renormalize", str(f)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: malformed renormalize input: ")

    def test_internal_fault_exits_3(self, monkeypatch, capsys):
        import ditop.cli

        def broken(d):
            raise KeyError("planted")

        monkeypatch.setattr(ditop.cli, "diagram_export", broken)
        code = main(["natsys", "FIX-A"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert captured.err.endswith("\ninternal error: KeyError: 'planted'\n")


class TestSubprocess:
    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ditop.cli", "paths", "FIX-B", "v0", "v3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "H0(v0,v3) = Z^2" in proc.stdout
