"""Tests for the command-line interface (repro.cli)."""

import io
import signal

import pytest

from repro.cli import run
from repro.server import Client
from tests.test_server import start_serve


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.ldl"
    path.write_text(
        """
        parent(ann, bob). parent(bob, cal).
        ancestor(X, Y) <- parent(X, Y).
        ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
        ? ancestor(ann, X).
        """
    )
    return str(path)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_file_queries_answered(self, family_file):
        code, output = invoke([family_file])
        assert code == 0
        assert "X = 'bob'" in output
        assert "X = 'cal'" in output

    def test_adhoc_query(self, family_file):
        code, output = invoke([family_file, "-q", "? ancestor(bob, X)."])
        assert code == 0
        assert "X = 'cal'" in output

    def test_ground_query_yes_no(self, family_file):
        code, output = invoke([family_file, "-q", "? ancestor(ann, cal)."])
        assert "yes" in output
        code, output = invoke([family_file, "-q", "? ancestor(cal, ann)."])
        assert "no" in output

    def test_magic_strategy(self, family_file):
        code, output = invoke([family_file, "--strategy", "magic"])
        assert code == 0
        assert "X = 'bob'" in output

    def test_check_mode(self, family_file):
        code, output = invoke(["--check", family_file])
        assert code == 0
        assert "layers" in output
        assert "ancestor" in output

    def test_dump(self, family_file):
        code, output = invoke([family_file, "--dump", "ancestor"])
        assert "ancestor(ann, cal)." in output

    def test_stats(self, family_file):
        code, output = invoke([family_file, "--stats"])
        assert "rule firings" in output

    def test_stats_prints_phase_times(self, family_file):
        code, output = invoke([family_file, "--stats"])
        (line,) = [l for l in output.splitlines() if l.startswith("% phases:")]
        assert "load=" in line and "match=" in line

    def test_model_printed_without_queries(self, tmp_path):
        path = tmp_path / "p.ldl"
        path.write_text("p(1). q(X) <- p(X).")
        code, output = invoke([str(path)])
        assert code == 0
        assert "q(1)." in output

    def test_missing_file(self):
        code, output = invoke(["/nonexistent/path.ldl"])
        assert code == 2
        assert "cannot read" in output

    def test_workers_flag_rejected(self, family_file, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke([family_file, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_vector_flag_rejected(self, family_file, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke([family_file, "--vector", "on"])
        assert exc.value.code == 2
        assert "--vector" in capsys.readouterr().err

    def test_serve_cache_flag(self, tmp_path, capsys):
        # the real entry point: caching is on unless ``--cache off``
        for extra, cached in (((), True), (("--cache", "off"), False)):
            proc, port = start_serve(tmp_path, *extra)
            try:
                with Client("127.0.0.1", port) as client:
                    report = client.stats()["answer_cache"]
            finally:
                proc.send_signal(signal.SIGTERM)
                proc.communicate(timeout=30)
            assert (report is not None) == cached, extra
        with pytest.raises(SystemExit) as exc:
            invoke(["serve", "--cache", "bogus"])
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.ldl"
        path.write_text("p(1")
        code, output = invoke([str(path)])
        assert code == 1
        assert "error" in output

    def test_inadmissible_reported(self, tmp_path):
        path = tmp_path / "bad.ldl"
        path.write_text("b(1). p(X) <- b(X), ~p(X).")
        code, output = invoke([str(path)])
        assert code == 1
        assert "admissible" in output

    def test_ldl15_flag(self, tmp_path):
        path = tmp_path / "g.ldl"
        path.write_text(
            "r(t, s1, mon). r(t, s2, tue). out(T, <S>, <D>) <- r(T, S, D)."
        )
        code, output = invoke([str(path), "--ldl15", "--dump", "out"])
        assert code == 0
        assert "out(t, {s1, s2}, {mon, tue})." in output

    def test_example_program_runs(self):
        code, output = invoke(["examples/programs/family.ldl"])
        assert code == 0
        assert "children" in output or "S = " in output


class TestRepl:
    def _repl(self, family_file, script):
        import io

        from repro.cli import run

        out = io.StringIO()
        code = run(
            [family_file, "--repl"], out=out, stdin=io.StringIO(script)
        )
        return code, out.getvalue()

    def test_query(self, family_file):
        code, output = self._repl(family_file, "? ancestor(ann, X).\n:quit\n")
        assert code == 0
        assert "X = 'cal'" in output

    def test_add_rule_and_requery(self, family_file):
        script = (
            "grand(X, Y) <- parent(X, Z), parent(Z, Y).\n"
            "? grand(ann, X).\n:quit\n"
        )
        code, output = self._repl(family_file, script)
        assert "% ok" in output
        assert "X = 'cal'" in output

    def test_add_fact(self, family_file):
        script = "parent(cal, dee).\n? ancestor(ann, dee).\n:quit\n"
        _, output = self._repl(family_file, script)
        assert "yes" in output

    def test_dump_command(self, family_file):
        _, output = self._repl(family_file, ":dump parent\n:quit\n")
        assert "parent(ann, bob)." in output

    def test_explain_command(self, family_file):
        _, output = self._repl(
            family_file, ":explain ancestor(ann, cal)\n:quit\n"
        )
        assert "parent(bob, cal)" in output

    def test_strategy_switch(self, family_file):
        script = ":strategy magic\n? ancestor(ann, X).\n:quit\n"
        _, output = self._repl(family_file, script)
        assert "% strategy = magic" in output
        assert "X = 'bob'" in output

    def test_layers_command(self, family_file):
        _, output = self._repl(family_file, ":layers\n:quit\n")
        assert "layer 0" in output

    def test_error_recovery(self, family_file):
        script = "p(1\n? ancestor(ann, X).\n:quit\n"
        code, output = self._repl(family_file, script)
        assert code == 0
        assert "error" in output
        assert "X = 'bob'" in output  # the loop survives

    def test_unknown_command(self, family_file):
        _, output = self._repl(family_file, ":frobnicate\n:quit\n")
        assert "unknown command" in output

    def test_help(self, family_file):
        _, output = self._repl(family_file, ":help\n:quit\n")
        assert ":dump" in output


class TestSamplePrograms:
    @pytest.mark.parametrize(
        "path",
        [
            "examples/programs/family.ldl",
            "examples/programs/same_generation.ldl",
            "examples/programs/inventory.ldl",
        ],
    )
    def test_sample_program_runs(self, path):
        code, output = invoke([path])
        assert code == 0
        assert "error" not in output

    @pytest.mark.parametrize(
        "path",
        [
            "examples/programs/family.ldl",
            "examples/programs/same_generation.ldl",
            "examples/programs/inventory.ldl",
        ],
    )
    def test_sample_program_checks(self, path):
        code, output = invoke(["--check", path])
        assert code == 0
        assert output.startswith("ok:")
