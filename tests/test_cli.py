"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.matrix.io import read_matrix_market


@pytest.fixture
def er_mtx(tmp_path):
    path = tmp_path / "a.mtx"
    rc = main(
        ["matrix", "generate", "er", str(path), "--scale", "7", "--edge-factor",
         "4", "--seed", "1"]
    )
    assert rc == 0
    return path


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize(
        "command", ["generate", "stats", "multiply", "simulate", "roofline", "stream"]
    )
    def test_pre_tree_spellings_rejected(self, command):
        # Only the grouped tree parses; the old top-level aliases are gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_groups_require_subcommand(self):
        for group in ("matrix", "bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([group])

    def test_bare_machine_is_capability_report(self):
        # `repro machine` with no subcommand is the runtime capability
        # probe (incl. the JIT tier), not a usage error.
        args = build_parser().parse_args(["machine"])
        assert args.func.__name__ == "_cmd_machine_info"


class TestCanonicalTree:
    """The grouped spellings are the documented interface."""

    def test_matrix_stats(self, er_mtx, capsys):
        assert main(["matrix", "stats", str(er_mtx)]) == 0
        assert "mean degree" in capsys.readouterr().out

    def test_matrix_multiply_shares_exec_flags(self, er_mtx, capsys):
        rc = main(
            ["matrix", "multiply", str(er_mtx), "--algorithm", "pb",
             "--nbins", "16"]
        )
        assert rc == 0
        assert "C = A*B" in capsys.readouterr().out

    def test_plan_accepts_exec_flags(self, er_mtx, capsys):
        rc = main(
            ["plan", str(er_mtx), "--nbins", "16",
             "--column-backend", "panel"]
        )
        assert rc == 0

    def test_machine_roofline(self, capsys):
        assert main(["machine", "roofline", "--cf", "1,2"]) == 0
        assert "Roofline" in capsys.readouterr().out

    def test_machine_stream(self, capsys):
        assert main(["machine", "stream", "--machine", "skylake"]) == 0
        assert "47.4" in capsys.readouterr().out

    def test_machine_simulate(self, er_mtx, capsys):
        assert main(["machine", "simulate", str(er_mtx), "--algorithms", "pb"]) == 0
        assert "MFLOPS" in capsys.readouterr().out


class TestBenchCLI:
    def test_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for suite in ("jit", "planner", "column", "session", "fig3", "table7"):
            assert f"{suite}:" in out

    def test_list_verbose_shows_checks(self, capsys):
        assert main(["bench", "list", "-v"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_jit.json" in out
        assert "pb_end_to_end_speedup >= 2" in out

    def test_run_unknown_suite(self, capsys):
        assert main(["bench", "run", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_run_output_requires_single_suite(self, tmp_path, capsys):
        rc = main(
            ["bench", "run", "fig3", "table5", "--output", str(tmp_path / "r.json")]
        )
        assert rc == 2

    def test_run_experiment_suite_json_and_output(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        rc = main(["bench", "run", "fig3", "--json", "--output", str(out)])
        assert rc == 0
        from repro.bench import load_result

        r = load_result(out)
        assert r.suite == "fig3" and r.acceptance["tables_nonempty"]
        assert '"suite": "fig3"' in capsys.readouterr().out


class TestGenerate:
    def test_er(self, er_mtx):
        m = read_matrix_market(er_mtx)
        assert m.shape == (128, 128)
        assert m.nnz > 400

    def test_rmat(self, tmp_path, capsys):
        path = tmp_path / "r.mtx"
        assert main(["matrix", "generate", "rmat", str(path), "--scale", "6"]) == 0
        assert read_matrix_market(path).shape == (64, 64)
        assert "wrote" in capsys.readouterr().out

    def test_surrogate(self, tmp_path):
        path = tmp_path / "s.mtx"
        rc = main(
            ["matrix", "generate", "surrogate", str(path), "--name", "scircuit",
             "--scale-factor", "0.01"]
        )
        assert rc == 0
        assert read_matrix_market(path).nnz > 0


class TestStats:
    def test_basic(self, er_mtx, capsys):
        assert main(["matrix", "stats", str(er_mtx)]) == 0
        out = capsys.readouterr().out
        assert "128 x 128" in out
        assert "mean degree" in out

    def test_square(self, er_mtx, capsys):
        assert main(["matrix", "stats", str(er_mtx), "--square"]) == 0
        out = capsys.readouterr().out
        assert "compression cf" in out


class TestMultiply:
    def test_square_default(self, er_mtx, capsys):
        assert main(["matrix", "multiply", str(er_mtx)]) == 0
        assert "C = A*B" in capsys.readouterr().out

    def test_output_file(self, er_mtx, tmp_path, capsys):
        out = tmp_path / "c.mtx"
        assert main(["matrix", "multiply", str(er_mtx), "--output", str(out)]) == 0
        c = read_matrix_market(out)
        # verify against scipy
        a = read_matrix_market(er_mtx)
        from repro.kernels import scipy_spgemm_oracle
        from repro.matrix.ops import allclose

        assert allclose(c.to_csr(), scipy_spgemm_oracle(a.to_csc(), a.to_csr()))

    @pytest.mark.parametrize("alg", ["heap", "hash", "spa"])
    def test_algorithms(self, er_mtx, alg, capsys):
        assert main(["matrix", "multiply", str(er_mtx), "--algorithm", alg]) == 0

    def test_two_operands(self, er_mtx, tmp_path, capsys):
        assert main(["matrix", "multiply", str(er_mtx), str(er_mtx)]) == 0

    def test_sort_backend_identical_products(self, er_mtx, tmp_path):
        """The compiled per-bin sort and the numpy radix sort write the
        same product file."""
        from repro.kernels import jit

        outs = {}
        for backend in ("compiled", "numpy"):
            out = tmp_path / f"c_{backend}.mtx"
            argv = ["matrix", "multiply", str(er_mtx), "--output", str(out)]
            if backend == "numpy":
                with jit.disabled():
                    rc = main(argv)
            else:
                rc = main(argv)
            assert rc == 0
            outs[backend] = out.read_bytes()
        assert outs["compiled"] == outs["numpy"]

    def test_pb_flags_require_pb(self, er_mtx, capsys):
        rc = main(
            ["matrix", "multiply", str(er_mtx), "--algorithm", "hash",
             "--nbins", "16"]
        )
        assert rc == 2
        assert "--nbins" in capsys.readouterr().err


class TestSimulate:
    def test_default(self, er_mtx, capsys):
        assert main(["machine", "simulate", str(er_mtx)]) == 0
        out = capsys.readouterr().out
        assert "MFLOPS" in out and "pb" in out

    def test_machine_and_threads(self, er_mtx, capsys):
        rc = main(
            ["machine", "simulate", str(er_mtx), "--machine", "power9", "--threads", "10",
             "--algorithms", "pb"]
        )
        assert rc == 0
        assert "power9" in capsys.readouterr().out


class TestInfoCommands:
    def test_roofline(self, capsys):
        assert main(["machine", "roofline", "--cf", "1,2"]) == 0
        assert "Roofline" in capsys.readouterr().out

    def test_stream(self, capsys):
        assert main(["machine", "stream", "--machine", "skylake"]) == 0
        assert "47.4" in capsys.readouterr().out

    def test_experiment_table7(self, capsys):
        assert main(["experiment", "table7"]) == 0
        assert "NUMA" in capsys.readouterr().out

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "Roofline" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
