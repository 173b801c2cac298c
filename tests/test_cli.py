"""Command-line interface: subcommands, exit codes, file outputs."""

import numpy as np
import pytest

from lora_kernels import harness
from lora_kernels.cli import cli_main
from lora_kernels.harness import gen_instance
from lora_kernels.matio import load_matrix, save_bundle


def run(*argv):
    return cli_main(list(argv))


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run("gen", "--seed", "1", "--bogus", "3")
        assert info.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            run("gen", "--seed", "1")
        assert info.value.code == 2


class TestGenGrad:
    def test_gen_writes_bundle(self, tmp_path):
        out = tmp_path / "b"
        assert run(
            "gen", "--seed", "7", "--L", "8", "--d", "3", "--r", "2",
            "--gamma", "0.5", "--out", str(out),
        ) == 0
        for name in ("C1.mat", "C2.mat", "C3.mat", "Y.mat", "meta.txt",
                     "Wstar.mat", "B.mat", "A.mat"):
            assert (out / name).exists()

    def test_gen_grad_deterministic_files(self, tmp_path):
        args = ["--seed", "7", "--L", "8", "--d", "3", "--r", "2",
                "--gamma", "0.5"]
        d1, d2 = tmp_path / "b1", tmp_path / "b2"
        assert run("gen", *args, "--out", str(d1)) == 0
        assert run("gen", *args, "--out", str(d2)) == 0
        assert (d1 / "C1.mat").read_bytes() == (d2 / "C1.mat").read_bytes()
        assert run("grad", "--in", str(d1)) == 0
        assert run("grad", "--in", str(d2)) == 0
        assert (d1 / "GA.mat").read_bytes() == (d2 / "GA.mat").read_bytes()
        assert (d1 / "GB.mat").read_bytes() == (d2 / "GB.mat").read_bytes()

    def test_grad_missing_bundle(self, tmp_path, capsys):
        assert run("grad", "--in", str(tmp_path / "absent")) == 1
        assert "error:" in capsys.readouterr().err

    def test_grad_bundle_without_adapter(self, tmp_path, capsys):
        inst, _, _ = gen_instance(1, 6, 2, 1, 0.5)
        bundle = tmp_path / "b"
        save_bundle(bundle, inst, seed=1, gamma=0.5)
        assert run("grad", "--in", str(bundle)) == 1
        assert "regenerate" in capsys.readouterr().err

    def test_grad_out_redirect(self, tmp_path):
        bundle, outdir = tmp_path / "b", tmp_path / "g"
        run("gen", "--seed", "3", "--L", "6", "--d", "2", "--r", "1",
            "--gamma", "0.5", "--out", str(bundle))
        assert run("grad", "--in", str(bundle), "--out", str(outdir)) == 0
        assert (outdir / "GA.mat").exists()
        assert not (bundle / "GA.mat").exists()


class TestApprox:
    @pytest.fixture
    def bundle(self, tmp_path):
        out = tmp_path / "b"
        run("gen", "--seed", "9", "--L", "16", "--d", "3", "--r", "2",
            "--gamma", "0.25", "--out", str(out))
        return out

    def test_svd_backend_full_rank_matches_exact(self, bundle):
        assert run("grad", "--in", str(bundle)) == 0
        assert run("approx", "--in", str(bundle), "--backend", "svd") == 0
        GA = load_matrix(bundle / "GA.mat")
        GA_a = load_matrix(bundle / "GA_approx.mat")
        assert np.abs(GA - GA_a).max() <= 1e-8

    def test_poly_backend_runs(self, bundle):
        assert run("approx", "--in", str(bundle), "--backend", "poly") == 0
        assert (bundle / "GA_approx.mat").exists()
        assert (bundle / "GB_approx.mat").exists()

    def test_poly_gamma_override_too_small(self, bundle, capsys):
        assert run(
            "approx", "--in", str(bundle), "--backend", "poly",
            "--gamma", "0.01",
        ) == 1
        assert "norm precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--eps"])
    def test_non_finite_knob_is_one_error_line(self, bundle, capsys, flag):
        assert run(
            "approx", "--in", str(bundle), "--backend", "poly", flag, "nan",
        ) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")

    def test_degree_past_search_ceiling_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "d4"
        run("gen", "--seed", "2", "--L", "8", "--d", "4", "--r", "1",
            "--gamma", "0.5", "--out", str(out))
        assert run(
            "approx", "--in", str(out), "--backend", "poly", "--gamma", "100",
        ) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")
        assert "search ceiling" in err[0]

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_rank_ceiling_below_one_is_one_error_line(self, bundle, capsys, rank):
        assert run(
            "approx", "--in", str(bundle), "--backend", "poly", "--rank", rank,
        ) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")
        assert "at least 1" in err[0]

    def test_strict_rank_infeasible(self, tmp_path, capsys):
        out = tmp_path / "hard"
        run("gen", "--seed", "2", "--L", "8", "--d", "3", "--r", "1",
            "--gamma", "0.5", "--out", str(out))
        assert run(
            "approx", "--in", str(out), "--backend", "poly", "--strict-rank",
        ) == 1
        assert "exceeds the limit 8" in capsys.readouterr().err

    @pytest.mark.parametrize("rank, limit", [("1000", 16), ("16", 16), ("5", 5)])
    def test_strict_rank_caps_an_explicit_rank_at_L(
        self, tmp_path, capsys, rank, limit
    ):
        # The cap is min(--rank, L): --rank 1000 alone would allow rank 330.
        out = tmp_path / "b"
        run("gen", "--seed", "7", "--L", "16", "--d", "4", "--r", "2",
            "--gamma", "0.5", "--out", str(out))
        assert run(
            "approx", "--in", str(out), "--backend", "poly", "--strict-rank",
            "--rank", rank,
        ) == 1
        assert f"exceeds the limit {limit}" in capsys.readouterr().err


class TestCheck:
    def test_check_passes_on_seeded_bundle(self, tmp_path, capsys):
        out = tmp_path / "b"
        run("gen", "--seed", "5", "--L", "8", "--d", "3", "--r", "2",
            "--gamma", "0.5", "--out", str(out))
        assert run("check", "--in", str(out)) == 0
        text = capsys.readouterr().out
        assert "finite differences" in text
        assert "kronecker route" in text
        assert "FAIL" not in text

    def test_check_skips_kron_when_large(self, tmp_path, capsys):
        out = tmp_path / "b"
        run("gen", "--seed", "5", "--L", "16", "--d", "3", "--r", "1",
            "--gamma", "0.5", "--out", str(out))
        assert run("check", "--in", str(out)) == 0
        assert "skipped" in capsys.readouterr().out


class TestTables:
    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(
            "bench", "--seed", "1", "--L", "32,64", "--d", "2", "--r", "1",
            "--repeats", "1", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "L,path,wall_ns,ops,slope"
        assert len(lines) == 5

    def test_bench_reports_guard_skips_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setenv("LORA_KERNELS_GUARD_L", "48")
        assert run(
            "bench", "--seed", "5", "--L", "32,64", "--d", "2", "--r", "1",
            "--repeats", "1",
        ) == 0
        captured = capsys.readouterr()
        assert "skipped exact at L=64 (size guard)" in captured.err.split("\n")
        assert captured.out.startswith("L,path,wall_ns,ops,slope")

    def test_bench_stdout(self, capsys):
        assert run(
            "bench", "--seed", "1", "--L", "32,64", "--d", "2", "--r", "1",
            "--repeats", "1",
        ) == 0
        assert capsys.readouterr().out.startswith("L,path,wall_ns,ops,slope")

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_non_positive_repeats_is_one_error_line(self, capsys, repeats):
        assert run(
            "bench", "--seed", "1", "--L", "32", "--d", "2", "--r", "1",
            "--repeats", repeats,
        ) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")
        assert "repeats" in err[0]

    @pytest.mark.parametrize("sizes", ["8,8", "8", ""])
    def test_bench_needs_two_distinct_sizes_before_any_work(
        self, capsys, monkeypatch, sizes
    ):
        calls = []
        monkeypatch.setattr(harness, "gen_instance", lambda *a: calls.append(a))
        assert run(
            "bench", "--seed", "1", "--L", sizes, "--d", "2", "--r", "1",
            "--repeats", "1",
        ) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")
        assert "two distinct sizes" in err[0]
        assert calls == []

    def test_sweep_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--seed", "2", "--gammas", "0.25,1.0", "--L", "16",
                "--d", "2", "--r", "1"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().split("\n")[0]
        assert header == "gamma,degree,rank_k1,f_err,grad_err,infeasible"


class TestReduceCheck:
    def test_passes(self, capsys):
        assert run("reduce-check", "--seed", "7") == 0
        text = capsys.readouterr().out
        assert "output subblock" in text
        assert "gradient vs loss" in text
        assert "FAIL" not in text
