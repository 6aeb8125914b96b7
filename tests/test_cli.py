import hashlib
import math
import os
import sys

import pytest

from rcumem import simulator, validation
from rcumem.cli import CSV_HEADER, main, parse_grid, point_seed
from rcumem.core import ConvergenceError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGrid:
    def test_scalar(self):
        assert parse_grid("2.5") == [2.5]

    def test_comma_list(self):
        assert parse_grid("1,5,10") == [1.0, 5.0, 10.0]

    def test_linear_range(self):
        assert parse_grid("0:10:3") == [0.0, 5.0, 10.0]

    def test_log_range(self):
        got = parse_grid("0.1:100:4:log")
        assert got[0] == pytest.approx(0.1)
        assert got[-1] == pytest.approx(100.0)
        ratios = [b / a for a, b in zip(got, got[1:])]
        assert max(ratios) == pytest.approx(min(ratios))

    @pytest.mark.parametrize("bad", ["", "1:2", "1:2:0", "1:2:3:cubic", "-1:10:3:log"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)


class TestPointSeed:
    def test_deterministic_and_spread(self):
        seeds = {point_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert point_seed(1, 7) == point_seed(1, 7)


class TestAnalytic:
    def test_no_reader_row(self, capsys):
        code, out, _ = run(capsys, "analytic", "--alpha", "1", "--lambda", "0", "--mu", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert float(fields[3]) == 1.0  # en_exact
        assert float(fields[4]) == 1.0  # jensen
        assert float(fields[5]) == 1.0  # simple
        assert float(fields[6]) == 2.0  # age
        assert fields[7:] == ["", "", "", "", ""]

    def test_row_major_order_and_bound_chain(self, capsys):
        code, out, _ = run(capsys, "analytic", "--alpha", "1,2", "--lambda", "1,5", "--mu", "1")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("1.0", "1.0"), ("1.0", "5.0"), ("2.0", "1.0"), ("2.0", "5.0")]
        for r in rows:
            en, j, s = float(r[3]), float(r[4]), float(r[5])
            assert en <= j + 1e-9 <= s + 2e-9

    def test_invalid_grid_exit_2(self, capsys):
        code, out, _ = run(capsys, "analytic", "--alpha", "nope", "--lambda", "1")
        assert code == 2
        assert out == ""  # nothing written on error

    @pytest.mark.parametrize(
        "alpha,lam,mu",
        [("10000", "1e13", "1"), ("1e300", "1", "1e-10"), ("1e-300", "1", "1e300")],
        ids=["10000-1e13", "1e300-1-1e-10", "1e-300-1-1e300"],
    )
    def test_series_cap_exit_2(self, capsys, alpha, lam, mu):
        code, out, err = run(capsys, "analytic", "--alpha", alpha, "--lambda", lam, "--mu", mu)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out_path = str(tmp_path / "missing" / "x.csv")
        code, _, err = run(capsys, "analytic", "--alpha", "1", "--lambda", "1", "--out", out_path)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_huge_read_load_matches_closed_form(self, capsys):
        # at alpha = mu the k-th term is 1 - M(1, 2, -b_k) = 1 - (1 - e^{-b_k})/b_k
        code, out, err = run(capsys, "analytic", "--alpha", "1", "--lambda", "1e300", "--mu", "1")
        assert code == 0
        assert err == ""
        b = [math.ldexp(1e300, -k) for k in range(1, 1995)]  # down to b = 5.6e-301
        closed = 1.0 + math.fsum(1.0 + math.expm1(-x) / x for x in b)
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(closed, rel=1e-12)

    def test_monotone_in_lambda(self, capsys):
        code, out, _ = run(capsys, "analytic", "--alpha", "2", "--lambda", "0:20:11", "--mu", "1")
        assert code == 0
        ens = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert all(a <= b + 1e-12 for a, b in zip(ens, ens[1:]))


class TestSimulate:
    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--alpha", "1", "--lambda", "1", "--mu", "1",
                "--publications", "5000", "--batches", "10", "--seed", "42"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_age_accuracy(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--alpha", "2", "--lambda", "5", "--mu", "1",
            "--publications", "100000", "--seed", "7",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[9]) == pytest.approx(1.0, rel=0.02)  # sim_age vs 2/alpha
        assert "CI half-widths" in err

    def test_more_batches_than_publications_exit_2(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--alpha", "1", "--lambda", "1",
            "--publications", "1000", "--batches", "2000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_histogram_sidecar(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.csv")
        code, _, _ = run(
            capsys, "simulate", "--alpha", "1", "--lambda", "1", "--mu", "1",
            "--publications", "2000", "--batches", "10", "--histogram", "--out", out_path,
        )
        assert code == 0
        hist = (tmp_path / "rows.csv.hist").read_text()
        assert hist.splitlines()[0] == "alpha,lambda,mu,n,weight"
        weights = [float(line.split(",")[4]) for line in hist.splitlines()[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("blocked", ["csv", "hist"])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, blocked):
        # "csv": the --out directory is missing; "hist": only the .hist sidecar cannot be opened
        if blocked == "csv":
            out_path = str(tmp_path / "missing" / "rows.csv")
        else:
            out_path = str(tmp_path / "rows.csv")
            (tmp_path / "rows.csv.hist").mkdir()
        code, _, err = run(
            capsys, "simulate", "--alpha", "1", "--lambda", "1", "--mu", "1",
            "--publications", "2000", "--batches", "10", "--histogram", "--out", out_path,
        )
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_out_of_memory_exit_2(self, capsys, monkeypatch):
        # at (1e-6, 1e6, 1e-6) the draw of the 1e12 reads in service at 0 asks for terabytes;
        # the failure is stood in for, since a host that overcommits could grant the real request
        def allocate(params, source):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(simulator, "_stationary_state", allocate)
        code, out, err = run(
            capsys, "simulate", "--alpha", "1e-6", "--lambda", "1e6", "--mu", "1e-6", "--publications", "1000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["simulate", "--alpha", "1", "--lambda", "1", "--mu", "1",
                "--publications", "2000", "--batches", "10"]
        _, out, _ = run(capsys, *argv)
        out_path = str(tmp_path / "rows.csv")
        run(capsys, *argv, "--out", out_path)
        assert (tmp_path / "rows.csv").read_text() == out


class TestTradeoff:
    def test_age_halves_when_alpha_doubles(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--alpha", "0.5,1,2", "--lambda", "1", "--mu", "1")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        ages = [float(r[1]) for r in rows]
        ens = [float(r[2]) for r in rows]
        assert ages == [4.0, 2.0, 1.0]
        assert all(a > b for a, b in zip(ages, ages[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(ens, ens[1:]))

    def test_fast_writer_asymptote(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--alpha", "2000", "--lambda", "10", "--mu", "1")
        assert code == 0
        en = float(out.splitlines()[1].split(",")[2])
        assert en == pytest.approx(11.0, abs=0.1)


class TestNoTruncationOption:
    # the footprint series is summed over every k, so no subcommand takes a tolerance
    @pytest.mark.parametrize("command", ["analytic", "simulate", "tradeoff"])
    def test_tol_is_rejected(self, capsys, command):
        code, out, err = run(capsys, command, "--alpha", "1", "--lambda", "1", "--tol", "1e-10")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err


class TestNoWarmupOption:
    # every run starts in its stationary state, so there is no initial transient to discard
    def test_warmup_is_rejected(self, capsys):
        code, out, err = run(capsys, "simulate", "--alpha", "1", "--lambda", "1", "--warmup", "5")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --warmup" in err


class TestValidateCommand:
    def test_reduced_run_reports_checks(self, capsys):
        # small sample count keeps this fast; the command must emit one
        # PASS/FAIL line per check, in the shape perfbench/judge.py counts,
        # and exit nonzero iff any check failed
        code, out, _ = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        lines = out.splitlines()
        assert all(l.startswith(("PASS  ", "FAIL  ")) for l in lines)
        kinds = [l[6:].split(" ", 1)[0] for l in lines]
        assert kinds == ["lemma1"] * 81 + ["p_ek"] * 3 + ["series-vs-quadrature", "appendix"]
        has_fail = any(l.startswith("FAIL") for l in lines)
        assert code == (1 if has_fail else 0)

    def test_output_is_pinned(self, capsys):
        # sha256 of this run's stdout, captured before Lemma 1 was drawn in one pass over k,
        # w once per mc_p_ek chunk and the appendix integrands were shared
        code, out, _ = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ae8a2a846cf14df9a1e78c83126b97a0ceff53c4a4f14980ac658efa4e2ff5b8"
        )

    def test_all_checks_pass_with_default_samples(self, capsys):
        # per the published analysis every oracle should agree; the
        # grace-period series disagrees with its own sampled construction,
        # so this records the expected-clean run honestly
        code, out, _ = run(capsys, "validate", "--samples", "1000000", "--seed", "3")
        assert code == 0, "oracle disagreement:\n" + "\n".join(
            l for l in out.splitlines() if l.startswith("FAIL")
        )

    def test_quadrature_off_by_1e_7_fails(self, capsys, monkeypatch):
        # the series-vs-quadrature tolerance is fixed at 1e-8
        p_ek_quadrature = validation.p_ek_quadrature
        monkeypatch.setattr(validation, "p_ek_quadrature", lambda params, k: p_ek_quadrature(params, k) + 1e-7)
        code, out, _ = run(capsys, "validate", "--samples", "20000")
        assert code == 1
        assert any(l.startswith("FAIL  series-vs-quadrature grid: max dev=1.00e-07 tol=1e-08") for l in out.splitlines())

    def test_quad_tol_is_rejected(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "20000", "--quad-tol", "1e-8")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --quad-tol" in err


class TestValidatePool:
    # validate runs its checks on a pool of one thread per usable CPU; one CPU is a serial run
    def test_one_cpu_gives_the_same_run(self, capsys, monkeypatch):
        pooled = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(capsys, "validate", "--samples", "20000", "--seed", "3") == pooled

    def test_no_sched_getaffinity_gives_the_same_run(self, capsys, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity; the pool is sized from os.cpu_count there
        pooled = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run(capsys, "validate", "--samples", "20000", "--seed", "3") == pooled

    def test_more_threads_than_cores_switching_often_give_the_same_run(self, capsys, monkeypatch):
        # a thread per check, each preempted every microsecond: no check may touch another's state
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_error_in_a_pooled_check_exits_2_after_the_lines_before_it(self, capsys, monkeypatch):
        mc_p_ek = validation.mc_p_ek

        def failing(params, k, samples, seed):
            if params.lam == 10.0:
                raise ConvergenceError("injected")
            return mc_p_ek(params, k, samples, seed)

        monkeypatch.setattr(validation, "mc_p_ek", failing)
        pooled = run(capsys, "validate", "--samples", "20000", "--seed", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(capsys, "validate", "--samples", "20000", "--seed", "3") == pooled
        code, out, err = pooled
        assert code == 2
        assert err == "error: injected\n"
        lines = out.splitlines()
        # the 81 Lemma 1 cells, then the first p_ek point, then nothing
        assert len(lines) == 82
        assert all(" lemma1 k=" in line for line in lines[:81])
        assert "p_ek mc-vs-series alpha=1.0 lam=1.0 mu=1.0 k=1:" in lines[81]
