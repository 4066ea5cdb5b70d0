import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kernelscope import __version__, cli, errors, seqgen
from kernelscope.cli import run


# the representation of const_one, built from a table
CONST_ONE = ["--fn", "const_one", "--N", "4096", "--k", "2", "--L", "5", "--M", "32"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestCommands:
    def test_generate_csv(self, capsys):
        code = run(["generate", "--fn", "tau", "--N", "6", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool=kernelscope version=")
        assert lines[1].startswith("# config=")
        assert lines[2] == "n,value"
        assert lines[3] == "1,1"
        assert lines[8] == "6,4"

    def test_generate_nth_prime(self, capsys):
        # the sieve runs past N, far enough to hold the first N primes
        code = run(["generate", "--fn", "nth_prime", "--N", "10", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.splitlines()[3:] == [f"{n},{p}" for n, p in enumerate(
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29], start=1)]

    def test_kernel_profile(self, capsys):
        doc = run_json(
            capsys,
            ["kernel-profile", "--fn", "thue_morse_pm", "--k", "2", "--L", "5",
             "--M", "32", "--N", "4096"],
        )
        assert doc["result"]["verdict"]["kind"] == "saturated"
        assert doc["result"]["verdict"]["size"] == 2
        assert doc["tool"] == "kernelscope"
        assert "config" in doc and "wall_time_s" in doc

    def test_rank_profile(self, capsys):
        doc = run_json(
            capsys,
            ["rank-profile", "--fn", "identity_n", "--k", "2", "--L", "4",
             "--M", "16", "--N", "1024"],
        )
        assert doc["result"]["verdict"]["size"] == 2

    def test_density(self, capsys):
        doc = run_json(
            capsys,
            ["density", "--fn", "const_one", "--N", "100", "--value", "1",
             "--lengths", "10,100"],
        )
        assert [r["density"] for r in doc["result"]] == [1.0, 1.0]

    def test_build_and_eval_rep(self, capsys, tmp_path):
        rep_path = tmp_path / "rep.json"
        code = run(
            ["build-rep", "--fn", "thue_morse_pm", "--k", "2", "--L", "5",
             "--M", "32", "--N", "4096", "--out", str(rep_path)]
        )
        assert code == 0
        doc = json.loads(rep_path.read_text())
        assert doc["result"]["t"] == 2
        # the --out file, envelope and all, feeds --rep as it is
        out = run_json(capsys, ["eval-rep", "--rep", str(rep_path), "--n", "27"])
        assert out["result"]["value"] == (-1) ** bin(27).count("1")
        # and so does the bare representation inside it
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(doc["result"]))
        bare = run_json(capsys, ["eval-rep", "--rep", str(plain), "--n", "27"])
        assert bare["result"] == out["result"]

    def test_pole_lattice(self, capsys):
        doc = run_json(
            capsys,
            ["pole-lattice", "--fn", "const_one", "--N", "4096", "--k", "2",
             "--L", "5", "--M", "32", "--m-max", "1", "--l-max", "1"],
        )
        pts = doc["result"]["points"]
        assert any(abs(p["re"] - 1) < 1e-12 and abs(p["im"]) < 1e-12 for p in pts)

    def test_dirichlet_eval_methods(self, capsys):
        direct = run_json(
            capsys,
            ["dirichlet-eval", "--method", "direct", "--fn", "mu",
             "--N", "100000", "--s", "2"],
        )
        quot = run_json(
            capsys,
            ["dirichlet-eval", "--method", "zeta-quotient", "--id", "mu",
             "--s", "2"],
        )
        rec = run_json(
            capsys,
            ["dirichlet-eval", "--method", "recursion", "--fn", "const_one",
             "--N", "4096", "--k", "2", "--L", "5", "--M", "32", "--s", "0"],
        )
        assert abs(direct["result"]["value"][0] - quot["result"]["value"][0]) < 1e-4
        assert abs(rec["result"]["value"][0] + 0.5) < 1e-4

    def test_verify_identity(self, capsys):
        doc = run_json(
            capsys,
            ["verify-identity", "--id", "lambda", "--s", "2,2.5", "--N", "100000"],
        )
        assert doc["result"]["all_passed"] is True
        assert len(doc["result"]["samples"]) == 2

    def test_pole_scan(self, capsys):
        doc = run_json(
            capsys,
            ["pole-scan", "--fn", "const_one", "--N", "4096", "--k", "2",
             "--L", "5", "--M", "32", "--a", "0.9", "--b", "1.1", "--T", "5",
             "--step", "0.1"],
        )
        assert doc["result"]["observed_count"] == 1

    def test_singularities(self, capsys):
        doc = run_json(capsys, ["singularities", "--n-max", "10"])
        assert doc["result"]["count"] == 7

    def test_zeta(self, capsys):
        doc = run_json(capsys, ["zeta", "--re", "2"])
        assert abs(doc["result"]["value"][0] - 1.6449340668) < 1e-9

    def test_zeta_real_left_is_real(self, capsys):
        # the reflected value at s = -1 once carried 1.0205389992894583e-17i
        code = run(["zeta", "--re", "-1"])
        out = capsys.readouterr().out
        assert code == 0, out
        value = json.loads(out)["result"]["value"]
        assert value == [-0.0833333333333331, 0.0] and math.copysign(1, value[1]) == 1

    def test_zeros(self, capsys):
        code = run(["zeros", "--T", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "14.134725" in out

    def test_zero_count(self, capsys):
        doc = run_json(capsys, ["zero-count", "--T", "30"])
        assert doc["result"]["N"] == 3
        assert doc["result"]["agree"] is True

    def test_tlogt(self, capsys):
        doc = run_json(capsys, ["tlogt", "--T-list", "50", "--format", "json"])
        assert doc["result"][0]["N"] == 10

    def test_christol_orbit(self, capsys):
        doc = run_json(
            capsys,
            ["christol-orbit", "--fn", "sum_binary_digits", "--mod", "2",
             "--N", "65536", "--p", "2", "--budget", "10"],
        )
        assert doc["result"]["orbit"]["verdict"] == "finite"
        assert doc["result"]["verdict"]["kind"] == "algebraic_evidence"


class TestContract:
    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_domain_error_exits_1(self, capsys):
        assert run(["zeta", "--re", "1"]) == 1
        assert "pole" in capsys.readouterr().err

    def test_capacity_error_exits_2(self, capsys):
        assert run(["generate", "--fn", "sigma_m", "--fn-param", "3",
                    "--N", "9000000"]) == 2

    def test_csv_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = run(["generate", "--fn", "mu", "--N", "50",
                        "--format", "csv", "--out", str(p)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_stdout_equals_out_file(self, capsys, tmp_path):
        path = tmp_path / "mu.csv"
        argv = ["generate", "--fn", "mu", "--N", str(2**16 + 5), "--format", "csv"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert run(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()
        assert re.fullmatch(rf"wrote {re.escape(str(path))} "
                            r"\(compute \d+\.\d{3}s, write \d+\.\d{3}s\)\n",
                            capsys.readouterr().err)

    def test_csv_export_streams(self, tmp_path):
        # no JSON list and no text of the whole table: the traced peak of this
        # export was 68.3 MiB when both were built, 14.3 MiB streamed
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code = run(["generate", "--fn", "phi", "--N", "1000000", "--format", "csv",
                        "--out", str(tmp_path / "phi.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("N", [1, 2**16 + 5])
    def test_json_export_layout(self, capsys, N):
        # the values written in blocks give json.dumps(indent=2)'s bytes,
        # across the block boundary and for a one-entry list
        assert run(["generate", "--fn", "mu", "--N", str(N), "--mod", "3",
                    "--format", "json"]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert doc["result"] == seqgen.build_table(seqgen.FunctionId("mu", modulus=3), N).to_json()

    def test_rows_layout(self):
        # an array at a key indented by 4, as json.dumps lays it out there
        for values in ([7], [-1, 0, 12]):
            fh = io.StringIO()
            cli._Rows(np.array(values, np.int8)).write(fh, 4)
            got = '{\n  "a": {\n    "v": ' + fh.getvalue() + "\n  }\n}"
            assert got == json.dumps({"a": {"v": values}}, indent=2)

    def test_json_export_streams(self, tmp_path):
        # no list of the values and no text of them all: the traced peak of
        # this export was 30.7 MiB when both were built, 7.7 MiB streamed
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code = run(["generate", "--fn", "phi", "--N", "250000", "--format", "json",
                        "--out", str(tmp_path / "phi.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_env_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("KERNELSCOPE_MAX_N", "1000")
        assert run(["generate", "--fn", "mu", "--N", "5000"]) == 2
        # the first 200 primes need a sieve to 1394
        capsys.readouterr()
        assert run(["generate", "--fn", "nth_prime", "--N", "200"]) == 2
        assert "N <= 1000, got 1394" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--a", "nan"), ("--b", "inf"), ("--T", "inf"), ("--T", "nan"), ("--step", "nan"),
    ])
    def test_pole_scan_non_finite_bound_exits_1(self, capsys, flag, value):
        # one error line naming the argument, no uncaught exception
        bounds = {"--a": "0.9", "--b": "1.1", "--T": "5", "--step": "0.1", flag: value}
        argv = ["pole-scan", "--fn", "const_one", "--N", "4096", "--k", "2",
                "--L", "5", "--M", "32"]
        assert run(argv + [x for kv in bounds.items() for x in kv]) == 1
        name = flag.removeprefix("--")
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"

    def test_verify_identity_on_one_term(self, capsys):
        doc = run_json(capsys, ["verify-identity", "--id", "mu", "--s", "2", "--N", "1"])
        assert doc["result"]["N_terms"] == 1 and doc["result"]["all_passed"]

    @pytest.mark.parametrize("mod", ["0", "1"])
    def test_modulus_below_two_exits_1(self, capsys, mod):
        assert run(["generate", "--fn", "mu", "--N", "10", "--mod", mod]) == 1
        out = capsys.readouterr()
        assert out.err == f"error: modulus must be >= 2, got {mod}\n" and out.out == ""

    def test_modulus_above_int64_exits_1(self, capsys):
        mod = str(10**23)
        assert run(["generate", "--fn", "mu", "--N", "10", "--mod", mod]) == 1
        out = capsys.readouterr()
        assert out.err == f"error: modulus must be <= 2^63 - 1, got {mod}\n" and out.out == ""

    def test_zero_terms_exits_2(self, capsys):
        argv = ["dirichlet-eval", "--method", "direct", "--fn", "const_one", "--N", "1000",
                "--s", "2", "--N-terms"]
        assert run(argv + ["0"]) == 2
        assert "N_terms=0 outside the table range" in capsys.readouterr().err
        doc = run_json(capsys, argv + ["10"])
        assert doc["result"]["terms"] == 10

    def test_missing_fn_for_table_command(self, capsys):
        assert run(["dirichlet-eval", "--method", "direct", "--s", "2"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["dirichlet-eval", "--method", "zeta-quotient", "--s", "2"],
         "--method zeta-quotient needs --id"),
        (["eval-rep", "--n", "5"], "need --rep FILE, or --fn/--N (plus --k/--L/--M) to build"),
    ])
    def test_missing_source_exits_1(self, capsys, argv, message):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        # the pole; zeta's pole in the quotient, as denominator of two identities
        ["dirichlet-eval", "--method", "recursion", *CONST_ONE, "--s", "1"],
        ["dirichlet-eval", "--method", "zeta-quotient", "--id", "mu", "--s", "1.0000001"],
        ["dirichlet-eval", "--method", "zeta-quotient", "--id", "lambda", "--s", "1.0000001"],
    ])
    def test_unbounded_error_is_null(self, capsys, argv):
        def not_json(name):
            raise ValueError(f"{name} is not a JSON number")

        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=not_json)
        assert doc["result"]["error_estimate"] is None

    def test_unbounded_continuation_exits_2(self, capsys):
        # at s = -150 the value is finite (-1.7e135, where zeta(-150) = 0)
        # but the correction series has no finite bound on what it drops
        argv = ["dirichlet-eval", "--method", "recursion", *CONST_ONE, "--s=-150"]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: continuation at s = (-150+0j) has no finite error bound\n"

    def test_overflowed_continuation_exits_2(self):
        # float64 overflows below s = -250; a subprocess, so that any numpy
        # warning of the overflow would reach stderr beside the one error line
        argv = ["dirichlet-eval", "--method", "recursion", *CONST_ONE, "--s=-300"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-m", "kernelscope.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            "error: continuation at s = (-300+0j) overflowed: its value is not finite\n")

    def test_prime_past_2_31_exits_1_at_once(self, capsys):
        # 2^61 - 1 is prime; trial division to its root ran past 30 s
        start = time.perf_counter()
        assert run(["christol-orbit", "--fn", "lambda", "--N", "1000",
                    "--p", str(2**61 - 1)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: p must be below 2^31, got {2**61 - 1}\n"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_1(self, capsys, tol):
        assert run(["zeta", "--re", "2", "--tol", tol]) == 1
        assert capsys.readouterr().err == f"error: tol must be finite, got {tol}\n"

    @pytest.mark.parametrize("argv", [["zeta", "--re", "2"], ["zero-count", "--T", "20"]])
    def test_csv_without_csv_form_exits_1(self, capsys, argv):
        assert run(argv + ["--format", "csv"]) == 1
        assert "no CSV form" in capsys.readouterr().err

    def test_csv_refused_before_the_body_runs(self, capsys, monkeypatch):
        def body(args):
            raise AssertionError("command body ran")

        monkeypatch.setattr(cli, "_cmd_zeta", body)
        assert run(["zeta", "--re", "2", "--format", "csv"]) == 1
        assert "no CSV form" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (errors.KernelscopeError, 1), (errors.DomainError, 1), (errors.PoleError, 1),
        (errors.RangeError, 1), (errors.VerdictError, 1), (errors.ConstructionError, 1),
        (ValueError, 1), (errors.CapacityError, 2), (errors.PrecisionError, 2),
        (errors.ContourError, 2),
    ])
    def test_exit_code_of_each_error_class(self, capsys, monkeypatch, exc, code):
        def fail(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "_cmd_zeta", fail)
        assert run(["zeta", "--re", "2"]) == code
        assert capsys.readouterr().err == "error: boom\n"

    @pytest.mark.parametrize("why", ["", "Unable to allocate 7.28 EiB for an array"])
    def test_memory_error_exits_2(self, capsys, monkeypatch, why):
        # an allocation past memory is a capacity problem, not a traceback
        def fail(args):
            raise MemoryError(why)

        monkeypatch.setattr(cli, "_cmd_zeta", fail)
        assert run(["zeta", "--re", "2"]) == 2
        assert capsys.readouterr().err == f"error: {why or 'out of memory'}\n"

    @pytest.mark.parametrize("argv", [
        ["dirichlet-eval", "--method", "direct", "--fn", "mu", "--N", "100", "--s", "nan"],
        ["dirichlet-eval", "--method", "recursion", "--fn", "const_one", "--N", "4096",
         "--k", "2", "--L", "5", "--M", "32", "--s", "inf"],
        ["dirichlet-eval", "--method", "zeta-quotient", "--id", "mu", "--s", "nan"],
        ["verify-identity", "--id", "mu", "--s", "2,nan", "--N", "100"],
        ["zeta", "--re", "nan"],
        ["zeta", "--re", "2", "--im=-inf"],
    ])
    def test_non_finite_s_exits_1(self, capsys, argv):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "s must be finite, got " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (["verify-identity", "--id", "mu", "--N", "1000", "--s"], "--s"),
        (["density", "--fn", "mu", "--N", "100", "--value", "0", "--lengths"], "--lengths"),
        (["tlogt", "--T-list"], "--T-list"),
    ])
    @pytest.mark.parametrize("text", ["", ",", ",,"])
    def test_empty_comma_list_exits_1(self, capsys, argv, flag, text):
        # an empty --s once gave "all_passed": true over no samples
        assert run(argv + [text]) == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: needs at least one value, got {text!r}\n" in err
        assert err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, s", [
        (["dirichlet-eval", "--method", "recursion", "--fn", "const_one", "--N", "4096",
          "--k", "2", "--L", "5", "--M", "32", "--s", "-0.5+3j"], [-0.5, 3.0]),
        (["dirichlet-eval", "--method", "recursion", "--fn", "const_one", "--N", "4096",
          "--k", "2", "--L", "5", "--M", "32", "--s", "-2e-1"], [-0.2, 0.0]),
        (["zeta", "--re", "-1e-3", "--im", "-2"], [-0.001, -2.0]),
    ])
    def test_negative_number_as_option_value(self, capsys, argv, s):
        # argparse alone reads "-0.5+3j" and "-1e-3" as options
        doc = run_json(capsys, argv)
        assert doc["result"]["s"] == s
        assert doc["config"] == run_json(capsys, argv[:-2] + [f"{argv[-2]}={argv[-1]}"])["config"]

    def test_negative_comma_list_reaches_the_identity(self, capsys):
        argv = ["verify-identity", "--id", "mu", "--N", "100", "--s", "-1,-2+1j"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: identity mu is valid for Re s > 1.0, got (-1+0j)\n")

    def test_negative_nan_is_still_refused(self, capsys):
        argv = ["dirichlet-eval", "--method", "recursion", "--fn", "const_one", "--N", "4096",
                "--k", "2", "--L", "5", "--M", "32", "--s", "-nan"]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: Re s must be finite, got nan\n"

    def test_only_numbers_are_joined(self):
        argv = ["density", "--fn", "mu", "--lengths", "-5,10", "--value", "-1", "--N", "10"]
        assert cli._join_negative_values(argv) == [
            "density", "--fn", "mu", "--lengths=-5,10", "--value=-1", "--N", "10"]
        for tail in (["--s", "-x"], ["--s=-1", "-2"], ["--", "-1"], ["-h", "-1"]):
            assert cli._join_negative_values(tail) == tail

    @pytest.mark.parametrize("lengths, code, err", [
        ("10,-5", 1, "error: prefix length must be >= 1, got -5\n"),
        ("0", 1, "error: prefix length must be >= 1, got 0\n"),
        ("10,101", 2, "error: prefix length 101 outside table range 1..100\n"),
    ])
    def test_density_prefix_out_of_range(self, capsys, lengths, code, err):
        argv = ["density", "--fn", "mu", "--N", "100", "--value", "0", "--lengths", lengths]
        assert run(argv) == code
        assert capsys.readouterr().err == err

    def test_comma_list_config_echoes_the_text(self, capsys):
        doc = run_json(capsys, ["verify-identity", "--id", "mu", "--s", "2,,3", "--N", "100"])
        assert doc["config"]["s"] == "2,,3"
        assert [x["s"] for x in doc["result"]["samples"]] == [[2.0, 0.0], [3.0, 0.0]]


REP_ARGV = ["build-rep", "--fn", "thue_morse_pm", "--k", "2", "--L", "5", "--M", "32",
            "--N", "4096"]
# U_n = (n, 1), the sequence n: U_{2n} = [[2, 0], [0, 1]] U_n, U_{2n+1} = [[2, 1], [0, 1]] U_n
REGULAR_REP = {"k": 2, "t": 2, "matrices": [[2, 0, 0, 1], [2, 1, 0, 1]], "seeds": [[1, 1]],
               "output_coord": 0, "labels": [[0, 0], [0, 0]], "verified_to": 0,
               "automatic": False, "growth": [1.0, 1.0]}


class TestOutsideFiles:
    """A bad --rep file or --out path is one error line and exit 1."""

    def rep_doc(self, capsys):
        return run_json(capsys, REP_ARGV)["result"]

    def check_refused(self, capsys, argv, *words):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for word in words:
            assert word in err

    def test_missing_rep_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        self.check_refused(capsys, ["eval-rep", "--rep", path, "--n", "5"], path)

    def test_rep_is_a_directory(self, capsys, tmp_path):
        self.check_refused(capsys, ["eval-rep", "--rep", str(tmp_path), "--n", "5"],
                           str(tmp_path))

    def test_rep_without_a_field(self, capsys, tmp_path):
        doc = self.rep_doc(capsys)
        del doc["t"]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        self.check_refused(capsys, ["eval-rep", "--rep", str(path), "--n", "5"],
                           str(path), "'t'")

    def test_rep_field_of_wrong_type(self, capsys, tmp_path):
        doc = self.rep_doc(capsys)
        doc["t"] = "x"
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        self.check_refused(capsys, ["eval-rep", "--rep", str(path), "--n", "5"],
                           str(path), "'t'")

    @pytest.mark.parametrize("name, value", [
        ("k", 1),
        ("growth", [-1, 0]),
        ("growth", [1, "inf"]),
        ("growth", ["nan", 0]),
        ("output_coord", 5),
        ("output_coord", -1),
        ("automatic", "yes"),
        ("matrices", [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1]]),
        ("labels", [[0, 0]]),
        ("verified_to", -3),
        ("automatic", False),
    ])
    def test_rep_field_out_of_range(self, capsys, tmp_path, name, value):
        doc = self.rep_doc(capsys)
        doc[name] = value
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        argv = ["dirichlet-eval", "--method", "recursion", "--rep", str(path), "--s", "0.5+3j"]
        self.check_refused(capsys, argv, str(path), repr(name))

    @pytest.mark.parametrize("n", [2**63 + 5, 10**20, 2**70 + 3])
    def test_eval_rep_exact_past_int64(self, capsys, tmp_path, n):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(REGULAR_REP))
        doc = run_json(capsys, ["eval-rep", "--rep", str(path), "--n", str(n)])
        assert doc["result"] == {"n": n, "value": n}

    def test_regular_rep_claiming_automatic(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({**REGULAR_REP, "automatic": True}))
        self.check_refused(capsys, ["eval-rep", "--rep", str(path), "--n", "5"],
                           str(path), "'automatic'")

    def test_out_under_missing_directory(self, capsys, tmp_path):
        path = str(tmp_path / "no" / "such" / "rep.json")
        self.check_refused(capsys, REP_ARGV + ["--out", path], path)


class TestCsvForms:
    """Byte-exact CSV of the commands whose CSV writers nothing else runs."""

    def csv_of(self, capsys, argv):
        assert run(argv + ["--format", "csv"]) == 0
        return capsys.readouterr().out

    def test_density(self, capsys):
        # mu(n) = 0 for 3 of n <= 10, 39 of n <= 100 and 392 of n <= 1000
        out = self.csv_of(capsys, ["density", "--fn", "mu", "--N", "1000", "--value", "0",
                                   "--lengths", "10,100,1000"])
        assert out == (
            f"# tool=kernelscope version={__version__}\n"
            '# config={"N": 1000, "command": "density", "fn": "mu", "fn_param": null, '
            '"format": "csv", "lengths": "10,100,1000", "mod": null, "value": 0}\n'
            "X,count,density,approx_num,approx_den,residual\n"
            "10,3,0.3,3,10,0.0\n"
            "100,39,0.39,23,59,0.00016949152542372882\n"
            "1000,392,0.392,20,51,0.00015686274509803922\n"
        )

    def test_singularities(self, capsys):
        # 1/n for the squarefree n <= 6
        out = self.csv_of(capsys, ["singularities", "--n-max", "6"])
        assert out == (
            f"# tool=kernelscope version={__version__}\n"
            '# config={"command": "singularities", "format": "csv", "n_max": 6}\n'
            "numerator,denominator,value\n"
            "1,1,1.0\n1,2,0.5\n1,3,0.3333333333333333\n1,5,0.2\n1,6,0.16666666666666666\n"
        )

    def test_rank_profile(self, capsys):
        # the ranks test_kernel's Fraction elimination gives for these windows
        out = self.csv_of(capsys, ["rank-profile", "--fn", "phi", "--k", "2", "--L", "4",
                                   "--M", "8", "--N", "256"])
        assert out == (
            f"# tool=kernelscope version={__version__}\n"
            '# config={"L": 4, "M": 8, "N": 256, "command": "rank-profile", "fn": "phi", '
            '"fn_param": null, "format": "csv", "k": 2, "mod": null}\n'
            "depth,rank\n0,1\n1,3\n2,5\n3,8\n4,8\n"
        )

    def rows_of(self, capsys, argv):
        """The CSV after its two comment lines, which test_density pins."""
        tool, config, rows = self.csv_of(capsys, argv).split("\n", 2)
        assert tool == f"# tool=kernelscope version={__version__}"
        assert config.startswith("# config={")
        return rows

    def test_kernel_profile(self, capsys):
        out = self.rows_of(capsys, ["kernel-profile", "--fn", "thue_morse_pm", "--k", "2",
                                    "--L", "4", "--M", "32", "--N", "8192"])
        assert out == "depth,count\n0,1\n1,2\n2,2\n3,2\n4,2\n"

    def test_pole_lattice(self, capsys):
        # eigenvalue 1 of base 2: s = 1 - l + 2 pi i m / log 2
        out = self.rows_of(capsys, ["pole-lattice", *CONST_ONE,
                                    "--m-max", "1", "--l-max", "1"])
        assert out == (
            "re,im,alpha_index,m,l\n"
            "1.0,-9.064720283654388,0,-1,0\n0.0,-9.064720283654388,0,-1,1\n"
            "1.0,0.0,0,0,0\n0.0,0.0,0,0,1\n"
            "1.0,9.064720283654388,0,1,0\n0.0,9.064720283654388,0,1,1\n"
        )

    @pytest.mark.parametrize("bounds, rows", [
        # the pole itself: refused, so no value and both flags
        (["--a", "1", "--b", "1", "--T", "0"],
         "1.0,0.0,nan,0.0,near_singular|cluster_candidate\n"),
        # regular points: an empty flags field
        (["--a", "0.5", "--b", "0.5", "--T", "0.2"],
         "0.5,0.0,1.4603545089754078,0.4142135623730949,\n"
         "0.5,0.1,1.433807867851917,0.42233255493199423,\n"
         "0.5,0.2,1.3627709455449586,0.44576664655248216,\n"),
    ])
    def test_pole_scan(self, capsys, bounds, rows):
        out = self.rows_of(capsys, ["pole-scan", *CONST_ONE, *bounds, "--step", "0.1"])
        assert out == "re,im,abs_value,det_magnitude,flags\n" + rows

    def test_zeros(self, capsys):
        assert self.rows_of(capsys, ["zeros", "--T", "15"]) == "index,ordinate\n1,14.134725\n"

    def test_tlogt(self, capsys):
        # N(50) = 10
        out = self.rows_of(capsys, ["tlogt", "--T-list", "50"])
        assert out == "T,N,ratio_TlogT\n50.0,10,0.11771838201355579\n"


def test_import_loads_no_heavy_module():
    # import time is part of every command's run time; these modules are
    # slow to load and no kernelscope module needs them at import
    heavy = ("scipy", "mpmath", "hypothesis", "numpy.fft", "numpy.polynomial", "numpy.random")
    code = (
        "import importlib, pkgutil, sys, kernelscope\n"
        "for m in pkgutil.iter_modules(kernelscope.__path__):\n"
        "    importlib.import_module('kernelscope.' + m.name)\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = done.stdout.split()
    assert "kernelscope.cli" in loaded and "kernelscope.zeta" in loaded
    below = tuple(h + "." for h in heavy)
    assert [m for m in loaded if m in heavy or m.startswith(below)] == []
