import json

import pytest

from kernelscope import __version__, cli, errors
from kernelscope.cli import run


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
        (errors.ContourError, 2), (errors.ExhaustionError, 2),
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

    def test_comma_list_config_echoes_the_text(self, capsys):
        doc = run_json(capsys, ["verify-identity", "--id", "mu", "--s", "2,,3", "--N", "100"])
        assert doc["config"]["s"] == "2,,3"
        assert [x["s"] for x in doc["result"]["samples"]] == [[2.0, 0.0], [3.0, 0.0]]


REP_ARGV = ["build-rep", "--fn", "thue_morse_pm", "--k", "2", "--L", "5", "--M", "32",
            "--N", "4096"]


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
