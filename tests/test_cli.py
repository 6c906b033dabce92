import hashlib
import json
import subprocess
import sys

import pytest

from chartab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_s3_text(self, capsys):
        code, out, _ = run_cli(capsys, "table", "S3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group S3, order 6, 3 classes"
        assert "X1 |  1 |       1 |     1" in out
        assert "X3 |  2 |      -1 |     0" in out

    def test_a5_json_has_exact_surds(self, capsys):
        code, out, _ = run_cli(capsys, "table", "A5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == "A5"
        assert payload["order"] == 60
        assert [c["size"] for c in payload["classes"]] == [1, 12, 12, 15, 20]
        degree3 = [c for c in payload["characters"] if c["degree"] == 3]
        assert len(degree3) == 2
        # exact cyclotomic coefficient vectors, not floats
        for char in degree3:
            for value in char["values"]:
                assert isinstance(value["order"], int)
                assert all(isinstance(c, str) for c in value["coeffs"])

    def test_c1_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "C1")
        assert code == 0
        assert "X1" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "S3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",size,1,2,3"
        assert any(line.startswith("X3,exact,2,-1,0") for line in lines)
        assert any(line.startswith("X3,approx,") for line in lines)

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, first, _ = run_cli(capsys, "table", "S5", "--format", "json")
        assert code == 0
        reparsed = json.dumps(json.loads(first), indent=2) + "\n"
        assert reparsed == first
        code, second, _ = run_cli(capsys, "table", "S5", "--format", "json")
        assert first == second


class TestClasses:
    def test_s5(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "S5")
        assert code == 0
        assert "7 classes" in out
        for size in [1, 10, 15, 20, 24, 30]:
            assert f"size {size}," in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "Q8", "--format", "json")
        payload = json.loads(out)
        assert [c["size"] for c in payload["classes"]] == [1, 1, 2, 2, 2]
        assert [c["element_order"] for c in payload["classes"]] == [1, 2, 4, 4, 4]


class TestCheck:
    def test_q8_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "Q8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 15

    def test_check_failure_exits_one(self, capsys, monkeypatch):
        class FakeReport:
            ok = False

            def lines(self):
                return ["FAIL forced: injected failure"]

            def to_json(self):
                return {"ok": False, "checks": []}

        monkeypatch.setattr(cli, "check_all", lambda table: FakeReport())
        code, out, _ = run_cli(capsys, "check", "S3")
        assert code == 1
        assert "FAIL forced" in out


class TestSimpleSolvable:
    def test_solvable_a5(self, capsys):
        code, out, _ = run_cli(capsys, "solvable", "A5")
        assert code == 0
        assert "not solvable" in out
        assert "theorem not applicable" in out

    def test_solvable_s4_json(self, capsys):
        code, out, _ = run_cli(capsys, "solvable", "S4", "--format", "json")
        payload = json.loads(out)
        assert payload["theorem_applies"] is True
        assert payload["solvable"] is True

    def test_simple_q8(self, capsys):
        code, out, _ = run_cli(capsys, "simple", "Q8")
        assert code == 0
        assert "not simple" in out
        assert "witness normal subgroup: order 2" in out

    def test_simple_a5_json(self, capsys):
        code, out, _ = run_cli(capsys, "simple", "A5", "--format", "json")
        payload = json.loads(out)
        assert payload["is_simple"] is True
        assert payload["verdict"] == "inconclusive"


class TestRestrictTensorSymalt:
    def test_restrict_degree6(self, capsys):
        code, out, _ = run_cli(
            capsys, "restrict", "S5", "--subgroup", "A5", "--char", "7"
        )
        assert code == 0
        assert "splits: H2 + H3" in out
        assert "vanishes off subgroup: True" in out

    def test_restrict_requires_subgroup(self, capsys):
        code, _, err = run_cli(capsys, "restrict", "S5")
        assert code == 2
        assert "subgroup" in err

    def test_tensor(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "S4", "--chars", "2,4")
        assert code == 0
        assert "X2*X4 = X5" in out

    def test_tensor_trivial_factor(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "S4", "--chars", "1,3")
        assert code == 0
        assert "X1*X3 = X3" in out

    def test_tensor_requires_chars(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "S4")
        assert code == 2
        assert "--chars" in err

    def test_restrict_rejects_non_subgroup(self, capsys):
        code, _, err = run_cli(
            capsys, "restrict", "Q8", "--subgroup", "C3", "--char", "1"
        )
        assert code == 2
        assert "not in parent group" in err

    def test_symalt(self, capsys):
        code, out, _ = run_cli(capsys, "symalt", "S5", "--char", "3")
        assert code == 0
        assert "chi_S = X1 + X3 + X5" in out
        assert "chi_A = X7 (irreducible)" in out

    def test_bad_char_index(self, capsys):
        code, _, err = run_cli(capsys, "symalt", "S3", "--char", "9")
        assert code == 2
        assert "index" in err


class TestFourier:
    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "4", "--values", "1,1,1,1")
        assert code == 0
        assert "fhat(0) = 1" in out
        assert "inverse transform recovers input: True" in out
        assert "plancherel" in out

    def test_rational_values(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "3", "--values", "1/2,0,-2")
        assert code == 0
        assert "inverse transform recovers input: True" in out

    def test_json(self, capsys):
        from chartab.cyclo import Cyclo

        code, out, _ = run_cli(
            capsys, "fourier", "3", "--values", "1,0,0", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["inverse_roundtrip"] is True
        lhs = Cyclo.from_json(payload["plancherel"]["time_side"])
        rhs = Cyclo.from_json(payload["plancherel"]["freq_side"])
        assert lhs == rhs

    def test_wrong_count(self, capsys):
        code, _, err = run_cli(capsys, "fourier", "4", "--values", "1,2")
        assert code == 2


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "S99")
        assert code == 2
        assert "parse error" in err

    def test_unknown_builtin(self, capsys):
        code, _, _ = run_cli(capsys, "table", "nonsense")
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "table", "S5", "--cap", "10")
        assert code == 3
        assert "cap" in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARTAB_CAP", "10")
        code, _, _ = run_cli(capsys, "classes", "S5")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARTAB_CAP", "10")
        code, _, _ = run_cli(capsys, "classes", "S5", "--cap", "1000")
        assert code == 0


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "chartab.cli", "table", "S3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "group S3, order 6, 3 classes" in result.stdout


D4XD4 = "perm:8:(0,1,2,3);(0,2);(4,5,6,7);(4,6)"


@pytest.mark.parametrize("argv, digest", [
    ("table A5", "82f5eeedf0389d5db9cd5a6dd89664b2dc26d8b4db3a792a5c6b91c748f5a777"),
    ("table S5", "f0e05f679321da4f7a75746df46d5eaee3af92d97b0c17e0a679be349580ad6e"),
    ("table A6", "fe3ffb5207402bc09c43360f913096aa5413640feedefb14abdf3640a7d5641b"),
    ("check A6", "c4459b2d728ccac1e3594b2d1332999fbcf46d95ebebceadebbad90ae41fd73b"),
    (f"check {D4XD4}", "411542fe20a0729cc54a9baa28aec4f57724075a88249dd0d6e3d03ae81234ee"),
    ("symalt S5 --char 3", "33c49412be09a8715fe274a270bb24888257a7582cfeac9eca83fb98e3d92116"),
    # non-integral coefficients
    ("fourier 4 --values 1,0,1/2,0",
     "dd0ae6ce1df81f8d6d66ceb570e7b614449a9e6456f9b665b9e264ec72cae904"),
])
def test_json_output_is_pinned(capsys, argv, digest):
    # sha256 of stdout: a change in how values are held inside the library
    # must not change a byte of output
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_pipe_exits_without_traceback():
    # C30 as a JSON table is about 150 kB, more than a pipe holds, so the
    # writer is still printing when the reader closes its end
    spec = "perm:30:(" + ",".join(map(str, range(30))) + ")"
    proc = subprocess.Popen(
        [sys.executable, "-m", "chartab.cli", "table", spec, "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_CHECK_FAILED
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
