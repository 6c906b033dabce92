import hashlib
import json
import subprocess
import sys

import pytest

from chartab import cli, tablegen
from chartab.classfun import ClassFunction
from chartab.permgroup import parse_group_spec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    @pytest.mark.parametrize("command", ["table", "check"])
    def test_json_makes_no_class_function(self, capsys, monkeypatch, command):
        # the JSON encoder and check_all read the table's index, so neither
        # makes a row: a ClassFunction is made by __init__ or by _of
        made = []
        real_init, real_of = ClassFunction.__init__, ClassFunction._of.__func__
        monkeypatch.setattr(ClassFunction, "__init__",
                            lambda self, *args: made.append(args) or real_init(self, *args))
        monkeypatch.setattr(ClassFunction, "_of",
                            classmethod(lambda cls, *args: made.append(args) or real_of(cls, *args)))
        code, out, _ = run_cli(capsys, command, "S5", "--format", "json")
        assert code == 0 and json.loads(out)
        assert not made
        tablegen.build_character_table(parse_group_spec("S5")).rows
        assert len(made) == 7

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
        reparsed = json.dumps(json.loads(first), separators=(",", ":")) + "\n"
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


# check_all's checks, in the order it runs them
CHECK_NAMES = ["degrees-ascending", "rows-of-norm-one-and-distinct", "central-character-identity"]


class TestCheck:
    def test_q8_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "Q8")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"PASS {name}" for name in CHECK_NAMES]

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

    def test_symalt_of_a_linear_character_has_no_alternating_part(self, capsys):
        # the alternating square of a linear character is 0, which its
        # decomposition prints as "0", not as an empty sum
        code, out, _ = run_cli(capsys, "symalt", "S3", "--char", "1")
        assert code == 0
        assert out.splitlines()[2:] == ["chi_A = 0", "  values: ['0', '0', '0']"]

    def test_malformed_chars_build_no_table(self, capsys, monkeypatch):
        def no_build(group):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "build_character_table", no_build)
        code, out, err = run_cli(capsys, "tensor", "S4", "--chars", "1;2")
        assert (code, out, err) == (2, "", "error: bad --chars value '1;2'\n")

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

    def test_a_value_past_the_float_range(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "2", "--values", "1,1e400")
        assert code == 0
        assert f"fhat(0) = {10**400 + 1}/2 ~ inf\n" in out
        assert f"fhat(1) = -{10**400 - 1}/2 ~ -inf\n" in out
        code, out, _ = run_cli(capsys, "fourier", "2", "--values", "1,1e400", "--format", "json")
        assert code == 0
        assert json.loads(out)["transform"][0] == {"order": 1, "coeffs": [f"{10**400 + 1}/2"]}

    def test_wrong_count(self, capsys):
        code, _, err = run_cli(capsys, "fourier", "4", "--values", "1,2")
        assert code == 2

    def test_modulus_above_the_field_range_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fourier", "10001", "--values", ",".join(["0"] * 10001))
        assert code == 2
        assert "10000" in err
        assert "Traceback" not in err


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

    def test_failed_build_is_a_consistency_failure(self, capsys, monkeypatch):
        # at p = 7 the degrees of S5 break the sum of squares; the build
        # raises TableConstructionError, which the command reports
        monkeypatch.setattr(tablegen, "choose_prime", lambda g: 7)
        code, out, err = run_cli(capsys, "table", "S5")
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert out == ""
        assert err.startswith("consistency failure:")
        assert "violate sum of squares = 120" in err

    @pytest.mark.parametrize("argv, code, err", [
        ("tensor S4 --chars 1,2,3", 2, "error: bad --chars value '1,2,3'"),
        ("fourier x --values 1", 2, "error: fourier needs an integer modulus, got 'x'"),
        ("fourier 4", 2, "error: fourier requires --values"),
        ("fourier 2 --values 1,a", 2, "error: bad --values '1,a'"),
        ("restrict S5 --subgroup S6", 2,
         "parse error: subgroup degree 6 exceeds parent degree 5"),
        # a command reads its spec before its own options: an over-cap
        # spec is a cap error, whether or not --chars or --subgroup is given
        ("tensor S9", 3, "resource cap: group enumeration exceeded cap of 100000 elements"),
        ("restrict S9", 3, "resource cap: group enumeration exceeded cap of 100000 elements"),
    ])
    def test_usage_and_cap_errors(self, capsys, argv, code, err):
        assert run_cli(capsys, *argv.split()) == (code, "", err + "\n")

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARTAB_CAP", "10")
        code, _, _ = run_cli(capsys, "classes", "S5")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARTAB_CAP", "10")
        code, _, _ = run_cli(capsys, "classes", "S5", "--cap", "1000")
        assert code == 0

    @pytest.mark.parametrize("extra", [(), ("--format", "csv")])
    @pytest.mark.parametrize("precision", ["-1", "-2", "18"])
    def test_out_of_range_precision_is_a_usage_error(self, capsys, extra, precision):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "A5", *extra, "--precision", precision])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--precision" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ("check", "S3", "--format", "csv"),
        ("table", "S3", "--char", "2"),
        ("fourier", "4", "--values", "1,1,1,1", "--cap", "10"),
    ])
    def test_option_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == cli.EXIT_USAGE

    def test_negative_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classes", "S3", "--cap", "-1"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--cap" in capsys.readouterr().err

    def test_negative_env_cap_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARTAB_CAP", "-5")
        code, _, err = run_cli(capsys, "classes", "S3")
        assert code == cli.EXIT_USAGE
        assert "CHARTAB_CAP" in err


@pytest.mark.parametrize("command, options", [
    ("table", ["--format", "--cap", "--precision"]),
    ("classes", ["--format", "--cap"]),
    ("check", ["--format", "--cap"]),
    ("simple", ["--format", "--cap"]),
    ("solvable", ["--format", "--cap"]),
    ("restrict", ["--subgroup", "--char", "--format", "--cap"]),
    ("tensor", ["--chars", "--format", "--cap"]),
    ("symalt", ["--char", "--format", "--cap"]),
    ("fourier", ["--values", "--format"]),
])
def test_each_command_takes_only_the_options_it_reads(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    assert listed == options


def test_the_parser_is_built_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    code, first, _ = run_cli(capsys, "table", "A5")
    assert code == 0
    assert run_cli(capsys, "table", "A5", "--precision", "2")[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "A5", "--format", "xml"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()
    assert run_cli(capsys, "classes", "S3", "--format", "json")[0] == 0
    # no option of an earlier call carries over to a later one
    assert run_cli(capsys, "table", "A5") == (0, first, "")
    assert built == []


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "chartab.cli", "table", "S3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "group S3, order 6, 3 classes" in result.stdout


D4XD4 = "perm:8:(0,1,2,3);(0,2);(4,5,6,7);(4,6)"


# each case is named by its command alone, so a re-pinned digest keeps its
# test's id
PINNED_JSON = [
    ("table A5", "82f5eeedf0389d5db9cd5a6dd89664b2dc26d8b4db3a792a5c6b91c748f5a777"),
    ("table S5", "f0e05f679321da4f7a75746df46d5eaee3af92d97b0c17e0a679be349580ad6e"),
    ("table A6", "fe3ffb5207402bc09c43360f913096aa5413640feedefb14abdf3640a7d5641b"),
    # an order-7 Galois orbit: two classes of 7-cycles
    ("table A7", "c4251672a7d3b69793f40b8f383e14655b80effeeccd8cfa4cac3cf2ac8316f8"),
    ("check A6", "bd9451eb1d86f084c52605fbad06c3407492e693ad7feb82eedd14c46aed3a5e"),
    (f"check {D4XD4}", "b2b3a1cc2379bf6b09ff97352bce4824cb4114ffd97d6415624af32721ed6831"),
    # a relabeled D4xS3xC3
    ("check perm:10:(1,4,8,3);(3,4);(0,7);(0,9,7);(2,5,6)",
     "01b866d3e5e490d26b2fe0e0767ebc603ef39425aabe2271a78a6a1aab62acf4"),
    # the same group's class order and rep_cycles
    ("table perm:10:(1,4,8,3);(3,4);(0,7);(0,9,7);(2,5,6)",
     "544cee2da1cbd171e6f69696cfd7fb72ba1cd8d04b6d7b1f28e8552f05aa5a7c"),
    ("symalt S5 --char 3", "33c49412be09a8715fe274a270bb24888257a7582cfeac9eca83fb98e3d92116"),
    # non-integral coefficients
    ("fourier 4 --values 1,0,1/2,0",
     "dd0ae6ce1df81f8d6d66ceb570e7b614449a9e6456f9b665b9e264ec72cae904"),
    # values in Q(zeta_12) with non-integral coefficients, and an impulse in
    # Q(zeta_30): the transform reduces each value once, from an int vector
    ("fourier 12 --values=-2,1,-3,2,-5/3,-7/3,0,1,0,0,1/2,4",
     "00e929aad3d00ff82f63c200b49d98c2d556798f1952e43765ab6529d8686eb7"),
    ("fourier 30 --values=1" + ",0" * 29,
     "8b0bf4bb3afd8294cd3b40b648622dca1345fac6b5f223e4643bbd548c69b6a0"),
    # character arithmetic on irrational rows: A7's rows 3 and 4 are its
    # order-7 pair, and S6's row 11 (degree 16) splits onto A6's rows 4 and
    # 5, whose values lie in Q(zeta_5)
    ("tensor A7 --chars 3,4", "b162031455c1aee1068bbf6a0d5402547c826f4fa86728e242bff6a533ad26ac"),
    ("symalt A7 --char 3", "14c109830c0cd88c9d2f34ba904d1eec713f44e18fdcce07f282db6a8fc49b50"),
    ("restrict S6 --subgroup A6 --char 11",
     "a95b0dbfd487f429442248687b548bf47b2e62d0e7e0805543bf069beb90dc5c"),
    ("check S5", "a0671730098e3840aa45e21bce8889e310b1830ecf50de51a0863f83b78946cd"),
]


@pytest.mark.parametrize("argv, digest", PINNED_JSON, ids=[argv for argv, _ in PINNED_JSON])
def test_json_output_is_pinned(capsys, argv, digest):
    # sha256 of stdout re-indented: a change in how values are held inside
    # the library must not change a byte of output.  stdout itself is one
    # compact line
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    indented = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", [
    "A7",  # an order-7 Galois orbit
    "S6",
    "perm:8:(0,1,2);(0,1,2,3,4);(5,6,7)",  # A5xC3: values at orders 3, 5 and 15
    "perm:11:(1,10,3,9);(9,10);(0,8,4,7);(0,4);(2,5,6)",  # a relabeled D4xD4xC3
    "perm:16:(0,1);(2,3);(4,5);(6,7);(8,9);(10,11);(12,13);(14,15)",  # C2^8
])
def test_table_json_is_the_compact_dump_of_to_json(capsys, spec):
    # byte for byte: the pinned digests above re-indent the output, so they
    # cannot see a stray space or a degree printed as a string.  The CLI
    # holds the only table encoder, so its output is checked against its
    # own parse, dumped compactly
    code, out, _ = run_cli(capsys, "table", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == cli._json_dumps(payload) + "\n"
    assert all(type(c["degree"]) is int for c in payload["characters"])
    h = len(payload["classes"])
    assert len(payload["characters"]) == h
    assert all(len(c["values"]) == h for c in payload["characters"])


def test_closed_pipe_exits_without_traceback():
    # C31 as a JSON table is about 137 kB, more than a pipe holds, so the
    # writer is still printing when the reader closes its end
    spec = "perm:31:(" + ",".join(map(str, range(31))) + ")"
    with subprocess.Popen(
        [sys.executable, "-m", "chartab.cli", "table", spec, "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.read(10) == '{"group":"'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == cli.EXIT_CHECK_FAILED
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
