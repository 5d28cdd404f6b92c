import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hookbound.cli
import hookbound.degrees
import hookbound.sweep
from hookbound.celltyping import cell_typing
from hookbound.certificates import certificate_from_json, revalidate
from hookbound.degrees import degree
from hookbound.cli import EXIT_FAIL, EXIT_HYPOTHESIS, EXIT_PASS, EXIT_USAGE, main
from hookbound.families import balanced, staircase
from hookbound.partitions import Partition, parse_rational
from hookbound.sweep import CSV_COLUMNS

STAIR = "20,19,18,17,16,15,14,13,12,11"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegreeCommand:
    def test_known_degree(self, capsys):
        code, out, _ = run(capsys, "degree", "2,1")
        assert code == EXIT_PASS
        lines = out.splitlines()
        assert lines[0] == "2"
        assert float(lines[1]) == pytest.approx(math.log(2))

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "degree", "5")
        assert code == EXIT_PASS
        assert out.splitlines()[0] == "1"

    def test_degree_computed_once(self, capsys, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return degree(p)

        monkeypatch.setattr(hookbound.cli, "degree", counted)
        monkeypatch.setattr(hookbound.degrees, "degree", counted)
        code, out, _ = run(capsys, "degree", "9,6,4,2,2,1")
        assert code == EXIT_PASS
        f = degree(Partition((9, 6, 4, 2, 2, 1)))
        assert out == f"{f}\n{format(math.log(f), '.15g')}\n"
        assert len(calls) == 1

    def test_parse_failure(self, capsys):
        code, out, err = run(capsys, "degree", "2,x")
        assert code == EXIT_USAGE
        assert out == "" and err

    def test_degree_past_int_str_digit_limit(self, capsys):
        # balanced(4000) has a degree of more than 4300 digits, CPython's
        # default int-to-str limit; rebuild it from 1000-digit chunks
        lam = balanced(4000)
        code, out, _ = run(capsys, "degree", lam.format())
        assert code == EXIT_PASS
        first = out.splitlines()[0]
        assert len(first) > 4300 and first.isdigit()
        value = 0
        for start in range(0, len(first), 1000):
            chunk = first[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == degree(lam)


def test_python_dash_m_matches_cli_module():
    env = dict(os.environ)
    src = str(Path(hookbound.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "degree", "3,2,1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for module in ("hookbound", "hookbound.cli")
    ]
    assert runs[0].returncode == runs[1].returncode == EXIT_PASS
    assert runs[0].stdout == runs[1].stdout == f"16\n{format(math.log(16), '.15g')}\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI run and benchmark probe pays this import; a bare interpreter
    # (-S, no site packages) sees only what hookbound itself pulls in
    src = str(Path(hookbound.cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hookbound.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


class TestCertifyCommand:
    def test_alpha_must_exceed_one(self, capsys):
        code, _, err = run(
            capsys, "certify", "strip", "9,6,4,2,2,1", "--k", "4", "--l", "3", "--alpha", "1"
        )
        assert code == EXIT_HYPOTHESIS
        assert "alpha" in err

    def test_rectangle_pass_json(self, capsys):
        code, out, _ = run(capsys, "certify", "rectangle", "--a", "2", "--b", "2")
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["bound_name"] == "rectangle"
        assert data["verdict"] == "PASS"
        assert revalidate(data)

    def test_theorem_staircase(self, capsys):
        lam = ",".join(str(v) for v in range(40, 20, -1))
        code, out, _ = run(
            capsys, "certify", "theorem", lam, "--alpha", "11/10", "--beta", "21/20"
        )
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["class"] in ("M1", "M2", "M3")
        assert revalidate(data)

    def test_fail_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "certify", "strip", "2,2", "--k", "2", "--l", "0", "--alpha", "2"
        )
        assert code == EXIT_FAIL
        assert json.loads(out)["verdict"] == "FAIL"

    def test_unknown_bound(self, capsys):
        code, _, err = run(capsys, "certify", "mystery", "2,1", "--alpha", "2")
        assert code == EXIT_USAGE

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "certify", "strip", "2,1")
        assert code == EXIT_USAGE
        assert "requires" in err

    def test_float_alpha_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "strict", STAIR, "--alpha", "1.1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("typing", "3,2,1", "--alpha", "1/0"),
            ("certify", "strict", STAIR, "--alpha", "1/0"),
            ("certify", "theorem", STAIR, "--alpha", "1/0", "--beta", "21/20"),
            ("certify", "theorem", STAIR, "--alpha", "11/10", "--beta", "1/0"),
            ("sweep", "balanced", "--alpha", "2", "--beta", "1/0",
             "--n-from", "40", "--n-to", "41"),
        ],
        ids=["typing-alpha", "strict-alpha", "theorem-alpha", "theorem-beta", "sweep-beta"],
    )
    def test_zero_denominator_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE == 1
        assert out == ""
        assert err == "cannot parse rational '1/0' (zero denominator)\n"

    def test_strict_includes_cells(self, capsys):
        code, out, _ = run(capsys, "certify", "strict", STAIR, "--alpha", "11/10")
        assert code == EXIT_PASS
        data = json.loads(out)
        assert len(data["cells"]) == 155


PINNED_P = ",".join(map(str, range(40, 10, -1)))
# a staircase whose every type-1 round is a strict-stretch round, and a
# strict top over rows of 5, where the first rounds peel cell by cell
PINNED_STAIR = staircase(3000, parse_rational("11/10")).format()
PINNED_TAIL = STAIR + ",5,5,5,5"


@pytest.mark.parametrize(
    "argv, digest, exact_paths",
    [
        (
            ("certify", "strict", PINNED_P, "--alpha", "11/10"),
            "c6a745e965c309eef05c0b52aa556e7b665ee2d6bba82811d700a920dda7501b",
            [()],
        ),
        (
            ("certify", "general", staircase(2000, parse_rational("11/10")).format(),
             "--alpha", "11/10"),
            "f4f15e6ff6e2507f75c5e0738fc293fe81368d82cdc21a610010402c25e11fc7",
            [(), ("mu_certificate",)],
        ),
        (
            ("certify", "theorem", ",".join(["600"] * 20), "--alpha", "11/10", "--beta", "21/20"),
            "cf99648109f366eb2cd681ebfecb2d60e2386d61ed7730c8cd770780620fe846",
            [(), ("sub_certificate",), ("sub_certificate", "mu_certificate")],
        ),
        (
            ("typing", PINNED_P, "--alpha", "11/10", "--format", "json"),
            "aba76352e37a47000c79a7a1610f72daf0b74f50679fb80d676d24a1b22bdb8f",
            [],
        ),
        (
            ("typing", PINNED_P, "--alpha", "11/10"),
            "21b9ae69b9f2e110c6b149da59e0d780a5b002b16297af60304310943d3391a8",
            [],
        ),
        (
            ("typing", PINNED_STAIR, "--alpha", "11/10", "--format", "json"),
            "86cedb163a0bba799eb456fef20b063636ee2ee05227dc872fdaf4bb5f5a965f",
            [],
        ),
        (
            ("typing", PINNED_TAIL, "--alpha", "11/10", "--format", "json"),
            "6f340a7f2587efc6bbc94048ca1421501fab5736ac7aefe1afbe8fc77912f5b4",
            [],
        ),
    ],
    ids=[
        "certify-strict",
        "certify-general",
        "certify-theorem",
        "typing-json",
        "typing-grid",
        "typing-json-staircase",
        "typing-json-cell-rounds",
    ],
)
def test_pinned_stdout(capsys, argv, digest, exact_paths):
    _, out, _ = run(capsys, *argv)
    # every certificate, nested ones by their aux keys, is decided exactly
    for path in exact_paths:
        cert = json.loads(out)
        for key in path:
            cert = cert["aux"][key]
        assert cert["mode"] == "exact", path
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a general bound on staircase(12000), the M3 dispatch on (803,)*20, the
# rectangle bound on 20 rows of 40, the strip bound on (9,6,4,2,2,1) in
# H(4,3) and the strict bound on (40,...,11)
CERTIFY_COMMANDS = {
    "general": ("general", staircase(12000, parse_rational("11/10")).format(),
                "--alpha", "11/10"),
    "theorem": ("theorem", ",".join(["803"] * 20), "--alpha", "11/10", "--beta", "21/20"),
    "rectangle": ("rectangle", "--a", "20", "--b", "40"),
    "strip": ("strip", "9,6,4,2,2,1", "--k", "4", "--l", "3", "--alpha", "2"),
    "strict": ("strict", ",".join(map(str, range(40, 10, -1))), "--alpha", "11/10"),
}


def test_certify_commands_reload_and_revalidate(capsys):
    # each output must re-validate and load back to the same bytes, each
    # nested typing must hold one cell per cell of the recorded mu, and the
    # general certificates and their strict bounds on mu must be decided in
    # exact mode
    outputs = {}
    for name, argv in CERTIFY_COMMANDS.items():
        code, out, _ = run(capsys, "certify", *argv)
        assert code == EXIT_PASS, name
        assert certificate_from_json(json.loads(out)).to_json() + "\n" == out, name
        outputs[name] = json.loads(out)
    for name, key in (("general", None), ("theorem", "sub_certificate")):
        data = outputs[name]
        general = data["aux"][key] if key else data
        assert revalidate(data) and revalidate(general), name
        mu_certificate = general["aux"]["mu_certificate"]
        assert len(mu_certificate["cells"]) == Partition.parse(general["aux"]["mu"]).n, name
        assert general["mode"] == mu_certificate["mode"] == "exact", name
    for name in ("rectangle", "strip", "strict"):
        assert revalidate(outputs[name]), name


class TestTypingCommand:
    def test_gate_exit(self, capsys):
        code, _, err = run(capsys, "typing", "2,1", "--alpha", "3/2")
        assert code == EXIT_HYPOTHESIS
        assert "delta" in err

    def test_grid_consistent_with_json(self, capsys):
        code, grid_out, _ = run(capsys, "typing", STAIR, "--alpha", "11/10")
        assert code == EXIT_PASS
        code, json_out, _ = run(capsys, "typing", STAIR, "--alpha", "11/10", "--format", "json")
        assert code == EXIT_PASS
        data = json.loads(json_out)
        lines = grid_out.splitlines()
        for row, col, cell_type, _, _, _ in data["cells"]:
            assert lines[row - 1][col - 1] == str(cell_type)

    def test_json_roundtrip_recomputes_invariants(self, capsys):
        code, out, _ = run(capsys, "typing", STAIR, "--alpha", "11/10", "--format", "json")
        data = json.loads(out)
        lam = Partition.parse(data["partition"])
        alpha = parse_rational(data["alpha"])
        hooks = lam.hook_grid()
        numbers = set()
        for row, col, cell_type, color, number, hook in data["cells"]:
            assert hooks[(row, col)] == hook
            assert number not in numbers
            numbers.add(number)
            if cell_type in (1, 2, 3) and number >= alpha:
                assert alpha * hook <= number
        assert numbers == set(range(1, lam.n + 1))
        fresh = cell_typing(lam, alpha)
        assert fresh.to_json_dict() == data


class TestSweepCommand:
    def test_deterministic_byte_identical(self, capsys):
        argv = [
            "sweep", "sample", "--alpha", "2", "--beta", "3/2",
            "--n-from", "30", "--n-to", "33", "--samples", "2", "--seed", "11",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_PASS
        assert out1 == out2

    def test_enumerate_over_cap(self, capsys):
        code, _, err = run(
            capsys, "sweep", "enumerate", "--alpha", "2", "--beta", "3/2",
            "--n-from", "10", "--n-to", "60",
        )
        assert code == EXIT_USAGE
        assert "sample" in err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_exit_one(self, capsys, samples):
        code, out, err = run(
            capsys, "sweep", "sample", "--alpha", "2", "--beta", "3/2",
            "--n-from", "30", "--n-to", "31", "--samples", samples,
        )
        assert code == EXIT_USAGE == 1
        assert out == ""
        assert err == f"samples must be at least 1, got {samples}\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "sweep", "balanced", "--alpha", "2", "--beta", "3/2",
            "--n-from", "40", "--n-to", "42", "--out", str(path),
        )
        assert code == EXIT_PASS
        assert out == ""
        assert path.read_text().startswith("n,partition")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            ("2", "2", "hypothesis violated: 1 < beta < alpha (beta=2, alpha=2)"),
            ("2", "1", "hypothesis violated: 1 < beta < alpha (beta=1, alpha=2)"),
            ("1", "3/2", "hypothesis violated: alpha > 1 (got 1)"),
        ],
        ids=["beta-at-alpha", "beta-at-one", "alpha-at-one"],
    )
    def test_pair_outside_the_hypotheses_exits_three_before_any_row(
        self, capsys, monkeypatch, fmt, alpha, beta, message
    ):
        def no_rows(*args):
            raise AssertionError("a row was certified")

        monkeypatch.setattr(hookbound.sweep, "theorem_classify", no_rows)
        code, out, err = run(
            capsys, "sweep", "balanced", "--alpha", alpha, "--beta", beta,
            "--n-from", "40", "--n-to", "42", "--format", fmt,
        )
        assert code == EXIT_HYPOTHESIS == 3
        assert out == ""
        assert err == message + "\n"

    def test_csv_reports_skipped_n_on_stderr(self, capsys, cold_table):
        # the box (3000, 1000, 1000) of alpha 3 is tight: its rows recurse
        argv = [
            "sweep", "sample", "--alpha", "3", "--beta", "2",
            "--n-from", "3000", "--n-to", "3000",
        ]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PASS
        assert out == ",".join(CSV_COLUMNS) + "\n# empirical_n0,not reached\n"
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("skipped n=3000: partition count table")
        assert "recursion limit" in lines[0]
        # JSON already carries the reasons under "skipped"
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_PASS and err == ""
        assert [n for n, _ in json.loads(out)["skipped"]] == [3000]


@pytest.mark.parametrize(
    "argv, n",
    [
        (["certify", "rectangle", "--a", "100000", "--b", "100000"], 10**10),
        (["degree", "100000000,100000000"], 2 * 10**8),
    ],
    ids=["rectangle", "degree"],
)
def test_past_the_sieve_cap_is_one_error_line(capsys, argv, n):
    # the cap is checked on n before anything is sieved or counted
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE == 1
    assert out == ""
    assert err == f"prime sieve: n={n} exceeds guard n<={hookbound.degrees.SIEVE_CAP}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "rectangle", "--a", "2", "--b", "2"],
        ["sweep", "balanced", "--alpha", "2", "--beta", "3/2", "--n-from", "40", "--n-to", "41"],
        ["typing", STAIR, "--alpha", "11/10"],
    ],
)
def test_unwritable_out_is_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_USAGE == 1
    assert out == ""
    assert err == f"cannot write --out {path}: No such file or directory\n"
    assert not path.parent.exists()


class TestOracleCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "oracle", "--max-n", "7")
        assert code == EXIT_PASS
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        assert out.splitlines() == [
            "sum-of-squares identity up to n=7: PASS",
            "conjugation symmetry up to n=7: PASS",
            "brute-force tableau counts up to n=7: PASS",
            "tableau complement bound up to n=7: PASS",
        ]

    def test_suite_caps(self, capsys):
        code, out, _ = run(capsys, "oracle", "--max-n", "9")
        assert code == EXIT_PASS
        assert out.splitlines() == [
            "sum-of-squares identity up to n=9: PASS",
            "conjugation symmetry up to n=9: PASS",
            "brute-force tableau counts up to n=8: PASS",
            "tableau complement bound up to n=7: PASS",
        ]

    def test_a_failure_at_the_cap_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(hookbound.cli, "verify_remark_N_ge_h", lambda p: p.n < 7)
        code, out, _ = run(capsys, "oracle", "--max-n", "9")
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == "tableau complement bound up to n=7: FAIL"
        assert out.count("PASS") == 3

    def test_guard(self, capsys):
        code, _, err = run(capsys, "oracle", "--max-n", "100")
        assert code == EXIT_USAGE

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "oracle", "--max-n", "1")
        assert code == EXIT_PASS


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE
