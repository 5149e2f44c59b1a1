"""CLI contract tests: subcommands, exit codes, formats, determinism."""

import argparse
import io
import json
import math
import subprocess
import sys

import pytest

from rieszlab import battery
from rieszlab.cli import _build_parser, run
from rieszlab.gridlab import InequalityId, _REGISTRY
from rieszlab.maps import map_from_dict
from rieszlab.quadrature import bergman_norm, bergman_triple_norm, hardy_norm, mp_radius, triple_norm
from rieszlab.reporting import VerificationReport


@pytest.fixture
def cos_map_file(tmp_path):
    path = tmp_path / "cos.json"
    path.write_text('{"g": [[0,0],[0.5,0]], "h": [[0,0],[0.5,0]]}')
    return str(path)


def capture(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


def test_constants_table_contains_hilbert_norm():
    code, out = capture(["constants", "--p", "4"])
    assert code == 0
    assert "HILBERT_NORM" in out and "2.414214" in out


def test_constants_json_and_isop():
    code, out = capture(["constants", "--p", "2", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["constants"]["A"] == pytest.approx(1.0)
    assert payload["constants"]["ISOP"] == pytest.approx(1.3065629648763766)


def test_constants_without_arguments_is_exit_2():
    code, _ = capture(["constants"])
    assert code == 2


def test_norms_human(cos_map_file):
    code, out = capture(["norms", "--input", cos_map_file, "--p", "2", "--r", "0.5"])
    assert code == 0
    assert "hardy" in out and "0.707106781187" in out


def test_norms_print_the_public_values(cos_map_file):
    argv = ["norms", "--input", cos_map_file, "--p", "3", "--r", "0.5", "--format", "json"]
    code, out = capture(argv)
    assert code == 0
    with open(cos_map_file, encoding="utf-8") as fh:
        m = map_from_dict(json.load(fh))
    assert json.loads(out)["norms"] == {
        "hardy": hardy_norm(m, 3.0),
        "triple": triple_norm(m, 3.0),
        "bergman": bergman_norm(m, 3.0),
        "bergman_triple": bergman_triple_norm(m, 3.0),
        "mp(r=0.5)": mp_radius(m, 3.0, 0.5),
    }


def test_hilbert_conjugate_of_cosine_is_sine(cos_map_file, tmp_path):
    out_path = tmp_path / "conj.json"
    code, _ = capture(["hilbert", "--input", cos_map_file, "--output", str(out_path)])
    assert code == 0
    from rieszlab.maps import boundary_series, map_from_dict

    conj = map_from_dict(json.loads(out_path.read_text()))
    coeffs = boundary_series(conj).coeffs
    # sin t has coefficients -i/2 at k=1 and i/2 at k=-1
    assert coeffs[1] == pytest.approx(-0.5j)
    assert coeffs[-1] == pytest.approx(0.5j)


def test_verify_lemma_passes_and_reports(capsys):
    code, out = capture(
        ["verify-lemma", "--id", "VERBITSKY_COS", "--p", "1.5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)[0]
    assert payload["id"] == "VERBITSKY_COS"
    assert payload["min_slack"] >= -1e-9
    assert payload["passed"] is True
    assert "violations" in payload and payload["violations"] == []
    assert None not in payload.values()


def test_verify_lemma_csv_header():
    code, out = capture(
        ["verify-lemma", "--id", "CSC_GAP", "--p", "2", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("id,p,min_slack")


def test_verify_theorem_and_probe():
    code, out = capture(
        ["verify-theorem", "--id", "CONJUGATE_NORM", "--p", "3", "--samples", "10"]
    )
    assert code == 0 and "[PASS]" in out
    code, out = capture(
        ["probe-sharpness", "--id", "CONJUGATE_NORM", "--p", "1.5",
         "--gamma-frac", "0.5", "--gamma-frac", "0.9", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["increasing"] is True
    assert payload["ratios"][0] == pytest.approx(math.tan(0.5 * math.pi / 3), abs=1e-8)


def test_subharmonic_command():
    code, out = capture(
        ["subharmonic", "--id", "PHI_MID", "--p", "3", "--samples", "8", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)[0]["passed"] is True


def _stub_suite(**kwargs):
    """Two reports in place of the full battery, so suite runs take no time."""
    return [
        VerificationReport(id="STUB", p=2.0, min_slack=0.5, argmin=(1.0, 0.25)),
        VerificationReport(id="STUB_P_FREE", p=None, min_slack=-0.0, seed=0),
    ]


REPORT_HEADER = ",".join(VerificationReport.CSV_FIELDS)
# each subcommand that takes --format: a quick invocation and its CSV header
FORMAT_CASES = {
    "constants": (["--p", "4"], "constant,value"),
    "norms": (["--input", "{map}", "--p", "2", "--r", "0.5"], "norm,value"),
    "verify-lemma": (["--id", "CSC_GAP", "--p", "2"], REPORT_HEADER),
    "subharmonic": (["--id", "PHI_MID", "--p", "3", "--samples", "8"], REPORT_HEADER),
    "verify-theorem": (["--id", "CONJUGATE_NORM", "--p", "3", "--samples", "10"], REPORT_HEADER),
    "probe-sharpness": (
        ["--id", "CONJUGATE_NORM", "--p", "1.5", "--gamma-frac", "0.5", "--gamma-frac", "0.9"],
        "gamma_fraction,ratio",
    ),
    "suite": ([], REPORT_HEADER),
}


def test_format_cases_cover_every_command_with_a_format(cos_map_file, capsys):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    with_format = {
        name for name, sp in sub.choices.items()
        if any("--format" in a.option_strings for a in sp._actions)
    }
    assert with_format == set(FORMAT_CASES) == set(sub.choices) - {"hilbert"}
    # hilbert writes a map, as JSON only
    assert capture(["hilbert", "--input", cos_map_file, "--format", "json"])[0] == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("command", sorted(FORMAT_CASES))
def test_format_contract(command, fmt, cos_map_file, monkeypatch):
    monkeypatch.setattr(battery, "full_suite", _stub_suite)
    args, header = FORMAT_CASES[command]
    argv = [command] + [a.replace("{map}", cos_map_file) for a in args] + ["--format", fmt]
    code, out = capture(argv)
    assert code == 0, argv
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        assert out.splitlines()[0] == header
    else:
        with pytest.raises(ValueError):
            json.loads(out)
        assert out.splitlines()[0] != header


def test_suite_argument_error_leaves_the_output_file_alone(tmp_path, capsys):
    out = tmp_path / "suite.json"
    out.write_text("earlier report\n")
    assert capture(["suite", "--samples", "0", "--output", str(out)])[0] == 2
    assert "samples" in capsys.readouterr().err
    assert out.read_text() == "earlier report\n"


def test_suite_timings_go_to_stderr_and_leave_stdout_alone(capsys):
    argv = ["suite", "--grid-r", "16", "--grid-t", "16", "--samples", "4", "--degree", "2"]
    plain = capture(argv)
    assert capsys.readouterr().err == ""
    assert capture(argv + ["--timings"]) == plain
    lines = capsys.readouterr().err.splitlines()
    names = [line.split()[0] for line in lines]
    # one line per stage of full_suite, then the total
    assert names[-1] == "total" and len(names) == len(set(names))
    assert set(names[:-1]) == set(battery.__all__) - {"full_suite"}
    seconds = [float(line.split()[1]) for line in lines]
    assert min(seconds) >= 0.0 and seconds[-1] == pytest.approx(sum(seconds[:-1]), abs=0.01)


def test_bad_arguments_exit_2(cos_map_file, tmp_path, monkeypatch, capsys):
    assert capture(["verify-lemma", "--id", "NOPE", "--p", "1.5"])[0] == 2
    assert capture(["verify-lemma"])[0] == 2
    assert capture(["norms", "--input", "/definitely/missing.json", "--p", "2"])[0] == 2
    assert capture(["verify-lemma", "--id", "MIXED_BY_SUM_LOW", "--p", "9"])[0] == 2
    assert capture(["nope-subcommand"])[0] == 2
    # out-of-range sizes exit 2 with a message naming the field
    for argv, field in (
        (["verify-theorem", "--id", "MIXED_BY_HARDY", "--p", "2", "--samples", "0"], "samples"),
        (["verify-theorem", "--id", "MIXED_BY_HARDY", "--p", "2", "--samples", "-3"], "samples"),
        (["suite", "--samples", "0"], "samples"),
        (["verify-lemma", "--id", "CSC_GAP", "--p", "2", "--grid-r", "4"], "r_nodes"),
        (["suite", "--grid-r", "4"], "r_nodes"),
        (["suite", "--grid-t", "4"], "t_nodes"),
        (["verify-theorem", "--id", "MIXED_BY_HARDY", "--p", "2", "--degree", "-1"], "degree"),
        (["suite", "--degree", "-1"], "degree"),
        # a NaN or non-positive tolerance would pass or fail every bound
        (["verify-theorem", "--id", "CONJUGATE_NORM", "--p", "3", "--samples", "2",
          "--tol", "nan"], "rel_tol"),
        (["verify-theorem", "--id", "CONJUGATE_NORM", "--p", "3", "--samples", "2",
          "--tol", "-1"], "rel_tol"),
        (["subharmonic", "--id", "PSI", "--p", "3", "--tol", "nan"], "tolerance"),
        (["subharmonic", "--id", "F_PAIR", "--p", "3", "--tol", "-1"], "tolerance"),
        (["verify-lemma", "--id", "CSC_GAP", "--p", "2", "--tol", "nan"], "tolerance"),
        (["verify-theorem", "--id", "CONJUGATE_NORM", "--p", "3", "--seed", "-3"],
         "seed must be >= 0, got -3"),
        (["subharmonic", "--id", "PSI", "--p", "3", "--seed", "-3"], "seed must be >= 0"),
        (["subharmonic", "--id", "G_PAIR", "--p", "3", "--seed", "-3"], "seed must be >= 0"),
        (["suite", "--seed", "-3"], "seed must be >= 0, got -3"),
        # the grid scan draws nothing at random, so it takes no seed
        (["verify-lemma", "--id", "CSC_GAP", "--p", "2", "--seed", "0"], "--seed"),
        (["norms", "--input", cos_map_file, "--p", "0.5"], "requires p in [1.0, 64.0]"),
        (["norms", "--input", cos_map_file, "--p", "2", "--r", "2"], "r must lie in [0, 1]"),
        (["probe-sharpness", "--id", "NOPE", "--p", "2"], "choose from"),
        (["subharmonic", "--id", "NOPE", "--p", "2"], "choose from"),
        (["constants", "--n", "1"], "ISOP requires an integer n in [2, inf)"),
    ):
        assert capture(argv)[0] == 2, argv
        assert field in capsys.readouterr().err, argv
    # files that cannot be read or written, and map entries that are not
    # finite numbers: one error line naming the path or the field
    monkeypatch.setattr(battery, "full_suite", _stub_suite)
    missing = tmp_path / "missing-dir" / "x.json"
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"g": []}')
    cases = [
        (["norms", "--input", str(tmp_path), "--p", "2"], f"cannot read {tmp_path}"),
        (["norms", "--input", str(binary), "--p", "2"], f"{binary} is not UTF-8 text (byte 0)"),
        (["hilbert", "--input", cos_map_file, "--output", str(missing)], f"cannot write {missing}"),
        (["suite", "--output", str(missing)], f"cannot write {missing}"),
    ]
    # coefficients near the float limit make every norm overflow
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"g": [[1e308, 0], [1e308, 0]], "h": [[0, 0]]}')
    cases.append((["norms", "--input", str(overflow), "--p", "2"], "is not finite"))
    for name, entry in (
        ("nan", "NaN"), ("inf", "Infinity"), ("true", "true"), ("huge", "1" + "0" * 400)
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(f'{{"g": [[0, 0]], "h": [[0, 0], [0.5, {entry}]]}}')
        cases.append((["norms", "--input", str(path), "--p", "2"], f"{path}: field 'h' entry 1"))
        cases.append((["hilbert", "--input", str(path)], f"{path}: field 'h' entry 1"))
    for argv, message in cases:
        code, out = capture(argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert message in err, (argv, err)
        assert "Traceback" not in err


def test_zero_circle_centers_exit_2_naming_the_value(capsys):
    code, out = capture(["subharmonic", "--id", "PSI", "--p", "3", "--samples", "0"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == "error: centers and radii must be >= 1, got centers=0\n"


def test_out_of_range_theorem_exponents_exit_2_naming_the_given_value(capsys):
    # the disk sides need the doubled exponent 80 > 64; the message names 40
    for argv in (
        ["verify-theorem", "--id", "PAIR_ISOPERIMETRIC", "--p", "40"],
        ["verify-theorem", "--id", "BERGMAN_EMBEDDING", "--n", "40"],
    ):
        assert capture(argv)[0] == 2, argv
        err = capsys.readouterr().err
        assert "40" in err and "80" not in err, argv


def test_infinite_nan_or_unequal_theorem_exponents_exit_2(capsys):
    # an infinite or NaN n is outside the integer range (no OverflowError
    # traceback), and STREBEL holds at p = 1 only
    for argv, message in (
        (["verify-theorem", "--id", "BERGMAN_EMBEDDING", "--p", "inf"],
         "BERGMAN_EMBEDDING requires an integer n in [2, 32], got inf"),
        (["verify-theorem", "--id", "BERGMAN_EMBEDDING", "--p", "nan"],
         "BERGMAN_EMBEDDING requires an integer n in [2, 32], got nan"),
        (["verify-theorem", "--id", "STREBEL", "--p", "nan"],
         "STREBEL requires p in [1.0, 1.0], got nan"),
        (["verify-theorem", "--id", "STREBEL", "--p", "2"],
         "STREBEL requires p in [1.0, 1.0], got 2.0"),
    ):
        assert capture(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", argv


def test_malformed_map_file_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g": [[0,0]], "h": "oops"}')
    code, _ = capture(["norms", "--input", str(bad), "--p", "2"])
    assert code == 2
    bad.write_text("not json at all")
    code, _ = capture(["norms", "--input", str(bad), "--p", "2"])
    assert code == 2


def test_injected_violation_yields_exit_1(monkeypatch):
    # stub a slack function to report a violation: the exit-code contract
    info = _REGISTRY[InequalityId.CSC_GAP]
    broken = info.__class__(**{**info.__dict__, "slack": lambda p, x: x * 0.0 - 1.0})
    monkeypatch.setitem(_REGISTRY, InequalityId.CSC_GAP, broken)
    code, out = capture(["verify-lemma", "--id", "CSC_GAP", "--p", "2"])
    assert code == 1
    assert "FAIL" in out and "violation" in out


def test_report_determinism_modulo_elapsed():
    def normalized(argv):
        _, out = capture(argv)
        payload = json.loads(out)
        for entry in payload:
            entry.pop("elapsed_ms", None)
        return json.dumps(payload, sort_keys=True)

    argv = ["verify-theorem", "--id", "MIXED_BY_HARDY", "--p", "2", "--samples", "20",
            "--seed", "5", "--format", "json"]
    assert normalized(argv) == normalized(argv)


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "rieszlab.cli", "constants", "--p", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "2.414214" in result.stdout
