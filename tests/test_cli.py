"""Command-line behaviour: exit codes, output shape, determinism."""

from __future__ import annotations

import json
import time

import pytest

from blowuplab import serialize_algebra, so3
from blowuplab.cli import main
from conftest import gen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_so3(capsys):
    code, out, _ = run(
        capsys, "analyze", "--catalog", "so3", "--samples", "20", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "lifts_as_dirac_only"
    assert payload["verdict"]["constant_height"] == 1
    assert payload["verdict"]["classification"]["kind"] == "so3"


def test_analyze_sl2_reports_witnesses(capsys):
    code, out, _ = run(
        capsys, "analyze", "--catalog", "sl2", "--samples", "20", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "does_not_lift"
    assert sorted(payload["verdict"]["witness_heights"]) == [0, 1]


def test_analyze_heis3_spectrum(capsys):
    code, out, _ = run(
        capsys, "analyze", "--catalog", "heis3", "--samples", "60", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "does_not_lift"
    assert set(payload["spectrum"]["heights"]) == {"0", "1"}


def test_analyze_determinism_bytes(capsys):
    args = (
        "analyze",
        "--catalog",
        "heis3",
        "--format",
        "machine",
        "--seed",
        "1729",
        "--samples",
        "40",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_from_input_file(tmp_path, capsys):
    path = tmp_path / "so3.alg"
    path.write_text(serialize_algebra(so3()))
    code, out, _ = run(
        capsys, "analyze", "--input", str(path), "--samples", "15", "--format", "machine"
    )
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "lifts_as_dirac_only"


def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    text = serialize_algebra(so3())
    plain, marked = tmp_path / "plain.alg", tmp_path / "marked.alg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    options = ["--samples", "5", "--format", "machine"]
    want = run(capsys, "analyze", "--input", str(plain), *options)
    assert run(capsys, "analyze", "--input", str(marked), *options) == want
    assert want[0] == 0


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("schema_version: 1\ndimension: 3\nbracket: 1 2 3 0.5\n")
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 1
    assert "parse error" in err

    code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "missing.alg"))
    assert code == 1


def _assert_parse_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("parse error: ")
    assert "Traceback" not in err and not out


@pytest.mark.parametrize(
    "line", ["bracket: 1 2 1 1/0", "bracket: 1 2 1 -3/00"], ids=["1/0", "-3/00"]
)
def test_zero_denominator_in_document_is_a_parse_error(tmp_path, capsys, line):
    path = tmp_path / "zero.alg"
    path.write_text(f"schema_version: 1\ndimension: 2\n{line}\n")
    _assert_parse_error(capsys, "analyze", "--input", str(path))


def test_zero_denominator_in_bundle_scaling_is_a_parse_error(capsys):
    _assert_parse_error(capsys, "spinor", "--catalog", "scaled_so3_bundle", "--f", "1/0")


@pytest.mark.parametrize(
    "f",
    [
        "y1^3000000",
        "(y1^40)^40",
        # each factor is within the cap; the product of total degree 256 is not
        "(y1+y2+1)^64*(y1+y2+1)^64*(y1+y2+1)^64*(y1+y2+1)^64",
    ],
)
def test_bundle_scaling_power_cap_is_a_parse_error(capsys, f):
    start = time.perf_counter()
    _assert_parse_error(capsys, "spinor", "--catalog", "scaled_so3_bundle", "--f", f)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [["--f", "(" * 250 + "y1" + ")" * 250], ["--f=" + "-" * 1000 + "y1"]],
    ids=["250 parentheses", "1000 signs"],
)
def test_deep_nesting_in_bundle_scaling_is_a_parse_error(capsys, argv):
    start = time.perf_counter()
    _assert_parse_error(capsys, "spinor", "--catalog", "scaled_so3_bundle", *argv)
    assert time.perf_counter() - start < 1.0


def test_a_sign_inside_the_bundle_scaling_applies_to_the_power_after_it(capsys):
    # 1 + -y1^2 is 1 - y1^2, which vanishes at y1 = 1: chart 1 is falsified
    # there, however the sign is written
    charts = []
    for f in ("1 + -y1^2", "1 - y1^2", "-y1^2 + 1"):
        code, out, _ = run(
            capsys, "spinor", "--catalog", "scaled_so3_bundle", "--f", f,
            "--chart", "1", "--format", "machine",
        )
        assert code == 0
        charts.append(json.loads(out)["charts"])
    assert charts[0] == charts[1] == charts[2]
    cert = charts[0]["1"]["certificate"]
    assert (cert["order"], cert["status"]) == (1, "falsified")
    assert cert["witness_point"] == ["0", "0", "0", "1", "0"]


def test_non_ascii_digits_in_bundle_scaling_are_a_parse_error(capsys):
    # "y1^\u0662" writes the exponent in an Arabic-Indic digit
    _assert_parse_error(capsys, "spinor", "--catalog", "scaled_so3_bundle", "--f", "y1^\u0662")


def test_bundle_scaling_power_within_cap(capsys):
    code, out, _ = run(
        capsys, "spinor", "--catalog", "scaled_so3_bundle", "--f", "(y1+y2+1)^8",
        "--chart", "1", "--format", "machine",
    )
    assert code == 0
    assert json.loads(out)["charts"]["1"]["certificate"]["order"] == 1


@pytest.mark.parametrize(
    "body",
    [
        "dimension: " + "9" * 5000,
        "dimension: 2\nbracket: 1 2 1 " + "7" * 5000,
        "dimension: 2\nbracket: 1 2 1 1/" + "3" * 5000,
    ],
    ids=["dimension", "numerator", "denominator"],
)
def test_overlong_literal_is_a_parse_error(tmp_path, capsys, body):
    # longer than the 4,300 digits that int() accepts from a string
    path = tmp_path / "long.alg"
    path.write_text(f"schema_version: 1\n{body}\n")
    _assert_parse_error(capsys, "analyze", "--input", str(path))


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.alg"
    path.write_bytes("schema_version: 1\nname: café\ndimension: 1\n".encode("latin-1"))
    _assert_parse_error(capsys, "analyze", "--input", str(path))


@pytest.mark.parametrize(
    "body",
    [
        "dimension: \u0663",
        "dimension: 3\nbracket: 1 2 3 \uff11",
        "dimension: 3\nbracket: 1 2 \u0663 1",
    ],
    ids=["Arabic-Indic dimension", "fullwidth value", "Arabic-Indic index"],
)
def test_non_ascii_digits_in_a_document_are_a_parse_error(tmp_path, capsys, body):
    path = tmp_path / "digits.alg"
    path.write_text(f"schema_version: 1\n{body}\n", encoding="utf-8")
    _assert_parse_error(capsys, "analyze", "--input", str(path))


def test_overlong_catalog_parameter_is_a_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--catalog", "abelian" + "9" * 5000)
    assert code == 64
    assert "has dimension > 12" in err


@pytest.mark.parametrize("dim", [13, 9999])
def test_document_over_the_dimension_budget_is_a_usage_error(tmp_path, capsys, dim):
    path = tmp_path / "big.alg"
    path.write_text(f"schema_version: 1\ndimension: {dim}\nbracket: 1 2 3 1\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 64
    assert f"dimension {dim}" in err and "limit of 12" in err


def test_jacobi_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text(
        "schema_version: 1\ndimension: 3\n"
        "bracket: 1 2 3 1\nbracket: 2 3 2 1\nbracket: 1 3 2 -1\n"
    )
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "(1, 2, 3)" in err


@pytest.mark.parametrize("command", ["analyze", "spinor", "crosscheck"])
def test_samples_above_the_budget_exit_64_at_once(capsys, command):
    # the covectors are drawn whole, so an unbounded count would exhaust memory
    samples = "9" * 25
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--catalog", "so3", "--samples", samples)
    assert time.perf_counter() - start < 1.0
    assert code == 64 and not out
    assert err == f"usage error: --samples {samples} exceeds the limit of 10000\n"


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "crosscheck", "--catalog", "so3", "--samples", "0")[0] == 64
    assert run(capsys, "analyze", "--catalog", "nosuch")[0] == 64
    # a family parameter in Arabic-Indic or fullwidth digits is an unknown name
    assert run(capsys, "analyze", "--catalog", "abelian\u0663")[0] == 64
    assert run(capsys, "analyze", "--catalog", "diagonal_affine\uff12")[0] == 64
    assert run(capsys, "analyze")[0] == 64
    assert run(capsys, "spinor", "--catalog", "so3", "--f", "y1")[0] == 64
    assert run(capsys, "spinor", "--catalog", "so3", "--chart", "9")[0] == 64
    assert run(capsys, "analyze", "--catalog", "scaled_so3_bundle")[0] == 64
    assert run(capsys, "catalog", "--filter", "weird")[0] == 64


@pytest.mark.parametrize("command", ["analyze", "spinor", "crosscheck"])
def test_empty_catalog_name_is_a_usage_error(capsys, command):
    # an empty name is a name, not a missing one: it must not fall through
    # to reading --input
    code, out, err = run(capsys, command, "--catalog", "")
    assert (code, out) == (64, "")
    assert "unknown catalog name ''" in err


def test_empty_catalog_filter_is_a_usage_error(capsys):
    code, out, err = run(capsys, "catalog", "--filter", "")
    assert (code, out) == (64, "")
    assert "--filter expects key=value" in err


def test_option_prefixes_are_not_expanded(capsys):
    # "--f" is the bundle's scaling option, not a prefix of "--format"
    code, _, err = run(capsys, "analyze", "--catalog", "so3", "--f", "1")
    assert code == 64
    assert "--f" in err and "--format" not in err
    assert run(capsys, "spinor", "--catalog", "so3", "--fo", "machine")[0] == 64


def test_bad_chart_is_refused_before_the_spinor_is_built(capsys, monkeypatch):
    import blowuplab.cli as cli_mod

    def no_spinor(pi):
        raise AssertionError("the spinor was built for a chart that does not exist")

    monkeypatch.setattr(cli_mod, "spinor", no_spinor)
    code, out, err = run(capsys, "spinor", "--catalog", "so3", "--chart", "4")
    assert code == 64
    assert out == ""
    assert err == "usage error: --chart must be one of (1, 2, 3)\n"


def test_spinor_so3_chart_output(capsys):
    code, out, _ = run(
        capsys, "spinor", "--catalog", "so3", "--chart", "1", "--samples", "30"
    )
    assert code == 0
    assert "order: 1, certified" in out
    assert "x~1^2*x~2*dx~2" in out
    assert "1 + x~2^2 + x~3^2" in out


def test_spinor_abelian_chart2(capsys):
    code, out, _ = run(
        capsys, "spinor", "--catalog", "abelian3", "--chart", "2", "--samples", "30"
    )
    assert code == 0
    assert "order: 2, certified" in out


def test_spinor_bundle_falsified(capsys):
    code, out, _ = run(
        capsys,
        "spinor",
        "--catalog",
        "scaled_so3_bundle",
        "--f",
        "y1",
        "--chart",
        "1",
        "--format",
        "machine",
    )
    assert code == 0
    payload = json.loads(out)
    cert = payload["charts"]["1"]["certificate"]
    assert cert["status"] == "falsified"
    assert cert["order"] == 1
    assert "witness_point" in cert


def test_crosscheck_so3(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--catalog", "so3", "--samples", "30"
    )
    assert code == 0
    assert "0 mismatches" in out or "pointwise-consistent" in out


def test_crosscheck_heis3_nonconstant(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--catalog", "heis3", "--samples", "40"
    )
    assert code == 0
    assert "pointwise-consistent" in out
    assert "globally non-constant" in out


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("so3", "sl2", "heis3", "abelian1", "diagonal_affine5", "scaled_so3_bundle"):
        assert name in out


def test_catalog_filter_dim3(capsys):
    code, out, _ = run(capsys, "catalog", "--filter", "dim=3")
    assert code == 0
    assert "so3" in out and "sl2" in out and "heis3" in out
    assert "abelian3" in out and "diagonal_affine2" in out
    assert "abelian4" not in out and "scaled_so3_bundle" not in out


def test_catalog_machine_stable(capsys):
    code1, out1, _ = run(capsys, "catalog", "--format", "machine")
    code2, out2, _ = run(capsys, "catalog", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert any(e["name"] == "so3" and e["expected_height"] == 1 for e in payload["entries"])


def test_internal_disagreement_exits_3(capsys, monkeypatch):
    import blowuplab.cli as cli_mod

    # a fabricated mismatch in a crosscheck report must surface as exit 3
    real = cli_mod.orbit_rank_crosscheck

    def broken(L, samples=100, seed=0):
        report = real(L, samples, seed)
        return type(report)(
            report.samples, report.records, report.records[:1], report.heights
        )

    monkeypatch.setattr(cli_mod, "orbit_rank_crosscheck", broken)
    code, _, err = run(capsys, "crosscheck", "--catalog", "so3", "--samples", "5")
    assert code == 3
    assert "internal disagreement" in err


def test_failing_orbit_record_carries_its_reasons_in_both_formats(capsys, monkeypatch):
    import blowuplab.blowup_geometry as geometry

    # the first sample's distribution rank is off by two, so that record
    # fails the rank identities and the others pass
    real = geometry._distribution_rank
    calls = []

    def skewed(L, x):
        rank = real(L, x)
        calls.append(x)
        return rank + 2 if len(calls) == 1 else rank

    monkeypatch.setattr(geometry, "_distribution_rank", skewed)
    argv = ("crosscheck", "--catalog", "so3", "--samples", "5")
    code, out, err = run(capsys, *argv, "--format", "machine")
    assert code == 3
    assert "internal disagreement" in err
    records = json.loads(out)["orbit_ranks"]["records"]
    failing = [r for r in records if not r["ok"]]
    assert len(failing) == 1
    assert all("failures" not in r for r in records if r["ok"])
    reasons = failing[0]["failures"]
    assert reasons and all("distribution rank" in reason for reason in reasons)

    calls.clear()
    code, out, _ = run(capsys, *argv)
    assert code == 3
    mismatches = [line for line in out.splitlines() if "MISMATCH" in line]
    assert len(mismatches) == 1
    assert mismatches[0].endswith(f"[MISMATCH: {'; '.join(reasons)}]")


# height-drop cone xi1^2 + xi2^2 = 3 xi3^2 has real points but no rational ones
ANISOTROPIC_SL2 = gen.to_document(gen.anisotropic_sl2())


def test_witness_search_cap_exits_3(tmp_path, capsys, monkeypatch):
    import blowuplab.classify as classify_mod

    # with the slice phase off, only the sampled fallback is left, which
    # finds no rational drop point and must end in the loud diagnostic
    monkeypatch.setattr(classify_mod, "_slice_witness", lambda L, top, seed: None)
    monkeypatch.setattr(classify_mod, "WITNESS_CAP", 60)
    path = tmp_path / "aniso.alg"
    path.write_text(ANISOTROPIC_SL2)
    code, _, err = run(capsys, "analyze", "--input", str(path), "--samples", "5")
    assert code == 3
    assert "witness" in err


def test_anisotropic_sl2_gets_a_real_root_witness(tmp_path, capsys):
    path = tmp_path / "aniso.alg"
    path.write_text(ANISOTROPIC_SL2)
    code, out, _ = run(
        capsys, "analyze", "--input", str(path), "--samples", "5", "--format", "machine"
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["kind"] == "does_not_lift"
    assert verdict["witness_heights"] == [0, 1]
    low, high = verdict["witnesses"]
    assert low["kind"] == "real_root"
    assert set(low) == {"kind", "line", "polynomial", "interval"}
    assert [len(v) for v in low["line"]] == [3, 3] and len(low["interval"]) == 2
    assert "t" in low["polynomial"] and len(high) == 3
    code, out, _ = run(capsys, "analyze", "--input", str(path), "--samples", "5")
    assert code == 0
    assert "at the root of" in out and "has height 0" in out


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("BLOWUPLAB_SEED", "7")
    code, out, _ = run(
        capsys, "analyze", "--catalog", "so3", "--samples", "10", "--format", "machine"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7
    # explicit --seed wins over the environment
    code, out, _ = run(
        capsys,
        "analyze",
        "--catalog",
        "so3",
        "--samples",
        "10",
        "--seed",
        "99",
        "--format",
        "machine",
    )
    assert json.loads(out)["seed"] == 99
    monkeypatch.setenv("BLOWUPLAB_SEED", "notanint")
    assert run(capsys, "analyze", "--catalog", "so3")[0] == 64


@pytest.mark.parametrize(
    ("command", "option", "value"),
    [
        ("analyze", "--samples", "1_0"),
        ("analyze", "--samples", "١_٠"),
        ("analyze", "--seed", "٧"),
        ("spinor", "--chart", "٢"),
    ],
)
def test_command_line_integers_are_ascii_digits(capsys, command, option, value):
    """An optional "-" and the digits 0-9, as in documents and --f: int()
    would also read underscores and every Unicode decimal digit."""
    expected = f"usage error: argument {option}: invalid integer value: {value!r}\n"
    assert run(capsys, command, "--catalog", "so3", option, value) == (64, "", expected)


def test_the_catalog_filter_dimension_is_ascii_digits(capsys):
    expected = "usage error: --filter dim= expects an integer\n"
    assert run(capsys, "catalog", "--filter", "dim=٣") == (64, "", expected)


def test_the_seed_variable_is_ascii_digits(capsys, monkeypatch):
    monkeypatch.setenv("BLOWUPLAB_SEED", "1_0")
    code, out, err = run(capsys, "analyze", "--catalog", "so3", "--samples", "5")
    assert (code, out) == (64, "")
    assert err == "usage error: BLOWUPLAB_SEED must be an integer, got '1_0'\n"


def test_jacobi_defects_of_a_rational_document_are_the_stated_rationals(capsys, tmp_path):
    """The Jacobi check runs on the integer table D c, and only a failing
    triple's defect is divided by D^2: the defects printed are those of the
    constants as written."""
    path = tmp_path / "broken.alg"
    path.write_text(
        "schema_version: 1\nname: broken\ndimension: 4\n"
        "bracket: 1 2 3 1/2\nbracket: 2 3 2 2/3\nbracket: 1 3 2 -3/4\n"
        "bracket: 1 4 4 5/6\nbracket: 2 4 1 -7/9\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "invalid algebra: Jacobi identity fails on triples: "
        "(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)\n"
        "  triple (1, 2, 3): defect ('0', '0', '-1/3', '0')\n"
        "  triple (1, 2, 4): defect ('-35/54', '0', '0', '0')\n"
        "  triple (1, 3, 4): defect ('7/12', '0', '0', '0')\n"
        "  triple (2, 3, 4): defect ('-14/27', '-7/12', '0', '0')\n"
    )
