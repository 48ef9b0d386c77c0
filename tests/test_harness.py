import concurrent.futures
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestloc.cli as cli
import nestloc.harness as harness
from nestloc.errors import ConfigError, NonGenericSpecError, ZeroWeightError
from nestloc.integrals import sample_specs
from nestloc.toric import SURFACES, bundle_by_label
from nestloc.harness import (
    DEFAULT_SCENARIO,
    Scenario,
    default_battery_scenarios,
    emit_report,
    parse_config,
    report_json,
    run_scenario,
    stable_copy,
    validate_scenario,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "nestloc", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or os.path.dirname(__file__),
    )


# -- scenario validation ----------------------------------------------------


def test_validate_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        validate_scenario(Scenario(kind="nope"))


def test_validate_rejects_non_monotone_sizes():
    with pytest.raises(ConfigError):
        validate_scenario(Scenario(kind="vanish", sizes=(1, 2)))


def test_validate_rejects_bad_i():
    with pytest.raises(ConfigError):
        validate_scenario(Scenario(kind="vanish", sizes=(1, 1), i_values=(0,)))
    with pytest.raises(ConfigError):
        validate_scenario(Scenario(kind="vanish", sizes=(1, 1), i_values=(5,)))


def test_validate_rejects_bad_spec_text():
    with pytest.raises(ConfigError):
        validate_scenario(Scenario(kind="euler-count", sizes=(1,), specs=("x",)))


# -- config files -------------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "scenarios": [
                    {"kind": "euler-count", "surface": "p2", "n": [2]},
                    {"kind": "vanish", "surface": "p2", "n": [2, 1], "i": [1], "seed": 5},
                ]
            }
        )
    )
    scenarios = parse_config(str(path))
    assert len(scenarios) == 2
    assert scenarios[0].kind == "euler-count"
    assert scenarios[1].seed == 5


def test_parse_config_empty_list(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenarios": []}))
    with pytest.raises(ConfigError, match="no scenarios"):
        parse_config(str(path))


def test_parse_config_non_monotone(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenarios": [{"kind": "vanish", "n": [1, 2]}]}))
    with pytest.raises(ConfigError, match="#1"):
        parse_config(str(path))


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="line"):
        parse_config(str(path))


# -- reports ------------------------------------------------------------------


def test_report_json_round_trip():
    report = run_scenario(Scenario(kind="euler-count", sizes=(1,)))
    parsed = json.loads(report_json(report))
    assert parsed == json.loads(report_json(parsed))
    assert parsed["scenario"] == "euler-count"
    assert parsed["verdict"] == "pass"
    assert parsed["seed"] == DEFAULT_SCENARIO.seed
    assert parsed["version"]


# quotes, backslashes, control, non-ASCII and astral characters; ints wider
# than 64 bits of either sign
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    st.text(max_size=12),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "\u00e9\u2028", "\U0001f600\U00010000"]),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(json_trees)
def test_report_json_matches_indented_json_dumps(tree):
    assert report_json(tree) == json.dumps(tree, indent=2) + "\n"


report_keys = st.one_of(st.sampled_from(["elapsed_ms", "verdict", "s"]), st.text(max_size=6))
report_cases = st.lists(st.dictionaries(report_keys, json_trees, max_size=4), max_size=4)
# a report's top-level items around its cases, which may be empty or a tuple
report_trees = st.builds(
    lambda head, cases, tail: {**head, "cases": cases, **tail},
    st.dictionaries(report_keys, json_trees, max_size=3),
    st.one_of(report_cases, report_cases.map(tuple)),
    st.dictionaries(report_keys.filter(lambda key: key != "cases"), json_trees, max_size=3),
)


class _Pieces(list):
    """A stream that keeps each write as one item."""

    write = list.append


@settings(max_examples=150, deadline=None)
@given(report_trees, st.booleans())
def test_emit_report_pieces_join_to_indented_json_dumps(tree, stable):
    pieces = _Pieces()
    emit_report(tree, "json", stable, out=pieces)
    text = "".join(pieces)
    assert text == json.dumps(stable_copy(tree) if stable else tree, indent=2) + "\n"
    assert text == report_json(tree, stable=stable)
    # written as it renders: with two cases, no one write holds the report
    if len(tree["cases"]) > 1:
        assert max(map(len, pieces)) < len(text)


#: values a case compares: ints and Fractions, where 2 and Fraction(4, 2) are equal
case_values = st.one_of(
    st.sampled_from([0, 2, -2, Fraction(4, 2), Fraction(1, 2), Fraction(-2, 4)]),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
value_triples = st.lists(case_values, min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(value_triples, value_triples, st.booleans(), st.booleans())
def test_sampled_case_compares_texts_as_the_values_compare(values, expected, virtual, char_ok):
    specs = sample_specs(3, 3)
    if len(set(values)) > 1:
        want = "SpecDependence: values differ"
    elif virtual and len(set(expected)) > 1:
        want = "SpecDependence: virtual values differ"
    elif not char_ok or values != expected:
        want = "mismatch"
    else:
        want = ""
    case = harness._sampled_case({}, specs, values, expected, "mismatch", virtual=virtual,
                                 character_ok=char_ok)
    assert case.get("diagnostic", "") == want
    assert case["verdict"] == ("fail" if want else "pass")
    assert [sample["value"] for sample in case["samples"]] == [str(v) for v in values]
    # every sample shares its spec's one text tuple
    assert all(sample["s"] is spec.to_text() for sample, spec in zip(case["samples"], specs))


@pytest.mark.parametrize(
    "bad", [1.5, {"x": [0.0]}, {1: "a"}, {None: "a"}, {("a",): 1}, [set()]],
    ids=["float", "nested-float", "int-key", "none-key", "tuple-key", "set"],
)
def test_report_json_refuses_what_a_report_never_holds(bad):
    with pytest.raises(TypeError):
        report_json(bad)


def test_report_json_renders_a_failed_hrr_report_like_json_dumps(monkeypatch):
    """A MathError in `hrr-check` puts the group, whose `degrees` is a
    tuple, into the case's `inputs`."""

    def boom(surface, bundle, spec):
        raise NonGenericSpecError("synthetic")

    monkeypatch.setattr(harness, "hrr_chi", boom)
    report = run_scenario(Scenario(kind="hrr-check", surface="p1xp1"))
    assert report["verdict"] == "fail"
    assert {type(case["inputs"]["degrees"]) for case in report["cases"]} == {tuple}
    for stable in (False, True):
        expected = json.dumps(stable_copy(report) if stable else report, indent=2) + "\n"
        assert report_json(report, stable=stable) == expected


def test_rationals_serialized_as_strings():
    assert harness._fr(Fraction(22, 7)) == "22/7"
    assert harness._fr(3) == "3"
    assert harness._fr(Fraction(-4, 2)) == "-2"
    for bad in (0.5, 1.0, True, "3"):
        with pytest.raises(TypeError):
            harness._fr(bad)
    report = run_scenario(Scenario(kind="euler-count", sizes=(2,)))
    for case in report["cases"]:
        for sample in case["samples"]:
            assert isinstance(sample["value"], str)
    text = report_json(report)
    assert "22/7" not in text  # integral values are integers here
    assert '"9"' in text


def test_text_report_contains_verdict_table():
    report = run_scenario(Scenario(kind="euler-count", sizes=(1,)))
    out = io.StringIO()
    emit_report(report, fmt="text", out=out)
    rendered = out.getvalue()
    assert "[pass]" in rendered
    assert "verdict: pass" in rendered


def test_emit_report_unknown_format():
    report = run_scenario(Scenario(kind="euler-count", sizes=(1,)))
    out = io.StringIO()
    with pytest.raises(ConfigError):
        emit_report(report, fmt="yaml", out=out)
    assert out.getvalue() == ""


def test_run_scenario_deterministic_given_seed():
    s = Scenario(kind="pushforward", sizes=(1, 1), seed=99)
    a = stable_copy(run_scenario(s))
    b = stable_copy(run_scenario(s))
    assert report_json(a) == report_json(b)


def test_parallel_matches_serial():
    s = Scenario(kind="vanish", sizes=(2, 1), i_values=(1, 2))
    serial = stable_copy(run_scenario(s, jobs=1))
    parallel = stable_copy(run_scenario(s, jobs=4))
    assert report_json(serial) == report_json(parallel)


@pytest.mark.parametrize(
    "s",
    [Scenario(kind="pushforward", sizes=(2, 1)), Scenario(kind="kstep", sizes=(1, 1, 1))],
    ids=["pushforward", "kstep"],
)
def test_parallel_matches_serial_with_virtual_side(s):
    serial = stable_copy(run_scenario(s, jobs=1))
    parallel = stable_copy(run_scenario(s, jobs=4))
    assert report_json(serial) == report_json(parallel)


def test_math_error_becomes_failed_case(monkeypatch):
    def boom(scenario, **group):
        raise ZeroWeightError("chain [[1],[]]: synthetic")

    entry = harness.SCENARIO_KINDS["euler-count"]
    row = harness.ScenarioKind(entry.groups, boom, entry.sizes, entry.reads, entry.chains)
    monkeypatch.setitem(harness.SCENARIO_KINDS, "euler-count", row)
    report = run_scenario(Scenario(kind="euler-count", sizes=(1,)))
    assert report["verdict"] == "fail"
    assert report["cases"][0]["verdict"] == "fail"
    assert report["cases"][0]["diagnostic"].startswith("ZeroWeight")


def wrong_sum(value):
    """A stand-in for a localization sum: `value(spec)` for every insertion."""

    def stub(surface, sizes, insertions, spec, co_factors=()):
        return [value(spec)] * len(insertions)

    return stub


def wrong_chi(value):
    def stub(surface, bundle, spec):
        return value(spec)

    return stub


WRONG_VALUES = {
    "constant": lambda spec: Fraction(7),
    "spec-dependent": lambda spec: Fraction(spec.s1),
}

#: (kind, sizes, patched function, wrong values, diagnostic of every case)
DIAGNOSTIC_ROWS = [
    ("vanish", (1, 1), "integrate_ambient_batch", "constant", "nonzero integral"),
    (
        "vanish", (1, 1), "integrate_ambient_batch", "spec-dependent",
        "SpecDependence: values differ",
    ),
    ("twisted-vanish", (1, 1), "integrate_ambient_batch", "constant", "nonzero integral"),
    (
        "twisted-vanish", (1, 1), "integrate_ambient_batch", "spec-dependent",
        "SpecDependence: values differ",
    ),
    ("pushforward", (1, 1), "integrate_ambient_batch", "constant", "ambient != virtual"),
    (
        "pushforward", (1, 1), "integrate_ambient_batch", "spec-dependent",
        "SpecDependence: values differ",
    ),
    ("pushforward", (1, 1), "integrate_virtual_batch", "constant", "ambient != virtual"),
    (
        "pushforward", (1, 1), "integrate_virtual_batch", "spec-dependent",
        "SpecDependence: virtual values differ",
    ),
    ("kstep", (1, 1, 1), "integrate_ambient_batch", "constant", "ambient != virtual"),
    (
        "kstep", (1, 1, 1), "integrate_ambient_batch", "spec-dependent",
        "SpecDependence: values differ",
    ),
    ("kstep", (1, 1, 1), "integrate_virtual_batch", "constant", "ambient != virtual"),
    (
        "kstep", (1, 1, 1), "integrate_virtual_batch", "spec-dependent",
        "SpecDependence: virtual values differ",
    ),
    (
        "euler-count", (1,), "integrate_ambient_batch", "constant",
        "integral disagrees with fixed-point count",
    ),
    (
        "euler-count", (1,), "integrate_ambient_batch", "spec-dependent",
        "SpecDependence: values differ",
    ),
    ("hrr-check", (), "hrr_chi", "constant", "hrr/localization mismatch"),
    ("hrr-check", (), "hrr_chi", "spec-dependent", "SpecDependence: values differ"),
]


@pytest.mark.parametrize(
    "kind,sizes,patched,wrong,diagnostic",
    DIAGNOSTIC_ROWS,
    ids=[f"{row[0]}-{row[2]}-{row[3]}" for row in DIAGNOSTIC_ROWS],
)
def test_sampled_case_verdicts_and_diagnostics(
    monkeypatch, kind, sizes, patched, wrong, diagnostic
):
    """Every case of a sampled kind fails with one named diagnostic when its
    sum returns wrong values, constant or depending on the spec.  Values that
    depend on the spec are named so even when they also miss the expected
    values, and a virtual sum that depends on the spec is named as such, not
    as a mismatch."""
    stub = (wrong_chi if patched == "hrr_chi" else wrong_sum)(WRONG_VALUES[wrong])
    monkeypatch.setattr(harness, patched, stub)
    report = run_scenario(Scenario(kind=kind, sizes=sizes))
    assert report["verdict"] == "fail"
    assert {case["verdict"] for case in report["cases"]} == {"fail"}
    assert {case.get("diagnostic") for case in report["cases"]} == {diagnostic}
    if kind == "hrr-check":
        assert {case["character_check"] for case in report["cases"]} == {"pass"}


def test_default_battery_is_valid():
    for scenario in default_battery_scenarios():
        validate_scenario(scenario)


def test_internal_error_exit_three(monkeypatch):
    import nestloc.cli as cli

    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: 1 / 0)
    assert cli.main(["euler-count", "--n", "1"]) == 3


def test_unwritable_out_path_exit_two():
    import nestloc.cli as cli

    assert cli.main(["euler-count", "--n", "1", "--out", "/nonexistent/dir/r.json"]) == 2


# -- CLI end to end -----------------------------------------------------------


def test_cli_euler_count_exit_zero():
    result = run_cli("euler-count", "--surface", "p2", "--n", "2")
    assert result.returncode == 0
    assert "verdict: pass" in result.stdout


def test_cli_invalid_sizes_exit_two():
    result = run_cli("vanish", "--n", "1,2")
    assert result.returncode == 2
    assert "configuration error" in result.stderr


def test_cli_unknown_surface_exit_two():
    result = run_cli("vanish", "--n", "2,1", "--surface", "p5")
    assert result.returncode == 2


def test_cli_vanish_json_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "vanish", "--surface", "p2", "--n", "2,1", "--i", "1", "--samples", "3",
        "--seed", "42", "--format", "json", "--out", str(out),
    )
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["seed"] == 42
    assert all(case["verdict"] == "pass" for case in report["cases"])
    for case in report["cases"]:
        assert all(sample["value"] == "0" for sample in case["samples"])


def test_cli_pushforward_lists_both_sides(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "pushforward", "--surface", "p2", "--n", "1,1", "--format", "json",
        "--out", str(out),
    )
    assert result.returncode == 0
    report = json.loads(out.read_text())
    sample = report["cases"][0]["samples"][0]
    assert "value" in sample and "virtual" in sample


def test_cli_lone_zero_spec_is_run_and_fails():
    # proportional specs are refused, but a lone 0,0 has nothing to repeat:
    # it runs, and every tangent weight pairs to zero
    result = run_cli("euler-count", "--surface", "p2", "--n", "1", "--spec", "0,0")
    assert result.returncode == 1
    assert "NonGenericSpec" in result.stdout


def test_cli_zero_spec_beside_another_is_run_and_fails(capsys):
    # the zero spec has no direction, so it is proportional to no other
    # spec: beside 2,3 it runs and fails as it does alone
    assert cli.main(["euler-count", "--n", "1", "--spec", "0,0", "--spec", "2,3"]) == 1
    assert "NonGenericSpec" in capsys.readouterr().out


def test_cli_non_generic_explicit_spec_exit_one():
    # s = (1, 1) kills the tangent weight (1, -1) on p2, so the failure
    # surfaces with its diagnostic
    result = run_cli("euler-count", "--surface", "p2", "--n", "1", "--spec", "1,1")
    assert result.returncode == 1
    assert "NonGenericSpec" in result.stdout


@pytest.mark.parametrize("kind", ["vanish", "twisted-vanish"])
def test_cli_non_generic_spec_refused_where_every_co_class_factor_vanishes(kind, capsys):
    # c_4 of a co-class of rank 3 vanishes at every fixed point, so no point
    # reaches the sum; the Euler classes are still looked up, and (1, 1)
    # kills the tangent weight (1, -1)
    argv = [kind, "--surface", "p2", "--n", "2,1", "--i", "1", "--spec", "1,1", "--format", "json"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["cases"]
    for case in report["cases"]:
        assert case["verdict"] == "fail"
        assert case["diagnostic"].startswith("NonGenericSpec: exponent (1, -1) pairs to zero")


def test_cli_stable_reports_byte_identical(tmp_path):
    args = ("vanish", "--surface", "p2", "--n", "2,1", "--i", "1,2",
            "--format", "json", "--stable")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(*args, "--jobs", "1", "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--jobs", "4", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_battery(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps(
            {
                "scenarios": [
                    {"kind": "euler-count", "surface": "p2", "n": [1]},
                    {"kind": "hrr-check", "surface": "p2"},
                ]
            }
        )
    )
    out = tmp_path / "r.json"
    result = run_cli("all", "--config", str(config), "--format", "text", "--out", str(out))
    assert result.returncode == 0
    assert "all pass" in result.stdout


def test_cli_bundles_override_restricts_twist_battery(tmp_path):
    out = tmp_path / "r.json"
    result = run_cli(
        "twisted-vanish", "--surface", "p2", "--n", "1,1", "--i", "1",
        "--bundles", "O(2)", "--format", "json", "--out", str(out),
    )
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert {case["inputs"]["twist"] for case in report["cases"]} == {"O(2)"}


def _json_reports(text):
    decoder, reports, pos = json.JSONDecoder(), [], 0
    while pos < len(text):
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)
        pos += 1  # the newline after each report
    return reports


def test_cli_explicit_flags_override_config_even_at_defaults(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scenarios": [
        {"kind": "euler-count", "n": [1], "seed": 5, "samples": 2, "truncation": 4},
    ]}))
    assert cli.main(["all", "--config", str(config), "--format", "json"]) == 0
    (kept,) = _json_reports(capsys.readouterr().out)
    assert (kept["seed"], kept["params"]["samples"], kept["params"]["truncation"]) == (5, 2, 4)
    defaults = [
        "--seed", str(DEFAULT_SCENARIO.seed),
        "--samples", str(DEFAULT_SCENARIO.samples),
        "--truncation", str(DEFAULT_SCENARIO.truncation),
    ]
    assert cli.main(["all", "--config", str(config), "--format", "json", *defaults]) == 0
    (report,) = _json_reports(capsys.readouterr().out)
    assert report["seed"] == DEFAULT_SCENARIO.seed
    assert report["params"]["samples"] == DEFAULT_SCENARIO.samples
    assert report["params"]["truncation"] == DEFAULT_SCENARIO.truncation


def test_cli_all_battery_honours_samples_and_truncation(capsys):
    argv = ["all", "--samples", "4", "--truncation", "6", "--seed", "7", "--format", "json"]
    assert cli.main(argv) == 0
    reports = _json_reports(capsys.readouterr().out)
    assert len(reports) == len(default_battery_scenarios())
    for report in reports:
        assert report["seed"] == 7
        assert report["params"]["samples"] == 4
        assert report["params"]["truncation"] == 6


def test_cli_rational_spec_is_scaled_to_integers(capsys):
    # 1013/7, 2027/5 clears to (5065, 14189), still generic; the integral
    # is top-degree, so it equals the value at the sampled specs
    def samples(*flags):
        assert cli.main(["euler-count", "--n", "2", "--format", "json", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        return report["params"], report["cases"][0]["samples"]

    params, scaled = samples("--spec", "1013/7,2027/5")
    assert params["specs"] == ["1013/7,2027/5"]
    assert [sample["s"] for sample in scaled] == [["5065", "14189"]]
    _, sampled = samples()
    assert len(sampled) == DEFAULT_SCENARIO.samples
    assert {sample["value"] for sample in scaled + sampled} == {"9"}


def test_bundles_rejected_where_kind_takes_no_twist(capsys):
    assert cli.main(["vanish", "--n", "1,1", "--bundles", "O(1)"]) == 2
    assert "--bundles" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        validate_scenario(Scenario(kind="pushforward", sizes=(1, 1), bundles=("O(1)",)))


def test_sizes_rejected_where_kind_takes_none(capsys):
    assert cli.main(["hrr-check", "--n", "3,2"]) == 2
    assert "--n" in capsys.readouterr().err


# (command, config entry written to <config>, the flag or key the error names)
_UNREAD_OR_UNKNOWN = [
    ("all --spec 1,1", None, "--spec"),
    ("all --n 3,2", None, "--n"),
    ("serre-duality --spec 1,1 --insertions file:/nonexistent.json", None, "--spec"),
    ("symbolic-tp --surface p1xp1", None, "--surface"),
    ("pushforward --n 1,1 --i 2", None, "--i"),
    ("euler-count --n 1 --insertions file:/nonexistent.json", None, "--insertions"),
    ("hrr-check --insertions file:x", None, "--insertions"),
    ("all --config <config>", {"kind": "euler-count", "n": [1], "seeds": 5}, "'seeds'"),
    ("all --config <config>", {"kind": "euler-count", "surface": "p3", "n": [1]},
     "unknown surface 'p3'"),
    ("all --config <config>", {"kind": "twisted-vanish", "n": "11"}, "'n'"),
    # JSON numbers other than integers are refused, not truncated
    (
        "all --config <config>",
        {"kind": "euler-count", "n": [2.9], "samples": 1.5},
        "'n': expected an integer",
    ),
    ("all --config <config>", {"kind": "euler-count", "n": [2], "samples": 1.5}, "'samples'"),
    ("all --config <config>", {"kind": "euler-count", "n": [2], "seed": True}, "'seed'"),
    ("all --config <config>", {"kind": "symbolic-tp", "truncation": 8.0}, "'truncation'"),
    ("all --config <config>", {"kind": "vanish", "n": [1, 1], "i": [1.0]}, "'i'"),
    # explicit specs replace sampling, even with --samples at its default;
    # an empty twist list is not the battery
    ("euler-count --n 1 --spec 2,3 --samples 5", None, "samples (--samples)"),
    ("euler-count --n 1 --spec 2,3 --samples 3", None, "samples (--samples)"),
    ("hrr-check --spec 2,3 --samples 5", None, "samples (--samples)"),
    (
        "all --config <config>",
        {"kind": "euler-count", "n": [1], "specs": ["2,3"], "samples": 2},
        "samples (--samples)",
    ),
    ("twisted-vanish --n 1,1 --bundles=", None, "--bundles"),
    ("all --config <config>", {"kind": "twisted-vanish", "n": [1, 1], "bundles": []}, "'bundles'"),
    # a repeated case is refused: i values and twists compare as parsed,
    # specs up to scale, since every integral is homogeneous of degree 0
    ("vanish --n 1,1 --i 1,1", None, "i (--i): 1 and 1"),
    ("twisted-vanish --n 2,1 --i 1,2,1", None, "i (--i): 1 and 1"),
    ("twisted-vanish --n 1,1 --bundles O(1),O(1)", None, "bundles (--bundles): 'O(1)' and 'O(1)'"),
    (
        "all --config <config>",
        {
            "kind": "twisted-vanish",
            "surface": "p1xp1",
            "n": [1, 1],
            "bundles": ["O(1,0)", " O(1, 0)"],
        },
        "bundles (--bundles): 'O(1,0)' and ' O(1, 0)'",
    ),
    ("euler-count --n 2 --spec 2,3 --spec 2,3", None, "specs (--spec): '2,3' and '2,3'"),
    ("euler-count --n 2 --spec 2,3 --spec=-2,-3", None, "specs (--spec): '2,3' and '-2,-3'"),
    ("euler-count --n 2 --spec 0,0 --spec 0/5,0", None, "specs (--spec): '0,0' and '0/5,0'"),
    ("hrr-check --spec 1/2,1/3 --spec 5,7 --spec 3,2", None, "specs (--spec): '1/2,1/3' and '3,2'"),
]


@pytest.mark.parametrize(
    "command,entry,named",
    _UNREAD_OR_UNKNOWN,
    ids=[f"{command} [{named}]" for command, _, named in _UNREAD_OR_UNKNOWN],
)
def test_unread_or_unknown_input_exit_two(tmp_path, capsys, command, entry, named):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scenarios": [entry]}))
    argv = [str(config) if arg == "<config>" else arg for arg in command.split()]
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["euler-count", "--n", "2"], ["all"]], ids=["euler-count", "all"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    argv = [*argv, "--format", fmt, "--stable"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "r.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


def test_cli_all_out_file_holds_the_bytes_a_real_stdout_gets(tmp_path):
    # reports are written to the stream as each scenario finishes; the file
    # and a pipe get the same bytes, and --out prints only the summary
    args = ("all", "--format", "json", "--stable")
    printed = run_cli(*args)
    assert printed.returncode == 0
    out = tmp_path / "all.json"
    summary = run_cli(*args, "--out", str(out))
    assert summary.returncode == 0
    assert out.read_bytes() == printed.stdout.encode()
    count = len(default_battery_scenarios())
    assert summary.stdout == f"wrote {count} report(s) to {out}; all pass\n"


def test_cli_config_missing_file_exit_two():
    result = run_cli("all", "--config", "/nonexistent/config.json")
    assert result.returncode == 2


def test_cli_config_not_utf8_exit_two(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b"\xff{}")
    assert cli.main(["all", "--config", str(config)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_cli_version():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout == f"nestloc {cli.__version__}\n"


#: (argv, the scenarios it runs); "{config}" names a config file holding
#: CLI_CONFIG
CLI_SCENARIOS = [
    (["vanish", "--n", "2,1"], [Scenario("vanish", sizes=(2, 1))]),
    (
        ["vanish", "--surface", "p1xp1", "--n", "2,1", "--i", "1..2", "--spec", "2,3",
         "--spec", "5,7"],
        [Scenario("vanish", "p1xp1", (2, 1), (1, 2), specs=("2,3", "5,7"))],
    ),
    (
        ["twisted-vanish", "--n", "1,1", "--i", "1,2", "--bundles", "O(1),O(2)"],
        [Scenario("twisted-vanish", sizes=(1, 1), i_values=(1, 2), bundles=("O(1)", "O(2)"))],
    ),
    (
        ["pushforward", "--surface", "p1xp1", "--n", "3,2", "--samples", "2", "--seed", "7",
         "--insertions", "file:x.json"],
        [Scenario("pushforward", "p1xp1", (3, 2), samples=2, seed=7, insertions="file:x.json")],
    ),
    (["kstep", "--n", "2,1,1", "--truncation", "4"],
     [Scenario("kstep", sizes=(2, 1, 1), truncation=4)]),
    (["symbolic-tp", "--truncation", "12"], [Scenario("symbolic-tp", truncation=12)]),
    (["euler-count", "--n", "8", "--spec", "1/2,3"],
     [Scenario("euler-count", sizes=(8,), specs=("1/2,3",))]),
    (["hrr-check", "--surface", "p1xp1"], [Scenario("hrr-check", "p1xp1")]),
    (["serre-duality"], [Scenario("serre-duality")]),
    # the kind need not come first
    (["--n", "2,1", "pushforward"], [Scenario("pushforward", sizes=(2, 1))]),
    (
        ["all", "--config", "{config}", "--samples", "4"],
        [Scenario("euler-count", sizes=(1,), samples=4),
         Scenario("pushforward", "p1xp1", (2, 1), samples=4, seed=7)],
    ),
    (["all", "--config", "{config}"],
     [Scenario("euler-count", sizes=(1,)), Scenario("pushforward", "p1xp1", (2, 1), seed=7)]),
]
CLI_CONFIG = {"scenarios": [
    {"kind": "euler-count", "n": [1]},
    {"kind": "pushforward", "surface": "p1xp1", "n": [2, 1], "seed": 7},
]}


@pytest.mark.parametrize(
    "argv,expected", CLI_SCENARIOS, ids=[" ".join(argv) for argv, _ in CLI_SCENARIOS]
)
def test_cli_argv_maps_to_scenarios(tmp_path, monkeypatch, argv, expected):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(CLI_CONFIG))
    # validation reads the insertions file one row names, x.json
    monkeypatch.chdir(tmp_path)
    monomial = [{"factor": 1, "bundle": "O(1,0)", "degree": 3},
                {"factor": 2, "bundle": "O(0,1)", "degree": 2}]
    (tmp_path / "x.json").write_text(json.dumps([monomial]))
    args = cli.build_parser().parse_args([a.replace("{config}", str(config)) for a in argv])
    assert cli._scenarios(args) == expected


@pytest.mark.parametrize("flags", [[], ["--seed", "5", "--truncation", "6"]])
def test_cli_all_runs_the_default_battery_with_its_flags(flags):
    # `all` without --config: the default battery, with only the flags given changed
    args = cli.build_parser().parse_args(["all", *flags])
    got = cli._scenarios(args)
    battery = default_battery_scenarios()
    assert [s.kind for s in got] == [s.kind for s in battery]
    changed = {"seed": 5, "truncation": 6} if flags else {}
    assert got == [s.replace(**changed) for s in battery]


@pytest.mark.parametrize("kind", list(harness.SCENARIO_KINDS))
def test_cli_config_on_a_kind_other_than_all_exit_two(kind, capsys):
    assert cli.main([kind, "--n", "1,1", "--config", "x.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--config" in captured.err


def test_cli_unknown_kind_exit_two(capsys):
    assert cli.main(["vanishh", "--n", "2,1"]) == 2
    assert "invalid choice: 'vanishh'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["pushforward", "--help"]])
def test_cli_help_exit_zero(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: nestloc ")
    assert "--config" in out and "pushforward" in out


def test_cli_bundles_split_only_at_top_level_commas(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main([
        "twisted-vanish", "--surface", "p1xp1", "--n", "1,1",
        "--bundles", "O(1,0),O(0,1)", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["params"]["bundles"] == ["O(1,0)", "O(0,1)"]
    assert {case["inputs"]["twist"] for case in report["cases"]} == {"O(1,0)", "O(0,1)"}


def test_twist_echoes_the_canonical_bundle_label(capsys):
    # a spaced --bundles label runs and echoes as the insertion labels spell
    # it; only params.bundles keeps the text given
    def report(bundles, fmt):
        argv = ["twisted-vanish", "--surface", "p1xp1", "--n", "1,1", "--bundles", bundles]
        assert cli.main([*argv, "--format", fmt, "--stable"]) == 0
        return capsys.readouterr().out

    spaced = json.loads(report("O(1, 0)", "json"))
    assert spaced["params"]["bundles"] == ["O(1, 0)"]
    assert {case["inputs"]["twist"] for case in spaced["cases"]} == {"O(1,0)"}
    assert spaced["cases"] == json.loads(report("O(1,0)", "json"))["cases"]
    assert "twist=O(1,0), insertion=c1(O(1,0)@1)" in report("O(1, 0)", "text")


def test_scenarios_read_the_parsed_trivial_bundle_and_battery(monkeypatch):
    # the surface holds both parsed; pushforward, kstep and serre-duality
    # parse no label
    for surface in SURFACES.values():
        assert surface.trivial == bundle_by_label(surface, "O")
        assert surface.battery_bundles == tuple(
            bundle_by_label(surface, label) for label in surface.battery
        )

    def refuse(surface, label):
        raise AssertionError(f"parsed {label!r} again")

    for name, module in list(sys.modules.items()):
        if name.startswith("nestloc") and hasattr(module, "bundle_by_label"):
            monkeypatch.setattr(module, "bundle_by_label", refuse)
    for kind, sizes in (("pushforward", (2, 1)), ("kstep", (1, 1, 1)), ("serre-duality", ())):
        for surface in SURFACES:
            assert run_scenario(Scenario(kind, surface, sizes))["verdict"] == "pass"


def test_cli_bad_bundle_label_exit_two(capsys):
    assert cli.main(["twisted-vanish", "--n", "1,1", "--bundles", "Q"]) == 2
    assert "malformed bundle label" in capsys.readouterr().err


def test_insertions_file_bad_bundle_exit_two(tmp_path, capsys):
    bad = tmp_path / "insertions.json"
    bad.write_text(json.dumps([[{"factor": 1, "bundle": "O(7,7)", "degree": 2}]]))
    code = cli.main(["pushforward", "--surface", "p2", "--n", "1,1", "--insertions", f"file:{bad}"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_insertions_file_spellings_of_one_bundle_get_one_label(tmp_path):
    # a factor holds the parsed bundle, so its label is the canonical one
    # whatever spacing the file used
    path = tmp_path / "insertions.json"
    monomials = [
        [{"factor": 1, "bundle": spelling, "degree": 3},
         {"factor": 2, "bundle": "O(0,1)", "degree": 1}]
        for spelling in ("O(1, 0)", "O(1,0)")
    ]
    path.write_text(json.dumps(monomials))
    scenario = Scenario("pushforward", "p1xp1", (2, 2), insertions=f"file:{path}")
    labels = [case["inputs"]["insertion"] for case in run_scenario(scenario)["cases"]]
    assert labels == ["c3(O(1,0)@1)*c1(O(0,1)@2)"] * 2


@pytest.mark.parametrize("factor,degree", [(1.9, 2), (True, 2), (1, 2.0)])
def test_insertions_file_non_integer_exit_two(tmp_path, capsys, factor, degree):
    bad = tmp_path / "insertions.json"
    bad.write_text(json.dumps([[{"factor": factor, "bundle": "O(1)", "degree": degree}]]))
    code = cli.main(["pushforward", "--n", "1,1", "--insertions", f"file:{bad}"])
    assert code == 2
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("factor,degree", [(1, -1), (0, 1), (3, 1)],
                         ids=["degree-1", "factor0", "factor3"])
def test_insertions_file_out_of_range_exit_two(tmp_path, capsys, factor, degree):
    # total degree 2 matches pushforward --n 1,1; the second factor is out of range
    bad = tmp_path / "insertions.json"
    monomial = [
        {"factor": 1, "bundle": "O(1)", "degree": 2 - degree},
        {"factor": factor, "bundle": "O(1)", "degree": degree},
    ]
    bad.write_text(json.dumps([monomial]))
    code = cli.main(["pushforward", "--n", "1,1", "--insertions", f"file:{bad}"])
    assert code == 2
    assert "factors count from 1 and degrees from 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,needed,jobs",
    [("pushforward", 2, "1"), ("twisted-vanish", 1, "1"), ("twisted-vanish", 1, "2")],
    ids=["pushforward-jobs1", "twisted-vanish-jobs1", "twisted-vanish-jobs2"],
)
def test_insertions_file_wrong_degree_exit_two(tmp_path, capsys, kind, needed, jobs):
    # --n 1,1: pushforward integrates degree 2, twisted-vanish --i 1 degree 1
    # in each of its two groups, which --jobs 2 runs in a pool; monomial 2
    # is one degree too high, and no case of the file runs
    bad = tmp_path / "insertions.json"
    fits = [{"factor": 1, "bundle": "O(1)", "degree": needed}]
    bad.write_text(json.dumps([fits, fits + [{"factor": 2, "bundle": "O(1)", "degree": 1}]]))
    argv = [kind, "--n", "1,1", "--insertions", f"file:{bad}", "--jobs", jobs]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"monomial 2 has degree {needed + 1}, and this integrand needs degree {needed}" in (
        captured.err
    )


@pytest.mark.parametrize("kind", ["vanish", "twisted-vanish"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_insertions_file_with_several_i_values_exit_two(tmp_path, capsys, kind, jobs):
    # each i needs degree n1 + n2 - i, so one file fits one i: --i 1,2 is
    # refused before any sum, and --i 1 runs the same file
    path = tmp_path / "insertions.json"
    path.write_text(json.dumps([[{"factor": 1, "bundle": "O(1)", "degree": 2}]]))
    argv = [kind, "--n", "2,1", "--insertions", f"file:{path}", "--jobs", jobs]
    assert cli.main([*argv, "--i", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        "an insertions file (--insertions) fixes one degree n1+n2-i, so it takes one i (--i); "
        "got i = 1, 2"
    ) in captured.err
    assert cli.main([*argv, "--i", "1"]) == 0
    capsys.readouterr()


#: a bad insertions file for `pushforward --n 1,1`: missing, not JSON, not
#: UTF-8, or holding a monomial of degree 3 where degree 2 is needed
_BAD_INSERTIONS = {
    "missing": (None, "cannot read insertions file"),
    "malformed": ("[[{", "malformed insertions file"),
    "not-utf8": (b"\xff[[", "malformed insertions file"),
    "wrong-degree": (
        [[{"factor": 1, "bundle": "O(1)", "degree": 3}]],
        "monomial 1 has degree 3, and this integrand needs degree 2",
    ),
}


def _bad_insertions(tmp_path, case):
    content, message = _BAD_INSERTIONS[case]
    path = tmp_path / "insertions.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path, message


@pytest.mark.parametrize("case", list(_BAD_INSERTIONS))
def test_bad_insertions_file_in_a_config_refused_before_any_report(tmp_path, capsys, case):
    # every scenario of a config is validated, its file read, before the
    # first one runs
    path, message = _bad_insertions(tmp_path, case)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scenarios": [
        {"kind": "euler-count", "n": [2]},
        {"kind": "pushforward", "n": [1, 1], "insertions": f"file:{path}"},
    ]}))
    assert cli.main(["all", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario #2: " in captured.err and message in captured.err


@pytest.mark.parametrize("case", list(_BAD_INSERTIONS))
def test_bad_insertions_file_leaves_the_out_file_untouched(tmp_path, capsys, case):
    path, message = _bad_insertions(tmp_path, case)
    out = tmp_path / "r.json"
    out.write_bytes(b"an earlier report\n")
    argv = ["pushforward", "--n", "1,1", "--insertions", f"file:{path}", "--out", str(out)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier report\n"


def test_serial_run_reads_the_insertions_file_once(tmp_path, capsys, monkeypatch):
    # validated in the CLI, then again (a no-op) in run_scenario; each of the
    # two twist groups reads the parsed monomials
    path = tmp_path / "insertions.json"
    path.write_text(json.dumps([[{"factor": 1, "bundle": "O(1)", "degree": 1}]]))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(harness, "open", counting_open, raising=False)
    argv = ["twisted-vanish", "--n", "1,1", "--bundles", "O(1),O(2)",
            "--insertions", f"file:{path}", "--format", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [case["inputs"]["twist"] for case in report["cases"]] == ["O(1)", "O(2)"]
    assert opened == [str(path)]


def test_samples_beside_specs_where_read(tmp_path, capsys):
    # `all --samples` overrides every scenario of a config, so beside a
    # scenario with specs it is refused as `--samples` beside `--spec` is
    config = tmp_path / "c.json"
    entry = {"kind": "euler-count", "n": [1], "specs": ["2,3"]}
    config.write_text(json.dumps({"scenarios": [{"kind": "hrr-check"}, entry]}))
    assert cli.main(["all", "--config", str(config), "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario #2: samples (--samples) is refused beside explicit specs" in captured.err
    assert cli.main(["all", "--config", str(config), "--format", "json"]) == 0
    assert [r["params"].get("specs") for r in _json_reports(capsys.readouterr().out)] == [
        None, ["2,3"]
    ]
    config.write_text(json.dumps({"scenarios": [{"kind": "hrr-check"}]}))
    assert cli.main(["all", "--config", str(config), "--samples", "2", "--format", "json"]) == 0
    (report,) = _json_reports(capsys.readouterr().out)
    assert report["params"]["samples"] == 2


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_capped_at_group_count(monkeypatch):
    monkeypatch.setattr(_RecordingExecutor, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    s = Scenario(kind="vanish", sizes=(2, 1), i_values=(1, 2))
    report = run_scenario(s, jobs=64)
    assert _RecordingExecutor.created == [2]
    assert report_json(stable_copy(report)) == report_json(stable_copy(run_scenario(s)))


def test_cli_import_loads_no_process_pool():
    # the pool and its modules are imported only when a pool starts
    code = "import sys, nestloc.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    modules = result.stdout.split()
    assert "nestloc.harness" in modules
    assert [m for m in modules if m.startswith(("concurrent", "multiprocessing"))] == []


def test_cli_import_loads_no_dataclasses_chain():
    # records are plain __slots__ classes: importing `dataclasses` would load
    # inspect, ast, dis and tokenize and exec source for every record class
    code = (
        "import sys; before = set(sys.modules); import nestloc.cli; "
        "print(*set(sys.modules) - before)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "nestloc.harness" in added
    assert sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added)) == []


def test_jobs_below_one_exit_two(capsys):
    with pytest.raises(ConfigError):
        run_scenario(Scenario(kind="euler-count", sizes=(1,)), jobs=0)
    assert cli.main(["euler-count", "--n", "1", "--jobs", "0"]) == 2
