import concurrent.futures
import io
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestloc.cli as cli
import nestloc.harness as harness
from nestloc.errors import ConfigError, DegreeMismatchError, NonGenericSpecError, ZeroWeightError
from nestloc.integrals import (
    ChernFactor,
    CoFactor,
    Insertion,
    WeightSpec,
    integrate_ambient_batch,
    integrate_virtual_batch,
    sample_specs,
)
from nestloc.toric import SURFACES, bundle_by_label
from nestloc.harness import (
    BATTERY,
    DEFAULT_SCENARIO,
    Scenario,
    emit_report,
    parse_config,
    run_scenario,
    scenario_from_entry,
    stable_copy,
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
        scenario_from_entry({"kind": "nope"})


def test_validate_rejects_non_monotone_sizes():
    with pytest.raises(ConfigError):
        scenario_from_entry({"kind": "vanish", "n": [1, 2]})


def test_validate_rejects_bad_i():
    with pytest.raises(ConfigError):
        scenario_from_entry({"kind": "vanish", "n": [1, 1], "i": [0]})
    with pytest.raises(ConfigError):
        scenario_from_entry({"kind": "vanish", "n": [1, 1], "i": [5]})


def test_validate_rejects_bad_spec_text():
    with pytest.raises(ConfigError):
        scenario_from_entry({"kind": "euler-count", "n": [1], "specs": ["x"]})


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


def report_json(report, stable=False):
    """The JSON text `emit_report` writes for `report`."""
    out = io.StringIO()
    emit_report(report, "json", stable, out=out)
    return out.getvalue()


def test_report_json_round_trip():
    report = run_scenario(scenario_from_entry({"kind": "euler-count", "n": [1]}))
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
case_lists = st.lists(st.dictionaries(report_keys, json_trees, max_size=4), max_size=4)


def sharing(cases, shared):
    """`cases`, each holding the one tuple `shared` at two depths: as its
    own item, and in each of its samples, as a spec's text tuple is held."""
    return [{**case, "s": shared, "samples": [{"s": shared}, {"s": shared, "value": "0"}]}
            for case in cases]


# cases of their own, or cases that share a tuple of strings, whose text is
# kept by (tuple, indent) and so read back at each indent it renders at
report_cases = st.one_of(
    case_lists,
    st.builds(sharing, case_lists, st.lists(st.text(max_size=6), max_size=3).map(tuple)),
)
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
    """Three rows of expected values: drawn; the very objects of `values`,
    as a virtual sum returns the ambient totals; and equal but distinct
    objects.  The last two give one case."""
    specs = sample_specs(3, 3)
    copies = [Fraction(v) for v in values]
    assert not any(copy is value for copy, value in zip(copies, values))
    cases = []
    for row in (expected, list(values), copies):
        if len(set(values)) > 1:
            want = "SpecDependence: values differ"
        elif virtual and len(set(row)) > 1:
            want = "SpecDependence: virtual values differ"
        elif not char_ok or values != row:
            want = "mismatch"
        else:
            want = ""
        case = harness._sampled_case({}, specs, values, row, "mismatch", virtual=virtual,
                                     character_ok=char_ok)
        assert case.get("diagnostic", "") == want
        assert case["verdict"] == ("fail" if want else "pass")
        assert [sample["value"] for sample in case["samples"]] == [str(v) for v in values]
        if virtual:
            assert [sample["virtual"] for sample in case["samples"]] == [str(e) for e in row]
        # every sample shares its spec's one text tuple
        assert all(sample["s"] is spec.to_text() for sample, spec in zip(case["samples"], specs))
        cases.append(case)
    assert cases[1] == cases[2]


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
    report = run_scenario(scenario_from_entry({"kind": "hrr-check", "surface": "p1xp1"}))
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
    report = run_scenario(scenario_from_entry({"kind": "euler-count", "n": [2]}))
    for case in report["cases"]:
        for sample in case["samples"]:
            assert isinstance(sample["value"], str)
    text = report_json(report)
    assert "22/7" not in text  # integral values are integers here
    assert '"9"' in text


def test_text_report_contains_verdict_table():
    report = run_scenario(scenario_from_entry({"kind": "euler-count", "n": [1]}))
    out = io.StringIO()
    emit_report(report, fmt="text", out=out)
    rendered = out.getvalue()
    assert "[pass]" in rendered
    assert "verdict: pass" in rendered


def test_emit_report_unknown_format():
    report = run_scenario(scenario_from_entry({"kind": "euler-count", "n": [1]}))
    out = io.StringIO()
    with pytest.raises(ConfigError):
        emit_report(report, fmt="yaml", out=out)
    assert out.getvalue() == ""


def test_run_scenario_deterministic_given_seed():
    s = scenario_from_entry({"kind": "pushforward", "n": [1, 1], "seed": 99})
    a = stable_copy(run_scenario(s))
    b = stable_copy(run_scenario(s))
    assert report_json(a) == report_json(b)


def test_parallel_matches_serial():
    s = scenario_from_entry({"kind": "vanish", "n": [2, 1], "i": [1, 2]})
    serial = stable_copy(run_scenario(s, jobs=1))
    parallel = stable_copy(run_scenario(s, jobs=4))
    assert report_json(serial) == report_json(parallel)


@pytest.mark.parametrize(
    "s",
    [{"kind": "pushforward", "n": [2, 1]}, {"kind": "kstep", "n": [1, 1, 1]}],
    ids=["pushforward", "kstep"],
)
def test_parallel_matches_serial_with_virtual_side(s):
    s = scenario_from_entry(s)
    serial = stable_copy(run_scenario(s, jobs=1))
    parallel = stable_copy(run_scenario(s, jobs=4))
    assert report_json(serial) == report_json(parallel)


def test_math_error_becomes_failed_case(monkeypatch):
    def boom(scenario, **group):
        raise ZeroWeightError("chain [[1],[]]: synthetic")

    entry = harness.SCENARIO_KINDS["euler-count"]
    row = harness.ScenarioKind(entry.groups, boom, entry.sizes, entry.reads)
    monkeypatch.setitem(harness.SCENARIO_KINDS, "euler-count", row)
    report = run_scenario(scenario_from_entry({"kind": "euler-count", "n": [1]}))
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
    entry = {"kind": kind, "n": list(sizes)} if sizes else {"kind": kind}
    report = run_scenario(scenario_from_entry(entry))
    assert report["verdict"] == "fail"
    assert {case["verdict"] for case in report["cases"]} == {"fail"}
    assert {case.get("diagnostic") for case in report["cases"]} == {diagnostic}
    if kind == "hrr-check":
        assert {case["character_check"] for case in report["cases"]} == {"pass"}


def test_default_battery_is_valid():
    for entry in BATTERY:
        scenario_from_entry(entry)


def test_internal_error_exit_three(monkeypatch):
    import nestloc.cli as cli

    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: 1 / 0)
    assert cli.main(["euler-count", "--n", "1"]) == 3


def test_unwritable_out_path_exit_two(capsys):
    import nestloc.cli as cli

    assert cli.main(["euler-count", "--n", "1", "--out", "/nonexistent/dir/r.json"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ("euler-count", "--n", "1"),
    ("twisted-vanish", "--n", "3,3", "--i", "1..3", "--format", "text"),
    ("euler-count", "--n", "1", "--out", os.devnull),
], ids=["small-report", "large-report", "out-summary-line"])
def test_report_that_cannot_be_written_exit_two_as_a_write_error(args, unbuffered):
    # the inputs are accepted, then the first write fails: the read end of
    # the pipe the report goes to is closed before the run starts.  A
    # small report fits in stdout's block buffer, a large one overflows it
    # while it renders; neither may fail again at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nestloc", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write the report: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_file_that_fills_up_exit_two_as_a_write_error():
    result = run_cli("euler-count", "--n", "1", "--out", "/dev/full")
    assert result.returncode == 2
    assert result.stderr == "error: cannot write the report: [Errno 28] No space left on device\n"


def test_os_error_while_running_is_an_internal_error(monkeypatch, capsys):
    # only a failed write is reported as one; an OSError before it, such
    # as a pool that cannot start its workers, is not
    def fail(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(cli, "run_scenario", fail)
    assert cli.main(["euler-count", "--n", "1"]) == 3
    assert capsys.readouterr().err.startswith("internal error: OSError: ")


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


def test_cli_non_generic_spec_diagnostic_names_the_spec_as_s(capsys):
    # the spec reads s=1,1, as a differing point's diagnostic names it
    argv = ["pushforward", "--surface", "p2", "--n", "2,1", "--spec", "1,1", "--format", "json"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert [case["diagnostic"] for case in report["cases"]] == [
        "NonGenericSpec: exponent (1, -1) pairs to zero at s=1,1"
    ]


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
    assert len(reports) == len(BATTERY)
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
        scenario_from_entry({"kind": "pushforward", "n": [1, 1], "bundles": ["O(1)"]})


def test_sizes_rejected_where_kind_takes_none(capsys):
    assert cli.main(["hrr-check", "--n", "3,2"]) == 2
    assert "--n" in capsys.readouterr().err


#: c2(O(1)@1)*c1(O@2), for the degree 3 of `pushforward --n 2,1`
_MONOMIAL = [{"factor": 1, "bundle": "O(1)", "degree": 2},
             {"factor": 2, "bundle": "O", "degree": 1}]

# (command, what <config> holds: a config entry, or a list of monomials for
# an insertions file, the flag or key the error names)
_UNREAD_OR_UNKNOWN = [
    ("all --spec 1,1", None, "--spec"),
    ("all --n 3,2", None, "--n"),
    ("serre-duality --spec 1,1 --insertions file:/nonexistent.json", None, "--spec"),
    ("symbolic-tp --surface p1xp1", None, "--surface"),
    ("pushforward --n 1,1 --i 2", None, "--i"),
    # an unread input is refused when given, even at its default value
    ("symbolic-tp --surface p2", None, "--surface"),
    ("pushforward --n 1,1 --i 1", None, "--i"),
    ("euler-count --n 1 --insertions auto", None, "--insertions"),
    ("all --config <config>", {"kind": "symbolic-tp", "surface": "p2"},
     "symbolic-tp does not read surface (--surface)"),
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
        "'n' (--n): expected an integer",
    ),
    ("all --config <config>", {"kind": "euler-count", "n": [2], "samples": 1.5}, "'samples'"),
    ("all --config <config>", {"kind": "euler-count", "n": [2], "seed": True}, "'seed'"),
    ("all --config <config>", {"kind": "symbolic-tp", "truncation": 8.0}, "'truncation'"),
    ("all --config <config>", {"kind": "vanish", "n": [1, 1], "i": [1.0]}, "'i'"),
    # a converter's refusal names the key and its flag
    ("vanish --n 2,1 --i 3..1", None, "'i' (--i): expected a nonempty list"),
    # explicit specs replace sampling, even with --samples at its default;
    # an empty twist list is not the battery
    ("euler-count --n 1 --spec 2,3 --samples 5", None, "samples (--samples)"),
    ("euler-count --n 1 --spec 2,3 --samples 3", None, "samples (--samples)"),
    ("hrr-check --spec 2,3 --samples 5", None, "samples (--samples)"),
    # refused before the insertions file is read, so a missing one is not named
    (
        "pushforward --n 2,1 --spec 3,5 --samples 2 --insertions file:/nonexistent.json",
        None,
        "samples (--samples) is refused beside explicit specs (--spec)",
    ),
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
    # monomials compare as multisets of factors, so a reordered one repeats
    (
        "pushforward --n 2,1 --insertions file:<config>",
        [_MONOMIAL, _MONOMIAL[::-1], _MONOMIAL],
        "monomials (--insertions): 1 and 2 multiply the same factors",
    ),
    # c_0 = 1, so a monomial padded with a c_0 factor repeats the bare one
    (
        "pushforward --n 1,1 --insertions file:<config>",
        [_MONOMIAL[:1], [*_MONOMIAL[:1], {"factor": 2, "bundle": "O", "degree": 0}]],
        "monomials (--insertions): 1 and 2 multiply the same factors",
    ),
]


@pytest.mark.parametrize(
    "command,entry,named",
    _UNREAD_OR_UNKNOWN,
    ids=[f"{command} [{named}]" for command, _, named in _UNREAD_OR_UNKNOWN],
)
def test_unread_or_unknown_input_exit_two(tmp_path, capsys, command, entry, named):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(entry if isinstance(entry, list) else {"scenarios": [entry]}))
    argv = [arg.replace("<config>", str(config)) for arg in command.split()]
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
    count = len(BATTERY)
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
    battery = [scenario_from_entry(entry) for entry in BATTERY]
    assert [s.kind for s in got] == [s.kind for s in battery]
    changed = {"seed": 5, "truncation": 6} if flags else {}
    for s, plain in zip(got, battery):
        assert {f: getattr(s, f) for f in Scenario._compare} == {
            f: changed.get(f, getattr(plain, f)) for f in Scenario._compare
        }


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

    scenarios = [
        scenario_from_entry({"kind": kind, "surface": surface, **sizes})
        for kind, sizes in (("pushforward", {"n": [2, 1]}), ("kstep", {"n": [1, 1, 1]}),
                            ("serre-duality", {}))
        for surface in SURFACES
    ]
    for name, module in list(sys.modules.items()):
        if name.startswith("nestloc") and hasattr(module, "bundle_by_label"):
            monkeypatch.setattr(module, "bundle_by_label", refuse)
    for scenario in scenarios:
        assert run_scenario(scenario)["verdict"] == "pass"


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
    # whatever spacing the file used; one file holding both spellings would
    # repeat a monomial, so each spelling has its own file
    labels = []
    for spelling in ("O(1, 0)", "O(1,0)"):
        path = tmp_path / "insertions.json"
        path.write_text(json.dumps([[{"factor": 1, "bundle": spelling, "degree": 3},
                                     {"factor": 2, "bundle": "O(0,1)", "degree": 1}]]))
        scenario = scenario_from_entry(
            {"kind": "pushforward", "surface": "p1xp1", "n": [2, 2], "insertions": f"file:{path}"}
        )
        labels += [case["inputs"]["insertion"] for case in run_scenario(scenario)["cases"]]
    assert labels == ["c3(O(1,0)@1)*c1(O(0,1)@2)"] * 2


#: degree-3 monomials of `pushforward --n 2,1`, each listing a factor-2
#: class before a factor-1 one; one pads factor 1 with c_0(O) = 1
_FACTOR_2_FIRST = [
    [{"factor": 2, "bundle": "O(1)", "degree": 1}, {"factor": 1, "bundle": "O(1)", "degree": 2}],
    [{"factor": 2, "bundle": "O(1)", "degree": 1}, {"factor": 1, "bundle": "O(2)", "degree": 1},
     {"factor": 1, "bundle": "O(1)", "degree": 1}],
    [{"factor": 2, "bundle": "O(2)", "degree": 1}, {"factor": 1, "bundle": "O(1)", "degree": 1},
     {"factor": 2, "bundle": "O(1)", "degree": 1}],
    [{"factor": 2, "bundle": "O(2)", "degree": 2}, {"factor": 1, "bundle": "O", "degree": 0},
     {"factor": 1, "bundle": "O(1)", "degree": 1}],
]


def test_insertions_file_listing_factor_2_first_gives_the_values_of_the_sorted_listing(
    tmp_path, capsys
):
    """A product does not depend on the order of its factors: a file that
    lists factor 2 before factor 1 gives, case by case, the values of the
    same monomials listed factor 1 first."""
    values = {}
    for name, monomials in (
        ("listed", _FACTOR_2_FIRST),
        ("sorted", [sorted(m, key=lambda f: f["factor"]) for m in _FACTOR_2_FIRST]),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(monomials))
        argv = ["pushforward", "--n", "2,1", "--insertions", f"file:{path}", "--stable",
                "--format", "json"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        values[name] = [[(s["value"], s["virtual"]) for s in case["samples"]]
                        for case in report["cases"]]
    assert values["listed"] == values["sorted"]
    assert [samples[0][0] for samples in values["listed"]] == ["3", "9", "6", "0"]


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


@pytest.mark.parametrize(
    "monomial",
    [
        [{"factor": 1, "bundle": "O(1)", "degree": 1}, {"factor": 3, "bundle": "O", "degree": 1}],
        [{"factor": 1, "bundle": "O(1)", "degree": 3}, {"factor": 2, "bundle": "O", "degree": -1}],
        [{"factor": 1, "bundle": "O(1)", "degree": 3}],
    ],
    ids=["factor3", "degree-1", "degree3"],
)
def test_kernel_and_file_refuse_a_monomial_in_one_text(tmp_path, capsys, monomial):
    # the file is checked by the kernel's rule, so both sums of
    # `pushforward --n 1,1` refuse the monomial as the file does
    path = tmp_path / "insertions.json"
    path.write_text(json.dumps([monomial]))
    assert cli.main(["pushforward", "--n", "1,1", "--insertions", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    surface = SURFACES["p2"]
    insertion = Insertion(tuple(
        ChernFactor(f["factor"] - 1, bundle_by_label(surface, f["bundle"]), f["degree"])
        for f in monomial
    ))
    spec, co = WeightSpec(3, 5), [CoFactor(0, 2, surface.trivial)]
    with pytest.raises(DegreeMismatchError) as ambient:
        integrate_ambient_batch(surface, (1, 1), [insertion], spec, co)
    with pytest.raises(DegreeMismatchError) as virtual:
        integrate_virtual_batch(surface, (1, 1), [insertion], spec)
    assert str(ambient.value) == str(virtual.value)
    assert f"malformed insertions file {str(path)!r}: {ambient.value}\n" in err


#: a bad insertions file for `pushforward --n 1,1`: missing, not JSON, not
#: UTF-8, or holding a monomial of degree 3 where degree 2 is needed
_BAD_INSERTIONS = {
    "missing": (None, "cannot read insertions file"),
    "malformed": ("[[{", "is not valid JSON: line 1"),
    "not-utf8": (b"\xff[[", "is not UTF-8 text"),
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
    # read once, by scenario_from_entry; each of the two twist groups reads
    # the parsed monomials
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


def test_validated_scenario_pickles_whole(tmp_path, monkeypatch):
    # a `--jobs` worker gets the scenario as scenario_from_entry made it:
    # the copy reads no file, and its surface is the table's own, which
    # keys every cache
    path = tmp_path / "insertions.json"
    path.write_text(json.dumps([[{"factor": 1, "bundle": "O(1)", "degree": 1}]]))
    s = scenario_from_entry({"kind": "twisted-vanish", "n": [1, 1], "insertions": f"file:{path}"})

    def refuse(path, what):
        raise AssertionError(f"{what} {path!r} read again")

    monkeypatch.setattr(harness, "_read_json", refuse)
    # pickled by its fields alone: the hash covers strings, whose hash
    # differs per process, so the copy computes its own
    assert s.__reduce__() == (Scenario, tuple(getattr(s, name) for name in Scenario._fields))
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s)
    assert copy.file_insertions == s.file_insertions
    assert copy.twists == s.twists and copy.weight_specs == s.weight_specs
    assert copy.toric is SURFACES["p2"]
    assert report_json(stable_copy(run_scenario(copy))) == report_json(
        stable_copy(run_scenario(s))
    )


@pytest.mark.parametrize("s", [
    Scenario("symbolic-tp", surface="p1xp1"),
    Scenario("euler-count", sizes=(1,), specs=("2,3",), samples=5),
    Scenario("pushforward", sizes=(1, 1), bundles=("O(1)",)),
    Scenario("euler-count", sizes=(1,)),
], ids=["unread-surface", "samples-beside-specs", "unread-bundles", "valid-inputs"])
def test_run_scenario_refuses_a_scenario_the_door_did_not_make(monkeypatch, s):
    # inputs scenario_from_entry refuses, and inputs it accepts, are both
    # refused before any group runs when the scenario was built by hand
    monkeypatch.setattr(harness, "_run_group", lambda *a: pytest.fail("a group ran"))
    with pytest.raises(ConfigError, match="not made by scenario_from_entry"):
        run_scenario(s)


def test_scenario_compares_and_shows_its_ten_inputs_only():
    s = scenario_from_entry({"kind": "euler-count", "n": [1]})
    by_hand = Scenario("euler-count", sizes=(1,))
    assert s == by_hand and hash(s) == hash(by_hand)
    assert s.toric is SURFACES["p2"] and by_hand.toric is None
    assert repr(s) == (
        "Scenario(kind='euler-count', surface='p2', sizes=(1,), i_values=(1,), bundles=(), "
        "samples=3, seed=1729, truncation=8, insertions='auto', specs=())"
    )


def test_insertions_file_as_out_file_same_bytes_serial_and_jobs(tmp_path, capsys):
    # --out truncates the file the run reads its monomials from: it was read
    # at validation, and no worker reads it again
    written = []
    for jobs in ("1", "2"):
        # one path for both runs: the report echoes it
        path = tmp_path / "insertions.json"
        path.write_text(json.dumps([[{"factor": 1, "bundle": "O(1)", "degree": 1}]]))
        argv = ["twisted-vanish", "--n", "1,1", "--insertions", f"file:{path}",
                "--out", str(path), "--jobs", jobs, "--stable"]
        assert cli.main(argv) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1] and b"[pass]" in written[0]
    capsys.readouterr()


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
    s = scenario_from_entry({"kind": "vanish", "n": [2, 1], "i": [1, 2]})
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
        run_scenario(scenario_from_entry({"kind": "euler-count", "n": [1]}), jobs=0)
    assert cli.main(["euler-count", "--n", "1", "--jobs", "0"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("argv", [["euler-count", "--n", "1"], ["all"]], ids=["euler-count", "all"])
def test_jobs_below_one_leaves_the_out_file_untouched(tmp_path, capsys, argv, jobs):
    # --jobs is refused with the other inputs, before --out is opened
    out = tmp_path / "r.json"
    out.write_bytes(b"an earlier report\n")
    assert cli.main([*argv, f"--jobs={jobs}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--jobs must be >= 1, got {jobs}" in captured.err
    assert out.read_bytes() == b"an earlier report\n"


def test_all_and_its_battery_as_a_config_run_the_same_scenarios(tmp_path, capsys):
    # the battery's entries reach a Scenario through the parser every config
    # entry goes through, with the same overrides
    config = tmp_path / "battery.json"
    config.write_text(json.dumps({"scenarios": BATTERY}))
    parse = cli.build_parser().parse_args
    direct = [scenario_from_entry(entry, {"seed": 7}) for entry in BATTERY]
    assert cli._scenarios(parse(["all", "--seed", "7"])) == direct
    assert cli._scenarios(parse(["all", "--config", str(config), "--seed", "7"])) == direct
    for fmt in ("json", "text"):
        printed = []
        for argv in (["all"], ["all", "--config", str(config)]):
            assert cli.main([*argv, "--format", fmt, "--stable"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


@pytest.mark.parametrize("content,named", [
    ('{"scenarios":\n  [{', "is not valid JSON: line 2"),
    (b"\xff[[", "is not UTF-8 text"),
], ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("which", ["config", "insertions file"])
def test_unreadable_json_file_named_with_its_line(tmp_path, capsys, content, named, which):
    # the config and the insertions file share one reader and its errors
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    if which == "config":
        argv = ["all", "--config", str(path)]
    else:
        argv = ["pushforward", "--n", "1,1", "--insertions", f"file:{path}"]
    assert cli.main(argv) == 2
    assert f"configuration error: {which} {str(path)!r} {named}" in capsys.readouterr().err
