"""Scenario runner: named verification suites with machine-readable reports.

A scenario bundles one identity family (vanishing, pushforward, k-step,
symbolic Thom-Porteous, ...) with its parameters; running it produces a
report whose cases carry exact rationals serialized as strings.  Reports
are deterministic given (config, seed, version); wall-clock timings are
the one non-reproducible field and can be zeroed with ``stable=True``.

Mathematical errors never escape a scenario: they become failed cases
with a named diagnostic, and the CLI maps any failed case to exit code 1.
"""

from __future__ import annotations

import json
import math
import operator
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, TextIO

from . import __version__
from .characters import LaurentPoly
from .chern import (
    FormalBundle,
    FormalRing,
    generic_bundle,
    segre,
    thom_porteous,
    twist_by_line,
    verify_higher_tp,
)
from .combinatorics import (
    box_character,
    euler_product_coefficient,
    mp_contains,
    multipartitions,
    nested_chains,
    partitions_of,
)
from .errors import ConfigError, DegreeMismatchError, MathError
from .integrals import (
    ChernFactor,
    CoFactor,
    Insertion,
    Integrand,
    WeightSpec,
    ambient_measure,
    hrr_chi,
    insertion_basis,
    integrate_ambient_batch,
    integrate_virtual_batch,
    k_theory_chi,
    sample_specs,
    virtual_measure,
)
from .toric import SURFACES, EqLineBundle, ToricSurface, bundle_by_label, line_bundle
from .value import Value
from .vertex import ext_class, vertex_V


class Scenario(Value):
    """One named verification suite plus its validated parameters; the
    defaults of `__init__` are the only defaults of every input, and
    `DEFAULT_SCENARIO` holds them.  The ten compared fields hold the inputs
    as given, the last four what the cases read, which `run_scenario` needs
    and only `scenario_from_entry` sets: the surface `toric`, the `twists`
    by canonical label (O where the kind reads no bundles), the
    `weight_specs`, and the `file_insertions` (None for the auto basis).
    Pickled by its fields, it reaches a `--jobs` worker whole."""

    _compare = ("kind", "surface", "sizes", "i_values", "bundles", "samples", "seed",
                "truncation", "insertions", "specs")
    _fields = _compare + ("toric", "twists", "weight_specs", "file_insertions")
    __slots__ = _fields

    def __init__(
        self,
        kind: str,
        surface: str = "p2",
        sizes: tuple[int, ...] = (),
        i_values: tuple[int, ...] = (1,),
        bundles: tuple[str, ...] = (),
        samples: int = 3,
        seed: int = 1729,
        truncation: int = 8,
        insertions: str = "auto",
        specs: tuple[str, ...] = (),
        toric: ToricSurface | None = None,
        twists: dict[str, EqLineBundle] | None = None,
        weight_specs: tuple[WeightSpec, ...] | None = None,
        file_insertions: tuple[Insertion, ...] | None = None,
    ):
        self._init(kind, surface, sizes, i_values, bundles, samples, seed, truncation,
                   insertions, specs, toric, twists, weight_specs, file_insertions)


#: a scenario of no kind, every field at its default
DEFAULT_SCENARIO = Scenario("")


def _integer(value) -> int:
    # JSON numbers such as 2.9 or true are not truncated into an int
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _sequence(convert: Callable) -> Callable:
    def parse(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        if not value:
            raise ValueError("expected a nonempty list")
        return tuple(convert(item) for item in value)

    return parse


#: config key -> (Scenario field, converter, CLI flag); the flag given on the
#: command line sets the key its parser dest names (`--spec` sets "specs")
ENTRY_KEYS = {
    "kind": ("kind", str, None),
    "surface": ("surface", str, "--surface"),
    "n": ("sizes", _sequence(_integer), "--n"),
    "i": ("i_values", _sequence(_integer), "--i"),
    "bundles": ("bundles", _sequence(str), "--bundles"),
    "samples": ("samples", _integer, "--samples"),
    "seed": ("seed", _integer, "--seed"),
    "truncation": ("truncation", _integer, "--truncation"),
    "insertions": ("insertions", str, "--insertions"),
    "specs": ("specs", _sequence(str), "--spec"),
}

#: the inputs a kind may leave unread: field -> how a user names it
_OPTIONAL_INPUTS = {
    field: f"{key} ({flag})"
    for key, (field, _, flag) in ENTRY_KEYS.items()
    if field in ("surface", "sizes", "i_values", "bundles", "specs", "insertions")
}

#: the keys every kind reads, so `all` may apply them to each scenario it runs
SHARED_KEYS = tuple(
    key for key, (field, _, _) in ENTRY_KEYS.items()
    if key != "kind" and field not in _OPTIONAL_INPUTS
)

#: the `all` subcommand's curated battery (small sizes, fast), as config entries
BATTERY = [
    *({"kind": "hrr-check", "surface": name} for name in SURFACES),
    *({"kind": "euler-count", "surface": name, "n": [2]} for name in SURFACES),
    {"kind": "serre-duality", "surface": "p2"},
    {"kind": "symbolic-tp"},
    {"kind": "vanish", "surface": "p2", "n": [2, 1], "i": [1, 2]},
    {"kind": "twisted-vanish", "surface": "p2", "n": [2, 1], "i": [1]},
    {"kind": "pushforward", "surface": "p2", "n": [2, 1]},
    {"kind": "kstep", "surface": "p2", "n": [1, 1, 1]},
]


def scenario_from_entry(entry, overrides: dict | None = None) -> Scenario:
    """One config entry, or the flags given on the command line, as the
    Scenario `run_scenario` runs, or ConfigError naming the first bad input;
    the keys of `overrides` replace the entry's, and absent keys keep the
    Scenario defaults.  A key the kind does not read is refused whenever it
    is given, whatever its value."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError("missing 'kind'")
    entry = {**entry, **(overrides or {})}
    unknown = sorted(set(entry) - set(ENTRY_KEYS))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"unknown key(s) {names}; choose from {tuple(ENTRY_KEYS)}")
    values = {}
    for key, value in entry.items():
        field, convert, flag = ENTRY_KEYS[key]
        try:
            values[field] = convert(value)
        except (TypeError, ValueError) as exc:
            # `str`, the converter of the one key without a flag, refuses nothing
            raise ConfigError(f"{key!r} ({flag}): {exc}") from None
    kind = SCENARIO_KINDS.get(values["kind"])
    if kind is None:
        raise ConfigError(
            f"unknown scenario kind {values['kind']!r}; choose from {tuple(SCENARIO_KINDS)}"
        )
    # a key given is refused where the kind does not read it, even at its default value
    reads = kind.reads | ({"sizes"} if kind.sizes else set())
    unread = [name for field, name in _OPTIONAL_INPUTS.items()
              if field in values and field not in reads]
    if unread:
        raise ConfigError(f"{values['kind']} does not read {', '.join(unread)}")
    # before any input is read, so a file is not read for a run refused anyway
    if "specs" in entry and "samples" in entry:
        raise ConfigError(
            "samples (--samples) is refused beside explicit specs (--spec), which replace sampling"
        )
    inputs = {field: getattr(DEFAULT_SCENARIO, field) for field in Scenario._compare}
    inputs.update(values)
    return Scenario(**inputs, **_read_inputs(**inputs))


def _read_inputs(kind, surface, sizes, i_values, bundles, samples, seed, truncation, insertions,
                 specs) -> dict:
    """The values the cases of a scenario with these inputs read, the last
    four fields of `Scenario` by name, or ConfigError naming the first bad
    input; the insertions file is read here, once."""
    reads = SCENARIO_KINDS[kind].reads
    if surface not in SURFACES:
        raise ConfigError(f"unknown surface {surface!r}")
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if truncation < 1:
        raise ConfigError("truncation must be >= 1")
    if SCENARIO_KINDS[kind].sizes:
        fewest, most, rule = SCENARIO_KINDS[kind].sizes
        if not sizes:
            raise ConfigError(f"scenario {kind!r} needs sizes (--n)")
        if any(n < 0 for n in sizes):
            raise ConfigError(f"sizes must be nonnegative, got {sizes}")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"sizes must weakly decrease, got {sizes}")
        if not fewest <= len(sizes) <= most:
            raise ConfigError(f"{kind} {rule}")
    if "i_values" in reads:
        for i in i_values:
            if i < 1:
                raise ConfigError("vanishing index i must be >= 1")
            if sum(sizes) - i < 0:
                raise ConfigError(f"i={i} exceeds n1+n2={sum(sizes)}")
        _refuse_repeats("i (--i)", i_values, i_values, "repeat one vanishing index")
        if insertions.startswith("file:") and len(i_values) > 1:
            raise ConfigError(
                f"an insertions file (--insertions) fixes one degree n1+n2-i, so it takes one "
                f"i (--i); got i = {', '.join(map(str, i_values))}"
            )
    toric = SURFACES[surface]
    try:
        twists = [bundle_by_label(toric, label) for label in bundles]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _refuse_repeats("bundles (--bundles)", bundles, twists, "name one line bundle")
    weight_specs = [_parse_spec_text(text) for text in specs]
    # the zero spec has no direction: it repeats only itself
    _refuse_repeats("specs (--spec)", specs, weight_specs,
                    "are proportional, and every integral is homogeneous of degree 0",
                    same=lambda p, q: p == q or p.s1 * q.s2 == p.s2 * q.s1
                    and WeightSpec(0, 0) not in (p, q))
    if insertions == "auto":
        file_insertions = None
    elif insertions.startswith("file:"):
        # the integrand's degree: n1 + n_k, less i where the kind reads i
        degree = sizes[0] + sizes[-1] - (i_values[0] if "i_values" in reads else 0)
        file_insertions = _read_insertions(insertions[len("file:"):], toric, len(sizes), degree)
    else:
        raise ConfigError("insertions must be 'auto' or 'file:<path>'")
    if "bundles" not in reads:
        twists = [toric.trivial]
    sampled = sample_specs(seed, samples) if "specs" in reads and not specs else ()
    twists = {b.label: b for b in twists or toric.twist_bundles}
    return {"toric": toric, "twists": twists, "weight_specs": tuple(weight_specs) or sampled,
            "file_insertions": file_insertions}


def _refuse_repeats(name: str, texts, values, reason: str, same=operator.eq) -> None:
    """ConfigError naming the first two inputs whose values are `same`."""
    for (text1, value1), (text2, value2) in combinations(zip(texts, values), 2):
        if same(value1, value2):
            raise ConfigError(f"{name}: {text1!r} and {text2!r} {reason}")


def _parse_spec_text(text: str) -> WeightSpec:
    """Parse 's1,s2' rationals and clear their denominators; every integral
    is top-degree, so scaling the spec leaves its value unchanged."""
    try:
        a, b = (Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"malformed spec {text!r}; expected 's1,s2' rationals") from None
    scale = math.lcm(a.denominator, b.denominator)
    return WeightSpec(int(a * scale), int(b * scale))


def _read_json(path: str, what: str):
    """The JSON value of the file at `path`, or ConfigError naming it as
    `what` (and, for text that is not JSON, the line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not UTF-8 text: {exc}") from None


def _read_insertions(path: str, surface: ToricSurface, arity: int,
                     degree: int) -> tuple[Insertion, ...]:
    """The monomials of the insertions file at `path`, checked by the
    kernel's own rule for an integrand of degree `degree` on `arity`
    factors, no two multiplying the same factors."""
    raw = _read_json(path, "insertions file")
    try:
        out = tuple(
            Insertion(tuple(
                ChernFactor(_integer(f["factor"]) - 1, bundle_by_label(surface, str(f["bundle"])),
                            _integer(f["degree"]))
                for f in monomial
            ))
            for monomial in raw
        )
        Integrand(out, arity, degree)
    except (KeyError, TypeError, ValueError, DegreeMismatchError) as exc:
        raise ConfigError(f"malformed insertions file {path!r}: {exc}") from None
    if not out:
        raise ConfigError(f"insertions file {path!r} contains no monomials")
    # c_0 = 1: a monomial is the multiset of its factors of degree >= 1
    _refuse_repeats("monomials (--insertions)", range(1, len(out) + 1),
                    [Counter(f for f in ins.factors if f.degree) for ins in out],
                    "multiply the same factors")
    return out


# --------------------------------------------------------------------------
# independent oracles used by scenarios
# --------------------------------------------------------------------------


def arm_leg_vertex(lam1, lam2) -> LaurentPoly:
    """Arm/leg form of the chart vertex V(Q_lam1, Q_lam2).

    With a_nu(s) = nu_i - j - 1 and l_nu(s) = nu'_j - i - 1 for a box
    s = (i, j), both negative outside nu: each box of lam1 contributes
    u1^{-l_lam1(s)-1} u2^{a_lam2(s)}, each box of lam2 u1^{l_lam2(s)}
    u2^{-a_lam1(s)-1}.  Its diagonal `arm_leg_vertex(lam, lam)` is the
    arm/leg tangent character of the Hilbert scheme of points on C^2; that
    convention was fixed by brute-force match with the diagonal vertex on
    |lam| <= 2.
    """

    def arm(nu, i, j):
        return (nu.parts[i] if i < len(nu.parts) else 0) - j - 1

    def leg(nu, i, j):
        return arm(nu.conjugate(), j, i)

    terms = [((-leg(lam1, i, j) - 1, arm(lam2, i, j)), 1) for i, j in lam1.boxes()]
    terms += [((leg(lam2, i, j), -arm(lam1, i, j) - 1), 1) for i, j in lam2.boxes()]
    return LaurentPoly(terms)


def section_character(surface: ToricSurface, degrees: tuple[int, ...]) -> LaurentPoly:
    """Character of H^0 of an effective built-in bundle by lattice-point count.

    Monomial sections of O(d) on P^2 (resp. O(a,b)) carry weight
    (-beta, -gamma) over the exponent polytope.  This is the independent
    route against the K-theoretic localization sum: times the denominator D
    of `integrals.k_theory_chi`, it must equal the numerator N exactly.
    """
    if any(d < 0 for d in degrees):
        raise ValueError(f"section character needs nonnegative degrees, got {degrees}")
    return LaurentPoly({weight: 1 for weight in surface.sections(*degrees)})


def splitting_twist_oracle(r: int, k: int) -> bool:
    """Check c_k(F (x) M) against e_k of shifted line-bundle roots.

    F is a formal sum of r line classes x_1..x_r, M has first Chern class
    m; the oracle computes e_k(x_1 + m, ..., x_r + m) directly from
    subsets, independent of the twist expansion.
    """
    ring = FormalRing(max(k, r) + 1)
    roots = [ring.add_generator(f"x{i + 1}", 1) for i in range(r)]
    m = ring.add_generator("m", 1)
    total = ring.one()
    for x in roots:
        total = total * (ring.one() + x)
    f = FormalBundle(ring, r, total, "F")
    # elementary symmetric polynomial in the shifted roots
    shifted = [x + m for x in roots]
    oracle = ring.zero()
    for subset in combinations(range(r), k):
        term = ring.one()
        for idx in subset:
            term = term * shifted[idx]
        oracle = oracle + term
    return twist_by_line(f, m, k) == oracle


# --------------------------------------------------------------------------
# scenario execution
# --------------------------------------------------------------------------


def _fr(value) -> str:
    """A report's exact number as text; an int or a Fraction only, so a
    float can never be turned into a long exact fraction here."""
    if type(value) is int or type(value) is Fraction:
        return str(value)
    raise TypeError(f"report values are int or Fraction, got {type(value).__name__}")


def _case(inputs: dict, samples: list, verdict: bool, diagnostic: str = "", **extra) -> dict:
    out = {"inputs": inputs, "samples": samples, "verdict": "pass" if verdict else "fail"}
    if diagnostic:
        out["diagnostic"] = diagnostic
    out.update(extra)
    return out


def _run_group(s: Scenario, group: dict) -> list[dict]:
    """The cases of one group, each with the group's measured time: its
    cases share one sum per spec, so no case has a time of its own."""
    started = time.perf_counter()
    try:
        cases = SCENARIO_KINDS[s.kind].cases(s, **group)
    except MathError as exc:
        cases = [_case(dict(group), [], False, diagnostic=f"{exc.name}: {exc}")]
    elapsed = int((time.perf_counter() - started) * 1000)
    for case in cases:
        case["elapsed_ms"] = elapsed
    return cases


def _sampled_case(inputs: dict, specs, values, expected, mismatch: str, virtual: bool = False,
                  character_ok: bool = True, **extra) -> dict:
    """One case of a sampled kind: `values[j]` and `expected[j]` belong to
    `specs[j]`, and `virtual` shows the expected values as each sample's
    `virtual`.  The case passes when its values (and virtual values) are
    constant across specs, equal the expected values, and `character_ok`
    holds; a failure names the spec dependence of the values first, then
    that of the virtual values, then `mismatch`.

    Each value is rendered once, and the texts are compared: the text of
    an int or a reduced Fraction is canonical, so equal texts are equal
    values.  An expected value that is its value's very object, as each
    is where a virtual sum returns the ambient totals, takes the value's
    text.  Every sample shares its spec's text tuple."""
    texts = [_fr(value) for value in values]
    wants = [text if want is value else _fr(want)
             for value, text, want in zip(values, texts, expected)]
    samples = []
    for spec, text, want in zip(specs, texts, wants):
        sample = {"s": spec.to_text(), "value": text}
        if virtual:
            sample["virtual"] = want
        samples.append(sample)
    if len(set(texts)) > 1:
        diagnostic = "SpecDependence: values differ"
    elif virtual and len(set(wants)) > 1:
        diagnostic = "SpecDependence: virtual values differ"
    elif not character_ok or texts != wants:
        diagnostic = mismatch
    else:
        diagnostic = ""
    return _case(inputs, samples, not diagnostic, diagnostic, **extra)


def _vanish_cases(s: Scenario, i: int, bundle: str) -> list[dict]:
    n1, n2 = s.sizes
    degree = n1 + n2 - i
    insertions = Integrand(s.file_insertions or insertion_basis(s.toric, s.sizes, degree), 2, degree)
    specs = s.weight_specs
    co = [CoFactor(0, n1 + n2 + i, s.twists[bundle])]
    per_spec = [integrate_ambient_batch(s.toric, s.sizes, insertions, spec, co) for spec in specs]
    return [
        _sampled_case({"i": i, "twist": bundle, "insertion": ins.label()}, specs, values,
                      [0] * len(specs), "nonzero integral")
        for ins, values in zip(insertions, zip(*per_spec))
    ]


def _pushforward_cases(s: Scenario) -> list[dict]:
    surface, sizes, specs = s.toric, s.sizes, s.weight_specs
    degree = sizes[0] + sizes[-1]
    insertions = Integrand(s.file_insertions or insertion_basis(surface, sizes, degree),
                           len(sizes), degree)
    co = [CoFactor(m, sizes[m] + sizes[m + 1], surface.trivial) for m in range(len(sizes) - 1)]
    ambient, virtual = [], []
    for spec in specs:
        # the virtual sum right after the ambient one at the same spec, so
        # it finds the equal measure as the integrand's last sum
        ambient.append(integrate_ambient_batch(surface, sizes, insertions, spec, co))
        virtual.append(integrate_virtual_batch(surface, sizes, insertions, spec))
    cases = []
    located: dict[WeightSpec, str] = {}
    for ins, values, expected in zip(insertions, zip(*ambient), zip(*virtual)):
        case = _sampled_case({"insertion": ins.label()}, specs, values, expected,
                             "ambient != virtual", virtual=True)
        # a failure where the two sums differ at some spec, read as a
        # mismatch or as a spec-dependent side, names the point they differ at
        if case["verdict"] == "fail":
            differ = [sp for sp, a, v in zip(specs, values, expected) if a != v]
            if differ:
                if differ[0] not in located:
                    located[differ[0]] = _measure_difference(surface, sizes, differ[0], co)
                case["diagnostic"] += located[differ[0]]
        cases.append(case)
    return cases


def _measure_difference(surface: ToricSurface, sizes, spec: WeightSpec, co) -> str:
    """The empty string when the ambient and virtual measures at `spec` are
    equal, else a diagnostic suffix naming the first fixed point, in ambient
    then chain order, where they differ, with both weights ("missing" where
    a measure has no such point)."""
    ambient = ambient_measure(surface, sizes, spec, co)
    virtual = virtual_measure(surface, sizes, spec)
    for steps in [*ambient, *(steps for steps in virtual if steps not in ambient)]:
        weights = [_fr(m[steps]) if steps in m else "missing" for m in (ambient, virtual)]
        if weights[0] != weights[1]:
            point = "[" + ",".join(mp.to_text() for mp in steps) + "]"
            return (f"; first differing point {point} at s={','.join(spec.to_text())}: "
                    f"ambient {weights[0]}, virtual {weights[1]}")
    return ""


def _euler_count_cases(s: Scenario) -> list[dict]:
    surface, specs = s.toric, s.weight_specs
    (n,) = s.sizes
    expected = euler_product_coefficient(surface.euler_number, n)
    insertion = Insertion((ChernFactor(0, None, 2 * n),)) if n else Insertion(())
    integrand = Integrand([insertion], 1, 2 * n)
    values = [integrate_ambient_batch(surface, s.sizes, integrand, spec)[0] for spec in specs]
    inputs = {"n": n, "insertion": insertion.label(), "expected": str(expected)}
    return [_sampled_case(inputs, specs, values, [expected] * len(specs),
                          "integral disagrees with fixed-point count")]


def _hrr_cases(s: Scenario, degrees: tuple[int, ...]) -> list[dict]:
    surface, specs = s.toric, s.weight_specs
    bundle = line_bundle(surface, *degrees)
    expected = surface.chi(*degrees)
    values = hrr_chi(surface, bundle, specs)
    # independent K-theoretic route: the localization sum N / D against the
    # H^0 character, as one identity of Laurent polynomials
    num, den = k_theory_chi(surface, bundle)
    character_ok = num == section_character(surface, degrees) * den
    inputs = {"bundle": bundle.label, "expected": str(expected)}
    return [_sampled_case(inputs, specs, values, [expected] * len(specs),
                          "hrr/localization mismatch", character_ok=character_ok,
                          character_check="pass" if character_ok else "fail")]


def _symbolic_cases(s: Scenario) -> list[dict]:
    n = s.truncation
    ring = FormalRing(n)
    e = generic_bundle(ring, "E", -1)
    cases = []
    for b in range(1, min(4, n) + 1):
        ok = thom_porteous(1, b, e) == e.chern(b)
        cases.append(_case({"identity": f"Delta^1_{b} = c_{b}"}, [], ok))
    for a in range(1, 5):
        ok = thom_porteous(a, 0, e) == ring.one()
        cases.append(_case({"identity": f"Delta^{a}_0 = 1"}, [], ok))
    for r0 in range(1, 4):
        for r1 in range(1, 6):
            for i in range(4):
                if r1 - r0 + 1 + i > n:
                    continue
                ok = verify_higher_tp(r0, r1, i, n)
                cases.append(_case({"identity": f"higher-tp r0={r0} r1={r1} i={i}"}, [], ok))
    for r in range(1, 5):
        for k in range(1, 5):
            ok = splitting_twist_oracle(r, k)
            cases.append(_case({"identity": f"twist r={r} k={k}"}, [], ok))
    ss = segre(e)
    for k in range(1, n + 1):
        acc = ring.zero()
        for i in range(k + 1):
            acc = acc + ss[i] * e.chern(k - i)
        ok = acc.is_zero()
        cases.append(_case({"identity": f"sum s_i c_(k-i) = 0, k={k}"}, [], ok))
    return cases


def _vertex_suite_cases(s: Scenario) -> list[dict]:
    surface = s.toric
    u1u2 = LaurentPoly.monomial(1, 1)
    cases = []
    rank_ok = True
    rank_checked = 0
    for n1 in range(5):
        for n2 in range(5):
            ok = True
            checked = 0
            for lam in partitions_of(n1):
                for mu in partitions_of(n2):
                    q1, q2 = box_character(lam), box_character(mu)
                    v = vertex_V(q1, q2)
                    ok = ok and v.bar() == u1u2 * vertex_V(q2, q1)
                    rank_ok = rank_ok and v.rank_eval() == n1 + n2
                    checked += 1
            cases.append(
                _case({"identity": f"serre |l|={n1} |m|={n2}", "pairs": checked}, [], ok)
            )
            rank_checked += checked
    cases.append(_case({"identity": "rank_eval(V) = |l|+|m|", "pairs": rank_checked}, [], rank_ok))
    ok = True
    checked = 0
    for n in range(6):
        for lam in partitions_of(n):
            q = box_character(lam)
            ok = ok and vertex_V(q, q) == arm_leg_vertex(lam, lam)
            checked += 1
    cases.append(_case({"identity": "diagonal vertex = arm/leg", "shapes": checked}, [], ok))
    ok = True
    checked = 0
    for n1 in range(1, 5):
        for n2 in range(n1 + 1):
            for mp1 in multipartitions(surface, n1):
                for mp2 in multipartitions(surface, n2):
                    value = ext_class(surface, mp1, mp2, surface.trivial)
                    zero_mult = value.coefficient((0, 0))
                    if mp_contains(mp1, mp2):
                        # chi(O)/Hom trivial summands cancel: the class is
                        # the effective Ext^1 character, fully movable
                        good = zero_mult == 0 and value.is_effective()
                    else:
                        # jumping characterization: leftover weight-zero
                        # content detects the failure of nesting
                        good = zero_mult >= 1
                    ok = ok and good
                    checked += 1
    cases.append(
        _case(
            {"identity": "nested co_class effective; weight-zero detects nesting",
             "pairs": checked},
            [],
            ok,
        )
    )
    return cases


# --------------------------------------------------------------------------
# scenario kinds
# --------------------------------------------------------------------------


class ScenarioKind(Value):
    """How one scenario kind splits into work groups, runs them, and which
    inputs and report parameters it has."""

    __slots__ = ("groups", "cases", "sizes", "reads")
    _fields = __slots__

    def __init__(
        self,
        #: deterministic work units of a scenario; each yields a list of cases
        groups: Callable[[Scenario], list[dict]],
        #: runs one group as cases(scenario, **group)
        cases: Callable[..., list[dict]],
        #: (fewest, most, rule) for the number of sizes; None if the kind reads none
        sizes: tuple[int, float, str] | None = None,
        #: the Scenario fields among surface, i_values, bundles, specs and
        #: insertions that the kind reads; an entry gives no other one
        reads: frozenset[str] = frozenset(),
    ):
        self._init(groups, cases, sizes, reads)


def _single_group(s: Scenario) -> list[dict]:
    return [{}]


def _twist_groups(s: Scenario) -> list[dict]:
    # each group names its twist by the canonical label, as insertions do
    return [{"i": i, "bundle": label} for label in s.twists for i in s.i_values]


_TWO_SIZES = (2, 2, "needs exactly two sizes")
_SAMPLED = frozenset({"surface", "specs"})
_INTEGRATED = _SAMPLED | {"insertions"}

SCENARIO_KINDS = {
    "vanish": ScenarioKind(
        _twist_groups, _vanish_cases, _TWO_SIZES, reads=_INTEGRATED | {"i_values"}
    ),
    "twisted-vanish": ScenarioKind(
        _twist_groups, _vanish_cases, _TWO_SIZES, reads=_INTEGRATED | {"i_values", "bundles"}
    ),
    "pushforward": ScenarioKind(_single_group, _pushforward_cases, _TWO_SIZES, reads=_INTEGRATED),
    "kstep": ScenarioKind(
        _single_group, _pushforward_cases, (2, math.inf, "needs at least two sizes"),
        reads=_INTEGRATED,
    ),
    "symbolic-tp": ScenarioKind(_single_group, _symbolic_cases),
    "euler-count": ScenarioKind(
        _single_group, _euler_count_cases, (1, 1, "takes a single size"), reads=_SAMPLED
    ),
    "hrr-check": ScenarioKind(
        lambda s: [{"degrees": d} for d in s.toric.hrr_degrees],
        _hrr_cases,
        reads=_SAMPLED,
    ),
    "serre-duality": ScenarioKind(_single_group, _vertex_suite_cases, reads=frozenset({"surface"})),
}


# --------------------------------------------------------------------------
# runner / reports
# --------------------------------------------------------------------------


def _params_echo(s: Scenario) -> dict:
    kind = SCENARIO_KINDS[s.kind]
    out = {"surface": s.surface, "n": list(s.sizes)}
    if "i_values" in kind.reads:
        out["i"] = list(s.i_values)
    if s.bundles:
        out["bundles"] = list(s.bundles)
    out["samples"] = s.samples
    out["truncation"] = s.truncation
    out["insertions"] = s.insertions
    if s.specs:
        out["specs"] = list(s.specs)
    if kind.sizes:
        out["fixed_points"] = [len(multipartitions(s.toric, n)) for n in s.sizes]
        # the kinds whose cases compare a virtual side echo its chains
        if kind.cases is _pushforward_cases:
            out["chains"] = len(nested_chains(s.toric, s.sizes))
    return out


def run_scenario(s: Scenario, jobs: int = 1) -> dict:
    """Execute all cases; deterministic given (scenario, seed, version).
    Only a scenario that `scenario_from_entry` made runs."""
    if s.toric is None:
        raise ConfigError(f"{s!r} was not made by scenario_from_entry, so its inputs are unchecked")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    groups = SCENARIO_KINDS[s.kind].groups(s)
    if jobs > 1 and len(groups) > 1:
        # imported only here: its ~36 modules add ~25 ms to a run without a pool
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts every worker it may use on the first submit; the
        # validated scenario crosses to each worker whole, its file read once
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            results = list(pool.map(partial(_run_group, s), groups))
    else:
        results = [_run_group(s, g) for g in groups]
    cases = [case for group_cases in results for case in group_cases]
    verdict = "pass" if all(c["verdict"] == "pass" for c in cases) else "fail"
    elapsed = int((time.perf_counter() - started) * 1000)
    return {
        "scenario": s.kind,
        "params": _params_echo(s),
        "cases": cases,
        "verdict": verdict,
        "elapsed_ms": elapsed,
        "seed": s.seed,
        "version": __version__,
    }


def stable_copy(report: dict) -> dict:
    """Report with wall-clock fields zeroed, for byte-stable comparison; a
    shallow copy, so the report's other values are shared, not copied."""
    cases = [{**case, "elapsed_ms": 0} for case in report["cases"]]
    return {**report, "cases": cases, "elapsed_ms": 0}


def _json_text(value, indent: str) -> str:
    """The text `json.dumps(value, indent=2)` writes for `value` on a line
    indented by `indent`, for the types a report holds: dict with `str`
    keys, list, tuple, str, int, bool and None.  Strings go through the C
    ASCII escaper, inline where they are a container's items, and each
    container is joined from its items' texts."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {key!r}")
            text = encode_basestring_ascii(item) if type(item) is str else _json_text(item, inner)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [encode_basestring_ascii(item) if type(item) is str else _json_text(item, inner)
                 for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"cannot render a {type(value).__name__} in a report: {value!r}")
    separator = ",\n" + inner
    return f"{brackets[0]}\n{inner}{separator.join(items)}\n{indent}{brackets[1]}"


def _json_pieces(report) -> Iterator[str]:
    """The report as `json.dumps(report, indent=2)` plus a newline, without
    the standard library's pure-Python indenting encoder, in pieces: each
    top-level item, and each item of a nonempty top-level list (the cases)
    on its own, so a writer never holds the whole text."""
    if not isinstance(report, dict) or not report:
        yield _json_text(report, "") + "\n"
        return
    separator = "{\n  "
    for key, value in report.items():
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, got {key!r}")
        yield f"{separator}{encode_basestring_ascii(key)}: "
        separator = ",\n  "
        if not isinstance(value, (list, tuple)) or not value:
            yield _json_text(value, "  ")
            continue
        opening = "["
        for item in value:
            yield f"{opening}\n    {_json_text(item, '    ')}"
            opening = ","
        yield "\n  ]"
    yield "\n}\n"


def _text_pieces(report: dict) -> Iterator[str]:
    """The report as a verdict table, in lines: the header, one line per
    case, the verdict line."""
    yield (
        f"scenario: {report['scenario']}  params: {json.dumps(report['params'])}\n"
        f"seed: {report['seed']}  version: {report['version']}\n"
    )
    failed = 0
    for case in report["cases"]:
        inputs = ", ".join(f"{k}={v}" for k, v in case["inputs"].items())
        line = f"  [{case['verdict']:4}] {inputs}"
        if case["samples"]:
            line += "  values: " + ", ".join(sm["value"] for sm in case["samples"][:3])
        if case.get("diagnostic"):
            line += f"  !! {case['diagnostic']}"
        yield line + "\n"
        failed += case["verdict"] != "pass"
    yield (
        f"verdict: {report['verdict']} ({len(report['cases'])} cases, {failed} failed)"
        f"  elapsed: {report['elapsed_ms']} ms\n"
    )


#: report format name -> its piece generator; the CLI's --format choices read the table
REPORT_FORMATS = {"json": _json_pieces, "text": _text_pieces}


def emit_report(report: dict, fmt: str = "json", stable: bool = False, *, out: TextIO) -> None:
    """Write a report to `out` piece by piece, as it renders; bit-stable
    for identical inputs.  An error while rendering leaves the pieces
    written before it."""
    if fmt not in REPORT_FORMATS:
        raise ConfigError(f"unknown report format {fmt!r}")
    if stable:
        report = stable_copy(report)
    write = out.write
    for piece in REPORT_FORMATS[fmt](report):
        write(piece)


def parse_config(path: str | None, overrides: dict | None = None) -> list[Scenario]:
    """The scenarios of a JSON config file, or of `BATTERY` without a path;
    the keys of `overrides` replace those of every entry."""
    raw = _read_json(path, "config") if path else {"scenarios": BATTERY}
    if not isinstance(raw, dict) or "scenarios" not in raw:
        raise ConfigError(f"config {path!r} must be an object with a 'scenarios' list")
    entries = raw["scenarios"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("no scenarios")
    out = []
    for index, entry in enumerate(entries):
        try:
            out.append(scenario_from_entry(entry, overrides))
        except ConfigError as exc:
            raise ConfigError(f"scenario #{index + 1}: {exc}") from None
    return out
