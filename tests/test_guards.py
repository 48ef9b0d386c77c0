"""Guards on what code outside `src/` depends on.

* The bytes of every scenario kind's `--format json --stable` report, on
  each surface where the kind takes one, pinned by sha256 (the digests were
  recorded before the surface and scenario tables replaced the per-kind
  branches, so a refactor that changes any report fails here), and of
  `symbolic-tp --truncation 12`, the benchmark's truncation.
* The benchmark's span targets (`bench/spans.py`): every function it wraps
  must still exist and be bound in a `nestloc` module, and on each
  workload a traced pass of `bench/run.py` must fire every span it
  expects.
* Every public top-level function and class of `src/nestloc`, and every
  public method of its classes, has a caller in `src/nestloc` or
  `scripts/`, so no API lives on only for its own tests.
* Only a record sets its own slots: every `_set(` call in `src/nestloc`
  passes `self` first.
* No `src/nestloc` module imports an underscore name from another one,
  but `value._set`: a module's private names are its own.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from nestloc import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")

REPORT_DIGESTS = {
    ("vanish", "p2"): "3f0513c6fad818d97c09891d97badb7cf2249f23f9f231ced9b528fcde809803",
    ("vanish", "p1xp1"): "12a9126df76a937d596cced9f340203399436838a3337d5682f7250899d389c2",
    ("twisted-vanish", "p2"): "9a020d5198c76fb131d9baaa7dc4af8602513ba60f36b64f5501d9e4fc96d185",
    ("twisted-vanish", "p1xp1"): "95164da3a2f8cba06b018ae362bbdc2a86b8e36c48e3d4c089c0ce3765f526e1",
    ("pushforward", "p2"): "1f1a82cd793e3cdd513facc3fddde0faff30e2e56e3a80745fa2ad7f6560f912",
    ("pushforward", "p1xp1"): "cee884a5a6e24cdb055ca90e355a8c83613ce7ee765d50d56fcbb9d75c84a7ca",
    ("kstep", "p2"): "97fadadcd5b8a9fa330b423d13a3a99d196b506288c7f192a31b744bcadaf83e",
    ("kstep", "p1xp1"): "d700368747aa7f5c35853b7f1227532c02d00c5cc660936e81d05b44a148b537",
    ("euler-count", "p2"): "e6070dad01068217a18b197f29238af18269c8a80340a3f3d5ae3b654189c5c7",
    ("euler-count", "p1xp1"): "b547361d4510bb1b9f7ef299e2e0d2102d0e19ee233a90ee230e8e8c4eb6ef92",
    ("hrr-check", "p2"): "7e23572a8003a67291b55b79e832ac0134d2a8b7b1859aa07c5331d014d5502d",
    ("hrr-check", "p1xp1"): "5e8b2ac2f3d6e2569447cf4bb57169c144b7e7169caef2c79741bdaf647d5730",
    ("serre-duality", "p2"): "2022cb28e9f7066216249494a6b0d68c8f1cf3fcd37a26419e502628798f7907",
    ("serre-duality", "p1xp1"): "76e50521e67e220eb5e862e8095dbdce20c147456690c4826833708f9c4d3a41",
    ("symbolic-tp", None): "9daf82a966f0d278b71fe713e838123372b7bd8153af290a2e7405620b6191a5",
    ("all", None): "cbaff23a18e60f30de4da5953fbea8afbae669e1df3168e269747f437a0ac7db",
}

# `symbolic-tp` at the benchmark's truncation, recorded before the identity
# ring of verify_higher_tp was cut at the identity's degree
SYMBOLIC_TP_T12_DIGEST = "e7048625310ebf0a27a7fae9751ebd3bb18f7dfbc81b8a102c215ddf3519b671"

# small sizes, so the whole table runs in a few seconds
SIZE_FLAGS = {
    "vanish": ("--n", "2,1", "--i", "1..2"),
    "twisted-vanish": ("--n", "1,1"),
    "pushforward": ("--n", "2,1"),
    "kstep": ("--n", "1,1,1"),
    "euler-count": ("--n", "2"),
}


def test_digest_table_covers_every_kind():
    from nestloc.harness import SCENARIO_KINDS

    assert {kind for kind, _ in REPORT_DIGESTS} == set(SCENARIO_KINDS) | {"all"}


@pytest.mark.parametrize("kind,surface", sorted(REPORT_DIGESTS, key=str))
def test_stable_report_bytes_unchanged(kind, surface):
    argv = [kind, *SIZE_FLAGS.get(kind, ())]
    if surface:
        argv += ["--surface", surface]
    assert stable_report_digest(argv) == REPORT_DIGESTS[(kind, surface)]


def test_symbolic_tp_report_bytes_at_truncation_12_unchanged():
    argv = ["symbolic-tp", "--truncation", "12"]
    assert stable_report_digest(argv) == SYMBOLIC_TP_T12_DIGEST


def stable_report_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json", "--stable"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_benchmark_trace_targets_resolve():
    # a subprocess, because install() rebinds functions in every nestloc module
    script = "import nestloc.cli, spans; spans.Tracer().install()"
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("workload", ["pushforward", "fixed-points", "battery"])
def test_benchmark_traced_pass_fires_every_span(workload):
    """One untraced and one traced benchmark pass: every report matches its
    reference digest, every span the workload expects fires, and the
    traced work counts repeat.  The targets resolving is not enough: a
    change that stops a required span from firing breaks `--trace 1`."""
    argv = [os.path.join(ROOT, "bench", "run.py"), "--workload", workload, "--seconds", "0",
            "--trace", "1"]
    result = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=ROOT, timeout=300
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert (outcome["correct"], outcome["failed"]) == (True, 0), result.stdout


def _python_files(directory):
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py")
    )


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


PACKAGE = os.path.join(ROOT, "src", "nestloc")


def _public_names(body, prefix):
    """`prefix.name` and the name of each public function and class in
    `body`, and of each public method of those classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{prefix}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from _public_names(node.body, f"{prefix}.{node.name}")


def test_every_public_module_name_has_a_caller():
    defined = [
        name
        for path in _python_files(PACKAGE)
        for name in _public_names(_parse(path).body, os.path.basename(path)[:-3])
    ]
    # a read of the name, bare or as an attribute; import lines bind names
    # but do not read them, so a re-export is not a caller
    loaded = set()
    for path in _python_files(PACKAGE) + _python_files(os.path.join(ROOT, "scripts")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert [qualified for qualified, name in defined if name not in loaded] == []


def test_only_a_record_sets_its_own_slots():
    calls = [
        f"{os.path.basename(path)}:{node.lineno}"
        for path in _python_files(PACKAGE)
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_set"
        and not (node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "self")
    ]
    assert calls == []


def test_no_module_imports_another_modules_private_name():
    imports = [
        f"{os.path.basename(path)}:{node.lineno} {node.module}.{alias.name}"
        for path in _python_files(PACKAGE)
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nestloc"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
        and (node.module, alias.name) != ("value", "_set")
    ]
    assert imports == []
