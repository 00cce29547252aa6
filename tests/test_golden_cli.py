"""Golden corpus: exit code and stdout of CLI runs in both output formats.

Each invocation below is replayed through ``degpoly.cli.main`` and its
output compared byte for byte with ``golden_cli.json``.  The corpus guards
refactors that must not change what the CLI prints, including the
``--workers`` runs, which must match their serial twins.  Most cases run
under ``--format structured``; the ``text-`` cases run the default text
format of every subcommand, ``op`` with and without ``--dot``.

To rewrite the corpus (both formats) after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py`` and name the change in
CHANGES.md.
"""

import contextlib
import gc
import io
import json
from pathlib import Path

import pytest

from degpoly.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

S4 = "2x^2, 2x, 2x, x, x"
TWO_REALIZATIONS = "2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3"
CYCLE_7 = ", ".join(["2x^2"] * 7)
P3 = "a b\nb c\n"
C4 = "p q\nq r\nr s\ns p\n"
PAW = "a b\na c\nb c\nc d\n"
# A single-token line declares an isolated vertex.
P3_ISOLATED = "a b\nb c\nz\n"
# Three coefficient-sum groups, a duplicate and the intransitive 3-cycle of
# test_poly; its presentation is not plain presentation-key order.
CHECK_CYCLE = "x^3+2x^2+x, 2x^4+2x, 3x^4+x^2, 2x^4+2x, x^2, 2x^3, x^3+2x^2+x"
# Passes conditions (a)-(c); its projection (3, 3, 1, 1) is not graphical.
PROJECTION_FAILS = "x^3+2x, x^3+2x, x^3, x^3"


def _invocations() -> dict[str, list[str]]:
    out = {}
    for name, seq in (("s4", S4), ("two", TWO_REALIZATIONS), ("c7", CYCLE_7)):
        for mode in ("all", "first"):
            for workers in ("1", "2"):
                argv = ["realize", seq, "--workers", workers]
                if mode == "all":
                    argv.append("--all")
                out[f"realize-{name}-{mode}-w{workers}"] = argv
    out["check-s1"] = ["check", "2x, x^2, x, x, x"]
    out["check-cycle"] = ["check", CHECK_CYCLE]
    out["check-projection"] = ["check", PROJECTION_FAILS]
    out["realize-projection"] = ["realize", PROJECTION_FAILS]
    out["classify-5"] = ["classify", "--n", "5"]
    out["classify-5-w2"] = ["classify", "--n", "5", "--workers", "2"]
    out["family-built"] = ["family", "complete_bipartite", "3", "2"]
    out["family-closed"] = ["family", "complete_bipartite", "3", "2", "--closed-form"]
    for kind in ("join", "cartesian", "tensor", "lexicographic"):
        out[f"op-{kind}"] = ["op", kind, P3, C4, "--verify"]
    out["op-complement"] = ["op", "complement", PAW, "--verify"]
    out.update(_op_edge_cases())
    out["dp"] = ["dp", PAW]
    cases = {name: ["--format", "structured", *argv] for name, argv in out.items()}
    cases.update(_text_invocations())
    return cases


def _text_invocations() -> dict[str, list[str]]:
    out = {
        "dp": ["dp", PAW],
        "dp-isolated": ["dp", "a b\nc\n"],
        "dp-regular": ["dp", C4],
        "family-built": ["family", "complete_bipartite", "3", "2"],
        "family-closed": ["family", "cycle", "5", "--closed-form"],
        "check-s1": ["check", "2x, x^2, x, x, x"],
        "check-cycle": ["check", CHECK_CYCLE],
        "check-projection": ["check", PROJECTION_FAILS],
        "realize-s4-all": ["realize", S4, "--all"],
        "realize-s4-dot": ["realize", S4, "--dot"],
        "classify-4": ["classify", "--n", "4"],
    }
    for kind in ("join", "cartesian", "tensor", "lexicographic"):
        out[f"op-{kind}"] = ["op", kind, P3, C4, "--verify"]
        out[f"op-{kind}-dot"] = ["op", kind, P3, C4, "--verify", "--dot"]
    out["op-complement"] = ["op", "complement", PAW, "--verify"]
    out["op-complement-dot"] = ["op", "complement", PAW, "--verify", "--dot"]
    out["op-join-unverified"] = ["op", "join", P3, C4]
    out.update(_op_edge_cases())
    return {f"text-{name}": argv for name, argv in out.items()}


def _op_edge_cases() -> dict[str, list[str]]:
    """Operands whose labels collide in a join, and an isolated vertex."""
    out = {"op-join-collision": ["op", "join", PAW, PAW, "--verify"]}
    for kind in ("join", "cartesian", "tensor", "lexicographic"):
        out[f"op-{kind}-isolated"] = ["op", kind, P3_ISOLATED, P3, "--verify"]
    out["op-complement-isolated"] = ["op", "complement", P3_ISOLATED, "--verify"]
    return out


INVOCATIONS = _invocations()


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_cli(name, golden):
    want = golden[name]
    assert want["argv"] == INVOCATIONS[name]
    code, out = _run(INVOCATIONS[name])
    assert code == want["exit"]
    assert out.encode() == want["stdout"].encode()


@pytest.mark.parametrize(
    "name", sorted(name for name in INVOCATIONS if not name.endswith("-w2"))
)
def test_leaves_no_cyclic_garbage(name):
    """A warm run frees everything it made by reference counting alone: the
    commands that pause the collector build nothing cyclic, and the
    searches break their closures' cycles."""
    gc.disable()
    try:
        _run(INVOCATIONS[name])
        gc.collect()
        _run(INVOCATIONS[name])
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


if __name__ == "__main__":
    corpus = {}
    for name, argv in sorted(INVOCATIONS.items()):
        code, out = _run(argv)
        corpus[name] = {"argv": argv, "exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
