"""CLI behavior: subcommands, exit codes, output determinism."""

import gc
import hashlib
import itertools
import json
import time
import weakref

import pytest

from degpoly import (
    DpReport,
    OpKind,
    OperationCheck,
    PolySequence,
    SimpleGraph,
    canonical_form,
    cli,
    complete_graph,
    dp_report,
    from_edge_list,
    parse_poly,
    realizability,
    realize,
    verify_operation,
)
from degpoly.cli import main
from degpoly.dp import VertexCheck

PAW_EDGES = "a b\na c\nb c\nc d\n"
K40 = "".join(f"a{u} a{v}\n" for u, v in itertools.combinations(range(40), 2))


def edgeless(n: int) -> str:
    return "".join(f"a{u}\n" for u in range(n))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDp:
    def test_example_sequence(self, capsys, tmp_path):
        path = tmp_path / "example.edges"
        path.write_text(PAW_EDGES)
        code, out, _ = run(capsys, "dp", str(path))
        assert code == 0
        assert "sequence: 2x^2+x, x^3+x^2, x^3+x^2, x^3" in out
        assert "vertex c: degree 3, dp = 2x^2+x" in out
        assert "dp(G) = x^3+2x^2+x" in out

    def test_inline_literal(self, capsys):
        code, out, _ = run(capsys, "dp", "a b")
        assert code == 0
        assert "sequence: x, x" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "dp", "a b")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "dp"
        assert doc["sequence"] == [[[1, 1]], [[1, 1]]]

    def test_isolated_vertices_noted(self, capsys):
        code, out, _ = run(capsys, "dp", "a b\nc")
        assert code == 0
        assert "isolated vertices: c" in out

    def test_duplicate_edge_warns_on_stderr(self, capsys):
        code, out, err = run(capsys, "dp", "u v\nu v")
        assert code == 0
        assert "duplicate edge" in err

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "dp", "x x")
        assert code == 1
        assert err.startswith("error: ")


class TestFamily:
    def test_closed_form_matches_constructed(self, capsys):
        code, direct, _ = run(capsys, "family", "complete_bipartite", "3", "2")
        assert code == 0
        code, closed, _ = run(
            capsys, "family", "complete_bipartite", "3", "2", "--closed-form"
        )
        assert code == 0
        line = next(l for l in direct.splitlines() if l.startswith("sequence:"))
        assert line in closed
        assert "3x^2, 3x^2, 2x^3, 2x^3, 2x^3" in line

    def test_bad_params_exit_one(self, capsys):
        code, _, err = run(capsys, "family", "cycle", "2")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv", [["complete", "100000"], ["cycle", "1000000", "--closed-form"]]
    )
    def test_order_beyond_bound_exits_one_promptly(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "family", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and not out
        assert err.startswith("error: TooLargeError: ")
        assert "Traceback" not in err


class TestOp:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["lexicographic", K40, K40], id="K40[K40]"),
            pytest.param(["tensor", edgeless(400), edgeless(400)], id="160000-vertices"),
            pytest.param(["complement", edgeless(5000)], id="complement-5000"),
        ],
    )
    def test_result_beyond_bound_exits_one_promptly(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "op", *argv, "--verify")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and not out
        assert err.startswith("error: TooLargeError: ")
        assert "Traceback" not in err

    def test_join_verify(self, capsys, tmp_path):
        p3 = tmp_path / "p3.edges"
        p3.write_text("a b\nb c\n")
        c4 = tmp_path / "c4.edges"
        c4.write_text("p q\nq r\nr s\ns p\n")
        code, out, _ = run(capsys, "op", "join", str(p3), str(c4), "--verify")
        assert code == 0
        assert "7/7 vertices match formula" in out

    def test_join_verify_single_vertex(self, capsys, tmp_path):
        k1 = tmp_path / "k1.edges"
        k1.write_text("a\n")
        c4 = tmp_path / "c4.edges"
        c4.write_text("p q\nq r\nr s\ns p\n")
        code, out, _ = run(capsys, "op", "join", str(k1), str(c4), "--verify")
        assert code == 0
        assert "5/5 vertices match formula" in out

    def test_join_primed_label_collision(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "op", "join", "a b", "a a'")
        assert code == 0
        labels = json.loads(out)["result"]["labels"]
        assert len(set(labels)) == len(labels) == 4
        code, out, _ = run(capsys, "op", "join", "a b", "a a'", "--verify")
        assert code == 0
        edges = out.splitlines()[1:-1]
        reread = from_edge_list("\n".join(edges)).graph
        assert canonical_form(reread) == canonical_form(complete_graph(4))

    def test_complement(self, capsys):
        code, out, _ = run(capsys, "op", "complement", PAW_EDGES)
        assert code == 0
        assert "result: 4 vertices, 2 edges" in out
        assert "a d" in out and "b d" in out

    def test_complement_rejects_second_operand(self, capsys):
        code, _, err = run(capsys, "op", "complement", "a b", "c d")
        assert code == 1
        assert err == "error: BadParamsError: complement takes a single graph\n"

    def test_binary_requires_second_operand(self, capsys):
        code, _, err = run(capsys, "op", "tensor", "a b")
        assert code == 1
        assert err == "error: BadParamsError: tensor takes two graphs\n"

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "op", "cartesian", "a b", "c d", "--dot")
        assert code == 0
        assert "graph {" in out and "--" in out

    def test_structured_includes_verification(self, capsys):
        code, out, _ = run(
            capsys, "--format", "structured", "op", "tensor", "a b", "c d", "--verify"
        )
        doc = json.loads(out)
        assert doc["verify"]["ok"] is True
        assert doc["verify"]["vertices_checked"] == 4


class TestCollectorState:
    """``main`` leaves the cyclic collector as it found it, on success and
    on every exit-1 path."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["dp", PAW_EDGES], id="dp"),
            pytest.param(["family", "cycle", "5"], id="family"),
            pytest.param(["family", "cycle", "5", "--closed-form"], id="family-closed"),
            pytest.param(["op", "lexicographic", PAW_EDGES, "x y", "--verify"], id="op"),
            pytest.param(["op", "tensor", edgeless(400), edgeless(400)], id="op-too-large"),
            pytest.param(["op", "join", "a b c", "x y"], id="op-bad-edge-list"),
            pytest.param(["dp", "a a"], id="dp-self-loop"),
            pytest.param(["family", "cycle", "2"], id="family-bad-params"),
            pytest.param(["op", "tensor", "a b", "--frobnicate"], id="usage-error"),
            pytest.param(["check", "2x, x^2, x, x, x"], id="check"),
            pytest.param(["realize", "x, x"], id="realize"),
            pytest.param(["classify", "--n", "3"], id="classify"),
        ],
    )
    def test_state_restored(self, capsys, argv, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            main(argv)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert after is enabled

    @pytest.mark.parametrize(
        "argv",
        [
            ["dp", PAW_EDGES],
            ["family", "cycle", "5"],
            ["op", "cartesian", PAW_EDGES, "x y", "--verify"],
            ["check", "2x, x^2, x, x, x"],
            ["realize", "x, x"],
            ["classify", "--n", "2"],
        ],
    )
    def test_paused_for_every_command(self, capsys, monkeypatch, argv):
        seen = []

        def recording_emit(out, emit=cli._emit):
            seen.append(gc.isenabled())
            emit(out)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        assert gc.isenabled()
        main(argv)
        capsys.readouterr()
        assert seen == [False]
        assert gc.isenabled()


def recording(init, made: list):
    """``init`` that also appends a weak reference to each new instance."""

    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    return wrapper


class TestReleaseBeforeEmit:
    """``dp`` and ``op`` free every graph, report and check they made before
    ``_emit`` encodes, by reference counting alone, and ``op`` frees its
    check before it encodes the result graph."""

    @pytest.mark.parametrize("fmt", ["structured", "text"])
    @pytest.mark.parametrize(
        "argv",
        [pytest.param(["dp", PAW_EDGES + "e\n"], id="dp")]
        + [
            pytest.param(["op", kind, PAW_EDGES, "x y\ny z", "--verify"], id=f"op-{kind}")
            for kind in ("join", "cartesian", "tensor", "lexicographic")
        ]
        + [pytest.param(["op", "complement", PAW_EDGES, "--verify"], id="op-complement")],
    )
    def test_nothing_large_alive_on_emit(self, capsys, monkeypatch, argv, fmt):
        made = {cls: [] for cls in (SimpleGraph, DpReport, OperationCheck)}
        for cls, refs in made.items():
            monkeypatch.setattr(cls, "__init__", recording(cls.__init__, refs))
        alive_on_emit, checks_on_encode = [], []

        def alive(cls):
            return [cls.__name__ for r in made[cls] if r() is not None]

        def checking_emit(out, emit=cli._emit):
            alive_on_emit.append(alive(SimpleGraph) + alive(DpReport) + alive(OperationCheck))
            emit(out)

        def checking_to_dict(self, to_dict=SimpleGraph.to_dict):
            checks_on_encode.extend(alive(OperationCheck))
            return to_dict(self)

        monkeypatch.setattr(cli, "_emit", checking_emit)
        monkeypatch.setattr(SimpleGraph, "to_dict", checking_to_dict)
        gc.disable()
        try:
            code = main(["--format", fmt, *argv])
        finally:
            gc.enable()
        capsys.readouterr()
        assert code == 0
        assert alive_on_emit == [[]]
        assert checks_on_encode == []
        assert made[SimpleGraph] and (made[DpReport] or made[OperationCheck])


def listed(obj):
    """``obj`` with every tuple made a list, recursively."""
    if isinstance(obj, dict):
        return {key: listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(item) for item in obj]
    return obj


PAW = from_edge_list(PAW_EDGES + "e\n").graph
P3 = from_edge_list("x y\ny z").graph
TWO_CLASSES = PolySequence.parse("2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3")
UNREALIZABLE = PolySequence.parse("3x^2, 2x^2, 2x^2, 2x^2, x^2")


class TestStructuredEncoding:
    """``to_dict()`` trees share the library's tuples; their JSON is the
    JSON of the same tree built from lists."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: PAW, id="graph"),
            pytest.param(lambda: dp_report(PAW), id="dp-report-isolated"),
            pytest.param(lambda: dp_report(complete_graph(4)), id="dp-report"),
            pytest.param(lambda: verify_operation("lexicographic", P3, P3), id="op-check"),
            pytest.param(
                lambda: OperationCheck(
                    OpKind.JOIN, P3, (VertexCheck("x", parse_poly("x"), parse_poly("2x^2+1")),)
                ),
                id="op-check-mismatch",
            ),
            pytest.param(lambda: canonical_form(PAW), id="canonical-form"),
            pytest.param(lambda: realize(TWO_CLASSES, want_all_witnesses=True), id="realize"),
            pytest.param(lambda: realize(UNREALIZABLE), id="unrealizable"),
        ],
    )
    def test_encodes_as_lists(self, build):
        tree = build().to_dict()
        compact = (",", ":")
        encoded = json.dumps(tree, separators=compact, check_circular=False)
        assert encoded == json.dumps(listed(tree), separators=compact)
        assert json.loads(encoded) == listed(tree)


class TestCheck:
    def test_s1_fails_c(self, capsys, tmp_path):
        seq = tmp_path / "s1.seq"
        seq.write_text("2x\nx^2\nx\nx\nx\n")
        code, out, _ = run(capsys, "check", str(seq))
        assert code == 2
        assert "(c) FAIL" in out
        assert "(a) PASS" in out and "(b) PASS" in out
        assert "projection (2,1,1,1,1): graphical" in out

    def test_passing_sequence(self, capsys):
        code, out, _ = run(capsys, "check", "2x^2, 2x, 2x, x, x")
        assert code == 0
        assert "conditions pass" in out

    @pytest.mark.parametrize(
        "command, text, presented",
        [
            pytest.param("check", "x, 2x^2, 2x, 2x, x", False, id="text-unsorted"),
            pytest.param("check", "2x^2, 2x, 2x, x, x", True, id="text-presented"),
            pytest.param("check", "[[[1,1]], [[2,2]], [[1,2]], [[1,2]], [[1,1]]]", False,
                         id="pairs-unsorted"),
            pytest.param("check", "[[[2,2]], [[1,2]], [[1,2]], [[1,1]], [[1,1]]]", True,
                         id="pairs-presented"),
            pytest.param("realize", "x, 2x^2, 2x, 2x, x", False, id="realize-text-unsorted"),
            pytest.param("realize", "2x^2, 2x, 2x, x, x", True, id="realize-text-presented"),
            pytest.param("realize", "[[[1,1]], [[2,2]], [[1,2]], [[1,2]], [[1,1]]]", False,
                         id="realize-pairs-unsorted"),
            pytest.param("realize", "[[[2,2]], [[1,2]], [[1,2]], [[1,1]], [[1,1]]]", True,
                         id="realize-pairs-presented"),
        ],
    )
    def test_reports_whether_input_was_presented(self, capsys, command, text, presented):
        code, out, _ = run(capsys, "--format", "structured", command, text)
        # The sequence passes the conditions but has no realization.
        assert code == (2 if command == "realize" else 0)
        doc = json.loads(out)
        conditions = doc["conditions"] if command == "realize" else doc
        assert conditions["input_was_sorted"] is presented
        assert doc["sequence"] == [[[2, 2]], [[1, 2]], [[1, 2]], [[1, 1]], [[1, 1]]]


class TestRealize:
    def test_insufficiency(self, capsys):
        code, out, _ = run(capsys, "realize", "2x^2, 2x, 2x, x, x", "--max-n", "5", "--all")
        assert code == 2
        assert "0 witnesses (exhaustive)" in out

    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "realize", "2x^2, 2x^2, 2x^2", "--all")
        assert code == 0
        assert "1 witnesses (exhaustive)" in out
        assert "witness 1: 0-1 0-2 1-2" in out

    def test_condition_failure_short_circuits(self, capsys):
        code, out, _ = run(capsys, "realize", "2x, x^2, x, x, x")
        assert code == 2
        assert "condition (c)" in out

    def test_structured_sequence_input(self, capsys, tmp_path):
        path = tmp_path / "pairs.seq"
        path.write_text('[[[2, 2]], [[2, 2]], [[2, 2]]]')
        code, out, _ = run(capsys, "realize", str(path), "--all")
        assert code == 0
        assert "sequence: 2x^2, 2x^2, 2x^2" in out
        assert "1 witnesses (exhaustive)" in out

    @pytest.mark.parametrize("command", ["realize", "check"])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[[[2, 2", id="truncated"),
            pytest.param("[1]", id="entry-not-a-list"),
            pytest.param("[[1]]", id="term-not-a-pair"),
            pytest.param('[[["a",1]]]', id="string-exponent"),
            pytest.param("[[[1,-1]]]", id="negative-coefficient"),
            pytest.param("[[[-1,1]]]", id="negative-exponent"),
            pytest.param("[[[1,1,1]]]", id="term-of-three"),
            pytest.param("[[[1.5,1]]]", id="float-exponent"),
            pytest.param("[[[true,1]]]", id="boolean-exponent"),
            pytest.param("[" * 100000, id="nested-too-deep"),
        ],
    )
    def test_bad_structured_sequence(self, capsys, command, text):
        code, _, err = run(capsys, command, text)
        assert code == 1
        assert err.startswith("error: DegpolyError: bad structured sequence:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["realize", "check"])
    @pytest.mark.parametrize("text", ["x^²", "²x", "٣x"])
    def test_non_ascii_digit_is_a_parse_error(self, capsys, command, text):
        code, out, err = run(capsys, command, text)
        assert code == 1 and out == ""
        assert err.startswith("error: PolyParseError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["realize", "check"])
    @pytest.mark.parametrize(
        "text", ["x^" + "9" * 5000, "9" * 5000 + "x"], ids=["exponent", "coefficient"]
    )
    def test_digit_run_past_int_limit_is_a_parse_error(self, capsys, command, text):
        code, out, err = run(capsys, command, text)
        assert code == 1 and out == ""
        assert err.startswith("error: PolyParseError: ")
        assert "Traceback" not in err

    def test_dot_witnesses(self, capsys):
        code, out, _ = run(capsys, "realize", "x, x", "--all", "--dot")
        assert code == 0
        assert 'graph {' in out

    def test_flag_bound(self, capsys):
        # --max-n bounds only --all; past it the first witness is shown.
        seq = "2x^2, 2x^2, 2x^2, 2x^2, 2x^2"
        code, out, _ = run(capsys, "realize", seq, "--max-n", "4", "--all")
        assert code == 0
        assert "1 witnesses (not exhaustive)" in out
        assert "exceeds the search bound 4" in out
        code, out, _ = run(capsys, "realize", seq, "--max-n", "4")
        assert code == 0
        assert out.endswith("verdict: 1 non-isomorphic realization(s) found\n")

    @pytest.mark.parametrize("bound", [("--max-n", "17")], ids=["flag"])
    def test_bound_above_canonical_form_bound_gives_a_verdict(self, capsys, bound):
        code, out, err = run(capsys, "realize", ", ".join(["2x^2"] * 17), *bound, "--all")
        assert code == 0 and err == ""
        assert "witnesses" not in out
        assert out.endswith("verdict: realizable; order 17 exceeds the search bound 16\n")

    def test_structured_bytes_stable(self, capsys):
        args = ("--format", "structured", "realize", "2x^2, 2x, 2x, x, x", "--all")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["exhaustive"] is True and doc["nonisomorphic_count"] == 0

    def test_workers_flag_byte_identical(self, capsys):
        base = ("--format", "structured", "realize",
                "2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3")
        for mode in (("--all",), ()):
            _, out1, _ = run(capsys, *base, *mode, "--workers", "1")
            _, out4, _ = run(capsys, *base, *mode, "--workers", "4")
            assert out1 == out4

    @pytest.mark.parametrize(
        "entries, max_n, digest",
        [
            (["4x^4"] * 10, "12", "c0b1dda6bf27"),
            # SEQ_MANY_UNITS of test_realize.py: 8 units, 1,932 classes.
            (["3x^4+x^3"] * 4 + ["2x^4+2x^3"] * 3 + ["3x^4"] * 2 + ["2x^4+x^3"] * 2,
             "11", "48d0b5e703d3"),
        ],
        ids=["10x4x^4", "many-units"],
    )
    def test_two_workers_keep_the_pinned_bytes(self, capsys, entries, max_n, digest):
        # One worker searches in one unit, two split at vertex 0's rows;
        # both print the bytes pinned before the split.
        argv = ("--format", "structured", "realize", ", ".join(entries), "--all")
        for workers in ("1", "2"):
            code, out, _ = run(capsys, *argv, "--max-n", max_n, "--workers", workers)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest, workers

    def test_failed_witness_recheck_is_a_data_error(self, capsys, monkeypatch):
        # A Havel-Hakimi that builds no edges: the constructed graph fails
        # its re-check.
        seq = "2x^2, 2x^2, 2x^2"
        assert run(capsys, "realize", seq)[0] == 0
        monkeypatch.setattr(realizability, "_havel_hakimi_edges", lambda d: [])
        code, _, err = run(capsys, "realize", seq)
        assert code == 1
        assert err.startswith("error: WitnessVerificationError: ")
        assert "Traceback" not in err


class TestClassify:
    def test_order_three(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3")
        assert code == 0
        assert "2 distinct sequences on 3 vertices" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "classify", "--n", "2")
        doc = json.loads(out)
        assert doc["sequences"] == [
            {"sequence": [[[1, 1]], [[1, 1]]], "isomorphism_classes": 1}
        ]

    def test_bound(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "12")
        assert code == 1
        assert "error: TooLargeError" in err


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "dp", "--bogus", "a b")
        assert code == 1
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--n", "-1"),
            ("classify", "--n", "0"),
            ("classify", "--n", "3", "--workers", "0"),
            ("realize", "x, x", "--max-n", "-1"),
            ("realize", "x, x", "--max-n", "two"),
            ("realize", "x, x", "--workers", "0"),
            ("realize", "x, x", "--workers", "-3"),
            ("realize", "x, x", "--all", "--workers", "1.5"),
        ],
    )
    def test_bad_numeric_flag_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error: usage: argument --" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "realize" in out
