"""CLI behavior: exit codes, reports, determinism, and the corpus runner."""

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedga import TrajectorySearchBounds, TreeSearchBounds, cli
from cedga.cli import main, run_corpus
from cedga.corpus import CASES, FILES, corpus_text
from cedga.textio import DocumentError
from test_stdlib_only import run_fresh


@pytest.fixture()
def corpus_dir(tmp_path):
    from cedga.corpus import FILES
    for name in FILES:
        (tmp_path / name).write_text(corpus_text(name), encoding="utf-8")
    return tmp_path


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_validate_ok_and_exit_codes(corpus_dir):
    code, out = run_cli(["validate", str(corpus_dir / "ce_trivial.txt")])
    assert code == 0 and "valid" in out
    code, out = run_cli(["validate", str(corpus_dir / "fault_action.txt")])
    assert code == 1 and "action" in out
    code, out = run_cli(["validate", str(corpus_dir / "fault_parse.txt")])
    assert code == 2


def test_missing_file_is_input_error(tmp_path):
    code, out = run_cli(["validate", str(tmp_path / "nope.txt")])
    assert code == 2 and "error" in out


@pytest.mark.parametrize("argv", [["validate", "surgery_k2.txt"],
                                  ["validate", "ce_two_point.txt"],
                                  ["augment", "ce_two_point.txt"]])
def test_subcommand_loads_only_what_it_uses(corpus_dir, argv):
    # surgery_k2.txt carries surgery role lines; parsing them needs no cedga.surgery
    argv = [argv[0], str(corpus_dir / argv[1])]
    out = run_fresh("import contextlib, io, json, sys\n"
                    "from cedga.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert main({argv!r}) == 0\n"
                    "print(json.dumps([m for m in sys.modules if m.startswith('cedga.')]))")
    loaded = set(json.loads(out))
    assert "cedga.dga" in loaded
    assert loaded.isdisjoint({"cedga.pearly", "cedga.surgery", "cedga.bridge"})


def test_internal_error_exits_3(corpus_dir, monkeypatch, capsys):
    def fail(args, runner):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "_cmd_validate", fail)
    assert main(["validate", str(corpus_dir / "ce_trivial.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: unexpected\n"


def test_argparse_exit_passes_through(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_augment_counts(corpus_dir):
    code, out = run_cli(["augment", "--list", str(corpus_dir / "ce_two_point.txt")])
    assert code == 0
    assert "1 augmentation" in out
    assert "x1=1, x2=1" in out


def test_augment_limit_refusal(corpus_dir):
    code, out = run_cli(["augment", "--limit", "0",
                         str(corpus_dir / "ce_trivial.txt")])
    assert code == 2 and "exceed" in out
    # without --limit the library's default bound of 24 applies
    path = corpus_dir / "wide.txt"
    path.write_text("field 2\n" + "".join(f"gen x{i} 0 {i + 1}/1 reeb\n" for i in range(25)),
                    encoding="utf-8")
    code, out = run_cli(["augment", str(path)])
    assert (code, out) == (2, "error: 25 degree-0 generators exceed the bound 24\n")


def test_json_report_deterministic(corpus_dir, tmp_path):
    target = tmp_path / "report.json"
    outputs = []
    for _ in range(2):
        code, _ = run_cli(["validate", str(corpus_dir / "ce_two_point.txt"),
                           "--json", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["tool"] == "cedga"
    assert report["status"] == "ok"
    assert len(report["input_sha256"]) == 64


def test_json_to_stdout(corpus_dir):
    code, out = run_cli(["augment", str(corpus_dir / "ce_trivial.txt"),
                         "--json", "-"])
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["count"] == 2


def test_ce_lift_writes_dga(corpus_dir, tmp_path):
    target = tmp_path / "lifted.txt"
    code, out = run_cli(["ce-lift", str(corpus_dir / "mc_two_points.txt"),
                         "-o", str(target)])
    assert code == 0
    text = target.read_text()
    assert "gen y -1" in text          # degree 1 - 2
    assert "d y = 1 + x1 + x1 x2" in text


REJECTED_LIFT = ("field 2\nddeg 1\ngen x1 0 1/4 reeb\ngen y -1 2/1 reeb\ngen z -1 1/8 reeb\n"
                 "d y = x1\nd z = 1\n"
                 "rejected (z; x1, x1): action 1/8 not above input total 1/2\n")


def test_ce_lift_rejection_bytes(corpus_dir):
    path = str(corpus_dir / "fault_counts_rejected.txt")
    assert run_cli(["ce-lift", path]) == (0, REJECTED_LIFT)
    assert run_cli(["ce-lift", path, "--json", "-"]) == (0, REJECTED_LIFT + """{
  "tool": "cedga",
  "version": "0.1.0",
  "command": "ce-lift",
  "input_sha256": "ed6f2b16b8ae7bf10d21935ed39a914b695df30c7d56cbcd3bbbf5ee775454cc",
  "status": "ok",
  "generators": 3,
  "rejected": [
    {
      "entry": "(z; x1, x1)",
      "reason": "action 1/8 not above input total 1/2"
    }
  ]
}
""")


def test_mc_check_exit_codes(corpus_dir):
    code, out = run_cli(["mc-check", str(corpus_dir / "mc_two_points.txt"),
                         "--cochain", str(corpus_dir / "cochain_x1.txt")])
    assert code == 0 and "identity: holds" in out
    code, out = run_cli(["mc-check", str(corpus_dir / "mc_two_points.txt"),
                         "--cochain", str(corpus_dir / "cochain_empty.txt")])
    assert code == 1 and "obstructed" in out


def test_mc_check_support_violation(corpus_dir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("field 2\nset y = 1\n")  # y is a degree-2 output
    code, out = run_cli(["mc-check", str(corpus_dir / "mc_two_points.txt"),
                         "--cochain", str(bad)])
    assert code == 2 and "degree-1" in out


def test_surgery_pipeline_with_marks(corpus_dir, tmp_path):
    # append an order-reversing chord and mark it; the pipeline quotients first
    text = corpus_text("surgery_k2.txt") + "gen rev 0 1/7 reeb\nmark rev\n"
    f = tmp_path / "marked.txt"
    f.write_text(text)
    code, out = run_cli(["surgery", str(f),
                         "--base-aug", str(corpus_dir / "cochain_x1.txt")])
    assert code == 0
    assert "quotiented 1 order-reversing chord" in out
    assert "certificate verified" in out


def _surgery_violation_output(headline, sha, kind, subject, detail):
    return (f"{headline}\n  [{kind}] {subject}: {detail}\n"
            '{\n  "tool": "cedga",\n  "version": "0.1.0",\n  "command": "surgery",\n'
            f'  "input_sha256": "{sha}",\n  "status": "violations",\n'
            '  "violations": [\n    {\n'
            f'      "kind": "{kind}",\n      "subject": "{subject}",\n'
            f'      "detail": "{detail}"\n    }}\n  ]\n}}\n')


@pytest.mark.parametrize("name,extra,expected", [
    ("fault_surgery_shape.txt", "", _surgery_violation_output(
        "1 structural violation(s):",
        "5b37c10acd4120ada86cd5b173b63c83bbd7f2758fb0c23b153a3b32bc4252eb",
        "surgery.shape", "b1_12", "missing distinguished monomial a2 c1_12")),
    ("surgery_k2.txt",
     "gen u -1 1/60 reeb\ngen v -2 1/30 reeb\nd u = 1\nd v = u\n",
     _surgery_violation_output(
         "1 structural violation(s):",
         "14680a350679e91e23c37ea496ca2c75faba5c2e23351bec011f717fdb896604",
         "d_squared", "v", "d(d(v)) = 1")),
    ("surgery_k2.txt", "gen y -1 1/3 reeb\nd y = x1\n", _surgery_violation_output(
        "base augmentation is invalid:",
        "877f079d310f5617debd9fa9f4e3ef4535fa52b3d6f6cb61569771e24f89fb13",
        "augmentation.residual", "y", "e(d(y)) = 1 with d(y) = x1")),
])
def test_surgery_failure_output_pinned(corpus_dir, tmp_path, name, extra, expected):
    # shape fault, d^2 fault and invalid base augmentation: exact text and
    # --json - bytes, exit 1
    f = tmp_path / "surgery.txt"
    f.write_text(corpus_text(name) + extra, encoding="utf-8")
    code, out = run_cli(["surgery", str(f), "--base-aug",
                         str(corpus_dir / "cochain_x1.txt"), "--json", "-"])
    assert code == 1
    assert out == expected


def test_quotient_output_file(corpus_dir, tmp_path):
    target = tmp_path / "quotient.txt"
    code, _ = run_cli(["quotient", str(corpus_dir / "quotient_demo.txt"),
                       "-o", str(target)])
    assert code == 0
    assert "d g = s" in target.read_text()


@pytest.mark.parametrize("argv,lines", [
    (["quotient", "quotient_demo.txt", "-o", "."],
     ["error: cannot write .: Is a directory"]),
    (["validate", "ce_trivial.txt", "--json", "missing/r.json"],
     ["ce_trivial.txt: 1 generators, 0 nonzero differentials",
      "valid: d^2 = 0, grading and action filtration hold",
      "error: cannot write missing/r.json: No such file or directory"]),
    (["quotient", "quotient_demo.txt", "-o", ".", "--json", "missing/r.json"],
     ["error: cannot write .: Is a directory",
      "error: cannot write missing/r.json: No such file or directory"]),
], ids=["output", "json", "both"])
def test_unwritable_output_path_is_input_error(corpus_dir, monkeypatch, capsys, argv, lines):
    # a --json path that fails is reported once, after what was printed, and
    # not written again for the error report
    monkeypatch.chdir(corpus_dir)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == lines and err == ""


def test_tree_and_traj_check(corpus_dir):
    code, out = run_cli(["tree-check", str(corpus_dir / "tree_single.txt")])
    assert code == 0 and "telescoped=True" in out
    code, out = run_cli(["traj-check", str(corpus_dir / "traj_pair.txt")])
    assert code == 0 and "telescoped=True" in out


@pytest.mark.parametrize("command,name,block", [
    ("tree-check", "tree_single.txt",
     '  "ledger": {\n    "m": 1,\n    "k": 2,\n    "lhs": 0,\n    "rhs": 0,\n'
     '    "telescoped": true\n  },\n'),
    ("traj-check", "traj_pair.txt",
     '  "ledger": {\n    "M": 2,\n    "K": 2,\n    "m0": 0,\n    "m1": 0,\n'
     '    "k": 0,\n    "l": 0,\n    "lhs": 2,\n    "rhs": 2,\n'
     '    "telescoped": true\n  },\n'),
])
def test_check_json_ledger_block(corpus_dir, command, name, block):
    code, out = run_cli([command, str(corpus_dir / name), "--json", "-"])
    assert code == 0
    start = out.index('  "ledger"')
    assert out[start:out.index('  "hypotheses_ok"')] == block


def test_search_cli_refusal():
    code, out = run_cli(["search", "--mode", "trees", "--max-disks", "4",
                         "--max-configs", "10"])
    assert code == 2 and "exceed" in out


@pytest.mark.parametrize("flags", [["--mode", "trees", "--max-disks", "99"],
                                   ["--mode", "trajectories", "--max-strips", "99"]])
def test_search_cli_refuses_huge_bounds_at_once(flags):
    start = time.perf_counter()
    code, out = run_cli(["search", *flags])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "exceed the limit 50000000" in out


@pytest.mark.parametrize("flags,message", [
    (["--mode", "trees", "--max-disks", "0"], "max_disks must be at least 1"),
    (["--mode", "trees", "--max-disks", "-1"], "max_disks must be at least 1"),
    (["--mode", "trajectories", "--max-strips", "0"], "max_strips must be at least 1"),
    (["--mode", "trees", "--max-inputs", "-1"], "max_inputs_per_disk must be nonnegative"),
    (["--mode", "trees", "--degree-lo", "2", "--degree-hi", "1"], "empty degree range"),
    (["--mode", "trees", "--max-configs", "-1"], "max_configs must be at least 1, got -1"),
    (["--mode", "trajectories", "--max-configs", "0"], "max_configs must be at least 1, got 0"),
])
def test_search_cli_rejects_vacuous_bounds(flags, message):
    code, out = run_cli(["search", *flags])
    assert code == 2 and f"error: {message}" in out
    assert "counterexamples" not in out


@pytest.mark.parametrize("flags,message", [
    (["--mode", "trajectories", "--max-strips", "1", "--max-disks", "0"],
     "--max-disks does not apply to --mode trajectories"),
    (["--mode", "trees", "--max-disks", "1", "--max-strips", "5"],
     "--max-strips does not apply to --mode trees"),
])
def test_search_cli_rejects_the_other_modes_count_flag(flags, message):
    code, out = run_cli(["search", *flags])
    assert code == 2 and out.strip() == f"error: {message}"


def test_augment_invalid_field_is_input_error(corpus_dir):
    code, out = run_cli(["augment", "--field", "4", str(corpus_dir / "ce_trivial.txt")])
    assert code == 2
    assert out.strip() == "error: field characteristic must be a prime <= 97, got 4"


@pytest.mark.parametrize("command", [["validate"], ["ce-lift"], ["tree-check"],
                                     ["mc-check", "--cochain", "ALSO"]])
def test_non_utf8_input_is_input_error(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"field 2\n" + b"# padding\n" * 5000 + b"gen x 0 1/2 reeb \xff\n")
    argv = [str(bad) if arg == "ALSO" else arg for arg in command]
    code, out = run_cli([argv[0], str(bad), *argv[1:]])
    assert code == 2
    assert out.strip() == "error: line 5002: invalid UTF-8 byte 0xff"


@pytest.mark.parametrize("mode,max_inputs", [("trees", "30000"),
                                             ("trajectories", "3000000")])
def test_search_cli_refuses_huge_inputs_at_once(mode, max_inputs):
    start = time.perf_counter()
    code, out = run_cli(["search", "--mode", mode, "--max-inputs", max_inputs])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "exceed the limit 50000000" in out


def test_search_cli_json_bytes():
    code, out = run_cli(["search", "--mode", "trajectories", "--max-strips", "1",
                         "--degree-lo", "-1", "--degree-hi", "2", "--json", "-"])
    assert code == 0
    assert out[out.index("{"):] == (
        '{\n  "tool": "cedga",\n  "version": "0.1.0",\n  "command": "search",\n'
        '  "input_sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",\n'
        '  "status": "ok",\n  "mode": "trajectories",\n  "bounds": {\n'
        '    "max_strips": 1,\n    "max_marked_per_strip": 2,\n    "max_total_marked": 3,\n'
        '    "max_attached_disks": 2,\n    "max_inputs_per_disk": 2,\n'
        '    "degree_range": [\n      -1,\n      2\n    ],\n'
        '    "max_configs": 50000000,\n    "materialize_stride": 20000\n  },\n'
        '  "estimated_configs": 1756,\n  "enumerated": 1756,\n  "telescope_failures": 0,\n'
        '  "materialized": 0,\n  "counterexamples": []\n}\n')


def test_search_cli_small():
    code, out = run_cli(["search", "--mode", "trajectories", "--max-strips", "1",
                         "--degree-lo", "-1", "--degree-hi", "2"])
    assert code == 0 and "counterexamples: 0" in out
    assert "in degree window" in out


def test_corpus_runner_all_pass():
    results = run_corpus()
    assert len(results) == len(CASES)
    failed = [r["name"] for r in results if not r["passed"]]
    assert failed == []


def test_corpus_command():
    code, out = run_cli(["corpus"])
    assert code == 0
    assert out.count("PASS") >= len(CASES)


def test_corpus_command_reports_a_failing_case(monkeypatch):
    import cedga.corpus
    monkeypatch.setattr(cedga.corpus, "CASES", [
        ("validate-ok", ["validate", "ce_trivial.txt"], 0, "valid"),
        ("validate-wrong-fragment", ["validate", "ce_trivial.txt"], 0, "not in the output")])
    code, out = run_cli(["corpus"])
    assert (code, out) == (1, "PASS validate-ok: exit 0 (expected 0)\n"
                              "FAIL validate-wrong-fragment: exit 0 (expected 0)\n"
                              "     valid: d^2 = 0, grading and action filtration hold\n"
                              "1/2 corpus cases behaved as expected\n")


_FILE_CASES = [argv for _, argv, _, _ in CASES if any(arg in FILES for arg in argv)]
_VOCAB = ["field", "ddeg", "gen", "d", "count", "strip", "disk", "edge", "attach",
          "set", "mark", "surgery", "=", "+", "bottom:", "top:", "#", "0", "1", "-1",
          "2", "4", "97", "1/0", "1/3", "-1/2", "x1", "y", "q0", "q1", "a1", "b1_12",
          "c1_12", "reeb", "dp+", "mixed", "a", "b", "c"]


def mutate(draw, text):
    """``text`` after one to three edits, each deleting or duplicating a
    line or swapping one of its tokens for one from a small vocabulary."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_VOCAB))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def _corpus_mutants(draw):
    """A corpus case with one of its files mutated."""
    argv = draw(st.sampled_from(_FILE_CASES))
    target = draw(st.sampled_from([arg for arg in argv if arg in FILES]))
    return argv, target, mutate(draw, corpus_text(target))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name in FILES:
        (root / name).write_text(corpus_text(name), encoding="utf-8")
    return root


@settings(max_examples=200, deadline=None)
@given(mutant=_corpus_mutants())
def test_mutated_corpus_keeps_exit_contract(fuzz_dir, mutant):
    argv, target, text = mutant
    (fuzz_dir / "mutant.txt").write_text(text, encoding="utf-8")
    resolved = [str(fuzz_dir / ("mutant.txt" if arg == target else arg))
                if arg in FILES else arg for arg in argv]
    code, _ = run_cli(resolved)
    assert code in (0, 1, 2)


def _parser_of(argv, target):
    """The parser the CLI applies to ``target`` in ``argv`` (every corpus
    document declares field 2, so a values file is read over F_2)."""
    from cedga import textio
    position = argv.index(target)
    if argv[position - 1] in ("--cochain", "--cochain0", "--cochain1", "--base-aug"):
        return lambda text: textio.parse_values(text, 2)
    if "--field" in argv:
        field = int(argv[argv.index("--field") + 1])
        return lambda text: textio.parse_dga(text, field)
    return {"validate": textio.parse_dga, "augment": textio.parse_dga,
            "surgery": textio.parse_dga, "quotient": textio.parse_dga,
            "ce-lift": textio.parse_disk_counts, "mc-check": textio.parse_disk_counts,
            "deform": textio.parse_strip_counts, "tree-check": textio.parse_tree_config,
            "traj-check": textio.parse_traj_config}[argv[0]]


@settings(max_examples=200, deadline=None)
@given(mutant=_corpus_mutants())
def test_mutated_corpus_input_errors_name_a_line(fuzz_dir, mutant):
    # exit 2 prints one "error:" report on stdout and nothing on stderr; a
    # document its own parser refuses is reported one diagnostic per line
    argv, target, text = mutant
    (fuzz_dir / "mutant.txt").write_text(text, encoding="utf-8")
    resolved = [str(fuzz_dir / ("mutant.txt" if arg == target else arg))
                if arg in FILES else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(resolved)
    try:
        _parser_of(argv, target)(text)
        refused = False
    except DocumentError:
        refused = True
    assert code == 2 or not refused
    if code == 2:
        assert out.startswith("error: ") and err.getvalue() == ""
    if refused:
        for line in out[len("error: "):].splitlines():
            assert re.match(r"(line \d+|document): ", line), line


@pytest.mark.parametrize("name,argv,expected_exit,fragment", CASES + [
    ("parse-fault-json", ["validate", "fault_parse.txt"], 2, ""),
    ("limit-json", ["augment", "--limit", "0", "ce_trivial.txt"], 2, ""),
])
def test_report_status_follows_exit_code(corpus_dir, name, argv, expected_exit, fragment):
    resolved = [str(corpus_dir / arg) if arg in FILES else arg for arg in argv]
    code, out = run_cli([*resolved, "--json", "-"])
    assert code == expected_exit
    report = json.loads(out[out.index('{\n  "tool"'):])
    assert report["status"] == {0: "ok", 1: "violations", 2: "error"}[code]


@pytest.mark.parametrize("mode,flag,bounds", [
    ("trees", "--max-disks", TreeSearchBounds(max_disks=1)),
    ("trajectories", "--max-strips", TrajectorySearchBounds(max_strips=1)),
])
def test_search_flags_default_to_bounds_type(mode, flag, bounds):
    code, out = run_cli(["search", "--mode", mode, flag, "1", "--json", "-"])
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["bounds"] == json.loads(json.dumps(bounds._asdict()))


def test_surgery_internal_fault_is_not_an_input_error(corpus_dir, monkeypatch, capsys):
    # a plain ValueError from the library is a fault of cedga: exit 3, not 2
    import cedga.surgery

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(cedga.surgery, "SurgeryAlgebra", boom)
    code = main(["surgery", str(corpus_dir / "surgery_k2.txt"),
                 "--base-aug", str(corpus_dir / "cochain_x1.txt")])
    assert code == 3
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


def test_refusals_are_input_errors():
    import cedga
    for name in ("DocumentError", "EnumerationBoundError", "SupportError", "ConfigError",
                 "BoundsTooLargeError", "UndeclaredGeneratorError"):
        cls = getattr(cedga, name, None) or getattr(cedga.textio, name)
        assert issubclass(cls, cedga.InputError), name
    assert issubclass(cedga.UndeclaredGeneratorError, KeyError)
    assert str(cedga.UndeclaredGeneratorError("a2")) == "'a2'"
    for cls in (cedga.PreconditionError, cedga.QuotientError, cedga.FieldMismatchError):
        assert not issubclass(cls, cedga.InputError), cls.__name__


def test_only_main_maps_input_errors():
    # no subcommand reports exit 2 itself or catches a class that would
    # intercept an InputError on its way to main
    import ast
    import builtins
    import inspect

    import cedga
    module = ast.parse(inspect.getsource(cli))
    commands = [node for node in module.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert commands
    for command in commands:
        for node in ast.walk(command):
            if isinstance(node, ast.Attribute):
                assert node.attr != "input_error", command.name
            if isinstance(node, ast.ExceptHandler):
                assert node.type is not None, command.name
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for caught in types:
                    name = caught.attr if isinstance(caught, ast.Attribute) else caught.id
                    cls = getattr(cedga, name, None) or getattr(builtins, name)
                    assert not issubclass(cls, cedga.InputError), (command.name, name)
                    assert not issubclass(cedga.InputError, cls), (command.name, name)


HUGE = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("command,text,message", [
    ("validate", f"gen x 0 {HUGE}/1 reeb\n", f"line 1: invalid rational '{HUGE}/1'"),
    ("validate", f"gen x -1 1/2 reeb\nd x = {HUGE}\n",
     f"line 2: invalid generator name '{HUGE}' in polynomial"),
    ("validate", f"gen a1 0 1/2 a\nsurgery a1 a {HUGE}\n",
     "line 2: surgery indices must be integers"),
    ("ce-lift", f"gen x1 0 1/4 dp+\ncount x1 = {HUGE}\n",
     "line 2: usage: count <out> [<in>*] = <coeff>"),
    ("deform", f"gen c1 0 1/4 mixed\nstrip c1 c1 = {HUGE}\n",
     "line 2: usage: strip <out> <in> [bottom: <names>] [top: <names>] = <coeff>"),
    ("mc-check", f"set x1 = {HUGE}\n", "line 1: usage: set <name> = <value>"),
    ("tree-check", f"gen x 0 1/4 dp+\ndisk x x\nedge {HUGE} 0 0\n",
     "line 3: usage: edge <srcDisk> <dstDisk> <slot>"),
    ("traj-check", f"gen c 0 1/4 mixed\nstrip c c\nattach 0 bottom {HUGE} 0\n",
     "line 3: usage: attach <strip> <bottom|top> <pos> <disk>"),
], ids=["gen", "d", "surgery", "count", "strip", "set", "edge", "attach"])
def test_overlong_integer_is_a_line_diagnostic(corpus_dir, tmp_path, command, text, message):
    # an integer token longer than int() converts is an input error (exit 2)
    # with the diagnostic of its line, not an internal error
    path = tmp_path / "huge.txt"
    path.write_text(text, encoding="utf-8")
    argv = {"deform": ["deform", str(path), "--cochain0", "x", "--cochain1", "x"],
            "mc-check": ["mc-check", str(corpus_dir / "mc_two_points.txt"),
                         "--cochain", str(path)]}.get(command, [command, str(path)])
    assert run_cli(argv) == (2, f"error: {message}\n")


CONFLICT_DOC = ("field 2\ngen x1 0 1/50 reeb\ngen a1 0 1/1000 a\ngen a2 0 1/1000 a\n"
                "gen c1 1 1/1 c\ngen b1 0 2/1 b\nsurgery a1 a 1\nsurgery a2 a 2\n"
                "surgery c1 c 1 2 1\nsurgery b1 b 1 2 1\nd b1 = x1 a1 + a2 c1\n")
TWO_DISK_TREE = ("gen y 3 5/1 dp+\ngen v 2 3/1 dp+\ngen x1 1 1/1 dp+\ngen x2 1 1/1 dp+\n"
                 "gen x3 1 1/1 dp+\ndisk y v x3\ndisk v x1 x2\nedge 1 0 0\n")


@pytest.mark.parametrize("argv,text,expected_exit,expected", [
    (["deform", "DOC", "--cochain0", "cochain_empty.txt", "--cochain1", "cochain_empty.txt"],
     "field 2\ngen c1 0 -1/1 mixed\ngen c2 1 -1/2 mixed\ngen c3 2 -1/4 mixed\n"
     "strip c2 c1 = 1\nstrip c3 c2 = 1\n", 1,
     "twisted differential has 2 nonzero entries\n  d(c1) += 1 c2\n  d(c2) += 1 c3\n"
     "twisted differential does NOT square to zero:\n"
     "  [squared] (c3, c1): square of the twisted differential has entry 1\n"),
    (["surgery", "DOC", "--base-aug", "cochain_x1.txt"],
     corpus_text("surgery_k2.txt") + "gen q -1 1/7 reeb\nd q = x1\nmark q\n", 1,
     "order-reversing marking is not differential-closed:\n"
     "  [quotient.ideal] q: monomial x1 of d(q) contains no marked letter\n"),
    (["surgery", "DOC", "--base-aug", "cochain_x1.txt"], CONFLICT_DOC, 1,
     "extended augmentation over k=2 cocores:\n  x1 -> 1\n  a1 -> 1\n  a2 -> 1\n"
     "flag: recursion demands 1 on c1 of degree 1; value forced to 0\n"
     "certificate verification FAILED:\n"
     "  [certificate.residual] b1: certificate augmentation sends d(b1) to 1, "
     "d(b1) = a2 c1 + x1 a1\n"),
    (["tree-check", "--no-global", "DOC"], corpus_text("tree_single.txt"), 0,
     "ledger: m=1 k=2 lhs=0 rhs=0 telescoped=True\n"
     "positivity propagates: True; output action positive: True\n"
     "global degree constraint not applied\n"),
    (["tree-check", "DOC"], TWO_DISK_TREE, 0,
     "ledger: m=2 k=3 lhs=0 rhs=0 telescoped=True\n"
     "positivity propagates: True; output action positive: True\n"
     "configuration cannot satisfy the rigid global degree constraint\n"),
    (["tree-check", "DOC"], "gen y 2 3/1 dp+\ngen x1 1 1/1 reeb\ngen x2 1 1/1 dp+\n"
     "disk y x1 x2\n", 1,
     "ledger: m=1 k=2 lhs=0 rhs=0 telescoped=True\nhypothesis violations:\n"
     "  external input 'x1' is not a positive-action double point\n"),
], ids=["deform-not-square-zero", "surgery-marks-not-closed", "surgery-degree-conflict",
        "tree-no-global", "tree-two-disks-not-rigid-globally", "tree-reeb-external-input"])
def test_rare_cli_branches_pinned(corpus_dir, tmp_path, argv, text, expected_exit, expected):
    doc = tmp_path / "doc.txt"
    doc.write_text(text, encoding="utf-8")
    argv = [str(doc) if arg == "DOC" else str(corpus_dir / arg) if arg in FILES else arg
            for arg in argv]
    assert run_cli(argv) == (expected_exit, expected)


def test_golden_cli_outputs_under_two_hash_seeds():
    # every corpus case, `cedga corpus`, the default, larger and refused searches,
    # text and --json -, byte for byte;
    # golden_cli.py holds how the file is made
    import os
    import subprocess
    import sys
    from pathlib import Path

    from test_stdlib_only import PACKAGE
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, str(here / "golden_cli.py")], stdout=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    golden = (here / "golden_cli.json").read_bytes()
    for run in runs:
        out, _ = run.communicate()
        assert run.returncode == 0
        assert out == golden
