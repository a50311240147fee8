import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cli_reference import build_parser
from smsquiver import cli
from smsquiver.cli import main
from smsquiver.nakayama import NakayamaAlgebra

GOLDEN = Path(__file__).parent / "golden"
JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_classify_valid_line():
    code, out = run_cli("classify", "A:5/f=1/t=2")
    assert code == 0
    assert "valid" in out and "family (b)" in out
    assert "simples=5" in out and "r=5" in out


def test_classify_invalid_exits_nonzero():
    code, out = run_cli("classify", "E:7/f=1/t=2")
    assert code == 1
    assert out.startswith("invalid")


def test_classify_invalid_type_exits_one_in_both_formats():
    # a well-formed string naming no RFS type is a computation error: the
    # report is printed, then the exit code is 1 whatever the format
    code, out = run_cli("classify", "E:7/f=1/t=2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["diagnostic"] == "among E-types only E6 has torsion 2"
    code, out = run_cli("classify", "E:7/f=1/t=2", "--format", "tsv")
    assert (code, out) == (1, "invalid\tamong E-types only E6 has torsion 2\n")


def test_classify_json_schema():
    code, out = run_cli("classify", "D:6/f=1/3/t=1", "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["type"]["frequency"] == "1/3"
    assert payload["nonstandard_counterpart"] is True
    assert payload["simples"] == 2


def test_orbits_headline():
    code, out = run_cli("orbits", "--type", "D:4/f=1/t=1")
    assert code == 0
    assert out.splitlines()[0] == "2 orbits"


def test_mutate_worked_example():
    code, out = run_cli(
        "mutate",
        "--algebra",
        "nakayama:4:5",
        "--sms",
        "simples",
        "--at",
        "2,3",
        "--allow-composite",
    )
    assert code == 0
    assert out.strip().split("\t")[1] == "1/2/3 2/3/4/1 3/4/1/2 4"


def test_mutate_requires_composite_flag_for_non_orbits():
    code, out = run_cli(
        "mutate", "--algebra", "nakayama:4:5", "--sms", "simples", "--at", "2,3"
    )
    assert code == 1


def test_hom_golden():
    code, out = run_cli("hom", "--type", "A:2/f=1/t=1")
    assert code == 0
    assert out == (GOLDEN / "hom_a2_f1_t1.tsv").read_text()


def test_enumerate_golden():
    code, out = run_cli("enumerate", "--type", "A:3/f=1/t=2")
    assert code == 0
    assert out == (GOLDEN / "enumerate_a3_f1_t2.tsv").read_text()


GOLDEN_CASES = [
    ("classify_a5_f1_t2.json", "classify A:5/f=1/t=2 --format json", 0),
    ("classify_e7_f1_t2.json", "classify E:7/f=1/t=2 --format json", 1),
    ("hom_a2_f1_t1.json", "hom --type A:2/f=1/t=1 --format json", 0),
    ("orbits_d4_f1_t1.json", "orbits --type D:4/f=1/t=1 --format json", 0),
    ("orbits_d4_f1_t1.tsv", "orbits --type D:4/f=1/t=1", 0),
    ("brauer_e4_m2.json", "brauer --edges 4 --multiplicity 2 --format json", 0),
    ("sms_n3_4.json", "sms --algebra nakayama:3:4 --format json", 0),
    ("sms_n3_4.tsv", "sms --algebra nakayama:3:4", 0),
    (
        "mutate_n4_5_left.json",
        "mutate --algebra nakayama:4:5 --sms simples --at 2,3 --allow-composite --format json",
        0,
    ),
    (
        "mutate_n4_5_right.tsv",
        "mutate --algebra nakayama:4:5 --sms simples --at 2,3 --allow-composite --dir right",
        0,
    ),
    ("quiver_n3_4_both.json", "quiver --algebra nakayama:3:4 --dir both --out json", 0),
    ("quiver_n3_4_both.dot", "quiver --algebra nakayama:3:4 --dir both", 0),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES)
def test_output_golden(name, argv, code):
    assert run_cli(*argv.split()) == (code, (GOLDEN / name).read_text())


def test_enumerate_json_exact_strings():
    code, out = run_cli("enumerate", "--type", "A:2/f=1/2/t=1", "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["type"] == "A:2/f=1/2/t=1"
    assert payload["configurations"]


def test_brauer_count():
    code, out = run_cli("brauer", "--edges", "4", "--multiplicity", "1")
    assert (code, out.strip()) == (0, "3")
    code, out = run_cli("brauer", "--edges", "2", "--marked-extremal")
    assert (code, out.strip()) == (0, "1")


def test_brauer_marked_extremal_rejects_other_multiplicities(capsys):
    # marked-extremal counts are multiplicity-one counts; under another
    # multiplicity they would be printed with the wrong label
    argv = "brauer --edges 4 --multiplicity 3 --marked-extremal --format json"
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "smsquiver: error: argument --multiplicity: --marked-extremal counts "
        "multiplicity-one trees, got 3"
    )
    argv = "brauer --edges 4 --multiplicity 1 --marked-extremal"
    assert run_cli(*argv.split()) == (0, "5\n")


def test_sms_listing():
    code, out = run_cli("sms", "--algebra", "nakayama:2:3")
    lines = out.splitlines()
    assert lines[0] == "2 systems"
    assert len(lines) == 3


def test_quiver_dot_and_json():
    code, dot = run_cli("quiver", "--algebra", "nakayama:2:3", "--dir", "both")
    assert code == 0 and dot.startswith("digraph")
    code, js = run_cli(
        "quiver", "--algebra", "nakayama:2:3", "--dir", "both", "--out", "json"
    )
    assert json.loads(js)["schema"] == 1


def test_determinism_byte_identical():
    for argv in (
        ("enumerate", "--type", "A:5/f=1/t=2"),
        ("orbits", "--type", "A:5/f=1/t=2", "--format", "json"),
        ("quiver", "--algebra", "nakayama:3:4", "--dir", "left"),
    ):
        assert run_cli(*argv) == run_cli(*argv)


def test_bound_exceeded_is_a_one_line_error():
    proc = subprocess.run(
        [sys.executable, "-m", "smsquiver.cli", "sms", "--algebra", "nakayama:6:6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: BoundExceededError:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_invalid_arguments_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "smsquiver.cli", "enumerate", "--type"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert proc.returncode == 2


def test_check_subset():
    code, out = run_cli("check", "--only", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("[pass]" in line for line in lines)


def test_check_only_rejects_unknown_criteria(capsys):
    # a number outside CRITERIA would run no criterion and report success
    for text in ("11", "0", "x", "1,x", "1,,2", ""):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--only", text])
        assert exc.value.code == 2, text
        assert "argument --only" in capsys.readouterr().err


def test_python_dash_m_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "smsquiver", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    assert run("--help").returncode == 0
    for text in ("Q:9/f=1/t=1", "A:2/f=1", "E:9/f=1/t=1", "A:2/f=1/0/t=1"):
        proc = run("orbits", "--type", text)
        assert proc.returncode == 2, text
        assert "argument --type" in proc.stderr
    for command in ("sms", "mutate --sms simples --at 1", "quiver"):
        for text in ("nakayama:x:3", "foo", "nakayama:0:3", "nakayama:3:1:2"):
            proc = run(*command.split(), "--algebra", text)
            assert proc.returncode == 2, (command, text)
            assert "argument --algebra" in proc.stderr
    # systems and subsets are parsed against the algebra, still as arguments
    for argv, option in (
        ("mutate --algebra nakayama:4:5 --sms 1:x --at 1", "--sms"),
        ("quiver --algebra nakayama:3:4 --start 1:9", "--start"),
        ("mutate --algebra nakayama:4:5 --sms simples --at 9", "--at"),
        ("mutate --algebra nakayama:4:5 --sms simples --at 2:x", "--at"),
    ):
        proc = run(*argv.split())
        assert proc.returncode == 2, argv
        assert f"argument {option}" in proc.stderr
    for option in ("--edges 0", "--edges 3 --multiplicity 0"):
        proc = run("brauer", *option.split())
        assert proc.returncode == 2, option
        assert f"argument {option.split()[-2]}" in proc.stderr
    # a bound below 1 is an argument error, not a bound the search exceeds
    for command in ("sms", "quiver"):
        for text in ("0", "-3", "x"):
            proc = run(command, "--algebra", "nakayama:3:4", "--bound", text)
            assert proc.returncode == 2, (command, text)
            assert "argument --bound" in proc.stderr
    # well formed but over the bound: a computation error, not an argument error
    proc = run("sms", "--algebra", "nakayama:6:6")
    assert proc.returncode == 1
    # well formed but no system, or no single orbit: computation errors too
    for argv in (
        "mutate --algebra nakayama:4:5 --sms 1:1,2:1 --at 1",
        "mutate --algebra nakayama:4:5 --sms simples --at 2,3",
    ):
        proc = run(*argv.split())
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("error: ")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # comparing sys.modules before and after keeps any preload of the
    # environment (a .pth file, say) out of the result
    code = (
        "import sys; before = set(sys.modules); import smsquiver.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    added = set(proc.stdout.split())
    assert "smsquiver.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_cli_import_builds_no_parser_and_loads_no_locale():
    # argparse imports locale at its first gettext call, which builds a
    # parser at import would make; argparse itself is loaded before `before`
    code = (
        "import argparse, sys; built = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]; "
        "before = set(sys.modules); import smsquiver.cli; "
        "print(len(built), *sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    built, *added = proc.stdout.split()
    assert "smsquiver.cli" in added
    assert built == "0"
    assert "locale" not in added


def count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


ONE_OF_EACH = {
    "classify": "classify A:5/f=1/t=2",
    "hom": "hom --type A:2/f=1/t=1",
    "enumerate": "enumerate --type A:3/f=1/t=2 --format json",
    "orbits": "orbits --type D:4/f=1/t=1",
    "brauer": "brauer --edges 4",
    "sms": "sms --algebra nakayama:3:4",
    "mutate": "mutate --algebra nakayama:4:5 --sms simples --at 2,3 --allow-composite",
    "quiver": "quiver --algebra nakayama:3:4 --out json",
    "check": "check --only 1",
}


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_command_builds_one_parser(name, monkeypatch):
    assert set(ONE_OF_EACH) == set(cli.COMMANDS)
    built = count_parsers(monkeypatch)
    code, out = run_cli(*ONE_OF_EACH[name].split())
    assert code == 0 and out
    assert built == [f"smsquiver {name}"]


def reference_subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_command_parser_matches_the_reference_subparser(name):
    new, old = cli._command_parser(name), reference_subparsers()[name]
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()


def test_top_parser_matches_the_reference():
    new, old = cli._top_parser(), build_parser()
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parsed_fields(args):
    # NakayamaAlgebra compares by identity; everything else by value
    return {
        key: (value.e, value.L) if isinstance(value, NakayamaAlgebra) else value
        for key, value in vars(args).items()
        if key != "fn"
    }


@pytest.mark.parametrize(
    "argv", load_jobs().all_jobs() + [argv for _, argv, _ in GOLDEN_CASES]
)
def test_parsed_namespace_matches_the_reference(argv):
    argv = argv.split()
    assert parsed_fields(cli._parse_args(argv)) == parsed_fields(build_parser().parse_args(argv))


def reference_main(argv):
    """The argument handling of `main` as it was, up to the first error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))


def exit_and_output(run, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


BAD_INVOCATIONS = [
    "",
    "bogus",
    "bogus --type A:2/f=1/t=1",
    "--format json sms",
    "--format json sms --algebra nakayama:3:4",
    "-- sms --algebra nakayama:3:4",
    # an unknown option before the command: the command's own parser still
    # reads the rest, and its errors come first
    "-x sms --algebra nakayama:3:4",
    "-x sms",
    "enumerate --type",
    "enumerate",
    "classify",
    "classify A:5/f=1/t=2 extra",
    "sms --algebra nakayama:3:4 --foo",
    "sms --algebra nakayama:3:4 --format xml",
    "sms --algebra nakayama:x:3",
    "sms --algebra nakayama:3:4 --bound 0",
    "quiver --algebra nakayama:3:4 --bound x",
    "quiver --algebra nakayama:3:4 --start 1:9",
    "quiver --algebra nakayama:3:4 --dir up",
    "orbits --type Q:9/f=1/t=1",
    "hom --type A:2/f=1/0/t=1",
    "mutate --algebra foo --sms simples --at 1",
    "mutate --algebra nakayama:4:5 --sms 1:x --at 1",
    "mutate --algebra nakayama:4:5 --sms simples --at 9",
    "mutate --algebra nakayama:4:5 --sms simples --at 2:x",
    "brauer --edges 0",
    "brauer --edges 3 --multiplicity 0",
    "brauer --edges 4 --multiplicity 3 --marked-extremal",
    "check --only 99",
    "check --only 1,,2",
]


@pytest.mark.parametrize("argv", BAD_INVOCATIONS)
def test_bad_invocation_matches_the_reference(argv, capsys):
    argv = argv.split()
    new = exit_and_output(main, argv, capsys)
    assert new == exit_and_output(reference_main, argv, capsys)
    assert new[0] == 2 and new[1] == "" and new[2]


@pytest.mark.parametrize(
    "argv", ["-h", "--help", "--he", *(f"{name} -h" for name in cli.COMMANDS)]
)
def test_help_matches_the_reference(argv, capsys):
    argv = argv.split()
    new = exit_and_output(main, argv, capsys)
    assert new == exit_and_output(reference_main, argv, capsys)
    assert new[0] == 0 and new[1].startswith("usage: smsquiver") and new[2] == ""


def test_tsv_run_builds_no_payload(monkeypatch):
    help_text, arguments, cmd_hom = cli.COMMANDS["hom"]
    calls = []

    def recording_hom(args):
        code, payload, lines = cmd_hom(args)

        def recorded_payload():
            calls.append(payload())
            return calls[-1]

        return code, recorded_payload, lines

    monkeypatch.setitem(cli.COMMANDS, "hom", (help_text, arguments, recording_hom))
    code, out = run_cli("hom", "--type", "A:2/f=1/t=1")
    assert (code, out) == (0, (GOLDEN / "hom_a2_f1_t1.tsv").read_text())
    assert calls == []
    code, out = run_cli("hom", "--type", "A:2/f=1/t=1", "--format", "json")
    assert (code, out) == (0, (GOLDEN / "hom_a2_f1_t1.json").read_text())
    assert len(calls) == 1


def test_readme_library_block_runs_verbatim():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = block.strip().splitlines()
    namespace: dict = {}
    exec("\n".join(body), namespace)
    expression, promise = last.split("#")
    assert promise.split()[0] == "14,"
    assert eval(expression, namespace) == 14 == len(namespace["A"].all_sms())
