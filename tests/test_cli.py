import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from smsquiver.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


def test_readme_library_block_runs_verbatim():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = block.strip().splitlines()
    namespace: dict = {}
    exec("\n".join(body), namespace)
    expression, promise = last.split("#")
    assert promise.split()[0] == "14,"
    assert eval(expression, namespace) == 14 == len(namespace["A"].all_sms())
