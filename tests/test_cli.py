import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bihomtrias.catalog import catalog_get, catalog_list, rota_baxter_example
from bihomtrias.cli import build_parser, main
from bihomtrias.documents import algebra_to_document, serialize_algebra, serialize_operator
from bihomtrias.matrices import Matrix
from bihomtrias.scalars import Scalar
from bihomtrias.transforms import total_sum


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bihomtrias.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def a21_file(tmp_path):
    path = tmp_path / "a21.json"
    path.write_text(serialize_algebra(catalog_get("BTas_2^1").algebra))
    return str(path)


def test_catalog_list():
    r = run_cli("catalog", "list")
    assert r.returncode == 0
    ids = r.stdout.split()
    assert len(ids) == 31 and ids[0] == "BTas_2^1"


def test_catalog_verify_all_structured_deterministic():
    r1 = run_cli("catalog", "verify", "--all", "--format", "structured")
    r2 = run_cli("catalog", "verify", "--all", "--format", "structured")
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical
    payload = json.loads(r1.stdout)
    assert len(payload["entries"]) == 31
    assert "elapsed" not in r1.stdout


def test_catalog_verify_all_structured_bytes_are_pinned(capsys):
    """The structured audit output, byte for byte, as first recorded."""
    assert main(["--format", "structured", "catalog", "verify", "--all"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 220_354
    assert json.loads(out)["errata_count"] == 184
    assert hashlib.sha256(out).hexdigest() == (
        "29f2aab3459fe82d6feccf2ba864e6a09d92549cfd460c0abc7252f53f1d04f3"
    )


def test_per_entry_structured_bytes_are_pinned(tmp_path, capsys):
    """verify, der and cent on the document of every catalog entry, run
    through ``main`` in catalog order, byte for byte, as first recorded."""
    digest, size = hashlib.sha256(), 0
    for entry_id in catalog_list():
        path = tmp_path / "entry.json"
        path.write_text(serialize_algebra(catalog_get(entry_id).algebra))
        for command in ("verify", "der", "cent"):
            assert main(["--format", "structured", command, str(path)]) == 0
            out = capsys.readouterr().out.encode()
            digest.update(out)
            size += len(out)
    assert size == 96_435
    assert digest.hexdigest() == (
        "6700ed68cf334ae523020d19db3d3f88ba3313300ec572b9d35706d68c91d0b5"
    )


def test_catalog_verify_strict_exits_nonzero():
    r = run_cli("--strict", "catalog", "verify", "--all")
    assert r.returncode == 1
    r = run_cli("catalog", "verify", "BTas_2^1", "--strict")
    assert r.returncode == 0  # this entry passes every check
    r = run_cli("catalog", "verify", "BTas_2^3", "--strict")
    assert r.returncode == 1


def test_catalog_get_round_trip():
    r = run_cli("catalog", "get", "BTas_2^1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["name"] == "BTas_2^1" and doc["dim"] == 2
    r = run_cli("catalog", "get", "BTas_9^9")
    assert r.returncode == 2
    r = run_cli("catalog", "get")
    assert r.returncode == 2


def test_verify_file(a21_file):
    r = run_cli("verify", a21_file)
    assert r.returncode == 0
    assert "all hold" in r.stdout
    r = run_cli("verify", a21_file, "--format", "structured")
    payload = json.loads(r.stdout)
    assert payload["all_hold"] is True


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": }')
    r = run_cli("verify", str(bad))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_verify_missing_file():
    r = run_cli("verify", "/nonexistent/file.json")
    assert r.returncode == 2


def test_der_command(a21_file):
    r = run_cli("der", a21_file)
    assert r.returncode == 0
    assert "dim 1" in r.stdout
    payload = json.loads(run_cli("der", a21_file, "--format", "structured").stdout)
    assert payload["dim"] == 1
    assert payload["basis"] == [[["0", "1"], ["0", "0"]]]


def test_cent_command(a21_file):
    payload = json.loads(run_cli("cent", a21_file, "--format", "structured").stdout)
    assert payload["linear_dim"] == 2
    assert payload["reported_dim"] == 1


def test_strict_failing_algebra(tmp_path):
    path = tmp_path / "a23.json"
    path.write_text(serialize_algebra(catalog_get("BTas_2^3").algebra))
    assert run_cli("verify", str(path)).returncode == 0
    assert run_cli("--strict", "verify", str(path)).returncode == 1


def test_construct_and_iso_round_trip(tmp_path, a21_file):
    psi = Matrix.from_rows([[Scalar(0), Scalar(1)], [Scalar(1), Scalar(1)]])
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(serialize_operator(psi))
    out = tmp_path / "moved.json"
    r = run_cli("construct", "transport", a21_file, "--map", str(psi_file), "-o", str(out))
    assert r.returncode == 0 and out.exists()
    r = run_cli("iso", a21_file, str(out), "--map", str(psi_file))
    assert r.returncode == 0
    assert "isomorphism" in r.stdout
    # the wrong map is rejected
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_operator(Matrix.identity(2)))
    r = run_cli("--strict", "iso", a21_file, str(out), "--map", str(bad))
    assert r.returncode == 1


@pytest.mark.parametrize("rows", [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]],
                         ids=["singular", "identity"])
def test_iso_between_dimensions_exits_2_whatever_the_map(tmp_path, capsys, a21_file, rows):
    b = tmp_path / "b31.json"
    b.write_text(serialize_algebra(catalog_get("BTas_3^1").algebra))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps(rows))
    assert main(["--strict", "iso", a21_file, str(b), "--map", str(psi)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: morphism endpoints must share the map's dimension\n"


def test_iso_with_an_empty_map_exits_2(tmp_path, capsys, a21_file):
    psi = tmp_path / "empty.json"
    psi.write_text("[]")
    assert main(["iso", a21_file, a21_file, "--map", str(psi)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_construct_direct_sum(tmp_path, a21_file):
    out = tmp_path / "sum.json"
    r = run_cli("construct", "direct-sum", a21_file, a21_file, "-o", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 4
    r = run_cli("construct", "direct-sum", a21_file, "-o", str(out))
    assert r.returncode == 2  # missing second operand


def test_construct_total_sum(tmp_path, a21_file):
    out = tmp_path / "total.json"
    r = run_cli("construct", "total-sum", a21_file, "-o", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["right"] == [] and doc["middle"] == []
    assert doc["left"]  # carries the summed product


def test_construct_total_sum_warns_when_not_bihom_associative(tmp_path, capsys):
    """BTas_2^3's total sum fails BiHom-associativity: the file is still
    written, exit 0, and stderr names the failing triples."""
    algebra = catalog_get("BTas_2^3").algebra
    source, out = tmp_path / "a23.json", tmp_path / "total.json"
    source.write_text(serialize_algebra(algebra))
    failing = len(total_sum(algebra)[1])
    assert failing
    assert main(["construct", "total-sum", str(source), "-o", str(out)]) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == (
        f"warning: candidate is not BiHom-associative ({failing} failing triples)\n"
    )
    assert stdout == f"wrote {out} (BTas_2^3~total, dim 2)\n"
    assert json.loads(out.read_text())["name"] == "BTas_2^3~total"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_catalog_get_ambiguous_entry_notes_go_to_stderr(capsys, fmt):
    entry = catalog_get("BTas_2^7")
    assert main(["--format", fmt, "catalog", "get", "BTas_2^7"]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout == json.dumps(algebra_to_document(entry.algebra), indent=2) + "\n"
    assert len(entry.ambiguity_notes) == 2
    assert stderr.splitlines() == [f"note: {note}" for note in entry.ambiguity_notes]


def test_catalog_verify_text_prints_the_ambiguity_line(capsys):
    assert main(["catalog", "verify", "BTas_3^24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("BTas_3^24    axioms FAIL ")
    assert lines[1] == (
        f"{'':12s} ambiguity: {{'first-line-kept': False, 'second-line-kept': False}}"
    )
    assert lines[2].startswith("errata records: ")


def test_rb_verify(tmp_path):
    algebra_file = tmp_path / "rb.json"
    algebra_file.write_text(serialize_algebra(rota_baxter_example()))
    op0 = tmp_path / "r0.json"
    op0.write_text(serialize_operator(Matrix.zeros(2, 2)))
    r = run_cli("rb", "verify", str(algebra_file), "--op", str(op0), "--weight", "0")
    assert r.returncode == 0 and "verifies" in r.stdout
    op1 = tmp_path / "r1.json"
    op1.write_text(serialize_operator(Matrix.identity(2).scale(Scalar(-1))))
    r = run_cli("rb", "verify", str(algebra_file), "--op", str(op1), "--weight", "1")
    assert r.returncode == 0 and "FAILS" in r.stdout
    r = run_cli("--strict", "rb", "verify", str(algebra_file), "--op", str(op1), "--weight", "1")
    assert r.returncode == 1


def test_rb_verify_text_output(tmp_path, capsys):
    algebra_file = tmp_path / "rb.json"
    algebra_file.write_text(serialize_algebra(rota_baxter_example()))

    def run(weight):
        # the published operator R = -w id
        op = tmp_path / f"r{weight}.json"
        op.write_text(serialize_operator(Matrix.identity(2).scale(Scalar(-weight))))
        code = main(["rb", "verify", str(algebra_file), "--op", str(op), "--weight", str(weight)])
        assert code == 0
        return capsys.readouterr().out.splitlines()

    assert run(0) == ["Rota-Baxter check (weight 0): verifies"]
    lines = run(-2)
    assert lines[0] == "Rota-Baxter check (weight -2): FAILS"
    assert lines[1:] and all(line.startswith("  failing: identity ") for line in lines[1:])
    assert any(line.endswith(" at pair (2, 1)") for line in lines[1:])


def test_rb_verify_prints_the_canonical_weight(tmp_path, capsys):
    algebra_file = tmp_path / "rb.json"
    algebra_file.write_text(serialize_algebra(rota_baxter_example()))
    op = tmp_path / "r.json"
    op.write_text(serialize_operator(Matrix.zeros(2, 2)))

    def run(weight, *options):
        main([*options, "rb", "verify", str(algebra_file), "--op", str(op), "--weight", weight])
        return capsys.readouterr().out

    spelled = run(" 2/4", "--format", "structured")
    assert spelled == run("1/2", "--format", "structured")
    assert '"weight": "1/2"' in spelled
    assert run("-0").startswith("Rota-Baxter check (weight 0): ")


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("--format", "xml", "catalog", "list"),
    ("catalog", "frob"),
    ("catalog", "list", "--format", "xml"),
    ("iso", "{a}", "{a}"),
    ("verify",),
    ("rb", "verify", "{a}", "--op", "{a}"),
    ("catalog", "verify"),
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_return_2_from_main(capsys, a21_file, argv):
    assert main([a.format(a=a21_file) for a in argv]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("catalog", "--help"),
    ("catalog", "verify", "--help"),
    ("construct", "transport", "--help"),
])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bihomtrias")


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("catalog", "explode").returncode == 2


@pytest.mark.parametrize("argv", [
    ("catalog", "verify", "BTas_2^1", "--all"),
    ("catalog", "verify", ""),
    ("catalog", "list", "BTas_2^1"),
    ("catalog", "list", "--all"),
    ("catalog", "get", "BTas_2^1", "--all"),
    ("construct", "transport", "{a}", "{a}", "--map", "{psi}", "-o", "{out}"),
    ("construct", "total-sum", "{a}", "{a}", "-o", "{out}"),
    ("construct", "total-sum", "{a}", "--map", "{psi}", "-o", "{out}"),
    ("construct", "direct-sum", "{a}", "{a}", "--map", "{psi}", "-o", "{out}"),
    ("construct", "-o", "{out}", "direct-sum", "{a}", "{a}"),
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")))
def test_arguments_the_subcommand_would_ignore_exit_2(tmp_path, capsys, a21_file, argv):
    psi = tmp_path / "psi.json"
    psi.write_text(serialize_operator(Matrix.identity(2)))
    out = tmp_path / "out.json"
    assert main([a.format(a=a21_file, psi=psi, out=out) for a in argv]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert stderr.startswith("error:") and stderr.count("\n") == 1


def _readme_command_lines():
    """The command lines of the README's CLI block, comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in lines if argv[:1] == ["bihomtrias"] and "COMMAND" not in argv]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_lines_parse(argv):
    assert callable(build_parser().parse_args(argv[1:]).run)


@pytest.mark.parametrize(
    "coefficient",
    ["7" * 5000, "1/" + "3" * 5000, "\u0661/\u0662"],
    ids=["5000-digit-numerator", "5000-digit-denominator", "arabic-indic-digits"],
)
def test_malformed_scalar_in_document_exits_2(tmp_path, capsys, coefficient):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": 1, "left": [{"i": 1, "j": 1, "k": 1, "c": coefficient}]}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_product_beyond_the_str_digit_limit_is_reported(tmp_path, capsys):
    """A 3,000-digit coefficient squares to a 6,000-digit witness value,
    past the interpreter's 4,300-digit int-to-str limit."""
    c = "7" * 3000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "dim": 1, "left": [{"i": 1, "j": 1, "k": 1, "c": c}], "alpha": [["1"]], "beta": [["1"]],
    }))
    assert main(["verify", str(path)]) == 0
    assert "A2a  FAIL" in capsys.readouterr().out
    assert main(["--strict", "--format", "structured", "verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lhs = json.loads(out)["witnesses"]["A2a"]["first"]["lhs"][0]
    assert len(lhs) == 6000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert lhs == str(int(c) ** 2)
    finally:
        sys.set_int_max_str_digits(saved)


def test_huge_dim_exits_2_quickly(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 100000}))
    start = time.perf_counter()
    r = run_cli("verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_oversized_scalar_exits_2_without_traceback(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "left": [{"i": 1, "j": 1, "k": 1, "c": "7" * 5000}]}))
    r = run_cli("verify", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["verify", "transport"])
def test_integer_beyond_the_digit_limit_exits_2(tmp_path, a21_file, command):
    doc = tmp_path / "big.json"
    if command == "verify":
        doc.write_text('{"dim": ' + "7" * 5000 + "}")
        r = run_cli("verify", str(doc))
    else:
        doc.write_text("[[" + "7" * 5000 + "]]")
        out = tmp_path / "moved.json"
        r = run_cli("construct", "transport", a21_file, "--map", str(doc), "-o", str(out))
        assert not out.exists()
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-parent", "directory"])
def test_construct_to_unwritable_path_exits_2(tmp_path, capsys, a21_file, target):
    output = str(tmp_path / target)
    assert main(["construct", "direct-sum", a21_file, a21_file, "-o", output]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {output}:") and "Traceback" not in err


def test_construct_direct_sum_past_the_dimension_limit_writes_nothing(tmp_path, capsys):
    five = tmp_path / "five.json"
    five.write_text(json.dumps({"dim": 5}))
    output = tmp_path / "sum.json"
    assert main(["construct", "direct-sum", str(five), str(five), "-o", str(output)]) == 2
    assert capsys.readouterr().err.startswith("error: dim 10 exceeds the limit of 8")
    assert not output.exists()


def test_oversized_operator_names_the_operator(tmp_path, capsys, a21_file):
    op = tmp_path / "op.json"
    op.write_text(json.dumps([["0"]] * 1500))
    assert main(["rb", "verify", a21_file, "--op", str(op), "--weight", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dim 1500 exceeds the limit of 8 (at operator)\n"


@pytest.fixture
def unreadable_files(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    return {"deep": str(deep), "binary": str(binary)}


@pytest.mark.parametrize("kind", ["deep", "binary"])
@pytest.mark.parametrize("command", ["verify", "rb-op"])
def test_unreadable_json_exits_2_without_traceback(capsys, a21_file, unreadable_files, kind,
                                                   command):
    path = unreadable_files[kind]
    if command == "verify":
        argv = ["verify", path]
    else:
        argv = ["rb", "verify", a21_file, "--op", path, "--weight", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--format", "structured", "catalog", "verify", "--all"),
    ("catalog", "get", "BTas_2^7"),
    ("catalog", "list"),
    ("verify", "{a}"),
    ("der", "{a}"),
    ("cent", "{a}"),
], ids=lambda argv: " ".join(argv))
def test_closed_stdout_exits_141_without_traceback(a21_file, argv):
    """A reader that is gone (``... | head``) ends the command with the
    shell's SIGPIPE status.  The read end is closed before the child starts,
    so the outcome does not depend on the pipe's buffer size."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "bihomtrias.cli", *(a.format(a=a21_file) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert r.returncode == 141
    assert "Traceback" not in r.stderr
