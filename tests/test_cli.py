"""CLI golden outputs, exit codes, and thin-adapter equality with the
library."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import sl2prod
from sl2prod import (SL2Label, make_field, sl2_pair_product_law, sort_labels)
from sl2prod.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_classify_golden():
    code, out, _ = run_cli(["classify", "--field", "7", "[[0,6],[1,3]]"])
    assert code == 0
    assert json.loads(out) == {"label": "NSS[3]"}


def test_classify_psl():
    code, out, _ = run_cli(["classify", "--field", "7", "--group", "psl2",
                            "[[0,6],[1,3]]"])
    assert code == 0
    assert json.loads(out) == {"label": "PNSS[3]"}


def test_product_golden():
    code, out, _ = run_cli(["product", "--field", "7", "--group", "sl2",
                            "U[1]", "U[3]"])
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == ["I", "U[1]", "U[3]", "SS[6]", "NSS[3]", "NSS[4]"]
    assert data["rule"] == "distinct_unipotent_classes"


def test_product_matches_library():
    code, out, _ = run_cli(["product", "--field", "5", "--group", "sl2",
                            "U[1]", "U[1]"])
    data = json.loads(out)
    F = make_field(5)
    law = sl2_pair_product_law(F, SL2Label("U", 1), SL2Label("U", 1))
    assert data["classes"] == [str(L) for L in sort_labels(law.classes)]
    assert data["rule"] == law.rule


def test_byte_stable_output():
    args = ["product", "--field", "13", "--group", "psl2", "PU[1]", "PNSS[0]"]
    assert run_cli(args) == run_cli(args)


def test_classes_listing():
    code, out, _ = run_cli(["classes", "--field", "5"])
    data = json.loads(out)
    assert code == 0
    assert [c["label"] for c in data["classes"]] == \
        ["I", "-I", "U[1]", "U[2]", "NU[1]", "NU[2]", "SS[0]", "NSS[1]", "NSS[4]"]
    assert data["classes"][2]["representative"] == [[1, 1], [0, 1]]


def test_triple_command():
    code, out, _ = run_cli(["triple", "--field", "7", "U[1]", "U[1]", "U[3]"])
    data = json.loads(out)
    assert code == 0
    assert "-I" not in data["classes"] and len(data["classes"]) == 10


def test_witness_command():
    code, out, _ = run_cli(["witness", "--field", "7", "[[1,3],[0,1]]",
                            "U[1]", "U[1]"])
    data = json.loads(out)
    assert code == 0 and data["found"] and data["check"] == "ok"
    F = make_field(7)
    x, y = data["x"], data["y"]
    prod = (x[0][0] * y[0][0] + x[0][1] * y[1][0]) % 7
    assert prod == 1
    code, out, _ = run_cli(["witness", "--field", "7", "[[1,0],[0,1]]",
                            "U[1]", "U[1]"])
    assert code == 0 and json.loads(out) == {"found": False}


def test_macbeath_command():
    code, out, _ = run_cli(["macbeath", "--field", "5", "0", "0", "1"])
    data = json.loads(out)
    assert code == 0 and data["check"] == "ok"
    assert data["A"] == [[0, 4], [1, 0]]


def test_commutator_command():
    code, out, _ = run_cli(["commutator", "--field", "5", "[[1,1],[0,1]]"])
    data = json.loads(out)
    assert code == 0 and data["expressible"] and data["check"] == "ok"
    code, out, _ = run_cli(["commutator", "--field", "5", "[[2,0],[0,3]]"])
    assert code == 0 and json.loads(out) == {"expressible": False}


def test_commutator_above_enumeration_bound():
    code, out, _ = run_cli(["commutator", "--field", "131", "[[1,1],[0,1]]"])
    data = json.loads(out)
    assert code == 0 and data["expressible"] and data["check"] == "ok"


def test_verify_single_field():
    code, out, _ = run_cli(["verify", "--field", "5", "--group", "psl2"])
    data = json.loads(out)
    assert code == 0 and data["ok"]
    rep = data["reports"][0]
    assert rep["pairs"]["failures"] == [] and rep["triples"]["failures"] == []
    assert rep["covering"] == {"cn": 3, "ecn": 4}


def test_verify_default_suite():
    code, out, _ = run_cli(["verify"])
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert [(r["q"], r["group"]) for r in data["reports"]] == \
        [(q, kind) for q in (5, 7, 9, 11, 13) for kind in ("sl2", "psl2")]
    assert all(r["ok"] for r in data["reports"])


def test_covering_command():
    code, out, _ = run_cli(["covering", "--field", "7", "--group", "psl2"])
    assert code == 0
    assert json.loads(out)["psl2"] == {"cn": 3, "ecn": 4}


def test_text_format():
    code, out, _ = run_cli(["product", "--field", "7", "--format", "text",
                            "U[1]", "U[3]"])
    assert code == 0
    assert out.splitlines()[0] == "I U[1] U[3] SS[6] NSS[3] NSS[4]"


def test_usage_error_exit_2():
    code, _, _ = run_cli(["nonsense"])
    assert code == 2
    code, _, _ = run_cli(["product", "--field", "7", "U[1]"])  # arity
    assert code == 2
    for jobs in ("0", "-3"):
        code, out, _ = run_cli(["verify", "--field", "5", "--jobs", jobs])
        assert code == 2 and out == "", jobs
    code, out, _ = run_cli(["verify", "--max-q", "13"])
    assert code == 2 and out == ""
    # --jobs belongs to verify alone, and --max-q to no subcommand
    for argv in (["classify", "--field", "7", "--jobs", "2", "[[1,0],[0,1]]"],
                 ["covering", "--field", "7", "--max-q", "7"]):
        code, out, _ = run_cli(argv)
        assert code == 2 and out == "", argv


def test_domain_error_exit_3(no_group_table):
    """Bad input exits 3 with one error line and nothing on stdout.  verify
    and covering above the oracle's enumeration bound are refused before a
    group table is built."""
    for argv in [["classify", "--field", "4", "[[1,0],[0,1]]"],
                 ["classify", "--field", "3", "[[1,0],[0,1]]"],
                 ["classify", "--field", "7", "[[1,0],[0,2]]"],
                 ["classify", "--field", "7", "[[1,0],[0"],
                 ["classify", "--field", "7", "[[true,0],[0,1]]"],
                 ["classify", "--field", "7", "[[1,false],[0,1]]"],
                 ["product", "--field", "7", "U[2]", "U[1]"],
                 ["product", "--field", "7", "SS[0]", "U[1]"],
                 ["product", "--field", "٧", "U[1]", "U[3]"],     # non-ASCII digits
                 ["product", "--field", "7", "U[١]", "U[3]"],
                 ["triple", "--field", "7", "SS[３]", "U[1]", "U[1]"],
                 ["classify", "--field", "7", "[" * 100000],
                 ["classes", "--field", "3^20"],
                 ["classify", "[[1,0],[0,1]]"],
                 ["verify", "--field", "131"],
                 ["verify", "--field", "131", "--jobs", "2"],
                 ["covering", "--field", "131"],
                 ["covering", "--field", "1009"]]:
        code, out, err = run_cli(argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv


def test_internal_error_exit_4(monkeypatch):
    """A construction that finds no witness raises WitnessError, an explicit
    raise that survives python -O, and the CLI reports it with exit code 4
    and one line, without a traceback."""
    from sl2prod import witness
    monkeypatch.setattr(witness, "fiber_solutions", lambda F, t, y, rs: iter(()))
    with pytest.raises(witness.WitnessError):
        witness.macbeath_triple(make_field(7), 1, 1, 1)
    code, out, err = run_cli(["macbeath", "--field", "7", "1", "1", "1"])
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_commutator_cert_revalidated(monkeypatch):
    """A commutator certificate that fails its check is a WitnessError, and
    the CLI exits 4 for it."""
    from sl2prod import witness
    F, g = make_field(7), (1, 1, 0, 1)
    monkeypatch.setattr(witness, "_conjugators", lambda F, x, y: iter([(2, 0, 0, 4)]))
    with pytest.raises(witness.WitnessError, match="fails its check"):
        witness.commutator_witness_psl(F, g)
    code, out, err = run_cli(["commutator", "--field", "7", "[[1,1],[0,1]]"])
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and len(err.splitlines()) == 1


def test_label_error_names_the_group():
    """A label that is no class of the field exits 3 with the class index's
    message as the one error line."""
    code, out, err = run_cli(["product", "--field", "7", "U[2]", "U[1]"])
    assert (code, out) == (3, "")
    assert err == "error: U[2] is not a class of SL2(GF(7))\n"
    code, out, err = run_cli(["triple", "--field", "3^2", "--group", "psl2",
                              "PU[1]", "PU[1]", "PU[2]"])
    assert (code, out) == (3, "")
    assert err == "error: PU[2] is not a class of PSL2(GF(3^2))\n"


def test_verify_jobs_flag_output_stable():
    a = run_cli(["verify", "--field", "5"])
    b = run_cli(["verify", "--field", "5", "--jobs", "2"])
    assert a == b


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--field", "7"],
     "a531599da9222af004b7a0cfc4b182b86de0cda5cfda156fc2864025120f3aed"),
    (["verify", "--field", "3^2", "--group", "psl2", "--format", "text"],
     "4442488a69f86c574b0f1b9731515949ed9f41bcb9f133d066ff824097239841"),
    (["covering", "--field", "7"],
     "bcc1e3ef7d11b9dc5dee8d2c87f544a3628155f04dd1aa44301afe956c6112c1"),
    (["verify", "--field", "3^3"],
     "c83cc8b75715a2421c1e5f1204ba58dde5328d2acc50029f3a588b474407bb0c"),
    (["verify", "--field", "31"],
     "7c7825e85448b6a016e483b1b059acd61ad37ea8c9e8a61dd10a2e11ae7b4f4e"),
    (["covering", "--field", "31"],
     "edf3181c03bd3eeaf18c80fd6d13c7208507ff0ae616033f4ce09994a58f89a3"),
], ids=["verify-7", "verify-9-psl2-text", "covering-7", "verify-27", "verify-31",
        "covering-31"])
def test_verify_golden_bytes(argv, digest):
    """verify and covering print these exact bytes (sha256 of stdout)."""
    code, out, _ = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def run_fresh(code):
    """Run code in a fresh interpreter that imports this sl2prod."""
    src = str(Path(sl2prod.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_cold_start_imports():
    """Importing the CLI loads neither concurrent, multiprocessing nor
    dataclasses."""
    done = run_fresh("import sys, sl2prod.cli; print(sorted(m for m in sys.modules"
                     " if m.split('.')[0] in ('concurrent', 'multiprocessing',"
                     " 'dataclasses')))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_verify_runs_in_one_process():
    """verify --jobs 2 prints what --jobs 1 prints, and loads no process
    pool: --jobs is accepted for compatibility only."""
    runs = [run_fresh("import sys; from sl2prod.cli import main;"
                      f" code = main(['verify', '--field', '5', '--jobs', '{jobs}']);"
                      " print(sorted(m for m in sys.modules if m.split('.')[0]"
                      " in ('concurrent', 'multiprocessing')), file=sys.stderr);"
                      " sys.exit(code)")
            for jobs in (1, 2)]
    for done in runs:
        assert (done.returncode, done.stderr) == (0, "[]\n")
    assert runs[0].stdout == runs[1].stdout != ""


def test_verify_failure_exit_1(monkeypatch):
    """A failed report makes verify exit 1, marked in either format."""
    from sl2prod import oracle

    class FailedReport:
        def to_dict(self):
            return {"q": 5, "group": "sl2", "ok": False,
                    "pairs": {"checked": 1, "failures": [{"where": ["U[1]", "U[1]"]}]},
                    "triples": {"checked": 0, "failures": [],
                                "containment_failures": []},
                    "covering": None}

    monkeypatch.setattr(oracle, "verify_laws", lambda F, kind: FailedReport())
    code, out, _ = run_cli(["verify", "--field", "5", "--group", "sl2"])
    assert code == 1
    assert json.loads(out)["ok"] is False
    code, out, _ = run_cli(["verify", "--field", "5", "--group", "sl2",
                            "--format", "text"])
    assert code == 1
    assert out.splitlines()[-1] == "FAILURES PRESENT"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, expected) for every `sl2prod` line of README's sh blocks, with
    a `> file` redirect dropped.  expected is the `#` comment after the
    command, continued on the `#` lines below it, when that parses as JSON,
    and None otherwise."""
    examples, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("sl2prod "):
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            examples.append([argv[1:argv.index(">")] if ">" in argv else argv[1:],
                             [comment]])
        elif in_sh and line.startswith("#") and examples:
            examples[-1][1].append(line[1:])
    out = []
    for argv, comments in examples:
        try:
            expected = json.loads(" ".join(comments))
        except ValueError:
            expected = None
        out.append((argv, expected))
    return out


def test_readme_examples():
    examples = readme_examples()
    assert len(examples) >= 10
    assert sum(expected is not None for _, expected in examples) >= 2
    for argv, expected in examples:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert json.loads(out) == expected, argv
