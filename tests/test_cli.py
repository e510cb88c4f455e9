"""CLI golden outputs, exit codes, and thin-adapter equality with the
library."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

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
    code, out, _ = run_cli(["commutator", "--field", "37", "[[1,1],[0,1]]"])
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


def test_domain_error_exit_3():
    for argv in [["classify", "--field", "4", "[[1,0],[0,1]]"],
                 ["classify", "--field", "3", "[[1,0],[0,1]]"],
                 ["classify", "--field", "7", "[[1,0],[0,2]]"],
                 ["classify", "--field", "7", "[[1,0],[0"],
                 ["classify", "--field", "7", "[[true,0],[0,1]]"],
                 ["classify", "--field", "7", "[[1,false],[0,1]]"],
                 ["product", "--field", "7", "U[2]", "U[1]"],
                 ["product", "--field", "7", "SS[0]", "U[1]"],
                 ["classify", "--field", "7", "[" * 100000],
                 ["classes", "--field", "3^20"],
                 ["classify", "[[1,0],[0,1]]"]]:
        code, _, err = run_cli(argv)
        assert code == 3, argv
        assert err.startswith("error:")


def test_internal_error_exit_4(monkeypatch):
    """A construction that finds no witness raises WitnessError, an explicit
    raise that survives python -O, and the CLI reports it with exit code 4
    and one line, without a traceback."""
    from sl2prod import witness
    monkeypatch.setattr(witness, "_find_second", lambda F, A, beta, gamma: None)
    with pytest.raises(witness.WitnessError):
        witness.macbeath_triple(make_field(7), 1, 1, 1)
    code, out, err = run_cli(["macbeath", "--field", "7", "1", "1", "1"])
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_verify_jobs_flag_output_stable():
    a = run_cli(["verify", "--field", "5"])
    b = run_cli(["verify", "--field", "5", "--jobs", "2"])
    assert a == b


def test_verify_workers_clamped(monkeypatch):
    """The pool gets at most one worker per task and per CPU; a single
    worker runs in-process.  A fake pool records the request instead of
    starting processes."""
    import sl2prod.cli as cli
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    serial = run_cli(["verify", "--field", "5"])
    assert run_cli(["verify", "--field", "5", "--jobs", "3"]) == serial
    assert asked == [2]
    assert run_cli(["verify", "--field", "5", "--group", "sl2", "--jobs", "3"])[0] == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run_cli(["verify", "--field", "5", "--jobs", "3"]) == serial
    assert asked == [2]


def test_verify_failure_exit_1(monkeypatch):
    import sl2prod.cli as cli
    monkeypatch.setattr(cli, "_verify_task", lambda spec: {
        "q": 5, "group": "sl2", "ok": False,
        "pairs": {"checked": 1, "failures": [{"where": ["U[1]", "U[1]"]}]},
        "triples": {"checked": 0, "failures": [], "containment_failures": []},
        "covering": None})
    code, out, _ = run_cli(["verify", "--field", "5", "--group", "sl2"])
    assert code == 1
    assert json.loads(out)["ok"] is False
