import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import dwfs.harness as harness
import dwfs.residual as residual
from dwfs import (
    CapacityError,
    GeneratorConfig,
    ModelState,
    RouteError,
    check_equivalence,
    parse_program,
    random_program,
    render_program,
    render_state,
    state_json,
)
from dwfs.cli import run
from dwfs.harness import SEMANTICS_NAMES, compute_semantics, report_json
from conftest import (
    ATTACK_DEMO,
    GUARD,
    PIPELINE,
    SATURATE,
    TRAVEL,
    admissibility_loses_assumptions,
    no_greatest_when_atom_a,
)


@pytest.fixture
def travel_file(tmp_path):
    path = tmp_path / "travel.lp"
    path.write_text(TRAVEL)
    return str(path)


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def test_check_echoes_canonical_form(travel_file):
    code, out = _run(["check", travel_file])
    assert code == 0
    assert out == "b | l :- not p.\nl | p.\n"


def test_check_reports_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_text("a :- .")
    code, _ = _run(["check", str(path)])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    code, _ = _run(["check", "/nonexistent/never.lp"])
    assert code == 1


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_input_is_error(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "undecodable":
        path = tmp_path / "bytes.lp"
        path.write_bytes(b"\xff\xfe")
    assert _run(["check", str(path)]) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_undecodable_stdin_is_error(monkeypatch, capsys):
    # As under a C locale: stdin's own decoding would escape the bytes.
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), "ascii", "surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert _run(["check", "-"]) == (1, "")
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "data, err",
    [
        (b"a.\rb :- .", "parse error: line 1, column 9: expected a body literal, found '.'\n"),
        (
            b"a.\r\n  b | .\r\n",
            "parse error: line 2, column 7: expected an atom in a rule head, found '.'\n",
        ),
        (
            b"a :- b %c",
            "parse error: line 1, column 10: expected ',' or '.', found 'end of input'\n",
        ),
        (b"a.\r\nb :- c & d.", "parse error: line 2, column 8: unexpected character '&'\n"),
    ],
    ids=["lone-cr", "crlf", "final-comment", "bad-character"],
)
def test_file_and_stdin_report_the_same_error(tmp_path, monkeypatch, capsys, data, err):
    path = tmp_path / "bad.lp"
    path.write_bytes(data)
    assert _run(["check", str(path)]) == (1, "")
    assert capsys.readouterr().err == err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    assert _run(["check", "-"]) == (1, "")
    assert capsys.readouterr().err == err


def test_file_and_stdin_read_crlf_alike(tmp_path, monkeypatch):
    data = b"a | b :- c,\r\n  not d.\r\ne.\r"
    path = tmp_path / "crlf.lp"
    path.write_bytes(data)
    want = (0, "a | b :- c, not d.\ne.\n")
    assert _run(["check", str(path)]) == want
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    assert _run(["check", "-"]) == want


@pytest.mark.parametrize("command", ["lft", "trace", "residual"])
def test_negative_lft_cap_is_usage_error(travel_file, capsys, command):
    assert _run([command, travel_file, "--lft-cap", "-1"]) == (1, "")
    assert capsys.readouterr().err == "usage error: --lft-cap cannot be negative\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--atoms", "0"], "num_atoms must be positive"),
        (["--max-head", "0"], "max_head must be at least 1"),
        (["--max-pos-body", "-1"], "body bounds cannot be negative"),
        (["--count", "-5"], "--count cannot be negative"),
        (["--rules", "-3"], "num_rules cannot be negative"),
        (["--neg-prob", "1.5"], "neg_probability must lie in [0, 1]"),
        (["--neg-prob", "-0.1"], "neg_probability must lie in [0, 1]"),
        (["--neg-prob", "nan"], "neg_probability must lie in [0, 1]"),
    ],
    ids=[
        "atoms-0",
        "max-head-0",
        "max-pos-body-negative",
        "count-negative",
        "rules-negative",
        "neg-prob-above-1",
        "neg-prob-negative",
        "neg-prob-nan",
    ],
)
def test_rejected_fuzz_config_is_usage_error(capsys, flags, message):
    assert _run(["fuzz", "--count", "1", *flags]) == (1, "")
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_usage_error_on_bad_method(travel_file):
    code, _ = _run(["semantics", travel_file, "--method", "no-such"])
    assert code == 1


def test_no_command_is_usage_error():
    code, _ = _run([])
    assert code == 1


def test_semantics_single_method_text(travel_file):
    code, out = _run(["semantics", travel_file, "--method", "dwfs-star"])
    assert code == 0
    assert out == "l | p\nnot b\n"


def test_semantics_classic_method_lacks_negative(travel_file):
    code, out = _run(["semantics", travel_file, "--method", "dwfs-classic"])
    assert code == 0
    assert out == "l | p\n"


def test_semantics_raw_engine_flag(travel_file):
    code, out = _run(["semantics", travel_file, "--method", "wfds-raw"])
    assert code == 0
    assert out == "l | p\nnot b\n"


def test_semantics_all_reports_equality(travel_file):
    code, out = _run(["semantics", travel_file])
    assert code == 0
    assert "[wfds]" in out and "[uwfs]" in out
    assert "equal: true" in out


def test_semantics_json_round_trip(travel_file):
    code, out = _run(["semantics", travel_file, "--method", "uwfs", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "true_disjunctions": [["l", "p"]],
        "false_atoms": ["b"],
        "undefined_atoms": ["l", "p"],
    }


def test_semantics_all_json(travel_file):
    code, out = _run(["semantics", travel_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert set(doc["states"]) == {"wfds", "wfds-raw", "dwfs-star", "uwfs"}


def test_text_and_json_encode_same_state(tmp_path):
    path = tmp_path / "demo.lp"
    path.write_text(ATTACK_DEMO)
    _, text = _run(["semantics", str(path), "--method", "wfds"])
    _, raw = _run(["semantics", str(path), "--method", "wfds", "--format", "json"])
    doc = json.loads(raw)
    lines = [" | ".join(d) for d in doc["true_disjunctions"]]
    lines += ["not " + a for a in doc["false_atoms"]]
    assert text == "".join(line + "\n" for line in lines)


def test_residual_command(travel_file):
    code, out = _run(["residual", travel_file])
    assert code == 0
    assert out == "l | p.\n"
    code, out = _run(["residual", travel_file, "--classic"])
    assert code == 0
    assert out == "b | l :- not p.\nl | p.\n"


def test_lft_command(tmp_path):
    path = tmp_path / "sat.lp"
    path.write_text(SATURATE)
    code, out = _run(["lft", str(path)])
    assert code == 0
    assert out == "b | l :- not p.\nl | p :- not w.\np | v :- not w.\nu.\n"


def test_trace_command(tmp_path):
    path = tmp_path / "pipe.lp"
    path.write_text(PIPELINE)
    code, out = _run(["trace", str(path)])
    assert code == 0
    assert out.startswith("% lft\n")
    assert "% reduce 1" in out
    assert "elim-s-implication: -" in out
    assert out.rstrip().endswith("q.")
    assert "% residual" in out


def test_trace_command_shows_positive_reduction(tmp_path):
    path = tmp_path / "reduce.lp"
    path.write_text("a :- not b.\nc | d :- not a.\n")
    code, out = _run(["trace", str(path)])
    assert code == 0
    assert out == (
        "% lft\n"
        "a :- not b.\n"
        "c | d :- not a.\n"
        "% reduce 1\n"
        "positive-reduction: -a :- not b. / +a.\n"
        "% reduce 2\n"
        "elim-s-implication: -c | d :- not a.\n"
        "% residual\n"
        "a.\n"
    )


def test_capacity_exit_code(tmp_path, capsys):
    path = tmp_path / "g.lp"
    path.write_text(GUARD)
    code, _ = _run(["residual", str(path), "--lft-cap", "1"])
    assert code == 3
    assert "capacity" in capsys.readouterr().err


def test_residual_lft_cap_boundary_is_the_route_memo_peak(tmp_path, capsys):
    # dwfs residual reads the route memo, so --lft-cap counts the most rules
    # its saturation held at once: one below that peak exits 3, the peak
    # itself passes. On this dense program the route memo, reduced by unit
    # facts while saturating, peaks at 17 against the specification
    # memo's 24, so caps 17 to 23 print the residual program.
    path = tmp_path / "dense-07.lp"
    path.write_text(render_program(random_program(GeneratorConfig(7, 10, 16, 2, 2, 2))))
    p = parse_program(path.read_text())
    residual.route_program(p)
    residual.saturated_program(p)
    peak = p._reduced.peak
    assert (peak, p._saturated.peak) == (17, 24)
    for extra in ([], ["--classic"]):
        assert _run(["residual", str(path), "--lft-cap", str(peak - 1), *extra]) == (3, "")
        assert "capacity error" in capsys.readouterr().err
        code, out = _run(["residual", str(path), "--lft-cap", str(peak), *extra])
        assert code == 0 and out == _run(["residual", str(path), *extra])[1] != ""


def test_route_failure_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.lp"
    path.write_text("a | b :- not c. c.")
    no_greatest_when_atom_a(monkeypatch)
    code, out = _run(["semantics", str(path), "--method", "uwfs"])
    assert (code, out) == (4, "")
    assert "route error: well-founded operator undefined" in capsys.readouterr().err
    code, out = _run(["semantics", str(path)])
    assert code == 4
    assert "[uwfs]\nroute error: well-founded operator undefined" in out
    assert "equal: true" in out
    code, out = _run(["semantics", str(path), "--format", "json"])
    assert code == 4 and set(json.loads(out)["errors"]) == {"uwfs"}
    code, out = _run(["fuzz", "--count", "2", "--atoms", "3", "--rules", "3"])
    lines = out.splitlines()
    assert code == 4
    assert lines[-1] == "fuzz: 4 programs, 0 divergences, 4 with a route error"
    assert all(set(json.loads(line)["errors"]) == {"uwfs"} for line in lines[:-1])

    monkeypatch.undo()
    admissibility_loses_assumptions(monkeypatch)
    for method in ("wfds", "wfds-raw"):
        code, out = _run(["semantics", str(path), "--method", method])
        assert (code, out) == (4, "")
        assert "route error: admissibility iteration" in capsys.readouterr().err


def test_capacity_in_every_route_exits_3(tmp_path, monkeypatch):
    path = tmp_path / "pipe.lp"
    path.write_text(PIPELINE)
    monkeypatch.setattr(residual, "DEFAULT_LFT_CAP", 3)
    assert _run(["semantics", str(path), "--method", "uwfs"]) == (3, "")
    code, out = _run(["semantics", str(path)])
    assert code == 3
    assert out.count("capacity error: saturation exceeded 3 stored rules") == 4
    assert out.endswith("equal: true\n")
    code, out = _run(["semantics", str(path), "--format", "json"])
    assert code == 3 and set(json.loads(out)["errors"]) == set(SEMANTICS_NAMES)
    # The empty degenerate program stores no rule, so it passes a cap of 0.
    monkeypatch.setattr(residual, "DEFAULT_LFT_CAP", 0)
    code, out = _run(["fuzz", "--count", "2", "--atoms", "3", "--rules", "3"])
    assert (code, out) == (3, "fuzz: 4 programs, 0 divergences, 3 with a capacity error\n")


def _patched_routes(monkeypatch, failures):
    """Make compute_semantics fail as failures says: route name -> "capacity",
    "route" or "diverge" (a state no other route returns)."""
    real = harness.compute_semantics

    def patched(p, name):
        kind = failures.get(name)
        if kind == "capacity":
            raise CapacityError("capped")
        if kind == "route":
            raise RouteError("broken")
        if kind == "diverge":
            return ModelState(frozenset(), p.base)
        return real(p, name)

    monkeypatch.setattr(harness, "compute_semantics", patched)


@pytest.mark.parametrize(
    "failures, code",
    [
        ({}, 0),
        ({"uwfs": "capacity"}, 3),
        ({"uwfs": "capacity", "wfds": "route"}, 4),
        ({"uwfs": "capacity", "wfds": "diverge"}, 2),
        ({"uwfs": "route", "wfds": "diverge"}, 2),
    ],
    ids=["clean", "capacity", "route-over-capacity", "divergence-over-capacity",
         "divergence-over-route"],
)
def test_cross_check_exit_precedence(travel_file, monkeypatch, failures, code):
    _patched_routes(monkeypatch, failures)
    assert _run(["semantics", travel_file])[0] == code
    assert _run(["semantics", travel_file, "--format", "json"])[0] == code
    assert _run(["fuzz", "--count", "1", "--atoms", "3", "--rules", "3"])[0] == code


def test_semantics_prints_compute_semantics(tmp_path):
    # Every --method prints the state compute_semantics returns for it, and
    # "all" prints check_equivalence's report over SEMANTICS_NAMES.
    path = tmp_path / "p.lp"
    for text in (PIPELINE, TRAVEL, ATTACK_DEMO):
        path.write_text(text)
        p = parse_program(text)
        names = p.atom_names
        for method in ("wfds", "wfds-raw", "dwfs-star", "dwfs-classic", "uwfs"):
            state = compute_semantics(p, method)
            argv = ["semantics", str(path), "--method", method]
            assert _run(argv) == (0, render_state(state, names))
            assert _run(argv + ["--format", "json"]) == (
                0,
                json.dumps(state_json(state, names), sort_keys=True) + "\n",
            )
        blocks = [
            f"[{n}]\n{render_state(compute_semantics(p, n), names)}\n"
            for n in SEMANTICS_NAMES
        ]
        assert _run(["semantics", str(path)]) == (0, "".join(blocks) + "equal: true\n")
        assert _run(["semantics", str(path), "--format", "json"]) == (
            0,
            json.dumps(report_json(check_equivalence(p)), sort_keys=True) + "\n",
        )
        for command in ("residual", "lft", "trace"):
            assert _run([command, str(path)])[0] == 0


def test_fuzz_runs_clean():
    code, out = _run(
        ["fuzz", "--count", "15", "--atoms", "4", "--rules", "5", "--seed", "11"]
    )
    assert code == 0
    assert out == "fuzz: 17 programs, 0 divergences\n"


def test_output_is_byte_deterministic(travel_file):
    runs = [_run(["semantics", travel_file, "--format", "json"]) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [_run(["trace", travel_file]) for _ in range(2)]
    assert runs[0] == runs[1]


def test_import_generates_no_code():
    # The records are plain classes: importing the package and its CLI loads
    # neither dataclasses nor the inspect and typing modules it pulls in.
    src = Path(harness.__file__).resolve().parents[1]
    probe = ("import sys, dwfs, dwfs.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
