import collections
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from manylogic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_single_connective(capsys):
    code, out, _ = run(capsys, "tables", "LJ4", "--conn", "circ")
    assert code == 0
    assert out.strip() == "LJ4  @\n T   T\n b   F\n n   F\n F   T"


def test_tables_all_connectives(capsys):
    code, out, _ = run(capsys, "tables", "CLS")
    assert code == 0
    assert "CLS  @" in out and "CLS  ->" in out and "CLS  N" in out


def test_eval_fixture(capsys, fixtures):
    code, out, _ = run(capsys, "eval", str(fixtures / "ex1.json"),
                       "--world", "w1", "--formula", "[]p")
    assert code == 0
    assert out.strip() == "b DESIGNATED"


def test_eval_not_designated(capsys, fixtures):
    code, out, _ = run(capsys, "eval", str(fixtures / "ex2.json"),
                       "--world", "w1", "--formula", "[]p")
    assert code == 0
    assert out.strip() == "F0 NOT DESIGNATED"


def test_eval_diamond_override(capsys, fixtures):
    code, out, _ = run(capsys, "eval", str(fixtures / "axiom5-countermodel.json"),
                       "--world", "w1", "--formula", "<>p -> []<>p", "--diamond", "up")
    assert code == 0
    assert "DESIGNATED" in out and "NOT" not in out


def test_consequence_invalid_with_witness(capsys):
    code, out, _ = run(capsys, "consequence", "LP",
                       "--premises", "p,!p", "--conclusion", "q")
    assert code == 1
    assert out.strip() == "INVALID p=b q=F0"


def test_consequence_valid(capsys):
    code, out, _ = run(capsys, "consequence", "LETK",
                       "--premises", "@p,p,!p", "--conclusion", "q")
    assert code == 0
    assert out.strip() == "VALID"


def test_biv_consequence(capsys):
    code, out, _ = run(capsys, "biv-consequence", "K3",
                       "--premises", "p,!p", "--conclusion", "q")
    assert code == 0
    assert out.strip() == "VALID"
    code, out, _ = run(capsys, "biv-consequence", "LP",
                       "--premises", "p,!p", "--conclusion", "q")
    assert code == 1
    assert out.startswith("INVALID")
    assert "rho(p) = 1" in out and "rho(q) = 0" in out


def test_check_frame_counterexample(capsys, fixtures):
    code, out, _ = run(capsys, "check-frame", str(fixtures / "euclid3.json"),
                       "--axiom", "5", "--diamond", "down", "--exhaustive")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "COUNTEREXAMPLE world=w1 value=F0"
    model = json.loads("\n".join(lines[1:]))
    assert model["logics"] == {"w1": "FDE", "w2": "K3", "w3": "LP"}


def test_check_frame_valid(capsys, fixtures):
    code, out, _ = run(capsys, "check-frame", str(fixtures / "euclid3.json"),
                       "--axiom", "K", "--exhaustive")
    assert code == 0
    assert out.startswith("VALID (1296 valuations, mode=exhaustive")


def test_check_frame_sampled_seeded(capsys, fixtures):
    code, out, _ = run(capsys, "check-frame", str(fixtures / "euclid3.json"),
                       "--axiom", "T", "--samples", "200", "--seed", "5")
    assert code == 0
    assert "seed=5" in out


def test_check_frame_uses_the_frames_diamond_unless_told_otherwise(capsys, fixtures, tmp_path):
    # as eval does: the flag wins, then the file's diamond, then up
    doc = json.loads((fixtures / "euclid3.json").read_text())
    doc["diamond"] = "down"
    down = tmp_path / "euclid3-down.json"
    down.write_text(json.dumps(doc))
    plain = str(fixtures / "euclid3.json")
    for mode in (["--exhaustive"], []):
        def check(*argv):
            return run(capsys, "check-frame", *argv, "--axiom", "5", *mode)

        assert check(str(down)) == check(plain, "--diamond", "down")
        assert check(str(down))[1].startswith("COUNTEREXAMPLE world=w1 ")
        assert check(str(down), "--diamond", "up") == check(plain)
        assert check(plain)[1].startswith("COUNTEREXAMPLE world=w2 ")


@pytest.mark.parametrize("argv, missing", (
    (["eval", "ex1.json", "--world", "w1", "--formula", "<>p", "--diamond", "down"], False),
    (["eval", "ex1.json", "--world", "w1", "--formula", "<>p", "--diamond", "down"], True),
    (["check-frame", "euclid3.json", "--axiom", "5", "--exhaustive", "--diamond", "down"], False),
), ids=("eval", "eval-missing-atom", "check-frame"))
def test_a_diamond_override_is_validated_once(capsys, fixtures, monkeypatch, tmp_path, argv, missing):
    # eval used to load the file's model, rebuild it under the flag's
    # diamond and lay the rebuilt one out again; the loader lays out a
    # clean document, validate one with an atom missing at a world
    from manylogic import models

    doc = json.loads((fixtures / argv[1]).read_text())
    if missing:
        del doc["valuation"]["w3"]
    path = tmp_path / argv[1]
    path.write_text(json.dumps(doc))
    lay_out, layouts = models._lay_out, []

    def counting(x, *axis):
        layouts.append(x.diamond)
        return lay_out(x, *axis)

    monkeypatch.setattr(models, "_lay_out", counting)
    code, out, err = run(capsys, argv[0], str(path), *argv[2:])
    warning = "warning: world 'w3' has no value for p; defaulting to lattice bottom\n" if missing else ""
    assert code in (0, 1) and out and err == warning
    assert layouts == ["down"]


def test_verify_refuses_flags_its_mode_ignores(capsys):
    # the pinned checklist fixes its own sample counts and seed, and the
    # theorem suite has no criteria to pick: each flag used to be ignored
    for argv in (["--only", "AC3", "--samples", "5", "--seed", "9"], ["--samples", "5"], ["--seed", "9"]):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", "error: --samples and --seed apply only with --logics\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--logics", "K3", "--only", "AC1"])
    assert exc.value.code == 2
    assert "argument --only: not allowed with argument --logics" in capsys.readouterr().err


def test_check_frame_refuses_sampling_flags_with_exhaustive(capsys, fixtures):
    # an exhaustive check draws nothing, so neither flag applies to it
    frame = str(fixtures / "euclid3.json")
    for argv in (["--samples", "0", "--seed", "9"], ["--samples", "300"], ["--seed", "0"]):
        code, out, err = run(capsys, "check-frame", frame, "--axiom", "K", "--exhaustive", *argv)
        assert (code, out, err) == (2, "", "error: --samples and --seed apply only without --exhaustive\n")
    code, out, _ = run(capsys, "check-frame", frame, "--axiom", "K", "--exhaustive")
    assert (code, out) == (0, "VALID (1296 valuations, mode=exhaustive, seed=0)\n")
    assert run(capsys, "check-frame", frame, "--axiom", "T") == run(
        capsys, "check-frame", frame, "--axiom", "T", "--samples", "10000", "--seed", "0")


def test_verify_refuses_an_empty_criterion_or_logic_list(capsys):
    # both were falsy: each ran the whole pinned checklist and exited 1, and
    # with --samples the refusal claimed that --logics was missing
    cases = (
        (["--only", ""], "--only names no criterion"),
        (["--only", " "], "--only names no criterion"),
        (["--logics", ""], "--logics names no logic"),
        (["--logics", "", "--samples", "5"], "--logics names no logic"),
    )
    for argv, message in cases:
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


CRITERIA = ", ".join(f"AC{i}" for i in range(1, 13))


def test_verify_refuses_a_criterion_id_that_names_no_criterion(capsys):
    # an unknown id beside a known one, and the empty id after a trailing
    # comma, were dropped: only AC1 ran, "1/1 criteria pass", exit 0
    cases = (("AC1,AC99", "'AC99'"), ("AC1,", "''"), ("nope", "'NOPE'"), ("AC99,AC3,AC12,AC100", "'AC100'"))
    for only, bad in cases:
        code, out, err = run(capsys, "verify", "--only", only)
        assert (code, out, err) == (2, "", f"error: unknown criterion {bad}; expected one of {CRITERIA}\n"), only


def test_run_all_refuses_an_unknown_id_before_any_check_runs(monkeypatch):
    from manylogic import verify
    from manylogic.values import ManylogicError

    ran = []

    def check(cid):
        def run_check():
            ran.append(cid)
            return cid
        run_check.__name__ = f"{cid.lower()}_check"
        return run_check

    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(check(f"AC{i}") for i in range(1, 13)))
    for only in ({"nope"}, {"AC1", "AC99"}, {"AC2", ""}):
        with pytest.raises(verify.CriterionError, match=f"^unknown criterion '(nope|AC99|)'; expected one of {CRITERIA}$"):
            verify.run_all(only)
    for only in ([["AC1"]], ["AC2", ["AC1"]]):  # an unhashable id is an unknown one
        with pytest.raises(verify.CriterionError, match=rf"^unknown criterion \['AC1'\]; expected one of {CRITERIA}$"):
            verify.run_all(only)
    assert issubclass(verify.CriterionError, ManylogicError) and ran == []
    assert verify.run_all({"AC12", "AC3"}) == ["AC3", "AC12"]  # checklist order
    assert verify.run_all(iter(["AC12", "AC3"])) == ["AC3", "AC12"]  # an iterator is read once
    assert verify.run_all(None) == [f"AC{i}" for i in range(1, 13)]
    assert verify.run_all(set()) == []


def test_render_of_an_empty_selection_counts_no_criteria():
    # an empty selection ran no check, and render took the max of no titles
    from manylogic import verify

    assert verify.render(verify.run_all(set())) == "0/0 criteria pass"


def test_verify_refuses_a_logic_named_twice(capsys):
    code, out, err = run(capsys, "verify", "--logics", "K3,K3")
    assert (code, out, err) == (2, "", "error: logic 'K3' is named twice\n")


def test_sampled_checks_refuse_fewer_than_one_sample(capsys, fixtures):
    frame = str(fixtures / "euclid3.json")
    for samples in ("0", "-1"):
        code, out, err = run(capsys, "check-frame", frame, "--axiom", "T", "--samples", samples)
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run(capsys, "verify", "--logics", "K3", "--samples", samples)
        assert code == 2 and out == "" and err.startswith("error:")


def test_consequence_limits_exit_2(capsys):
    code, out, err = run(capsys, "consequence", "K3", "--premises", "a,b,c,d",
                         "--conclusion", "e | f | g | h | i")
    assert code == 2 and out == "" and err == "error: 9 atoms exceed the cap of 8\n"
    code, _, err = run(capsys, "consequence", "K3", "--conclusion", "[]p")
    assert code == 2 and err.startswith("error: modal operator")


def test_biv_consequence_limits_exit_2(capsys):
    code, out, err = run(capsys, "biv-consequence", "K3", "--premises", "a,b,c,d",
                         "--conclusion", "e | f | g | h | i")
    assert code == 2 and out == "" and err == "error: 9 atoms exceed the cap of 8\n"
    code, _, err = run(capsys, "biv-consequence", "K3", "--conclusion", "[]p")
    assert code == 2 and err.startswith("error: modal operator")


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only", "AC3,AC9")
    assert code == 0
    assert "AC3" in out and "AC9" in out and "2/2 criteria pass" in out


def test_verify_reports_ac8_refuted_with_its_witness(capsys):
    code, out, _ = run(capsys, "verify", "--only", "AC8")
    assert code == 1
    lines = [line.strip() for line in out.splitlines()]
    assert lines[0].split() == "AC8 axioms T and 4 on matching frames FAIL".split()
    assert lines[-1] == "0/1 criteria pass"
    witness = json.dumps({
        "worlds": ["w1", "w2"],
        "logics": {"w1": "LETK", "w2": "K3"},
        "relation": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"], ["w2", "w2"]],
        "valuation": {"w1": {"p": "b"}, "w2": {"p": "T0"}},
        "diamond": "up",
    })
    assert f"! axiom 4: world=w1 value=F0 model={witness}" in lines


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden, argv", [
    ("verify.txt", ["verify"]),
    ("verify-all-logics.txt", ["verify", "--logics", "LETK,FDE,LJ4,K3,L3,LP,J3,CLW,CLS"]),
], ids=("checklist", "all-logics"))
def test_verify_prints_its_golden_output(capsys, golden, argv):
    # every detail line: frame and model counts and each counterexample
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == (GOLDEN / golden).read_text()


EUCLID3 = "src/manylogic/fixtures/euclid3.json"  # as the golden lines name it, from the repository root
SAMPLED_RUNS = [
    ["check-frame", EUCLID3, "--axiom", a, "--diamond", d] for a in ("K", "T", "4", "5", "5c", "B", "D")
    for d in ("up", "down", "negbox", "cnegbox")
] + [
    ["check-frame", EUCLID3, "--axiom", "5", "--diamond", d, "--samples", "100000", "--seed", "5"]
    for d in ("up", "down", "negbox", "cnegbox")
]
# the catalogue of single-frame checks: every axiom under every diamond,
# exhaustive and at 300 samples
CATALOGUE_RUNS = [
    ["check-frame", EUCLID3, "--axiom", a, "--diamond", d, *budget] for a in ("K", "T", "4", "5", "5c", "B", "D")
    for d in ("up", "down", "negbox", "cnegbox") for budget in (["--exhaustive"], ["--samples", "300"])
]


@pytest.mark.parametrize("golden, runs", [
    ("check-frame-sampled.txt", SAMPLED_RUNS),
    ("check-frame-catalogue.txt", CATALOGUE_RUNS),
], ids=("sampled", "catalogue"))
def test_sampled_check_frame_prints_its_golden_output(capsys, monkeypatch, golden, runs):
    # the sampled single-frame draws at the default 10,000 samples and at
    # the most a check draws, and the catalogue: one line a run,
    # tab-separated, with the argv, the exit code, the first stdout line
    # and the sha256 of all of stdout (CI runs this test under fixed hash
    # seeds too)
    from hashlib import sha256

    monkeypatch.chdir(Path(__file__).parent.parent)
    lines = []
    for argv in runs:
        code, out, _ = run(capsys, *argv)
        lines.append(f"{' '.join(argv)}\t{code}\t{out.splitlines()[0]}\t{sha256(out.encode()).hexdigest()}\n")
    assert "".join(lines) == (GOLDEN / golden).read_text()


MODEL_FIXTURES = ("axiom5-countermodel", "diamond-compare", "ex1", "ex2", "ex3", "ex4", "nec-fail", "sec2")
EVAL_FORMULAS = ("[]p", "<>p", "[](p -> q)", "~[]p | <>~q", "N<>p", "[]<>p => p", "@[]!p")


def eval_catalogue_runs():
    # eval at every world of every model fixture, each formula with a
    # diamond also under each --diamond override
    runs = []
    for name in MODEL_FIXTURES:
        path = f"src/manylogic/fixtures/{name}.json"
        worlds = json.loads((Path(__file__).parent.parent / path).read_text())["worlds"]
        for w in worlds:
            for f in EVAL_FORMULAS:
                argv = ["eval", path, "--world", w, "--formula", f]
                runs.append(argv)
                if "<>" in f:
                    runs += [[*argv, "--diamond", d] for d in ("up", "down", "negbox", "cnegbox")]
    return runs


def test_eval_catalogue_prints_its_golden_output(capsys, monkeypatch):
    # one line a run, tab-separated: the argv, the exit code and stdout
    # (CI runs this test under fixed hash seeds too)
    monkeypatch.chdir(Path(__file__).parent.parent)
    lines = []
    for argv in eval_catalogue_runs():
        code, out, _ = run(capsys, *argv)
        out = out.rstrip("\n")
        lines.append(f"{' '.join(argv)}\t{code}\t{out}\n")
    assert "".join(lines) == (GOLDEN / "eval-catalogue.txt").read_text()


def test_verify_logics_prints_the_text_findings(capsys, monkeypatch):
    # a 5c row that names a frame, not a countermodel, prints as its text
    from manylogic import frames
    from manylogic.syntax import parse

    monkeypatch.setitem(frames.SCHEMAS, "5c", frames.AxiomSchema("5c", parse("p -> p")))
    code, out, _ = run(capsys, "verify", "--logics", "K3")
    assert code == 1
    lines = out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("5c-euclidean"))
    assert lines[i].endswith("FAIL")
    assert lines[i + 1:i + 4] == [
        "      ! [w1->w2] logics K3,K3", "      ! [w1->w1,w1->w2] logics K3,K3", "      ! [w2->w1] logics K3,K3",
    ]


def test_a_world_without_an_atom_value_warns_on_stderr(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"worlds": ["w1", "w2"], "logics": {"w1": "K3", "w2": "LP"},
                                "relation": [["w1", "w2"]], "valuation": {"w1": {"p": "n"}}}))
    code, out, err = run(capsys, "eval", str(path), "--world", "w1", "--formula", "[]p")
    assert (code, out) == (0, "F0 NOT DESIGNATED\n")  # w2's p is LP's bottom, F0
    assert err == "warning: world 'w2' has no value for p; defaulting to lattice bottom\n"


def test_verify_logics_subset_runs_theorem_suite(capsys):
    code, out, _ = run(capsys, "verify", "--logics", "K3,LP", "--samples", "100")
    assert "5c-euclidean" in out and "duality" in out
    code2, _, err = run(capsys, "verify", "--logics", "K3,NOPE")
    assert code2 == 2 and "unknown logic" in err


def test_malformed_inputs_exit_2(capsys, fixtures):
    code, _, err = run(capsys, "eval", "missing.json", "--world", "w1", "--formula", "p")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "consequence", "LP", "--premises", "p &", "--conclusion", "q")
    assert code == 2 and "bad formula" in err
    code, _, err = run(capsys, "eval", str(fixtures / "ex1.json"),
                       "--world", "nope", "--formula", "p")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tables", "NOPE"])
    assert exc.value.code == 2


def test_formula_nested_too_deeply_exits_2(capsys, fixtures):
    deep = "!" * 1000 + "p"
    code, out, err = run(capsys, "eval", str(fixtures / "ex1.json"),
                         "--world", "w1", "--formula", deep)
    assert code == 2 and out == ""
    assert err.startswith("error: bad formula") and "nested deeper than" in err
    code, _, err = run(capsys, "consequence", "LETK", "--conclusion", " & ".join(["p"] * 1200))
    assert code == 2 and err.startswith("error: bad formula")


def test_files_that_are_not_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"worlds": ["w1"]}'.encode("utf-16-le"))
    code, out, err = run(capsys, "eval", str(path), "--world", "w1", "--formula", "p")
    assert code == 2 and out == "" and err.startswith(f"error: cannot load model {path}")
    code, out, err = run(capsys, "check-frame", str(path), "--axiom", "T")
    assert code == 2 and out == "" and err.startswith(f"error: cannot load frame {path}")


@pytest.mark.parametrize("depth", (900, 1000))
def test_json_nested_deeply_exits_2(capsys, tmp_path, depth):
    # 1,000 levels made the decoder raise RecursionError, a traceback and
    # exit 1; both depths are bad input, without a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    for argv, noun in ((("eval", str(path), "--world", "w1", "--formula", "p"), "model"),
                       (("check-frame", str(path), "--axiom", "T"), "frame")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith(f"error: cannot load {noun} {path}: ")
        assert "Traceback" not in err and err.count("\n") == 1


def test_a_json_member_named_twice_exits_2(capsys, fixtures, tmp_path):
    # the last of two "w1" logics won: eval answered under LP with exit 0
    path = tmp_path / "twice.json"
    path.write_text('{"worlds": ["w1"], "logics": {"w1": "K3", "w1": "LP"}, '
                    '"relation": [], "valuation": {"w1": {"p": "b"}}}')
    code, out, err = run(capsys, "eval", str(path), "--world", "w1", "--formula", "p")
    assert (code, out) == (2, "")
    assert err == f"error: cannot load model {path}: member 'w1' appears twice in one object\n"
    text = (fixtures / "euclid3.json").read_text()
    path.write_text(text.replace('"worlds"', '"diamond": "up", "diamond": "down", "worlds"', 1))
    code, out, err = run(capsys, "check-frame", str(path), "--axiom", "T")
    assert (code, out) == (2, "")
    assert err == f"error: cannot load frame {path}: member 'diamond' appears twice in one object\n"


def test_sample_counts_above_the_cap_exit_2(capsys, fixtures):
    from manylogic.frames import MAX_SAMPLES

    frame = str(fixtures / "euclid3.json")
    for samples in (str(MAX_SAMPLES + 1), "99999999999999999999"):
        code, out, err = run(capsys, "check-frame", frame, "--axiom", "T", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"error: sampled checks draw at most {MAX_SAMPLES} samples, got {samples}\n"
        code, out, err = run(capsys, "verify", "--logics", "K3", "--samples", samples)
        assert code == 2 and out == "" and err.startswith("error: sampled checks draw at most")


def test_valuation_key_that_is_not_an_atom_exits_2(capsys, fixtures, tmp_path):
    data = json.loads((fixtures / "ex1.json").read_text())
    data["valuation"]["w1"]["P"] = "T"
    path = tmp_path / "upper.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "eval", str(path), "--world", "w1", "--formula", "p")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot load model {path}") and "'P' is not an atom name" in err


def test_main_reuses_one_parser_with_the_same_output(capsys, monkeypatch, fixtures):
    # main builds its parser once per process; every request, help and
    # usage errors included, prints and exits as with a fresh parser
    from manylogic import cli

    requests = [
        ("tables", "K3", "--conn", "and"),
        ("eval", str(fixtures / "ex1.json"), "--world", "w1", "--formula", "<>p",
         "--diamond", "negbox"),
        ("tables", "NOPE"),
        ("eval", str(fixtures / "ex1.json")),
        ("check-frame", "--help"),
        ("consequence", "LP", "--conclusion", "p -> p"),
    ]

    def outputs():
        out = []
        for argv in requests:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    reused = outputs()
    assert cli._parser() is cli._parser()
    assert outputs() == reused
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == reused
    assert reused[1][:2] == (0, "T DESIGNATED\n")


def test_unknown_worlds_in_a_relation_exit_2_with_every_error(capsys, fixtures, tmp_path):
    from test_models import UNKNOWN_EDGES, UNKNOWN_ERRORS

    for fixture, noun, argv in (
        ("ex1.json", "model", ("eval", "--world", "w1", "--formula", "[]p")),
        ("euclid3.json", "frame", ("check-frame", "--axiom", "T")),
    ):
        data = json.loads((fixtures / fixture).read_text())  # worlds w1, w2, w3
        data["relation"] += [list(e) for e in UNKNOWN_EDGES]
        path = tmp_path / fixture
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: invalid {noun}: " + "; ".join(UNKNOWN_ERRORS) + "\n"


def test_a_large_invalid_model_exits_2_with_a_short_line(capsys, tmp_path):
    # every one of 10^5 values lies outside its lattice: the message lists
    # the first ten errors and counts the rest, not 4 MB of them
    worlds = [f"w{i}" for i in range(10**5)]
    doc = {"worlds": worlds, "logics": dict.fromkeys(worlds, "K3"), "relation": [],
           "valuation": {w: {"p": "b"} for w in worlds}}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", str(path), "--world", "w0", "--formula", "p")
    shown = "; ".join(f"valuation('w{i}','p') = b not in N3w" for i in range(10))
    assert (code, out) == (2, "")
    assert err == f"error: invalid model: {shown}; … and 99990 more\n"


def reference_main(argv=None) -> int:
    """`main` as it was when the top-level parser classified every argument
    and handed the rest to the subcommand's parser, which classified them
    again; kept as the reference the one-pass dispatch is checked against."""
    from manylogic import bivaluations, frames, syntax
    from manylogic.cli import InputError, _parser
    from manylogic.logics import TooManyAtomsError

    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        InputError,
        frames.BudgetError,
        TooManyAtomsError,
        bivaluations.ClosureTooLargeError,
        syntax.ModalFormulaError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _answer(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


# Arguments inserted into well-formed and malformed requests: unknown,
# help and separator options, a negative number, an option with its value
# attached, and abbreviations of --world and --help.
INSERTIONS = ("--bogus", "-h", "--help", "--", "-1", "--samples=2", "--wor", "--he")


def _catalogue(fixtures) -> list[list[str]]:
    """The benchmark's well-formed and malformed CLI requests."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import bad_inputs, cli_catalogue
    finally:
        sys.path.pop(0)
    base = [argv for entries in cli_catalogue(fixtures).values() for _, argv in entries]
    return base + [argv for _, argv in bad_inputs(fixtures)]


def _dispatch_corpus(fixtures):
    base = _catalogue(fixtures)
    base += [["verify", "--only", "AC3"], ["verify", "--logics", "NOPE"], ["nope", "K3"], ["tables"]]
    rng = random.Random(14)
    argvs = [[]] + base
    for argv in base:
        for token in rng.sample(INSERTIONS, 3):
            at = rng.randint(0, len(argv))
            argvs.append(argv[:at] + [token] + argv[at:])
        options = [i for i, arg in enumerate(argv) if arg.startswith("--")]
        if options:  # an option and its value moved in front of the subcommand
            i = rng.choice(options)
            argvs.append(argv[i:i + 2] + argv[:i] + argv[i + 2:])
    return argvs


def test_dispatch_matches_the_reference_main(fixtures):
    argvs = _dispatch_corpus(fixtures)
    assert len(argvs) > 2000
    for argv in argvs:
        assert _answer(main, argv) == _answer(reference_main, argv), argv


# ------------------------------------------------------- mutation fuzz

FLAGS = ("--world", "--formula", "--diamond", "--premises", "--conclusion", "--v14", "--axiom",
         "--exhaustive", "--samples", "--seed", "--conn", "--only", "--bogus", "-h", "--")
COMMANDS = ("tables", "eval", "check-frame", "consequence", "biv-consequence", "nope", "")
NUMBERS = ("-1", "0", "1", "7", "1_0", "2.5", "", "x", "-0", "0x1f", " 3", "99999999999999999999")
TOKENS = ("K4", "k3", "LETK", "CLS", "up", "sideways", "5c", "Z", "printed", "other", "w1", "w9", "")
FORMULA_CHARS = "()[]<>!@~N#&|->=, pqr"


def _junk_files(tmp_path, fixtures) -> list[str]:
    """Files a path may be swapped for: the other fixtures, a directory, a
    missing file, and documents that are not JSON, not UTF-8, not an
    object, or an object with junk members."""
    ex1 = json.loads((fixtures / "ex1.json").read_text())
    docs = {
        "empty.json": b"",
        "broken.json": b'{"worlds": [',
        "utf16.json": b"\xff\xfe" + json.dumps(ex1).encode("utf-16-le"),
        "array.json": b"[1, 2]",
        "float-value.json": json.dumps(ex1 | {"valuation": {"w1": {"p": 1.0}}}).encode(),
        "four-worlds.json": json.dumps({
            "worlds": ["w1", "w2", "w3", "w4"], "relation": [["w1", "w4"]],
            "logics": dict.fromkeys(("w1", "w2", "w3", "w4"), "LP"),
        }).encode(),
        "null-relation.json": json.dumps(ex1 | {"relation": None}).encode(),
        "short-pair.json": json.dumps(ex1 | {"relation": [["w1"]]}).encode(),
    }
    for name, data in docs.items():
        (tmp_path / name).write_bytes(data)
    return ([str(tmp_path / name) for name in docs] + [str(tmp_path), str(tmp_path / "missing.json")]
            + [str(path) for path in sorted(fixtures.glob("*.json"))])


def _mutate_formula(rng: random.Random, text: str) -> str:
    at = rng.randint(0, len(text))
    roll = rng.random()
    if roll < 0.2:
        return text[:at] + rng.choice(FORMULA_CHARS) + text[at:]
    if roll < 0.35:
        return text[:at] + text[at + 1:]
    if roll < 0.45:
        return text[:at]
    if roll < 0.65:
        return rng.choice(("!", "@", "N", "!@")) * rng.randint(1, 40) + text
    if roll < 0.8:
        return rng.choice(("[]", "<>", "~")) * rng.randint(1, 40) + text
    if roll < 0.95:
        return text.replace("p", rng.choice(("q", "r", "p1", "p_2")))
    return f"{text},{text}" if rng.random() < 0.5 else "(" * 300 + "p" + ")" * rng.randint(298, 301)


def _mutate(rng: random.Random, argv: list[str], files: list[str]) -> list[str]:
    """argv with one change to its flags, a file, a formula or a number."""
    argv = list(argv)
    where = {
        "file": [i for i, a in enumerate(argv) if a.endswith(".json")],
        "formula": [i for i in range(1, len(argv)) if argv[i - 1] in ("--formula", "--premises", "--conclusion")],
        "number": [i for i in range(1, len(argv)) if argv[i - 1] in ("--samples", "--seed")],
    }
    kind = rng.choice(("flag", "file", "formula", "number"))
    if kind == "file" and where["file"]:
        argv[rng.choice(where["file"])] = rng.choice(files)
    elif kind == "formula" and where["formula"]:
        i = rng.choice(where["formula"])
        argv[i] = _mutate_formula(rng, argv[i])
    elif kind == "number" and where["number"]:
        argv[rng.choice(where["number"])] = rng.choice(NUMBERS)
    elif kind == "number":
        argv += [rng.choice(("--samples", "--seed")), rng.choice(NUMBERS)]
    else:  # flags: one inserted, dropped, doubled, retyped, or given a value
        i = rng.randrange(len(argv)) if argv else 0
        roll = rng.random()
        if not argv or roll < 0.3:
            argv.insert(rng.randint(0, len(argv)), rng.choice(FLAGS + TOKENS))
        elif roll < 0.5:
            del argv[i]
        elif roll < 0.6:
            argv.insert(i, argv[i])
        elif roll < 0.7:
            argv[0] = rng.choice(COMMANDS)
        elif roll < 0.85:
            argv[i] = rng.choice(TOKENS)
        else:
            argv[i] = f"{argv[i]}={rng.choice(NUMBERS + TOKENS)}" if argv[i].startswith("--") else rng.choice(FLAGS)
    return argv


def test_mutated_requests_exit_0_1_or_2(fixtures, tmp_path):
    # every mutated request ends in an exit code; no exception other than
    # SystemExit (argparse's usage errors and help) leaves main
    rng = random.Random(17)
    base = _catalogue(fixtures)
    files = _junk_files(tmp_path, fixtures)
    codes = collections.Counter()
    for _ in range(3000):
        argv = rng.choice(base)
        for _ in range(rng.choice((1, 1, 1, 2))):
            argv = _mutate(rng, argv, files)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        codes[code] += 1
    assert codes[2] > codes[0] > codes[1] > 0, codes  # every outcome reached


def test_the_console_entry_point_reads_sys_argv():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "manylogic.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run_module("tables", "K3", "--conn", "and")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "K3  &\n     T0  n   F0\n T0  T0  n   F0\n n   n   n   F0\n F0  F0  F0  F0\n"
    done = run_module("tables", "K4")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: manylogic tables")
    assert "invalid choice: 'K4'" in done.stderr


def test_model_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # files used to be decoded in the locale's encoding: under the C locale
    # a UTF-8 world name was refused, and under a Latin-1 one a file that
    # is not UTF-8 loaded
    from manylogic.models import ModelFormatError, load_model

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    text = json.dumps({"worlds": ["w1", "wé"], "logics": {"w1": "K3", "wé": "LP"},
                       "relation": [["w1", "wé"], ["wé", "w1"]],
                       "valuation": {"w1": {"p": "T0"}, "wé": {"p": "b"}}}, ensure_ascii=False)
    for encoding, code, out, err in (
        ("utf-8", 0, "F0 NOT DESIGNATED\n", ""),
        ("latin-1", 2, "", "'utf-8' codec can't decode byte 0xe9 in position 20: invalid continuation byte\n"),
    ):
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(text.encode(encoding))
        done = subprocess.run([sys.executable, "-m", "manylogic.cli", "eval", str(path), "--world", "w1",
                               "--formula", "[]p"], capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (code, out) and done.stderr.endswith(err)
    assert load_model(tmp_path / "utf-8.json").worlds == ("w1", "wé")
    with pytest.raises(ModelFormatError, match="^'utf-8' codec can't decode byte 0xe9"):
        load_model(tmp_path / "latin-1.json")
