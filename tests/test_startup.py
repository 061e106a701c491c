"""numpy stays off the import path: importing the package, evaluating
models, deciding consequence, the clause search and checking one frame
run on plain Python, and numpy loads on the first sweep.  The numpy
tables `frames` builds on first use are checked here against the eager
build they replaced, and the first frame checks against each other when
threads start them at once.  No class is a dataclass, so no command
loads `dataclasses`, nor the `inspect` it imports, which only numpy
brings in."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from manylogic import frames, models
from manylogic.lattices import MASK, base_leq
from manylogic.logics import LOGIC_IDS, LOGICS, apply
from manylogic.values import Value

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "manylogic" / "fixtures"
CODE_TABLES = ("MEET_T", "JOIN_T", "IMP_T", "CIRC_T", "NEG_T", "DOWN_T", "UP_T", "TOP_T", "BOT_T")


def _python(code: str, *argv: str, returncode: int = 0) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == returncode, done.stderr
    return done


def test_numpy_loads_on_the_first_sweep():
    code = """
        import contextlib, io, json, sys
        from pathlib import Path

        import manylogic
        from manylogic import bivaluations, cli, frames, lattices, logics, models, syntax, values, verify

        fixtures = Path(sys.argv[1])

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            return code, out.getvalue()

        answers = [
            run("eval", str(fixtures / "ex1.json"), "--world", "w1", "--formula", "[]p"),
            run("eval", str(fixtures / "diamond-compare.json"), "--world", "w1", "--formula", "<>p",
                "--diamond", "down"),
            run("consequence", "LETK", "--premises", "p,p -> q", "--conclusion", "q"),
            run("biv-consequence", "LP", "--premises", "", "--conclusion", "p | !p"),
            run("tables", "LP"),
        ]
        imported = "numpy" in sys.modules
        exhaustive = run("check-frame", str(fixtures / "euclid3.json"), "--axiom", "K", "--exhaustive")
        check = run("check-frame", str(fixtures / "euclid3.json"), "--axiom", "5", "--samples", "300")
        checked = "numpy" in sys.modules
        frames.sweep_schema(frames.SCHEMAS["T"], 1, ("K3",))
        tables = {name: getattr(frames, name).tolist() for name in sys.argv[2:]}
        print(json.dumps({"answers": answers, "imported": imported, "exhaustive": exhaustive, "check": check,
                          "checked": checked, "loaded": "numpy" in sys.modules, "tables": tables}))
    """
    got = json.loads(_python(code, str(FIXTURES), *CODE_TABLES).stdout)
    assert got["imported"] is False
    assert [a[0] for a in got["answers"]] == [0, 0, 0, 0, 0]
    assert got["answers"][0][1] == "b DESIGNATED\n"
    assert got["checked"] is False  # checking one frame, exhaustively or sampled, loads no numpy
    assert got["loaded"] is True  # a sweep does
    assert got["exhaustive"] == [0, "VALID (1296 valuations, mode=exhaustive, seed=0)\n"]
    euclid3 = models.load_frame(FIXTURES / "euclid3.json")
    witness = models.Model(euclid3.worlds, euclid3.relation, euclid3.logics,
                           {"w1": {"p": Value.F0}, "w2": {"p": Value.n}, "w3": {"p": Value.F0}})
    want = "COUNTEREXAMPLE world=w3 value=F0\n" + json.dumps(models.model_to_dict(witness), indent=2) + "\n"
    assert got["check"] == [1, want]
    alone = _python(
        "import sys; from manylogic.cli import main; sys.exit(main(sys.argv[1:]))",
        "check-frame", str(FIXTURES / "euclid3.json"), "--axiom", "5", "--samples", "300", returncode=1,
    )
    assert alone.stdout == want
    assert got["tables"] == {name: getattr(frames, name).tolist() for name in CODE_TABLES}


def test_no_command_loads_dataclasses_or_inspect():
    code = """
        import contextlib, io, sys
        from pathlib import Path

        import manylogic.cli, manylogic.verify

        loaded = [sorted({"dataclasses", "inspect"} & set(sys.modules))]
        fixtures = Path(sys.argv[1])
        commands = (
            ("eval", str(fixtures / "diamond-compare.json"), "--world", "w1", "--formula", "<>p", "--diamond", "down"),
            ("consequence", "LETK", "--premises", "p,p -> q", "--conclusion", "q"),
            ("biv-consequence", "LP", "--premises", "", "--conclusion", "p | !p"),
            ("tables", "LP"),
            ("check-frame", str(fixtures / "euclid3.json"), "--axiom", "5", "--samples", "300"),
            ("tables", "K4"),
        )
        codes = []
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(manylogic.cli.main(list(argv)))
                except SystemExit as exc:
                    codes.append(exc.code)
        loaded.append(sorted({"dataclasses", "inspect"} & set(sys.modules)))
        import dataclasses  # only now, to ask of every class in the package

        found = sorted({v.__qualname__ for name, mod in sys.modules.items() if name.split(".")[0] == "manylogic"
                        for v in vars(mod).values() if isinstance(v, type) and dataclasses.is_dataclass(v)})
        print(codes, loaded, found)
    """
    assert _python(code, str(FIXTURES)).stdout == "[0, 0, 0, 0, 1, 2] [[], []] []\n"


def _eager_tables() -> dict:
    """The numpy tables as `models` built them at import before they were
    built on first use: code tables filled in place, and the mask tables
    re-indexed from them by numpy."""
    n = len(LOGIC_IDS)
    meet, join, imp = (np.full((n, 6, 6), -1, dtype=np.int8) for _ in range(3))
    circ = np.full((n, 6), -1, dtype=np.int8)
    neg = np.zeros(6, dtype=np.int8)
    down, up = np.zeros((n, 6), dtype=np.int8), np.zeros((n, 6), dtype=np.int8)
    desig = np.zeros((n, 6), dtype=bool)
    top, bot = np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8)
    for x in Value:
        neg[int(x)] = int(apply(LOGICS["LETK"], "neg", [x]))
    for li, lid in enumerate(LOGIC_IDS):
        logic = LOGICS[lid]
        lat = logic.lattice
        top[li], bot[li] = int(lat.top), int(lat.bottom)
        for x in Value:
            down[li][int(x)], up[li][int(x)] = int(lat.down(x)), int(lat.up(x))
        for x in lat.elements:
            circ[li][int(x)] = int(apply(logic, "circ", [x]))
            desig[li][int(x)] = logic.is_designated(x)
            for y in lat.elements:
                meet[li][int(x)][int(y)] = int(lat.meet(x, y))
                join[li][int(x)][int(y)] = int(lat.join(x, y))
                imp[li][int(x)][int(y)] = int(apply(logic, "imp", [x, y]))
    irreducibles = (Value.F0, Value.n, Value.b, Value.T)
    mask_of = np.array(
        [sum(1 << i for i, j in enumerate(irreducibles) if base_leq(j, v)) for v in Value], dtype=np.uint8,
    )
    code_of = np.zeros(16, dtype=np.int8)
    code_of[mask_of] = np.arange(len(Value))

    def by_mask(table):
        for axis in range(1, table.ndim):
            table = table.take(code_of, axis=axis)
        return (table if table.dtype == bool else mask_of[table]).ravel()

    out = dict(
        MEET_T=meet, JOIN_T=join, IMP_T=imp, CIRC_T=circ, NEG_T=neg, DOWN_T=down, UP_T=up,
        DESIG_T=desig, TOP_T=top, BOT_T=bot, MASK_OF=mask_of, CODE_OF=code_of,
        NEG_M=mask_of[neg[code_of]], ROW_OF=16 * np.arange(n, dtype=np.int16),
    )
    for name in ("DOWN", "UP", "CIRC", "IMP", "DESIG"):
        out[f"{name}_M"] = by_mask(out[f"{name}_T"])
    return out


def test_lazy_tables_match_the_eager_build():
    want = _eager_tables()
    encoding = {"MASK_OF", "CODE_OF", "ROW_OF"}  # kept once, as lists and bytes
    unread = {"DESIG_T"}  # DESIG_M is built from it here; nothing reads it as a code table
    assert set(want) - encoding - unread == frames._NUMPY_NAMES
    for name in frames._NUMPY_NAMES:
        got, ref = getattr(frames, name), want[name]
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name
    assert list(MASK) == want["MASK_OF"].tolist()
    assert models._CODE == want["CODE_OF"].tolist()
    assert [16 * i for i in range(len(LOGIC_IDS))] == want["ROW_OF"].tolist()
    for got, lid in zip(frames._B_ELEMENTS, LOGIC_IDS):
        ref = want["MASK_OF"][[int(v) for v in LOGICS[lid].lattice.elements]]
        assert got == ref.tobytes(), lid
    # the byte runner's tables are built from the same lists
    assert models._DOWN == want["DOWN_M"].tolist()
    assert models._IMP == want["IMP_M"].reshape(-1, 16).tolist()
    assert models._VALUE_OF == [Value(c) for c in want["CODE_OF"].tolist()]


def test_a_code_table_read_first_loads_numpy_and_the_eager_tables():
    # the benchmark's recorder reads the code tables before any sweep
    code = """
        import json, sys
        from manylogic import frames

        before = "numpy" in sys.modules
        tables = {name: [getattr(frames, name).dtype.str, getattr(frames, name).tolist()] for name in sys.argv[1:]}
        print(json.dumps({"before": before, "loaded": "numpy" in sys.modules, "tables": tables}))
    """
    got = json.loads(_python(code, *CODE_TABLES).stdout)
    assert (got["before"], got["loaded"]) == (False, True)
    want = _eager_tables()
    assert got["tables"] == {name: [want[name].dtype.str, want[name].tolist()] for name in CODE_TABLES}


def test_first_frame_checks_from_four_threads_agree():
    code = """
        import sys, threading
        from manylogic import frames, models

        build = frames._numpy_tables
        builds = []
        frames._numpy_tables = lambda: builds.append(1) or build()
        frame = models.load_frame(sys.argv[1])
        budgets = ((None, 0), (500, 3))  # exhaustive; 500 samples with seed 3

        def checks():
            out = [frames.axiom_valid_on_frame(frame, frames.SCHEMAS[s], *b)
                   for s in ("5", "4", "B") for b in budgets]
            out.append(frames.sweep_schema(frames.SCHEMAS["T"], 2, ("K3", "LP", "LETK")))
            out.append(frames.duality_check(("FDE", "CLS")))
            return out

        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def worker(k):
            try:
                barrier.wait(timeout=60)
                results[k] = checks()
            except BaseException as exc:
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert "numpy" not in sys.modules
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert all(r == results[0] for r in results)
        assert results[0] == checks()  # and a check after the first ones
        assert len(builds) == 1  # one build, shared by every thread
        assert not any(hasattr(models, n) for n in frames._NUMPY_NAMES)
        print("ok")
    """
    assert _python(code, str(FIXTURES / "euclid3.json")).stdout == "ok\n"
