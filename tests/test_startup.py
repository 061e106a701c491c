"""numpy stays off the import path: importing the package, evaluating
models, deciding consequence and the clause search run on plain Python,
and numpy loads on the first frame check.  The numpy tables `frames`
builds on first use are checked here against the eager build they
replaced, and the first frame checks against each other when threads
start them at once."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from manylogic import frames, models
from manylogic.lattices import base_leq
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


def test_numpy_loads_on_the_first_frame_check():
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
        check = run("check-frame", str(fixtures / "euclid3.json"), "--axiom", "5", "--samples", "300")
        tables = {name: getattr(frames, name).tolist() for name in sys.argv[2:]}
        print(json.dumps({"answers": answers, "imported": imported, "check": check,
                          "loaded": "numpy" in sys.modules, "tables": tables}))
    """
    got = json.loads(_python(code, str(FIXTURES), *CODE_TABLES).stdout)
    assert got["imported"] is False
    assert [a[0] for a in got["answers"]] == [0, 0, 0, 0, 0]
    assert got["answers"][0][1] == "b DESIGNATED\n"
    assert got["loaded"] is True
    alone = _python(
        "import sys; from manylogic.cli import main; sys.exit(main(sys.argv[1:]))",
        "check-frame", str(FIXTURES / "euclid3.json"), "--axiom", "5", "--samples", "300", returncode=1,
    )
    assert got["check"] == [1, alone.stdout]
    assert got["tables"] == {name: getattr(frames, name).tolist() for name in CODE_TABLES}


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
    assert set(want) | {"ELEMENT_MASKS"} == frames._NUMPY_NAMES
    for name, ref in want.items():
        got = getattr(frames, name)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name
    for got, lid in zip(frames.ELEMENT_MASKS, LOGIC_IDS):
        ref = want["MASK_OF"][[int(v) for v in LOGICS[lid].lattice.elements]]
        assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), lid
    # the list runner reads the same tables
    assert models._DOWN == want["DOWN_M"].tolist()
    assert models._IMP == want["IMP_M"].reshape(-1, 16).tolist()
    assert models._VALUE_OF == [Value(c) for c in want["CODE_OF"].tolist()]


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
