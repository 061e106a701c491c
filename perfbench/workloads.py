"""The benchmark's four workloads.

Each workload makes its inputs from the seed before the package is
imported, exposes one round of requests as a fixed list of
``(kind, callable)`` pairs, and checks every output of a round against a
reference.  A callable looks the package function up at call time, so
that the traced mode's wrappers see it.

Outcome of one request, as ``check_round`` classifies it:
  ok      the output matches the reference;
  failed  the request raised where the package documents a clean
          refusal: one of the three known CLI crashes on bad input;
  wrong   the output differs from the reference, or any other request
          raised.  Any wrong output fails the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from pathlib import Path

LOGIC_IDS = ("LETK", "FDE", "LJ4", "K3", "L3", "LP", "J3", "CLW", "CLS")
# Lattice elements per logic, as the model-file format documents them.
ELEMENTS = {
    "LETK": ("T", "T0", "b", "n", "F0", "F"),
    "FDE": ("T0", "b", "n", "F0"),
    "LJ4": ("T", "b", "n", "F"),
    "K3": ("T0", "n", "F0"),
    "L3": ("T", "n", "F"),
    "LP": ("T0", "b", "F0"),
    "J3": ("T", "b", "F"),
    "CLW": ("T0", "F0"),
    "CLS": ("T", "F"),
}
DIAMONDS = ("up", "down", "negbox", "cnegbox")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ formulas
#
# Inputs are built as tuple trees and rendered to the package's concrete
# syntax: ("atom", name), (unary, child) or (binary, left, right).

_UNARY = {"box": "[]", "dia": "<>", "neg": "!", "circ": "@", "cneg": "~", "nabla": "N"}
_BINARY = {"and": "&", "or": "|", "imp": "->", "impL": "=>"}


def render(f) -> str:
    op = f[0]
    if op == "atom":
        return f[1]
    if op in _UNARY:
        return _UNARY[op] + render(f[1])
    return f"({render(f[1])} {_BINARY[op]} {render(f[2])})"


def _subterms(f, out: set) -> set:
    out.add(f)
    for child in f[1:]:
        if isinstance(child, tuple):
            _subterms(child, out)
    return out


def closure_size(formulas) -> int:
    """Size of the clause-search domain biv_consequence builds: the
    subformulas plus !B, @B, !@B and !!B for each of them."""
    base: set = set()
    for f in formulas:
        _subterms(f, base)
    extra = set()
    for g in base:
        extra |= {("neg", g), ("circ", g), ("neg", ("circ", g)), ("neg", ("neg", g))}
    return len(base | extra)


class Workload:
    name = ""
    nominal_round_s = 1.0  # sets the round count: R = round(seconds / nominal_round_s)
    latency_kind: str | None = None  # None: every request is a latency sample
    traced_checklist = False  # the traced run adds one pass of the checklist
    host_scaled = True  # timed metrics are divided by the run's host slowdown
    recorded_per_seed = False  # reference.json holds output digests per seed

    def __init__(self, seed: int, root: Path, workdir: Path, reference: dict):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.reference = reference.get(self.name, {})
        self.ml = None
        self._round_digest = None
        self.problems: list[str] = []

    def bind(self, ml) -> None:
        self.ml = ml

    def warm_up(self) -> None:
        raise NotImplementedError

    def requests(self) -> list:
        raise NotImplementedError

    def request_key(self, i: int):
        """Requests with the same key do the same work; each one's service
        time is the fastest of all of them."""
        return i

    def classify(self, i: int, kind: str, out, exc) -> tuple[str, str]:
        """Return (status, digest line) for request i of the round."""
        raise NotImplementedError

    def check_round(self, reqs, results) -> tuple[int, int]:
        """Classify a round's outputs; returns (failed, wrong) counts."""
        failed = wrong = 0
        lines = []
        for i, ((kind, _), out, exc) in enumerate(zip(reqs, *results)):
            status, line = self.classify(i, kind, out, exc)
            lines.append(line)
            if status == "failed":
                failed += 1
            elif status == "wrong":
                wrong += 1
                if len(self.problems) < 5:
                    self.problems.append(f"request {i} ({kind}): {line}")
        digest = sha("\n".join(sorted(lines)))
        if self._round_digest is None:
            self._round_digest = digest
            recorded = self.reference.get(str(self.seed)) if self.recorded_per_seed else None
            if recorded is not None and recorded != digest:
                self.problems.append(f"output digest {digest[:12]} != recorded {recorded[:12]}")
                wrong += 1
        elif digest != self._round_digest:
            self.problems.append("outputs differ between rounds")
            wrong += 1
        return failed + wrong, wrong

    @property
    def output_digest(self) -> str:
        return self._round_digest or ""

    def cleanup(self) -> None:
        pass


# ------------------------------------------------------------ checklist

# The documented AC8 witness: a LETK world that sees a K3 world, p = b / T0.
AC8_WITNESS = {
    "world": "w1",
    "value": "F0",
    "model": {
        "worlds": ["w1", "w2"],
        "logics": {"w1": "LETK", "w2": "K3"},
        "relation": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"], ["w2", "w2"]],
        "valuation": {"w1": {"p": "b"}, "w2": {"p": "T0"}},
        "diamond": "up",
    },
}
_WITNESS_RE = re.compile(r"^axiom 4: world=(\S+) value=(\S+) model=(\{.*\})$")


class Checklist(Workload):
    """verify.run_all for AC1..AC12, one criterion per request; a round is
    the whole pass.  Not a timed workload of BENCHMARK.json: the traced run
    of `cli` makes one pass of it.  By hand, ten passes need --seconds 35."""

    name = "checklist"
    nominal_round_s = 3.5
    CIDS = tuple(f"AC{i}" for i in range(1, 13))

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        order = list(self.CIDS)
        random.Random(seed).shuffle(order)
        self.order = order
        self.inputs_digest = sha(" ".join(order))

    def _run(self, cid):
        return self.ml.verify.run_all({cid})

    def warm_up(self):
        for cid in ("AC1", "AC3", "AC9"):
            self._run(cid)

    def requests(self):
        return [(cid, lambda cid=cid: self._run(cid)) for cid in self.order]

    def classify(self, i, kind, out, exc):
        if exc is not None or len(out) != 1 or out[0].cid != kind:
            return "wrong", f"{kind} raised {exc!r}" if exc else f"{kind} bad outcome"
        o = out[0]
        if kind != "AC8":
            return ("ok" if o.passed else "wrong"), f"{kind} passed={o.passed}"
        # AC8 must fail with exactly the documented two-world witness.
        witness = None
        if len(o.findings) == 1:
            m = _WITNESS_RE.match(o.findings[0])
            if m:
                witness = {"world": m.group(1), "value": m.group(2), "model": json.loads(m.group(3))}
        ok = not o.passed and witness == AC8_WITNESS
        return ("ok" if ok else "wrong"), f"AC8 passed={o.passed} witness={json.dumps(witness, sort_keys=True)}"


# --------------------------------------------------------------- kripke

def _a(name):
    return ("atom", name)


P, Q = _a("p"), _a("q")
# Modal depth 1-3, using [], <>, ~, N and =>.
KRIPKE_FORMULAS = (
    ("box", P),
    ("dia", Q),
    ("box", ("imp", P, Q)),
    ("or", ("cneg", ("box", P)), ("dia", ("cneg", Q))),
    ("nabla", ("dia", P)),
    ("box", ("dia", P)),
    ("impL", ("dia", ("box", Q)), ("box", P)),
    ("and", ("box", ("box", P)), ("circ", ("dia", ("neg", Q)))),
    ("box", ("dia", ("box", P))),
    ("dia", ("and", P, ("nabla", ("box", ("cneg", Q))))),
    ("impL", ("cneg", ("dia", ("cneg", P))), ("box", ("nabla", ("dia", Q)))),
)
# Five 50-world models per variant: 250 worlds, and loads of a few
# milliseconds each, short enough to time steadily on a shared host.
KRIPKE_MODELS = 5
KRIPKE_WORLDS = 50
KRIPKE_MAX_DEGREE = 8


def kripke_model(seed: int, n_worlds: int) -> dict:
    """Mixed-logic model: the nine logics in equal shares, out-degrees
    0..8 in equal shares (so dead ends), atoms p and q at every world."""
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(n_worlds)]
    logics = [LOGIC_IDS[i % len(LOGIC_IDS)] for i in range(n_worlds)]
    rng.shuffle(logics)
    degrees = [i % (KRIPKE_MAX_DEGREE + 1) for i in range(n_worlds)]
    rng.shuffle(degrees)
    relation = [
        [worlds[i], worlds[j]] for i, d in enumerate(degrees) for j in sorted(rng.sample(range(n_worlds), d))
    ]
    valuation = {w: {a: rng.choice(ELEMENTS[lid]) for a in "pq"} for w, lid in zip(worlds, logics)}
    return {"worlds": worlds, "logics": dict(zip(worlds, logics)), "relation": relation, "valuation": valuation}


def reference_values(ml, doc: dict, formulas) -> dict:
    """Every formula at every world, by a recursive evaluator written
    against the semantic primitives only (lattice down/up/meets/joins and
    the connective function ``apply``): no desugaring, no model class."""
    LOGICS, Value, apply = ml.logics.LOGICS, ml.values.Value, ml.logics.apply
    logic = {w: LOGICS[doc["logics"][w]] for w in doc["worlds"]}
    succ = {w: [] for w in doc["worlds"]}
    for u, v in doc["relation"]:
        succ[u].append(v)
    val = {w: {a: Value[t] for a, t in row.items()} for w, row in doc["valuation"].items()}
    variant = doc["diamond"]
    memo: dict = {}

    def ev(f, w):
        key = (f, w)
        if key in memo:
            return memo[key]
        L = logic[w]
        lat = L.lattice
        op = f[0]
        if op == "atom":
            out = val[w].get(f[1], lat.bottom)
        elif op == "box":
            out = lat.meet_set([lat.down(ev(f[1], u)) for u in succ[w]])
        elif op == "dia" and variant == "negbox":
            out = apply(L, "neg", [ev(("box", ("neg", f[1])), w)])
        elif op == "dia" and variant == "cnegbox":
            out = apply(L, "imp", [ev(("box", ("cneg", f[1])), w), lat.bottom])
        elif op == "dia":
            interp = lat.up if variant == "up" else lat.down
            out = lat.join_set([interp(ev(f[1], u)) for u in succ[w]])
        elif op == "cneg":
            out = apply(L, "imp", [ev(f[1], w), lat.bottom])
        elif op in ("neg", "circ", "nabla"):
            out = apply(L, op, [ev(f[1], w)])
        else:
            out = apply(L, op, [ev(f[1], w), ev(f[2], w)])
        memo[key] = out
        return out

    return {(w, f): ev(f, w) for f in formulas for w in doc["worlds"]}


class Kripke(Workload):
    """Load and validate KRIPKE_MODELS mixed-logic models per diamond
    variant, then query them: one request is one eval_formula call, one
    formula at one world."""

    name = "kripke"
    nominal_round_s = 1.4
    latency_kind = "query"
    recorded_per_seed = True

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        bases = [kripke_model(seed * KRIPKE_MODELS + m, KRIPKE_WORLDS) for m in range(KRIPKE_MODELS)]
        # The warm-up model is the same for every seed, so that set-up time
        # depends on the code only.
        small = kripke_model(0, 2 * len(LOGIC_IDS))
        self.docs, self.paths, blobs = {}, {}, []
        for variant in DIAMONDS:
            for m, base in enumerate(bases):
                key = f"{variant}-{m}"
                doc = dict(base, diamond=variant)
                text = json.dumps(doc)
                path = workdir / f"kripke-{key}.json"
                path.write_text(text)
                self.docs[key], self.paths[key] = doc, path
                blobs.append(text)
        self.warm_path = workdir / "kripke-warm-up.json"
        self.warm_path.write_text(json.dumps(dict(small, diamond="up")))
        self.texts = [render(f) for f in KRIPKE_FORMULAS]
        rng = random.Random(seed + 1)
        self.worlds = list(bases[0]["worlds"])
        rng.shuffle(self.worlds)
        self.formula_order = list(range(len(KRIPKE_FORMULAS)))
        rng.shuffle(self.formula_order)
        self.inputs_digest = sha("\n".join(blobs + self.texts + self.worlds))
        self.loaded: dict = {}
        self.expected = None

    def bind(self, ml):
        super().bind(ml)
        self.parsed = [ml.syntax.parse(t) for t in self.texts]

    def _load(self, key, path):
        model = self.ml.models.load_model(path)
        report = self.ml.models.validate(model)
        self.loaded[key] = model
        return report

    def warm_up(self):
        self._load("warm-up", self.warm_path)
        model = self.loaded.pop("warm-up")
        for f in self.parsed:
            for w in model.worlds:
                self.ml.models.eval_formula(model, w, f)

    def requests(self):
        reqs, self._request_of = [], []
        loaded, parsed, models = self.loaded, self.parsed, self.ml.models
        for key, path in self.paths.items():
            reqs.append(("load", lambda k=key, p=path: self._load(k, p)))
            self._request_of.append((key, None, None))
            for i in self.formula_order:
                for w in self.worlds:
                    reqs.append(("query", lambda k=key, w=w, f=parsed[i]: models.eval_formula(loaded[k], w, f)))
                    self._request_of.append((key, w, i))
        return reqs

    def check_round(self, reqs, results):
        if self.expected is None:
            self.expected = {k: reference_values(self.ml, doc, KRIPKE_FORMULAS) for k, doc in self.docs.items()}
        out = super().check_round(reqs, results)
        self.loaded.clear()
        return out

    def classify(self, i, kind, out, exc):
        key, w, f = self._request_of[i]
        if exc is not None:
            return "wrong", f"{key} {kind} {w} raised {exc!r}"
        if kind == "load":
            ok = out.ok and not out.warnings
            return ("ok" if ok else "wrong"), f"{key} load errors={len(out.errors)} warnings={len(out.warnings)}"
        ok = out == self.expected[key][(w, KRIPKE_FORMULAS[f])]
        return ("ok" if ok else "wrong"), f"{key}\t{w}\t{self.texts[f]}\t{out.name}"

    def cleanup(self):
        for path in list(self.paths.values()) + [self.warm_path]:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------- consequence

_A, _B, _C = ("meta", "A"), ("meta", "B"), ("meta", "C")


def _imp(x, y):
    return ("imp", x, y)


# Classical tautologies over &, | and ->.  In every one of the nine logics
# an input is designated iff its truth coordinate is 1, and that
# coordinate is computed classically by &, | and ->, so every
# substitution instance is VALID.
SCHEMAS = (
    ((), _imp(_A, _A)),
    ((), _imp(_A, _imp(_B, _A))),
    ((), _imp(("and", _A, _B), _A)),
    ((), _imp(_A, ("or", _A, _B))),
    ((), _imp(_imp(_imp(_A, _B), _A), _A)),
    ((_A, _imp(_A, _B)), _B),
    ((("and", _A, _B),), ("and", _B, _A)),
    ((_imp(_A, _B), _imp(_B, _C)), _imp(_A, _C)),
    ((("or", _A, _B), _imp(_A, _C), _imp(_B, _C)), _C),
    ((), ("or", _imp(_A, _B), _imp(_B, _A))),
)
ATOMS = "pqrstu"
MAX_SCHEMA_ATOMS = 6
# Requests are kept to about 20 ms, short enough to time steadily on a
# shared host: a schema instance enumerates at most 6^4 valuations (LETK
# gets 1..4 atoms, FDE and LJ4 1..5, the others 1..6), and the clause
# search decides a sequent only when |L|^k is at most 4^3 (LETK up to 2
# atoms, the others up to MAX_BIV_ATOMS).
MAX_VALUATIONS = 6**4
MAX_BIV_VALUATIONS = 4**3
# Instances per logic at each atom count above MAX_RANDOM_ATOMS.  The tail
# (the 11th-slowest request) then falls among instances of equal cost, and
# not on the step between two sizes.
LARGE_SCHEMA_COPIES = 4
MAX_RANDOM_ATOMS = 3
RANDOM_PER_SIZE = 32  # many cheap sequents, so that their median hardly moves with the seed
# The clause search grows exponentially with the closure: at 4 atoms a
# VALID LETK sequent already exceeds its 500,000-node limit.
MAX_BIV_ATOMS = 3
MAX_CLOSURE = 64


def _has_or(f) -> bool:
    return f[0] == "or" or any(isinstance(c, tuple) and _has_or(c) for c in f[1:])


def _metas(f, out: list) -> list:
    if f[0] == "meta":
        out.append(f[1])
    for c in f[1:]:
        if isinstance(c, tuple):
            _metas(c, out)
    return out


def _substitute(f, mapping):
    if f[0] == "meta":
        return mapping[f[1]]
    return (f[0],) + tuple(_substitute(c, mapping) if isinstance(c, tuple) else c for c in f[1:])


def _chain(rng, atoms, binaries):
    """The given atoms in random order, folded from the left with the
    binary connectives taken in turn.  The shape, and so the cost of
    evaluating it, is fixed by the atom count; only the atoms' places vary."""
    nodes = [("atom", a) for a in atoms]
    rng.shuffle(nodes)
    f = nodes[0]
    for i, node in enumerate(nodes[1:]):
        f = (binaries[i % len(binaries)], f, node)
    return f


def _random_formula(rng, atoms, binaries, unary: float):
    """A random formula using each given atom once; with probability
    `unary` it goes under ! or @."""
    nodes = [("atom", a) for a in atoms]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        op = rng.choice(binaries)
        nodes[i : i + 2] = [(op, nodes[i], nodes[i + 1])]
    f = nodes[0]
    if rng.random() < unary:
        f = (rng.choice(("neg", "circ")), f)
    return f


def _split(rng, atoms, parts: int, even: bool) -> list:
    """Deal the shuffled atoms into `parts` non-empty groups, round-robin
    when `even` (fixed group sizes), else at random; a group left empty
    reuses an atom."""
    atoms = list(atoms)
    rng.shuffle(atoms)
    groups = [[] for _ in range(parts)]
    for i, a in enumerate(atoms):
        groups[i % parts if even or i < parts else rng.randrange(parts)].append(a)
    return [g or [rng.choice(atoms)] for g in groups]


def consequence_corpus(seed: int) -> list[dict]:
    """Per logic: schema instances at 1..6 atoms, at most MAX_VALUATIONS
    valuations each (known VALID, full |L|^k enumeration; one at 1..3
    atoms, LARGE_SCHEMA_COPIES above), and random sequents at 1..3 atoms.
    CLW and CLS get an or-free corpus, as in AC12."""
    rng = random.Random(seed)
    corpus = []
    for li, logic in enumerate(LOGIC_IDS):
        or_free = logic in ("CLW", "CLS")
        binaries = ("and", "imp") if or_free else ("and", "or", "imp")
        pool = [
            s for s in SCHEMAS if not (or_free and (_has_or(s[1]) or any(_has_or(p) for p in s[0])))
        ]
        for k in range(1, MAX_SCHEMA_ATOMS + 1):
            if len(ELEMENTS[logic]) ** k > MAX_VALUATIONS:
                break
            # The costly slots use premise-free schemas, whose enumeration
            # evaluates every node at every valuation, filled with chains of
            # fixed shape: their cost then depends on the logic and k, not on
            # the seed.  A schema too wide for the closure cap at k atoms
            # hands over to the next.
            slot = [s for s in pool if not s[0]] if k > MAX_RANDOM_ATOMS else pool
            for _ in range(LARGE_SCHEMA_COPIES if k > MAX_RANDOM_ATOMS else 1):
                for attempt in itertools.count():
                    premises, conclusion = slot[(li + k + attempt) % len(slot)]
                    names = sorted(set(_metas(conclusion, []) + [m for p in premises for m in _metas(p, [])]))
                    groups = _split(rng, ATOMS[:k], len(names), even=True)
                    mapping = {n: _chain(rng, g, binaries) for n, g in zip(names, groups)}
                    ps = [_substitute(p, mapping) for p in premises]
                    c = _substitute(conclusion, mapping)
                    if closure_size(ps + [c]) <= MAX_CLOSURE:
                        break
                corpus.append({"logic": logic, "atoms": k, "known_valid": True, "premises": ps, "conclusion": c})
        for k in range(1, MAX_RANDOM_ATOMS + 1):
            for _ in range(RANDOM_PER_SIZE):
                while True:
                    groups = _split(rng, ATOMS[:k], rng.randint(1, 3), even=False)
                    fs = [_random_formula(rng, g, binaries, 0.4) for g in groups]
                    if closure_size(fs) <= MAX_CLOSURE:
                        break
                corpus.append(
                    {"logic": logic, "atoms": k, "known_valid": False, "premises": fs[:-1], "conclusion": fs[-1]}
                )
    for item in corpus:
        item["premise_texts"] = [render(p) for p in item["premises"]]
        item["conclusion_text"] = render(item["conclusion"])
        item["reading"] = "corrected" if item["logic"] in ("CLW", "CLS") else "printed"
    rng.shuffle(corpus)
    return corpus


class Consequence(Workload):
    """Decide a seeded sequent corpus by matrix enumeration and, within
    the clause search's reach, by the two-valued clause semantics."""

    name = "consequence"
    nominal_round_s = 2.0
    recorded_per_seed = True

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        self.corpus = consequence_corpus(seed)
        self.inputs_digest = sha(
            "\n".join(f"{s['logic']} {s['premise_texts']} {s['conclusion_text']}" for s in self.corpus)
        )
        self.parsed: list = [None] * len(self.corpus)

    def _matrix(self, j):
        s = self.corpus[j]
        parse = self.ml.syntax.parse
        premises = [parse(t) for t in s["premise_texts"]]
        conclusion = parse(s["conclusion_text"])
        self.parsed[j] = (premises, conclusion)
        return self.ml.logics.matrix_consequence(self.logics[s["logic"]], premises, conclusion)

    def _biv(self, j):
        s = self.corpus[j]
        premises, conclusion = self.parsed[j]
        return self.ml.bivaluations.biv_consequence(
            self.logics[s["logic"]], premises, conclusion, v14_reading=s["reading"]
        )

    def bind(self, ml):
        super().bind(ml)
        self.logics = ml.logics.LOGICS

    def warm_up(self):
        # One fixed 1-atom sequent, the same for every seed.
        letk, f = self.logics["LETK"], self.ml.syntax.parse("p -> p")
        self.ml.logics.matrix_consequence(letk, [], f)
        self.ml.bivaluations.biv_consequence(letk, [], f, v14_reading="printed")

    def requests(self):
        reqs = []
        for j, s in enumerate(self.corpus):
            reqs.append(("matrix", lambda j=j: self._matrix(j)))
            if s["atoms"] <= MAX_BIV_ATOMS and len(ELEMENTS[s["logic"]]) ** s["atoms"] <= MAX_BIV_VALUATIONS:
                reqs.append(("biv", lambda j=j: self._biv(j)))
        return reqs

    def check_round(self, reqs, results):
        self._sequent_of, self._matrix_verdict = [], {}
        j = -1
        for kind, _ in reqs:
            j += kind == "matrix"
            self._sequent_of.append(j)
        return super().check_round(reqs, results)

    def classify(self, i, kind, out, exc):
        j = self._sequent_of[i]
        s = self.corpus[j]
        head = f"{s['logic']}\t{','.join(s['premise_texts'])}\t{s['conclusion_text']}\t{kind}"
        if exc is not None:
            return "wrong", f"{head}\traised {exc!r}"
        if kind == "matrix":
            self._matrix_verdict[j] = out.valid
            witness = " ".join(f"{k}={v.name}" for k, v in sorted((out.witness or {}).items()))
            ok = out.valid or not s["known_valid"]
            return ("ok" if ok else "wrong"), f"{head}\t{out.valid}\t{witness}"
        ok = out.valid == self._matrix_verdict.get(j)
        return ("ok" if ok else "wrong"), f"{head}\t{out.valid}"


# ------------------------------------------------------------------ cli

EVAL_FORMULAS = ("[]p", "<>p", "[](p -> q)", "~[]p | <>~q", "N<>p", "[]<>p => p", "@[]!p")
EVAL_FIXTURES = (
    "ex1.json", "ex2.json", "ex3.json", "ex4.json", "sec2.json",
    "nec-fail.json", "diamond-compare.json", "axiom5-countermodel.json",
)
AXIOMS = ("K", "T", "4", "5", "5c", "B", "D")
SEQUENTS = (
    ("p,!p", "q"),
    ("", "p | !p"),
    ("p,p -> q", "q"),
    ("@p,p,!p", "q"),
    ("p & q", "q & p"),
    ("", "(p -> q) | (q -> p)"),
    ("!(p & q)", "!p | !q"),
)
CONNECTIVES = ("and", "or", "imp", "impL", "neg", "circ", "nabla")
DEEP_NESTING = 1000
CLI_KINDS = ("tables", "eval", "check-frame", "consequence", "biv-consequence")
# Well-formed requests of each subcommand in one round, drawn without
# replacement; every check-frame entry is drawn, whatever the seed.  No
# usage data ranks the subcommands, so each gets the same share.
PER_KIND = 56
# Requests of each malformed entry in one round: 36 of 316 requests.
BAD_PER_ENTRY = 4


def cli_catalogue(fixtures: Path) -> dict[str, list]:
    """Well-formed CLI requests by kind: a list of (entry id, argv)."""
    cat: dict[str, list] = {kind: [] for kind in CLI_KINDS}
    for lid in LOGIC_IDS:
        cat["tables"].append((f"tables:{lid}", ["tables", lid]))
        for conn in CONNECTIVES:
            cat["tables"].append((f"tables:{lid}:{conn}", ["tables", lid, "--conn", conn]))
    n = 0
    for name in EVAL_FIXTURES:
        path = fixtures / name
        for w in json.loads(path.read_text())["worlds"]:
            for text in EVAL_FORMULAS:
                cat["eval"].append((f"eval:{name}:{w}:{text}", ["eval", str(path), "--world", w, "--formula", text]))
                if "<>" in text:
                    variant = DIAMONDS[n % len(DIAMONDS)]
                    n += 1
                    cat["eval"].append(
                        (
                            f"eval:{name}:{w}:{text}:{variant}",
                            ["eval", str(path), "--world", w, "--formula", text, "--diamond", variant],
                        )
                    )
    frame = fixtures / "euclid3.json"
    for axiom in AXIOMS:
        for variant in DIAMONDS:
            base = ["check-frame", str(frame), "--axiom", axiom, "--diamond", variant]
            cat["check-frame"].append((f"check-frame:{axiom}:{variant}:exhaustive", base + ["--exhaustive"]))
            cat["check-frame"].append((f"check-frame:{axiom}:{variant}:sampled", base + ["--samples", "300"]))
    for lid in LOGIC_IDS:
        for premises, conclusion in SEQUENTS:
            key = f"{lid}:{premises}:{conclusion}"
            argv = [lid, "--premises", premises, "--conclusion", conclusion]
            cat["consequence"].append((f"consequence:{key}", ["consequence"] + argv))
            reading = "corrected" if lid in ("CLW", "CLS") else "printed"
            cat["biv-consequence"].append((f"biv-consequence:{key}", ["biv-consequence"] + argv + ["--v14", reading]))
    return cat


def bad_inputs(fixtures: Path) -> list:
    """Malformed requests; the documented answer is exit code 2.  The last
    three crash at the seed commit (KNOWN_CRASHES)."""
    ex1, frame = str(fixtures / "ex1.json"), str(fixtures / "euclid3.json")
    return [
        ("bad:formula", ["eval", ex1, "--world", "w1", "--formula", "[]p &"]),
        ("bad:world", ["eval", ex1, "--world", "w9", "--formula", "p"]),
        ("bad:missing-file", ["eval", str(fixtures / "missing.json"), "--world", "w1", "--formula", "p"]),
        ("bad:logic", ["tables", "K4"]),
        ("bad:axiom", ["check-frame", frame, "--axiom", "Z"]),
        ("bad:model-as-frame", ["check-frame", ex1, "--axiom", "T"]),
        ("bad:negative-samples", ["check-frame", frame, "--axiom", "T", "--samples", "-1"]),
        ("bad:nine-atoms", ["consequence", "K3", "--premises", "a,b,c,d", "--conclusion", "e | f | g | h | i"]),
        ("bad:deep-formula", ["eval", ex1, "--world", "w1", "--formula", "!" * DEEP_NESTING + "p"]),
    ]


# Bad inputs that raise instead of exiting with code 2 at the seed commit.
# Raising on these counts as a failed request; raising on any other bad
# input is a wrong output.
KNOWN_CRASHES = frozenset({"bad:negative-samples", "bad:nine-atoms", "bad:deep-formula"})
# An evaluator that handles deep nesting answers the deep formula: an even
# number of negations of p, which is T at w1 of ex1.json.
DEEP_FORMULA_ANSWER = (0, sha("T DESIGNATED\n"))


class Cli(Workload):
    """In-process cli.main requests over the bundled fixtures."""

    name = "cli"
    nominal_round_s = 0.9
    traced_checklist = True  # `verify` is a subcommand; its pass is too long to time
    # Requests here are mostly argparse and output capture, whose slow-down
    # the speed probe did not track: scaled, the spread between runs grew.
    host_scaled = False

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        fixtures = root / "src" / "manylogic" / "fixtures"
        catalogue = cli_catalogue(fixtures)
        rng = random.Random(seed)
        # Warm-up runs the first entry of each subcommand, whatever the seed.
        self.warm_argvs = [catalogue[kind][0][1] for kind in CLI_KINDS]
        entries = []
        for kind in CLI_KINDS:
            entries += [(kind,) + entry for entry in rng.sample(catalogue[kind], PER_KIND)]
        entries += [("bad-input",) + e for e in bad_inputs(fixtures) for _ in range(BAD_PER_ENTRY)]
        rng.shuffle(entries)
        self.entries = entries
        self.inputs_digest = sha("\n".join(f"{k} {eid}" for k, eid, _ in entries))

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.ml.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def warm_up(self):
        for argv in self.warm_argvs:
            self._call(argv)

    def requests(self):
        return [(kind, lambda argv=argv: self._call(argv)) for kind, _, argv in self.entries]

    def request_key(self, i):
        return self.entries[i][1]

    def classify(self, i, kind, out, exc):
        _, eid, _ = self.entries[i]
        if kind == "bad-input":
            if exc is not None:
                status = "failed" if eid in KNOWN_CRASHES else "wrong"
                return status, f"{eid}\traised {type(exc).__name__}"
            code, stdout = out
            ok = code == 2 or (eid == "bad:deep-formula" and (code, sha(stdout)) == DEEP_FORMULA_ANSWER)
            return ("ok" if ok else "wrong"), f"{eid}\t{code}"
        if exc is not None:
            return "wrong", f"{eid}\traised {exc!r}"
        code, stdout = out
        got = [code, sha(stdout)]
        return ("ok" if got == self.reference.get(eid) else "wrong"), f"{eid}\t{code}\t{got[1]}"


WORKLOADS = {w.name: w for w in (Checklist, Kripke, Consequence, Cli)}
