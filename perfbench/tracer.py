"""Span tracer for the benchmark's traced mode.

Layer boundaries are traced from outside the package: public functions
are wrapped and the wrapper is written into the name the caller looks
up (a module attribute, a name bound by ``from ... import``, or a class
attribute).  Nothing under ``src/`` is edited.  Hot leaf calls
(``logics.apply``, ``logics.evaluate``, the ``Lattice`` methods) are
counted, not timed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from collections import Counter, defaultdict

# Layers that own spans, in report order.  "bench" is the benchmark's own
# per-request root span, so its self time is the benchmark's glue code.
LAYERS = ("bench", "verify", "cli", "syntax", "lattices", "logics", "bivaluations", "models", "frames")


class Tracer:
    def __init__(self):
        # one span: [name, parent index or -1, request id, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self._desugared: dict[int, list] = {}  # id(input) -> [input, output, calls]
        self._verdicts: list[tuple] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, after=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.request, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def begin_request(self, request_id: int, kind: str) -> None:
        self.request = request_id
        self._stack.append(len(self.spans))
        self.spans.append([f"bench.{kind}", -1, request_id, time.perf_counter(), 0.0])

    def end_request(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter()
        self.request = -1

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, ml: types.SimpleNamespace) -> None:
        """Wrap the layer boundaries of the manylogic modules in `ml`."""
        syntax, lattices, logics = ml.syntax, ml.lattices, ml.logics
        bivaluations, models, frames, verify, cli = (
            ml.bivaluations, ml.models, ml.frames, ml.verify, ml.cli,
        )
        sp, ct, patch = self.span, self.counter, self._patch

        # syntax: parse is looked up on the module by cli, bivaluations and
        # the benchmark, and bound by name in verify and frames.
        parse = syntax.parse
        patch(syntax, "parse", sp("syntax.parse", parse))
        patch(verify, "parse", sp("syntax.parse", parse))
        patch(frames, "parse", sp("syntax.parse", parse))
        # desugar recurses through its own module global, so it is wrapped
        # only in the namespaces its callers see: one span per outer call.
        desugar = sp("syntax.desugar", syntax.desugar, self._after_desugar)
        closure = sp("syntax.subformula_closure", syntax.subformula_closure, self._after_closure)
        for caller in (models, frames, bivaluations):
            view = types.SimpleNamespace(**vars(syntax))
            view.desugar = desugar
            view.subformula_closure = closure
            patch(caller, "syntax", view)

        # lattices: counted leaf methods, and the law checker behind AC4.
        for method in ("down", "up", "meet_set", "join_set"):
            patch(lattices.Lattice, method, ct(f"lattices.{method}_calls", getattr(lattices.Lattice, method)))
        patch(verify, "verify_lattice_laws", sp("lattices.verify_lattice_laws", verify.verify_lattice_laws))

        # logics: apply and evaluate recurse through their module globals,
        # so every invocation is counted.
        apply, evaluate = logics.apply, logics.evaluate
        for owner in (logics, models, bivaluations, verify):
            patch(owner, "apply", ct("logics.apply_calls", apply))
        for owner in (logics, bivaluations):
            patch(owner, "evaluate", ct("logics.evaluate_calls", evaluate))
        consequence = sp("logics.matrix_consequence", logics.matrix_consequence, self._after_verdict)
        table = sp("logics.truth_table", logics.truth_table)
        for owner in (logics, verify, cli):
            patch(owner, "matrix_consequence", consequence)
            patch(owner, "truth_table", table)

        patch(bivaluations, "biv_consequence", sp("bivaluations.biv_consequence", bivaluations.biv_consequence))

        patch(models, "load_model", sp("models.load_model", models.load_model))
        patch(models, "load_frame", sp("models.load_frame", models.load_frame))
        patch(models, "validate", sp("models.validate", models.validate))
        patch(models, "eval_formula", sp("models.eval_formula", models.eval_formula))

        for fn, name in (
            ("sweep_schema", "frames.sweep"),
            ("sample_schema", "frames.sample"),
            ("five_c_characterization", "frames.five_c"),
            ("duality_check", "frames.duality"),
            ("axiom_valid_on_frame", "frames.axiom_on_frame"),
        ):
            patch(frames, fn, sp(name, getattr(frames, fn), self._after_frames))
        patch(frames, "compile_program", ct("frames.compile_calls", frames.compile_program))

        patch(verify, "run_all", sp("verify.run_all", verify.run_all))

        patch(cli, "main", sp("cli.main", cli.main))
        build_parser = sp("cli.parser", cli.build_parser)

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = sp("cli.parser", parser.parse_args)
            return parser

        patch(cli, "build_parser", traced_build_parser)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ------------------------------------------- counts from returned values

    def _after_desugar(self, args, out) -> None:
        entry = self._desugared.get(id(args[0]))
        if entry is None:
            self._desugared[id(args[0])] = [args[0], out, 1]
        else:
            entry[2] += 1

    def _after_closure(self, args, out) -> None:
        self.counts["syntax.closure_size"] += len(out)

    def _after_verdict(self, args, out) -> None:
        self._verdicts.append((args[0], list(args[1]), args[2], out))

    def _after_frames(self, args, out) -> None:
        self.counts["frames.frames_checked"] += getattr(out, "frames_checked", 0)
        self.counts["frames.models_checked"] += out.models_checked

    # --------------------------------------------------------------- report

    def layer_metrics(self, ml, rounds: int) -> dict[str, float]:
        """Per-round span totals, counts and self times."""
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: dict[str, float] = defaultdict(float)
        eval_durations = []
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, _, start, end) in enumerate(self.spans):
            dur = end - start
            totals[name] += dur
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += dur - child_time[i]
            if name == "models.eval_formula":
                eval_durations.append(dur)

        counts = Counter(self.counts)
        counts["syntax.nodes_after_desugar"] = sum(
            n * ml.syntax.size(out) for _, out, n in self._desugared.values()
        )
        counts["logics.valuations_enumerated"] = sum(
            valuations_enumerated(ml, *v) for v in self._verdicts
        )

        def per_round(x):
            return x // rounds if isinstance(x, int) and x % rounds == 0 else x / rounds

        m: dict[str, float] = {}
        m["syntax.parse_s"] = totals["syntax.parse"] / rounds
        m["syntax.parse_calls"] = per_round(calls["syntax.parse"])
        m["syntax.desugar_s"] = totals["syntax.desugar"] / rounds
        m["syntax.desugar_calls"] = per_round(calls["syntax.desugar"])
        m["syntax.nodes_after_desugar"] = per_round(counts["syntax.nodes_after_desugar"])
        m["syntax.closure_size"] = per_round(counts["syntax.closure_size"])
        for method in ("down", "up", "meet_set", "join_set"):
            m[f"lattices.{method}_calls"] = per_round(counts[f"lattices.{method}_calls"])
        m["lattices.laws_s"] = totals["lattices.verify_lattice_laws"] / rounds
        m["logics.apply_calls"] = per_round(counts["logics.apply_calls"])
        m["logics.evaluate_calls"] = per_round(counts["logics.evaluate_calls"])
        mc_s = totals["logics.matrix_consequence"]
        m["logics.matrix_consequence_s"] = mc_s / rounds
        m["logics.valuations_enumerated"] = per_round(counts["logics.valuations_enumerated"])
        m["logics.valuations_per_s"] = counts["logics.valuations_enumerated"] / mc_s if mc_s else 0.0
        m["logics.truth_table_s"] = totals["logics.truth_table"] / rounds
        biv_s = totals["bivaluations.biv_consequence"]
        m["bivaluations.biv_consequence_s"] = biv_s / rounds
        m["bivaluations.verdicts_per_s"] = calls["bivaluations.biv_consequence"] / biv_s if biv_s else 0.0
        m["models.load_s"] = (totals["models.load_model"] + totals["models.load_frame"]) / rounds
        m["models.validate_s"] = totals["models.validate"] / rounds
        m["models.eval_s"] = totals["models.eval_formula"] / rounds
        m["models.eval_calls"] = per_round(calls["models.eval_formula"])
        m["models.eval_p50_us"] = statistics.median(eval_durations) * 1e6 if eval_durations else 0.0
        frames_s = 0.0
        for name in ("sweep", "sample", "five_c", "duality", "axiom_on_frame"):
            m[f"frames.{name}_s"] = totals[f"frames.{name}"] / rounds
            frames_s += totals[f"frames.{name}"]
        m["frames.compile_calls"] = per_round(counts["frames.compile_calls"])
        m["frames.models_checked"] = per_round(counts["frames.models_checked"])
        m["frames.frames_checked"] = per_round(counts["frames.frames_checked"])
        m["frames.models_per_s"] = counts["frames.models_checked"] / frames_s if frames_s else 0.0
        m["cli.parser_s"] = totals["cli.parser"] / rounds
        for layer in LAYERS:
            m[f"self.{layer}_s"] = self_time[layer] / rounds
        m["trace.spans"] = per_round(len(self.spans))
        return m

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "parent", "request", "start", "end"], "spans": self.spans}, fh)


def valuations_enumerated(ml, logic, premises, conclusion, verdict) -> int:
    """Valuations matrix_consequence visited, derived from its verdict:
    all |L|^k for VALID, else the witness's position in canonical order."""
    names = sorted(set().union(*[ml.syntax.atoms(f) for f in premises + [conclusion]]))
    elements = logic.lattice.elements
    size = len(elements)
    if verdict.valid:
        return size ** len(names)
    index = 0
    for name in names:
        index = index * size + elements.index(verdict.witness[name])
    return index + 1
