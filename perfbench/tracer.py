"""Pass-through tracing of the demazure layers, installed from outside.

``Tracer.install`` replaces each traced public function at every name a
``demazure`` module binds it under (and the traced methods on their
classes) with a wrapper that records a span: name, start, end, parent
span and the item it belongs to.  Self time is a span's duration minus
the part its child spans cover.  Counts that the per-layer metrics need
(walk steps, terms produced, vertices, ...) are taken from arguments and
results at the same boundary.  Nothing under ``src/demazure`` changes.

Aggregates are kept for every span; the raw spans are kept in memory up
to ``MAX_SPANS`` and written as JSON when the traced process ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MAX_SPANS = 200_000

ACCEPTANCE_CRITERIA = (
    "worked-example-a2", "admissibility-c2", "embedding-grid",
    "balanced-splits-type-a", "profile-scan-bc", "character-operators",
    "crystal-dimensions", "relation-sets", "sm-recombination",
    "dominance-roundtrip")


def _n_steps(tr, args, result):
    tr.extra["weights.dominance_algorithm.steps"] += len(result[1])


def _admissible(tr, args, result):
    # embedding_certificate re-runs the test on a candidate already found
    # admissible; only the direct calls say which candidates are admissible
    if tr.parent_name() == "characters.embedding_certificate":
        tr.extra["admissibility.rechecks"] += 1
    elif result.admissible:
        tr.extra["admissibility.admissible"] += 1


def _character_args(tr, args, result):
    rs, mu, k = args[0], tuple(args[1]), args[2]
    tr.distinct.add((rs.family, rs.rank, mu, k))


def _terms_out(tr, args, result):
    tr.extra["characters.demazure_operator.terms_out"] += len(result.terms)


def _defined(tr, args, result):
    if result is not None:
        tr.extra["crystal.root_operator_f.defined"] += 1


def _crystal_size(tr, args, result):
    tr.extra["crystal.build_crystal.vertices"] += len(result.vertices)
    tr.extra["crystal.build_crystal.edges"] += len(result.edges)


def _relations_out(tr, args, result):
    tr.extra["relations.relations_M.out"] += len(result)


# (module, attribute, span name, count hook).  Module-level functions are
# replaced wherever a demazure module binds the same object; methods are
# replaced on their class.
_FUNCTIONS = (
    ("weights", "dominance_algorithm", "weights.dominance_algorithm", _n_steps),
    ("admissibility", "is_r_admissible", "admissibility.is_r_admissible", _admissible),
    ("characters", "demazure_character", "characters.demazure_character", _character_args),
    ("characters", "demazure_operator", "characters.demazure_operator", _terms_out),
    ("characters", "embedding_certificate", "characters.embedding_certificate", None),
    ("characters", "parabolic_character", "characters.parabolic_character", None),
    ("characters", "g0_branch", "characters.g0_branch", None),
    ("crystal", "root_operator_f", "crystal.root_operator_f", _defined),
    ("crystal", "build_crystal", "crystal.build_crystal", _crystal_size),
    ("crystal", "tensor_crystal", "crystal.tensor_crystal", None),
    ("crystal", "demazure_subcrystal", "crystal.demazure_subcrystal", None),
    ("crystal", "component_of", "crystal.component_of", None),
    ("relations", "relations_M", "relations.relations_M", _relations_out),
    ("relations", "relations_Mprime", "relations.relations_Mprime", None),
    ("relations", "relations_Mpp", "relations.relations_Mpp", None),
    ("relations", "simplified_demazure_relations", "relations.simplified", None),
)
_METHODS = (
    ("rootdata", "RootSystem", "pairing", "rootdata.pairing"),
    ("rootdata", "RootSystem", "simple_root", "rootdata.simple_root"),
    ("rootdata", "RootSystem", "__init__", "rootdata.root_system"),
    ("characters", "GradedCharacter", "tensor", "characters.tensor"),
)


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.on = False
        self.item = -1
        self.stack = []           # [span id, name, child time]
        self.next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.extra = Counter()
        self.distinct = set()
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans = {"id": array("q"), "name": array("i"), "parent": array("q"),
                      "item": array("q"), "start": array("d"), "end": array("d")}
        self.dropped = 0

    # -- recording -------------------------------------------------------

    def parent_name(self):
        """Name of the span enclosing the one that is finishing."""
        return self.stack[-1][1] if self.stack else None

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, name, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - start
            if self.stack:
                self.stack[-1][2] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[2]
            self._keep(sid, name, parent, start, end)

    def _keep(self, sid, name, parent, start, end):
        if len(self.spans["id"]) >= MAX_SPANS:
            self.dropped += 1
            return
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        s = self.spans
        s["id"].append(sid)
        s["name"].append(idx)
        s["parent"].append(parent)
        s["item"].append(self.item)
        s["start"].append(start)
        s["end"].append(end)

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function at each name a demazure module binds."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "demazure" or key.startswith("demazure.")]
        for modname, attr, name, hook in _FUNCTIONS:
            original = getattr(sys.modules["demazure." + modname], attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for modname, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules["demazure." + modname], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    # -- reporting -------------------------------------------------------

    def raw(self):
        """Aggregates in a form that can be summed across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "extra": dict(self.extra),
                "distinct": len(self.distinct)}

    def write_spans(self, path):
        s = self.spans
        rows = [[s["id"][j], self.names[s["name"][j]], s["parent"][j],
                 s["item"][j], s["start"][j], s["end"][j]]
                for j in range(len(s["id"]))]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "item", "start", "end"],
                       "dropped": self.dropped, "spans": rows}, fh)


def merge(raws):
    """Sum the aggregates of several traced processes."""
    out = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(),
           "extra": Counter(), "distinct": 0}
    for raw in raws:
        for key in ("calls", "self_s", "total_s", "extra"):
            out[key].update(raw[key])
        out["distinct"] += raw["distinct"]
    return out


def layer_metrics(agg, cli=None, acceptance=None):
    """The per-layer metrics named in BENCHMARK.json, from merged aggregates.

    A ratio whose base is zero (its layer did not run) reads 0.
    """
    calls, self_s, total_s, extra = (agg["calls"], agg["self_s"],
                                     agg["total_s"], agg["extra"])

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("rootdata.pairing.calls", calls["rootdata.pairing"], "count")
    put("rootdata.pairing.self_s", self_s["rootdata.pairing"], "s")
    put("rootdata.simple_root.calls", calls["rootdata.simple_root"], "count")
    put("rootdata.root_system.build_ms", total_s["rootdata.root_system"] * 1e3, "ms")
    put("weights.dominance_algorithm.calls", calls["weights.dominance_algorithm"], "count")
    put("weights.dominance_algorithm.steps",
        extra["weights.dominance_algorithm.steps"], "count")
    put("weights.dominance_algorithm.self_s", self_s["weights.dominance_algorithm"], "s")
    n_adm = calls["admissibility.is_r_admissible"]
    put("admissibility.is_r_admissible.calls", n_adm, "count")
    put("admissibility.is_r_admissible.self_s", self_s["admissibility.is_r_admissible"], "s")
    put("admissibility.admissible_ratio",
        ratio(extra["admissibility.admissible"], n_adm - extra["admissibility.rechecks"]),
        "ratio")
    put("admissibility.rechecks_per_certificate",
        ratio(extra["admissibility.rechecks"], calls["characters.embedding_certificate"]),
        "ratio")
    n_char = calls["characters.demazure_character"]
    put("characters.demazure_character.calls", n_char, "count")
    put("characters.demazure_character.distinct_ratio", ratio(agg["distinct"], n_char),
        "ratio")
    put("characters.demazure_character.self_s", self_s["characters.demazure_character"], "s")
    put("characters.demazure_operator.calls", calls["characters.demazure_operator"], "count")
    put("characters.demazure_operator.terms_out",
        extra["characters.demazure_operator.terms_out"], "count")
    put("characters.demazure_operator.self_s", self_s["characters.demazure_operator"], "s")
    put("characters.tensor.self_s", self_s["characters.tensor"], "s")
    put("characters.embedding_certificate.self_s",
        self_s["characters.embedding_certificate"], "s")
    put("characters.parabolic_character.calls", calls["characters.parabolic_character"],
        "count")
    put("characters.parabolic_character.self_s",
        self_s["characters.parabolic_character"], "s")
    put("characters.g0_branch.self_s", self_s["characters.g0_branch"], "s")
    n_f = calls["crystal.root_operator_f"]
    put("crystal.root_operator_f.calls", n_f, "count")
    put("crystal.root_operator_f.defined_ratio",
        ratio(extra["crystal.root_operator_f.defined"], n_f), "ratio")
    put("crystal.root_operator_f.self_s", self_s["crystal.root_operator_f"], "s")
    vertices = extra["crystal.build_crystal.vertices"]
    put("crystal.build_crystal.vertices", vertices, "count")
    put("crystal.build_crystal.edges", extra["crystal.build_crystal.edges"], "count")
    put("crystal.build_crystal.self_s", self_s["crystal.build_crystal"], "s")
    put("crystal.us_per_vertex", ratio(total_s["crystal.build_crystal"], vertices, 1e6),
        "us")
    put("crystal.tensor_crystal.self_s", self_s["crystal.tensor_crystal"], "s")
    put("crystal.demazure_subcrystal.self_s", self_s["crystal.demazure_subcrystal"], "s")
    put("crystal.component_of.self_s", self_s["crystal.component_of"], "s")
    out = extra["relations.relations_M.out"]
    put("relations.relations_M.calls", calls["relations.relations_M"], "count")
    put("relations.relations_M.out", out, "count")
    put("relations.relations_M.self_s", self_s["relations.relations_M"], "s")
    put("relations.us_per_relation", ratio(total_s["relations.relations_M"], out, 1e6),
        "us")
    put("relations.relations_Mprime.self_s", self_s["relations.relations_Mprime"], "s")
    put("relations.relations_Mpp.self_s", self_s["relations.relations_Mpp"], "s")
    put("relations.simplified.self_s", self_s["relations.simplified"], "s")
    cli = cli or {}
    put("cli.interpreter_ms", cli.get("interpreter_ms", 0.0), "ms")
    put("cli.import_ms", cli.get("import_ms", 0.0), "ms")
    put("cli.command_ms", cli.get("command_ms", 0.0), "ms")
    put("cli.stdout_bytes", cli.get("stdout_bytes", 0), "bytes")
    acceptance = acceptance or {}
    for crit in ACCEPTANCE_CRITERIA:
        put("acceptance.%s.s" % crit, acceptance.get(crit, 0.0), "s")
    return m
