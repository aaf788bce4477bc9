"""Command line front end.

Subcommands mirror the library modules, one row each in the ``_COMMANDS``
table that builds the parser: ``rootdata``, ``dominance``, ``relations``,
``admissible``, ``split-search``, ``char``, ``embed-check``, ``crystal`` and
``reproduce``.  JSON output is byte-stable under a fixed invocation: keys are
sorted and term lists are ordered by (grade, weight).

Exit codes: 0 on success, 1 when a check reports a violation or a search
finds nothing, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .admissibility import (_admissible_candidates, balanced_split,
                            candidate_splits, is_r_admissible)
from .characters import demazure_character, embedding_certificate
from .crystal import (_table, build_crystal, component_of, crystal_decomposition,
                      demazure_subcrystal, tensor_crystal, to_dot)
from .relations import (demazure_p, generalized_weyl_p, relations_M,
                        relations_Mpp, relations_Mprime,
                        simplified_demazure_relations, weyl_p)
from .rootdata import _FAMILIES, root_system
from .weights import AffineWeight, dominance_algorithm


def _coords(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text)


def _word(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    return _coords(text)


def _tensor_arg(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    coords_text, _, word_text = text.partition(":")
    return _coords(coords_text), _word(word_text)


def _split_arg(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_coords(part) for part in text.split("|"))


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# -- subcommands -------------------------------------------------------------

def _cmd_rootdata(a, rs) -> int:
    _emit({
        "family": rs.family,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [
            {"coords": list(root.coords),
             "height": root.height,
             "d": rs.d(root),
             "pairing_row": list(rs.coroot_vector(root))}
            for root in rs.positive_roots],
    })
    return 0


def _cmd_dominance(a, rs) -> int:
    w = AffineWeight(a.mu, a.level, a.degree)
    lam, word = dominance_algorithm(rs, w)
    _emit({
        "input": {"finite": list(w.finite), "level": w.level,
                  "degree": w.degree},
        "dominant": {"finite": list(lam.finite), "level": lam.level,
                     "degree": lam.degree},
        "word": list(word),
        "length": len(word),
    })
    return 0


def _relation_json(rel):
    return {"root": list(rel.root.coords), "sign": rel.sign,
            "factors": [list(f) for f in rel.factors], "kind": rel.kind,
            "index": rel.index, "tags": list(rel.tags)}


def _cmd_relations(a, rs) -> int:
    if a.preset == "demazure" and a.k is None:
        raise ValueError("--k is required for the demazure preset")
    if a.set == "simplified":  # reads no p family
        if a.preset != "demazure":
            raise ValueError("the simplified set exists only for the demazure preset")
        rels = simplified_demazure_relations(rs, a.mu, a.k)
    else:
        fam = {"demazure": lambda: demazure_p(rs, a.mu, a.k),
               "weyl": lambda: weyl_p(rs, a.mu),
               "genweyl": lambda: generalized_weyl_p(rs, a.mu)}[a.preset]()
        rels = {"M": relations_M, "Mprime": relations_Mprime,
                "Mpp": relations_Mpp}[a.set](fam)
    _emit({"preset": a.preset, "mu": list(a.mu), "k": a.k, "set": a.set,
           "relations": [_relation_json(r) for r in rels]})
    return 0


def _report_json(rep):
    return {
        "mu": list(rep.mu),
        "split": [list(p) for p in rep.split],
        "r": rep.r,
        "k": rep.k,
        "preadmissible": rep.preadmissible,
        "admissible": rep.admissible,
        "sign_witnesses": [
            {"root": list(root.coords), "part": idx, "pairing": pair}
            for root, idx, pair in rep.sign_witnesses],
        "records": [
            {"root": list(rec.profile.root.coords),
             "sign": rec.profile.sign,
             "d": rec.profile.d,
             "values": list(rec.profile.values),
             "x": rec.profile.x,
             "t": rec.profile.t,
             "m": rec.profile.m(rep.r),
             "condition_a": rec.condition_a,
             "condition_b": rec.condition_b,
             "ok": rec.ok}
            for rec in rep.records],
    }


def _cmd_admissible(a, rs) -> int:
    rep = is_r_admissible(rs, a.mu, a.split, a.r)
    _emit(_report_json(rep))
    return 0 if rep.admissible else 1


def _cmd_split_search(a, rs) -> int:
    if a.balanced:
        split = balanced_split(rs, a.mu, a.k)
        rep = is_r_admissible(rs, a.mu, split, 1)
        _emit({"split": [list(p) for p in split],
               "admissible_1": rep.admissible})
        return 0 if rep.admissible else 1
    found = 0
    if a.find_1_admissible:
        rows = ((cand, True) for cand in _admissible_candidates(rs, a.mu, a.k))
    else:
        rows = ((cand, is_r_admissible(rs, a.mu, cand, 1).admissible)
                for cand in candidate_splits(rs, a.mu, a.k))
    for cand, admissible in rows:
        print(json.dumps({"split": [list(p) for p in cand],
                          "admissible_1": admissible}, sort_keys=True))
        found += 1
        if a.first:
            break
    return 0 if found else 1


def _cmd_char(a, rs) -> int:
    char = demazure_character(rs, a.mu, a.level)
    terms = [{"wt": list(fin), "grade": grade, "mult": mult}
             for (fin, _lvl, grade), mult in char.sorted_terms()]
    if a.json:
        _emit({"terms": terms})
    else:
        print("dimension %d" % char.dimension())
        for t in terms:
            print("grade %d  weight %s  mult %d"
                  % (t["grade"], tuple(t["wt"]), t["mult"]))
    return 0


def _cmd_embed_check(a, rs) -> int:
    cert = embedding_certificate(rs, a.mu, a.split, a.r)
    ok = cert.certified and cert.split_admissible
    _emit({
        "status": "Certified" if ok else "Violation",
        "mu": list(cert.mu),
        "split": [list(p) for p in cert.split],
        "r": cert.r,
        "k": cert.k,
        "split_admissible": cert.split_admissible,
        "admissibility_violations": [
            {"root": list(rec.profile.root.coords),
             "sign": rec.profile.sign,
             "condition_a": rec.condition_a,
             "condition_b": rec.condition_b}
            for rec in cert.report.failures],
        "character_failures": [
            {"wt": list(fin), "grade": grade, "need": need, "have": have}
            for fin, grade, need, have in cert.failures],
    })
    return 0 if ok else 1


def _demazure_crystal(rs, lam, word):
    b = build_crystal(rs, lam)
    return demazure_subcrystal(rs, b, word, lam) if word else b


def _cmd_crystal(a, rs) -> int:
    if a.decompose is not None and a.dot is not None and not a.json:
        raise ValueError("--decompose needs --json when --dot is given")
    if a.component_weight is not None:
        rs.check_weight(a.component_weight)
    b = _demazure_crystal(rs, a.lam, a.word)
    for lam, word in a.tensor or ():
        b = tensor_crystal(rs, b, _demazure_crystal(rs, lam, word))
    if a.component_weight is not None:
        try:
            b = component_of(b, a.component_weight)
        except ValueError as exc:
            # absent or ambiguous weight is a not-found outcome, not a
            # configuration error
            print("error: %s" % exc, file=sys.stderr)
            return 1
    pieces = None if a.decompose is None else crystal_decomposition(b, a.decompose)
    t = _table(b)
    if a.dot is not None:
        text = to_dot(b)
        if a.dot == "-":
            sys.stdout.write(text)
        else:
            with open(a.dot, "w") as fh:
                fh.write(text)
    if a.json:
        out = {"vertices": [{"index": k, "weight": list(w)}
                            for k, w in enumerate(t.read("weights"))],
               "edges": [list(e) for e in t.arrows()],
               "highest": None if t.top < 0 else t.top}
        if pieces is not None:
            out["decomposition"] = [
                {"weight": list(piece.weight), "size": piece.size,
                 "count": piece.count}
                for piece in pieces]
        _emit(out)
    elif a.dot is None:
        print("%d vertices, %d edges" % (t.n, len(t.flat) // 3))
        for piece in pieces or ():
            print("source %s  size %d  count %d"
                  % (piece.weight, piece.size, piece.count))
    return 0


def _cmd_reproduce(a, rs) -> int:
    from .acceptance import run_all
    rows = run_all(a.seed)
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print("%-*s : %s  %s" % (width, name, "PASS" if ok else "FAIL",
                                 detail))
    failed = sum(not ok for _, ok, _ in rows)
    print("%d of %d criteria passed" % (len(rows) - failed, len(rows)))
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------

_SYSTEM = ((("--type",), dict(dest="family", required=True,
                              choices=list(_FAMILIES), help="simple type")),
           (("--rank",), dict(type=int, required=True)))
_MU = (*_SYSTEM, (("--mu",), dict(type=_coords, required=True,
                                  help="weight in fundamental coordinates, e.g. 1,-2")))

# one row per subcommand: name, help, handler, options as (flags, add_argument kwargs)
_COMMANDS = (
    ("rootdata", "positive roots and pairing table", _cmd_rootdata, _SYSTEM),
    ("dominance", "walk an affine weight to the dominant chamber", _cmd_dominance, (*_MU,
        (("--level",), dict(type=int, required=True)),
        (("--degree",), dict(type=int, default=0)))),
    ("relations", "relation sets of a presentation", _cmd_relations, (*_MU,
        (("--preset",), dict(required=True, choices=["demazure", "weyl", "genweyl"])),
        (("--k",), dict(type=int, default=None)),
        (("--set",), dict(default="simplified", choices=["M", "Mprime", "Mpp", "simplified"])))),
    ("admissible", "full admissibility report for one split", _cmd_admissible, (*_MU,
        (("--split",), dict(type=_split_arg, required=True,
                            help='parts separated by "|", coords by ",", e.g. "1,1|1,0"')),
        (("--k",), dict(type=int, default=None,
                        help="optional cross-check against the part count")),
        (("--r",), dict(type=int, required=True)))),
    ("split-search", "enumerate candidate splits of a weight", _cmd_split_search, (*_MU,
        (("--k",), dict(type=int, required=True)),
        (("--find-1-admissible",), dict(action="store_true",
                                        help="print only 1-admissible candidates; "
                                             "exit 1 when none exist")),
        (("--first",), dict(action="store_true", help="stop after the first printed candidate")),
        (("--balanced",), dict(action="store_true", help="print the balanced candidate only")))),
    ("char", "graded character of one module", _cmd_char, (*_MU,
        (("--level", "--k"), dict(dest="level", type=int, required=True)),
        (("--json",), dict(action="store_true")))),
    ("embed-check", "certify one split against the character bound", _cmd_embed_check, (*_MU,
        (("--split",), dict(type=_split_arg, required=True)),
        (("--k",), dict(type=int, default=None)),
        (("--r",), dict(type=int, required=True)))),
    ("crystal", "build a path crystal and project it", _cmd_crystal, (*_SYSTEM,
        (("--lambda",), dict(dest="lam", type=_coords, required=True,
                             help="dominant highest weight")),
        (("--word",), dict(type=_word, default=(), help="take the subcrystal of this Weyl word")),
        (("--tensor",), dict(type=_tensor_arg, action="append", metavar="COORDS[:WORD]",
                             help="tensor with another crystal, e.g. 0,1:2; repeatable")),
        (("--component-weight",), dict(type=_coords, default=None,
                                       help="restrict to the component of this weight")),
        (("--decompose",), dict(type=_word, default=None, metavar="NODES",
                                help="also split along arrows with these labels")),
        (("--dot",), dict(default=None, metavar="FILE",
                          help='write DOT to FILE ("-" for stdout)')),
        (("--json",), dict(action="store_true")))),
    ("reproduce", "re-run the bundled acceptance criteria", _cmd_reproduce, (
        (("--paper-examples",), dict(action="store_true",
                                     help="run the worked examples and property grids "
                                          "(the default and only mode)")),
        (("--seed",), dict(type=int, default=0,
                           help="seed for the randomized property criteria")))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demazure",
        description="Exact computations with graded Demazure-type modules.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        ap = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            ap.add_argument(*flags, **kwargs)
        ap.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rs = root_system(args.family, args.rank) if "family" in args else None
        if "split" in args and args.k not in (None, len(args.split)):
            raise ValueError("--k %d disagrees with %d split parts"
                             % (args.k, len(args.split)))
        return args.handler(args, rs)
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
