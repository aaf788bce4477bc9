"""Littelmann-path crystals for finite-type dominant weights.

A path is a broken line in fundamental-weight coordinates, held exactly in
integers: a denominator D > 0 and runs (n, d) of length n > 0 and primitive
direction d, each displacing by n*d/D.  Runs of equal direction are merged
and D is reduced, so two paths are equal exactly when their lines are.

For a node i let h(t) be the i-th coordinate of the path (an integer at each
corner, in units of 1/D) and M = min h.  One scan of the runs gives M, the last
corner where h = M, and h(1): eps_i = -M and phi_i = h(1) - M.  f_i, defined iff
phi_i >= 1, reflects by s_i the runs from that corner to the first point after
it where h = M + 1, splitting a run there (D grows if that point needs it).
e_i is f_i conjugated by the reversal pi(t) -> pi(1-t) - pi(1).  Both reject a
path whose h dips inside that window; no path from a straight dominant one does.

A crystal graph is a table of vertex numbers (``_Table``); its paths and
weights are made from its arrows on first read.
"""

from __future__ import annotations

import collections
import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, sub

from .rootdata import RootSystem, _fill

_set = object.__setattr__
_VERTEX_BUDGET = 10 ** 6  # vertices one crystal, product or traversal may hold


def _path(den, runs, rank):
    """The Path of integer runs over den, put in reduced form."""
    out = []
    for n, d in runs:
        if out and out[-1][1] == d:
            out[-1] = (out[-1][0] + n, d)
        else:
            out.append((n, d))
    g = gcd(den, *[n for n, _ in out]) if den > 1 else 1
    path = object.__new__(Path)
    _set(path, "den", den // g)
    _set(path, "runs", tuple((n // g, d) for n, d in out) if g > 1 else tuple(out))
    _set(path, "rank", rank)
    _set(path, "_hash", hash((path.den, path.runs, rank)))  # the dataclass's hash, once
    return path


@dataclass(frozen=True, init=False, repr=False)
class Path:
    """An immutable broken line from int or Fraction displacement vectors."""

    den: int
    runs: tuple
    rank: int

    def __new__(cls, steps, rank):
        steps = [[Fraction(x) for x in raw] for raw in steps]
        if any(len(step) != rank for step in steps):
            raise ValueError("a step of a rank-%r path needs %r coordinates" % (rank, rank))
        den = lcm(*(x.denominator for step in steps for x in step))
        ints = [[int(x * den) for x in step] for step in steps]
        return _path(den, [(g, tuple(x // g for x in v)) for v in ints if (g := gcd(*v))], rank)

    def __reduce__(self):
        return _path, (self.den, self.runs, self.rank)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Path(steps=%r, rank=%r)" % (self.steps, self.rank)

    @property
    def steps(self):
        return tuple(tuple(Fraction(n * x, self.den) for x in d) for n, d in self.runs)

    @classmethod
    def straight(cls, weight):
        return cls((weight := tuple(weight),), len(weight))

    def _total(self):
        return [sum(n * d[pos] for n, d in self.runs) for pos in range(self.rank)]

    def endpoint(self):
        return tuple(Fraction(x, self.den) for x in self._total())

    def weight(self):
        total = self._total()
        if any(x % self.den for x in total):
            raise ValueError("path ends at the non-integral point %r" % (self.endpoint(),))
        return tuple(x // self.den for x in total)

    def concat(self, other):
        if self.rank != other.rank:
            raise ValueError("paths of ranks %d and %d" % (self.rank, other.rank))
        den = lcm(self.den, other.den)
        return _path(den, [(n * den // p.den, d) for p in (self, other) for n, d in p.runs],
                     self.rank)


def _scan(rs, i, path):
    """(M, the last corner where h = M, h(1)), in units of 1/den, in one pass."""
    if rs.check_node(i) and path.rank != rs.rank:
        raise ValueError("a rank-%r path on a rank-%d root system" % (path.rank, rs.rank))
    k, h, m, t = i - 1, 0, 0, 0
    for j, (n, d) in enumerate(path.runs, 1):
        h += n * d[k]
        if h <= m:
            m, t = h, j
    return m, t, h


def _strings(rs, i, path):
    """(eps_i, phi_i) from one ``_scan``; Fractions only off a crystal vertex."""
    (m, _, end), d = _scan(rs, i, path), path.den
    return [x // d if x % d == 0 else Fraction(x, d) for x in (-m, end - m)]


def phi(rs: RootSystem, i: int, path: Path):
    """Length of the f_i string below the path (``_strings``)."""
    return _strings(rs, i, path)[1]

def eps(rs: RootSystem, i: int, path: Path):
    """Length of the e_i string above the path (``_strings``)."""
    return _strings(rs, i, path)[0]


def _lower(rs, i, path, dip):
    """f_i; ``dip`` is the error for a window that dips.  s_i of a direction is
    memoised on the root system: paths reuse few, and s_i keeps them primitive."""
    m, t1, end = _scan(rs, i, path)
    den, runs, k = path.den, path.runs, i - 1
    if end - m < den:
        return None
    memo = vars(rs).setdefault("_path_reflections", {})
    h, target = m, m + den  # h: the height where run j starts
    new = list(runs[:t1])
    for j in range(t1, len(runs)):
        n, d = runs[j]
        if (step := n * d[k]) < 0:
            raise ValueError(dip)
        r = memo.get((i, d)) or memo.setdefault((i, d), rs.reflect(i, d))
        if h + step < target:
            new.append((n, r))
            h += step
            continue
        # h crosses M + 1 at x/d[k] into this run; scale den to make that whole
        x, rest = target - h, runs[j + 1:]
        s = d[k] // gcd(d[k], x)
        if s > 1:
            den, n, x = den * s, n * s, x * s
            new = [(c * s, e) for c, e in new]
            rest = [(c * s, e) for c, e in rest]
        new.append((x // d[k], r))
        if n > x // d[k]:
            new.append((n - x // d[k], d))
        new.extend(rest)
        return _path(den, new, path.rank)


def root_operator_f(rs: RootSystem, i: int, path: Path):
    return _lower(rs, i, path, "descent inside the lowering window")


def root_operator_e(rs: RootSystem, i: int, path: Path):
    def rev(p):  # pi(1-t) - pi(1): the runs in reverse order with negated directions
        return _path(p.den, [(n, tuple(-x for x in d)) for n, d in reversed(p.runs)], p.rank)
    up = _lower(rs, i, rev(path), "ascent inside the raising window")
    return None if up is None else rev(up)


@dataclass(frozen=True)
class CrystalGraph:
    vertices: tuple       # Path, in discovery order
    edges: tuple          # (source, target, label), target = f_label(source)
    highest: Path | None

    def __getattr__(self, name):  # a built graph's fields, made from its table on first read
        if name not in ("vertices", "edges", "highest") or "_table" not in (kept := vars(self)):
            raise AttributeError(name)
        t = kept["_table"]
        p = kept.get("vertices") or kept.setdefault("vertices", t.read("paths"))
        if name != "vertices":
            kept[name] = (tuple((p[u], p[v], i) for u, v, i in t.arrows()) if name == "edges"
                          else None if t.top < 0 else p[t.top])
        return kept[name]

    def __getstate__(self):  # the fields alone: no table is pickled or copied
        return {"vertices": self.vertices, "edges": self.edges, "highest": self.highest}


class _Table:
    """A crystal graph as numbers: n vertices, arrows (u, v, i) in one flat int
    array, the highest vertex's number top (-1: none).  Vertex k is kept[k] (k if
    kept is None) of ``src``, shared by all tables cut from one crystal: its rank,
    and makers of its "highest" weight (any cut's top), "paths" and "weights"."""
    __slots__ = ("n", "flat", "top", "src", "kept")

    def __init__(self, n, flat, top, src, kept=None):
        self.n, self.top, self.src, self.kept = n, top, src, kept
        self.flat = flat if type(flat) is array else array("i", flat)

    def arrows(self):
        return zip(*[iter(self.flat)] * 3)

    def read(self, what):
        if callable(got := self.src[what]):
            got = self.src[what] = tuple(got())
        return got if self.kept is None else tuple(got[k] for k in self.kept)

    def graph(self) -> CrystalGraph:
        return _fill(CrystalGraph, _table=self)


def _table(b: CrystalGraph) -> _Table:
    """b's table; a graph built by hand gets one from its fields on first use."""
    if "_table" not in (kept := vars(b)):  # built by hand: its fields are in kept
        index = dict(zip(paths := tuple(kept["vertices"]), itertools.count()))
        flat = [x for u, v, i in kept["edges"] for x in (index.get(u, -1), index.get(v, -1), i)]
        top = index.get(h := kept["highest"], -1 if h is None else None)
        if len(index) < len(paths) or top is None or -1 in flat[::3] + flat[1::3]:
            raise ValueError("a crystal graph needs distinct vertices, with its ends among them")
        kept["_table"] = _Table(len(paths), flat, top, {
            "paths": paths, "weights": lambda: [p.weight() for p in paths],
            "highest": lambda: paths[top].weight(), "rank": paths[0].rank if paths else None})
    return kept["_table"]


def _reach(starts, step) -> list:
    """Vertices reachable from the distinct ``starts`` through ``step(u)`` (u's
    neighbours), breadth first; RuntimeError before one past ``_VERTEX_BUDGET``."""
    seen = set(order := list(starts))
    for u in order:  # order grows while it is read: it is the queue
        for v in step(u):
            if v not in seen:
                if len(seen) >= _VERTEX_BUDGET:
                    raise RuntimeError("vertex budget exceeded")
                seen.add(v)
                order.append(v)
    return order


def _rows(rs, vertices, low=None):
    """Per node i a row per vertex b: (the number of f_i(b) among the
    vertices or -1, eps_i(b), phi_i(b)), all three read from the paths;
    f_i(b), None when phi_i(b) < 1, is low[b][i - 1] if ``low`` is given."""
    index = dict(zip(vertices, itertools.count()))
    return [[(index.get(root_operator_f(rs, i, v) if low is None else low[v][i - 1], -1)
              if s[1] >= 1 else -1, *s)
             for v in vertices for s in [_strings(rs, i, v)]] for i in range(1, rs.rank + 1)]


def _pairs(rows1, rows2, starts):
    """The pair rule on pairs (x, y) of vertex numbers of two factors' rows: f_i
    acts on x if phi_i(x) > eps_i(y), else on y; an arrow to -1 is dropped.  The
    pairs reachable from ``starts`` (``_reach``), and the arrows (k, c, i), flat."""
    arrows, count, nodes = [], itertools.count(), tuple(enumerate(zip(rows1, rows2), 1))
    def lower(b):
        x, y = b
        k = next(count)  # _reach lowers the pairs in their order
        for i, (r1, r2) in nodes:
            (f1, _, p1), (f2, e2, _) = r1[x], r2[y]
            if (f1 if p1 > e2 else f2) >= 0:
                c = (f1, y) if p1 > e2 else (x, f2)
                arrows.extend((k, c, i))
                yield c
    return _reach(starts, lower), arrows


def _fundamental(rs, j):
    """B(omega_j) (B(0) for j = 0), its straight path closed under all f_i,
    and its rows; memoised on the root system."""
    memo = vars(rs).setdefault("_fundamental_crystals", {})
    if j not in memo:
        nodes, low = range(1, rs.rank + 1), {}  # low[u]: f_1(u), ..., f_rank(u)
        order = _reach((Path.straight(int(k == j) for k in nodes),), lambda u: filter(
            None, low.setdefault(u, [root_operator_f(rs, i, u) for i in nodes])))
        rows = _rows(rs, order, low)  # its edges are the rows' f_i entries, in vertex order
        memo[j] = CrystalGraph(tuple(order), tuple(
            (u, order[f], i) for n, u in enumerate(order)
            for i, row in enumerate(rows, 1) if (f := row[n][0]) >= 0), order[0]), rows
    return memo[j]


def _product(rs, factors, memo, rows=True):
    """The top component of B(omega_j1) * B(omega_j2) * ... for the nodes j in
    ``factors`` (Littelmann's order), searched by ``_pairs`` on its two halves:
    its size, its arrows (u, v, i) flat, and its rows if ``rows``; memoised."""
    if len(factors) == 1:
        return None, None, _fundamental(rs, factors[0])[1]
    if factors not in memo:
        half, table = len(factors) // 2, None
        rows1, rows2 = (_product(rs, h, memo)[2] for h in (factors[:half], factors[half:]))
        order, flat = _pairs(rows1, rows2, ((0, 0),))
        flat[1::3] = map(dict(zip(order, itertools.count())).__getitem__, flat[1::3])
        flat = array("i", flat)
        if rows:
            f, table = dict(zip(zip(flat[::3], flat[2::3]), flat[1::3])), [[] for _ in rows1]
            for n, (x, y) in enumerate(order):
                for i, (r1, r2, row) in enumerate(zip(rows1, rows2, table), 1):
                    (_, e1, p1), (_, e2, p2) = r1[x], r2[y]
                    row.append((f.get((n, i), -1), e1 + max(0, e2 - p1), p2 + max(0, p1 - e2)))
        memo[factors] = len(order), flat, table
    return memo[factors]


def build_crystal(rs: RootSystem, lam) -> CrystalGraph:
    """B(lam): the closure of the straight path to ``lam`` under all f_i, vertices
    in breadth-first order (nodes 1..rank from each), found as the top component
    of B(omega_1)^lam_1 * B(omega_2)^lam_2 * ... by ``_product`` (README).  On first
    read, v's path (weight) is f_i of u's (u's minus alpha_i) along v's discovery
    edge (u, v, i).  RuntimeError up front when dim V(lam) is over the budget."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    rho = (1,) * rs.rank  # prod (lam + rho)(h_alpha) / rho(h_alpha) = dim V(lam)
    if prod(rs.pairings([c + 1 for c in lam])) > _VERTEX_BUDGET * prod(rs.pairings(rho)):
        raise RuntimeError("vertex budget exceeded")
    factors = tuple(j for j, c in enumerate(lam, 1) for _ in range(c))
    if len(factors) <= 1:  # the closure of omega_j, or of omega_0 = 0: one vertex
        return _fundamental(rs, sum(factors))[0]
    n, flat, _ = _product(rs, factors, {}, rows=False)
    def make(first, lower):  # reads the arrows, not the table: no cycle to collect
        out = [first]
        for u, v, i in zip(*[iter(flat)] * 3):
            if v == len(out):
                out.append(lower(i, out[u]))
        return out
    return _Table(n, flat, 0, {"rank": rs.rank, "highest": lambda: lam, "paths": lambda: make(
        Path.straight(lam), lambda i, p: root_operator_f(rs, i, p)), "weights": lambda: make(
        lam, lambda i, w: tuple(map(sub, w, rs._alphas[i])))}).graph()


def tensor_crystal(rs: RootSystem, b1: CrystalGraph, b2: CrystalGraph) -> CrystalGraph:
    """Concatenation model of the tensor product: vertices are the paths u*v,
    u of b1 outer and v of b2 inner, in Littelmann's order, made on first read;
    arrows by the pair rule on the factors' paths (README, "Conventions").
    RuntimeError before any concatenation past ``_VERTEX_BUDGET`` vertices.  The
    u*v are compared only when b1's u differ in length: else all are distinct."""
    t1, t2 = _table(b1), _table(b2)
    if (n1 := t1.n) * (n2 := t2.n) > _VERTEX_BUDGET:
        raise RuntimeError("vertex budget exceeded")
    p1, p2 = b1.vertices, b2.vertices
    if len({Fraction(sum(n for n, _ in p.runs), p.den) for p in p1}) > 1 and len(
            {u.concat(v) for u in p1 for v in p2}) < n1 * n2:
        raise ValueError("distinct pairs of vertices give equal concatenations")
    _, flat = _pairs(_rows(rs, p1), _rows(rs, p2), itertools.product(range(n1), range(n2)))
    flat[1::3] = [c * n2 + d for c, d in flat[1::3]]
    top = t1.top * n2 + t2.top if min(t1.top, t2.top) >= 0 else -1
    return _Table(n1 * n2, flat, top, {"rank": rs.rank, "highest": lambda: tuple(map(
        add, t1.src["highest"](), t2.src["highest"]())),
        "paths": lambda: [u.concat(v) for u in p1 for v in p2],
        "weights": lambda: [tuple(map(add, w, x)) for w in t1.read("weights")
                            for x in t2.read("weights")]}).graph()


def demazure_subcrystal(rs: RootSystem, b: CrystalGraph, word, lam) -> CrystalGraph:
    """The word's Demazure subcrystal: from {highest vertex}, saturate by full
    f_i-strings for each letter, rightmost first (README).  A vertex survives
    exactly when e_i^max, letter by letter (leftmost last), returns it to the top."""
    lam, f = tuple(lam), (t := _table(b)).flat
    fmap = dict(zip(zip(f[::3], f[2::3]), f[1::3]))
    if len(fmap) < len(f) // 3 or len(set(zip(f[1::3], f[2::3]))) < len(fmap):
        raise ValueError("two arrows of one label leave or enter one vertex")
    top = t.top if t.top >= 0 else _vertex_of_weight(t, lam)
    if (w := t.src["highest"]() if t.top >= 0 else lam) != lam:
        raise ValueError("highest vertex has weight %r, expected %r" % (w, lam))
    u = top  # words that are not reduced fail to land on the reflected weight
    for i in reversed(tuple(word)):
        rs.check_node(i)
        while (u, i) in fmap:
            u, w = fmap[(u, i)], tuple(map(sub, w, rs._alphas[i]))
    if w != (target := tuple(rs.weyl_apply(tuple(word), lam))):
        raise ValueError("extremal weight %r not reached (got %r)" % (target, w))
    keep = (top,)
    for i in reversed(tuple(word)):
        keep = _reach(keep, lambda u: (fmap[(u, i)],) if (u, i) in fmap else ())
    return _restrict(t, keep)


def _vertex_of_weight(t: _Table, weight) -> int:
    """The unique vertex of the given weight; ValueError when there is none or more."""
    if len(matches := [k for k, w in enumerate(t.read("weights")) if w == weight]) != 1:
        raise ValueError("%d vertices of weight %r" % (len(matches), weight))
    return matches[0]


def _restrict(t: _Table, keep) -> CrystalGraph:
    """The subgraph on the vertex numbers in keep, vertices and arrows in t's order."""
    new = dict(zip(kept := sorted(keep), itertools.count()))
    return _Table(len(kept), [x for u, v, i in t.arrows() if u in new and v in new
                              for x in (new[u], new[v], i)], new.get(t.top, -1), t.src,
                  array("i", kept if t.kept is None else [t.kept[k] for k in kept])).graph()


def _undirected(n, arrows):
    """The neighbours of a vertex, arrows taken both ways, as a function."""
    adj = [[] for _ in range(n)]
    for u, v, _ in arrows:
        adj[u].append(v)
        adj[v].append(u)
    return adj.__getitem__


def component_of(b: CrystalGraph, weight) -> CrystalGraph:
    """Undirected connected component of the unique vertex of the given weight."""
    start = _vertex_of_weight(t := _table(b), tuple(weight))
    return _restrict(t, _reach((start,), _undirected(t.n, t.arrows())))


def filter_arrows(b: CrystalGraph, nodes) -> CrystalGraph:
    """b with only the arrows labeled by ``nodes``.  A node is an int >= 1, not a
    bool, <= the rank (an empty hand-built graph knows no rank, so it takes 7)."""
    t = _table(b)
    for i in (nodes := tuple(nodes)):  # each node, before True == 1 merges them
        if type(i) is not int or i < 1 or i > (t.src["rank"] or i):
            raise ValueError("node %r is not a finite node" % (i,))
    nodes = set(nodes)
    return _Table(t.n, [x for e in t.arrows() if e[2] in nodes for x in e], t.top, t.src,
                  t.kept).graph()


def weight_graph(b: CrystalGraph):
    """The bullet-diagram view: the distinct weights and the distinct (source
    weight, target weight, label) triples.  Lossy: vertices of equal weight merge."""
    ws = (t := _table(b)).read("weights")
    return tuple(sorted(set(ws))), tuple(sorted({(ws[u], ws[v], i) for u, v, i in t.arrows()}))


@dataclass(frozen=True)
class DecompositionPiece:
    weight: tuple       # source weight restricted to the kept nodes
    size: int           # vertices in each component
    count: int          # number of such components


def crystal_decomposition(b: CrystalGraph, nodes):
    """Split the graph along arrows labeled by ``nodes``; report each component by
    its unique source's weight on the nodes, its size and its multiplicity.  Nodes
    are refused as in ``filter_arrows``, which keeps the arrows to split along."""
    t = _table(filter_arrows(b, nodes := tuple(nodes)))
    nodes, arrows = tuple(sorted(set(nodes))), list(t.arrows())
    incoming, pieces, ws = {v for _, v, _ in arrows}, collections.Counter(), t.read("weights")
    step, remaining = _undirected(t.n, arrows), set(range(t.n))
    while remaining:  # one connected component per round
        comp = _reach((remaining.pop(),), step)
        remaining.difference_update(comp)
        sources = [v for v in comp if v not in incoming]
        if len(sources) != 1:
            raise ValueError("component with %d sources" % len(sources))
        pieces[(tuple(ws[sources[0]][i - 1] for i in nodes), len(comp))] += 1
    return tuple(DecompositionPiece(w, s, c) for (w, s), c in sorted(pieces.items()))


def to_dot(b: CrystalGraph) -> str:
    ws = (t := _table(b)).read("weights")
    lines = ['  v%d [label="%s"];' % (k, str(w)) for k, w in enumerate(ws)]
    lines += ['  v%d -> v%d [label="%d"];' % e for e in t.arrows()]
    return "\n".join(["digraph crystal {", *lines, "}"]) + "\n"
