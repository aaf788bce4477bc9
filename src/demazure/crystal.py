"""Littelmann-path crystals for finite-type dominant weights.

A path is a broken line in fundamental-weight coordinates, held exactly in
integers: a denominator D > 0 and runs (n, d) of length n > 0 and primitive
direction d, each displacing by n*d/D.  Runs of equal direction are merged
and D is reduced against the lengths, so two paths are equal exactly when
they trace the same broken line.  Opposite directions are never merged: a
zigzag that backtracks is a different path from its net displacement.

For a node i let h(t) be the i-th coordinate of the path (its pairing with
the coroot of alpha_i), an integer at each corner in units of 1/D, and
M = min h.  One scan of the runs gives M, the last corner where h = M and
h(1); f_i, e_i, eps_i = -M and phi_i = h(1) - M all start from it.  The
lowering operator f_i is defined iff h(1) - M >= 1; it reflects the runs by
s_i between that last corner and the first point afterwards where h = M + 1,
splitting a run at that crossing; when the crossing is not a multiple of
1/D, that path's D is scaled up, so the operators are exact on any rational
path.  The raising operator e_i is the mirror image, f_i conjugated by the
reversal pi(t) -> pi(1-t) - pi(1).  Both reject paths whose h dips inside
the working window, which cannot happen for paths generated from a straight
dominant path.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .rootdata import RootSystem

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
        runs = []
        for step in steps:
            ints = [int(x * den) for x in step]
            if g := gcd(*ints):
                runs.append((g, tuple(x // g for x in ints)))
        return _path(den, runs, rank)

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
        weight = tuple(weight)
        return cls((weight,), len(weight))

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


def _reversed(path):
    """pi(1-t) - pi(1): the runs in reverse order with negated directions."""
    return _path(path.den, [(n, tuple(-x for x in d)) for n, d in reversed(path.runs)],
                 path.rank)


def _scan(rs, i, path):
    """(M, the last corner where h = M, h(1)), in units of 1/den, in one pass."""
    rs.check_node(i)
    k, h, m, t = i - 1, 0, 0, 0
    for j, (n, d) in enumerate(path.runs, 1):
        h += n * d[k]
        if h <= m:
            m, t = h, j
    return m, t, h


def _ratio(num, den):
    return num // den if num % den == 0 else Fraction(num, den)


def _strings(rs, i, path):
    """(eps_i, phi_i) = (-M, h(1) - M) from one ``_scan``: ints unless h is
    off the integers (never on a crystal vertex), then Fractions."""
    m, _, end = _scan(rs, i, path)
    return _ratio(-m, path.den), _ratio(end - m, path.den)


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
    up = _lower(rs, i, _reversed(path), "ascent inside the raising window")
    return None if up is None else _reversed(up)


@dataclass(frozen=True)
class CrystalGraph:
    vertices: tuple       # Path, in discovery order
    edges: tuple          # (source, target, label), target = f_label(source)
    highest: Path | None


def _reach(starts, step) -> list:
    """Vertices reachable from the distinct ``starts`` through ``step(u)``,
    an iterable of the neighbours of u, in breadth-first discovery order.
    Raises RuntimeError before a vertex past ``_VERTEX_BUDGET`` would be added."""
    order, budget = list(starts), _VERTEX_BUDGET
    seen = set(order)
    for u in order:  # order grows while it is read: it is the queue
        for v in step(u):
            if v not in seen:
                if len(seen) >= budget:
                    raise RuntimeError("vertex budget exceeded")
                seen.add(v)
                order.append(v)
    return order


def _rows(rs, vertices, low=None):
    """Per node i a row per vertex b: (the number of f_i(b) among the
    vertices or -1, eps_i(b), phi_i(b)), all three read from the paths;
    f_i(b), None when phi_i(b) < 1, is low[b][i - 1] if ``low`` is given."""
    index = {v: n for n, v in enumerate(vertices)}
    return [[(index.get(root_operator_f(rs, i, v) if low is None else low[v][i - 1], -1)
              if s[1] >= 1 else -1, *s)
             for v in vertices for s in [_strings(rs, i, v)]] for i in range(1, rs.rank + 1)]


def _pairs(rows1, rows2, starts):
    """The pair rule on pairs (x, y) of vertex numbers of two factors' rows:
    f_i acts on x if phi_i(x) > eps_i(y), else on y; an arrow to -1 is dropped.
    The pairs reachable from ``starts`` in ``_reach``'s order, and the arrows."""
    arrows = []

    def lower(b):
        x, y = b
        for i, (r1, r2) in enumerate(zip(rows1, rows2), 1):
            (f1, _, p1), (f2, e2, _) = r1[x], r2[y]
            if (f1 if p1 > e2 else f2) >= 0:
                c = (f1, y) if p1 > e2 else (x, f2)
                arrows.append((b, c, i))
                yield c

    return _reach(starts, lower), arrows


def _fundamental(rs, j):
    """B(omega_j) (B(0) for j = 0), its straight path closed under all f_i,
    and its rows; memoised on the root system."""
    memo = vars(rs).setdefault("_fundamental_crystals", {})
    if j not in memo:
        nodes, low = range(1, rs.rank + 1), {}  # low[u]: f_1(u), ..., f_rank(u)
        top = Path.straight(int(k == j) for k in nodes)
        order = _reach((top,), lambda u: filter(None, low.setdefault(
            u, [root_operator_f(rs, i, u) for i in nodes])))
        rows = _rows(rs, order, low)  # its edges are the rows' f_i entries, in vertex order
        edges = tuple((u, order[f], i) for n, u in enumerate(order)
                      for i, row in enumerate(rows, 1) if (f := row[n][0]) >= 0)
        memo[j] = CrystalGraph(tuple(order), edges, top), rows
    return memo[j]


def _product(rs, factors, memo, rows=True):
    """The top component of B(omega_j1) * B(omega_j2) * ... for the nodes j
    in ``factors``, in Littelmann's order, searched by ``_pairs`` on the two
    halves' components: its edges (u, v, i) between the numbers of its vertices
    in breadth-first order and (if ``rows``) its rows; memoised in ``memo``."""
    if len(factors) == 1:
        return None, _fundamental(rs, factors[0])[1]
    if factors not in memo:
        half = len(factors) // 2
        rows1, rows2 = (_product(rs, h, memo)[1]
                        for h in (factors[:half], factors[half:]))
        order, edges = _pairs(rows1, rows2, ((0, 0),))
        index = {v: n for n, v in enumerate(order)}
        edges = [(index[u], index[v], i) for u, v, i in edges]
        memo[factors] = edges, None
        if rows:
            f, table = {(u, i): v for u, v, i in edges}, [[] for _ in rows1]
            for n, (x, y) in enumerate(order):
                for i, (r1, r2, row) in enumerate(zip(rows1, rows2, table), 1):
                    (_, e1, p1), (_, e2, p2) = r1[x], r2[y]
                    row.append((f.get((n, i), -1), e1 + max(0, e2 - p1), p2 + max(0, p1 - e2)))
            memo[factors] = edges, table
    return memo[factors]


def build_crystal(rs: RootSystem, lam) -> CrystalGraph:
    """B(lam): the closure of the straight path to ``lam`` under all lowering
    operators, vertices in breadth-first order (nodes 1..rank from each).

    It is searched as the top component of B(omega_1)^lam_1 *
    B(omega_2)^lam_2 * ..., one factor per unit of lam in Littelmann's
    concatenation order, bracketed in halves (see ``_product``) so that each
    step reads two factors by the pair rule (``_pairs``), the concatenation
    rule (f_i acts on the last factor k of least H_k - eps_i(b_k), H_k the
    height where it starts) on two factors.  That component is B(lam) by the
    isomorphism theorem (Littelmann, Ann. Math. 1995), so its graph and search
    order are the closure's; a vertex's path is f_i of its parent's along its
    discovery edge, the first edge that reaches it.  For |lam| <= 1 the
    closure itself is run.  RuntimeError up front when dim V(lam) (Weyl) is
    over ``_VERTEX_BUDGET`` vertices: a count, not a memory bound (A2 (99, 99) is
    exactly 10^6 vertices, and its build runs out of a 512 MB address-space cap)."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    rho = (1,) * rs.rank  # prod (lam + rho)(h_alpha) / rho(h_alpha) = dim V(lam)
    if prod(rs.pairings([c + 1 for c in lam])) > _VERTEX_BUDGET * prod(rs.pairings(rho)):
        raise RuntimeError("vertex budget exceeded")
    factors = tuple(j for j, c in enumerate(lam, 1) for _ in range(c))
    if len(factors) <= 1:  # the closure of omega_j, or of omega_0 = 0: one vertex
        return _fundamental(rs, sum(factors))[0]
    edges = _product(rs, factors, {}, rows=False)[0]
    paths = [Path.straight(lam)]
    for u, v, i in edges:
        if v == len(paths):  # the discovery edge of v
            paths.append(root_operator_f(rs, i, paths[u]))
    return CrystalGraph(tuple(paths), tuple((paths[u], paths[v], i) for u, v, i in edges),
                        paths[0])


def tensor_crystal(rs: RootSystem, b1: CrystalGraph, b2: CrystalGraph) -> CrystalGraph:
    """Concatenation model of the tensor product: vertices are the paths u*v,
    u of b1 outer and v of b2 inner, in Littelmann's order.  The pair rule:
    on a pair (b_1, b_2), f_i acts on b_1 if phi_i(b_1) > eps_i(b_2), else on
    b_2, and the arrow is dropped when that f_i is undefined or not a vertex
    of its factor.  ``build_crystal`` and ``tensor_crystal`` both use it; f_i,
    eps_i and phi_i come from the paths, not the factors' edges.  RuntimeError
    before any concatenation when the product has over ``_VERTEX_BUDGET`` vertices.
    The order can decide a component (the README's "Conventions" has one)."""
    n1, n2 = len(b1.vertices), len(b2.vertices)
    if n1 * n2 > _VERTEX_BUDGET:
        raise RuntimeError("vertex budget exceeded")
    verts = [u.concat(v) for u in b1.vertices for v in b2.vertices]
    if len(set(verts)) != n1 * n2:
        raise ValueError("distinct pairs of vertices give equal concatenations")
    _, arrows = _pairs(_rows(rs, b1.vertices), _rows(rs, b2.vertices),
                       itertools.product(range(n1), range(n2)))
    edges = tuple((verts[x * n2 + y], verts[c * n2 + d], i) for (x, y), (c, d), i in arrows)
    tops = (b1.highest, b2.highest)
    return CrystalGraph(tuple(verts), edges, None if None in tops else tops[0].concat(tops[1]))


def _edge_maps(b: CrystalGraph):
    fmap = {(u, i): v for u, v, i in b.edges}
    if len(fmap) != len(b.edges) or len({(v, i) for _, v, i in b.edges}) != len(b.edges):
        raise ValueError("two arrows of one label leave or enter one vertex")
    return fmap


def demazure_subcrystal(rs: RootSystem, b: CrystalGraph, word, lam) -> CrystalGraph:
    """Subgraph of the word's Demazure subcrystal: starting from the set
    {highest vertex}, saturate by full f_i-strings for each letter of the
    word, rightmost letter first.  A vertex survives exactly when maximal
    raisings e_i^max applied letter by letter (leftmost letter last) return
    it to the highest vertex.

    Saturating by whole strings matters: a vertex may enter through the
    interior of a string whose head lies above the extremal vertex, so the
    result can be strictly larger than what raising walks from the extremal
    vertex reach, and it grows monotonically as letters are appended."""
    lam = tuple(lam)
    fmap = _edge_maps(b)
    top = b.highest if b.highest is not None else _vertex_of_weight(b, lam)
    if top.weight() != lam:
        raise ValueError("highest vertex has weight %r, expected %r"
                         % (top.weight(), lam))
    # words that are not reduced fail to land on the reflected weight
    u = top
    for i in reversed(tuple(word)):
        rs.check_node(i)
        while (u, i) in fmap:
            u = fmap[(u, i)]
    target = tuple(rs.weyl_apply(tuple(word), lam))
    if u.weight() != target:
        raise ValueError("extremal weight %r not reached (got %r)"
                         % (target, u.weight()))
    keep = (top,)
    for i in reversed(tuple(word)):
        keep = _reach(keep, lambda u: (fmap[(u, i)],) if (u, i) in fmap else ())
    return _restrict(b, set(keep))


def _vertex_of_weight(b: CrystalGraph, weight) -> Path:
    """The unique vertex of the given weight; ValueError when there is none or more."""
    matches = [v for v in b.vertices if v.weight() == weight]
    if len(matches) != 1:
        raise ValueError("%d vertices of weight %r" % (len(matches), weight))
    return matches[0]


def _restrict(b: CrystalGraph, keep) -> CrystalGraph:
    """The subgraph on the vertex set keep, vertices and edges in b's order."""
    return CrystalGraph(tuple(v for v in b.vertices if v in keep),
                        tuple(e for e in b.edges if e[0] in keep and e[1] in keep),
                        b.highest if b.highest in keep else None)


def _undirected(b: CrystalGraph):
    """The neighbours of a vertex, arrows taken both ways, as a function."""
    adj = collections.defaultdict(list)
    for u, v, _ in b.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj.__getitem__


def component_of(b: CrystalGraph, weight) -> CrystalGraph:
    """Undirected connected component of the unique vertex of the given weight."""
    start = _vertex_of_weight(b, tuple(weight))
    return _restrict(b, set(_reach((start,), _undirected(b))))


def filter_arrows(b: CrystalGraph, nodes) -> CrystalGraph:
    nodes = set(nodes)
    return CrystalGraph(b.vertices, tuple(e for e in b.edges if e[2] in nodes), b.highest)


def weight_graph(b: CrystalGraph):
    """Collapse the graph to the weight level: vertices become the distinct
    weights (multiplicities dropped), edges the distinct triples
    (source weight, target weight, label).

    This is the bullet-diagram view, useful for eyeballing small examples.
    It is a lossy projection, not a crystal: two vertices of equal weight
    are merged, so string lengths and the weight rule for eps/phi are not
    preserved."""
    weights = tuple(sorted({v.weight() for v in b.vertices}))
    edges = tuple(sorted({(u.weight(), v.weight(), i) for u, v, i in b.edges}))
    return weights, edges


@dataclass(frozen=True)
class DecompositionPiece:
    weight: tuple       # source weight restricted to the kept nodes
    size: int           # vertices in each component
    count: int          # number of such components


def crystal_decomposition(b: CrystalGraph, nodes):
    """Split the graph along arrows labeled by ``nodes`` and report each
    component by the weight of its unique source (restricted to the nodes),
    its vertex count, and its multiplicity."""
    for i in (nodes := tuple(nodes)):  # each node, before True == 1 merges them
        if b.vertices and (type(i) is not int or not 1 <= i <= b.vertices[0].rank):
            raise ValueError("node %r is not a finite node" % (i,))
    nodes = tuple(sorted(set(nodes)))
    fb = filter_arrows(b, nodes)
    incoming = collections.Counter(v for _, v, _ in fb.edges)
    pieces = collections.Counter()
    step, remaining = _undirected(fb), set(fb.vertices)
    while remaining:  # one connected component per round
        comp = set(_reach((remaining.pop(),), step))
        remaining -= comp
        sources = [v for v in comp if incoming[v] == 0]
        if len(sources) != 1:
            raise ValueError("component with %d sources" % len(sources))
        wt = sources[0].weight()
        pieces[(tuple(wt[i - 1] for i in nodes), len(comp))] += 1
    return tuple(DecompositionPiece(w, s, c)
                 for (w, s), c in sorted(pieces.items()))


def to_dot(b: CrystalGraph) -> str:
    index = {v: pos for pos, v in enumerate(b.vertices)}
    lines = ['  v%d [label="%s"];' % (pos, str(v.weight())) for v, pos in index.items()]
    lines += ['  v%d -> v%d [label="%d"];' % (index[u], index[v], i) for u, v, i in b.edges]
    return "\n".join(["digraph crystal {", *lines, "}"]) + "\n"
