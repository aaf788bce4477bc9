"""The five benchmark workloads: seeded decks, timed items and oracles.

Every workload offers the same five hooks:

* ``systems``: the root systems it uses, built during set-up;
* ``deck(rng, systems)``: the items of one pass, drawn from a fixed
  universe by the seeded ``rng`` (set-up, untimed);
* ``run(item, ctx)``: one item, the only timed call into the library;
* ``summarize(item, out)``: plain data taken from the output, untimed;
* ``check(item, summary, ctx)``: independent oracles, run after the timed
  loop so that they cannot warm a cache the timed loop then uses;
* ``corrupt(item, summary)``: a wrong copy of a summary, for the negative
  control, or None when the summary has nothing to corrupt;

and ``probe_inside``, whether the speed probes may run in the middle of
an item (see ``passrun.Speed``).

A summary carries ``parts``: (group, member, digest) triples, computed by
``parts(item, summary)`` from the summary's own fields, so that a
corrupted summary gets the digests of its corrupted data.  The digest
of a group is compared against ``golden.json``, written from the same
code by ``make_golden.py``.  Items are drawn so that the mix of costs in a
pass is the same for every seed: one item from each band of similar
cost, or one weight from each Weyl orbit.  That keeps throughput and
percentiles comparable across seeds while the seed still picks the
actual inputs and their order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict

from demazure import admissibility, characters, crystal, relations, weights


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def type_name(family, rank):
    return "%s%d" % (family, rank)


def _coords(t):
    return ",".join(str(c) for c in t)


def _char_terms(ch):
    return tuple((fin, lvl, grade, mult)
                 for (fin, lvl, grade), mult in ch.sorted_terms())


# -- embedding-scan ----------------------------------------------------------

class EmbeddingScan:
    """r-admissibility and embedding certificates over rank-3 and G2 boxes.

    A deck takes every weight of a Weyl orbit that meets the box in at most
    SMALL_ORBIT weights, and one seed-chosen weight of every larger one,
    and runs all their dominant-split candidates in one seed-shuffled
    order.  The number of candidates is the same for every seed.  Within a
    small orbit the cost differs up to sixfold between weights, so drawing
    one of them would make the cost of a deck depend on the seed.
    """

    name = "embedding-scan"
    probe_inside = True
    BOXES = (("A", 3, 2), ("G", 2, 2), ("B", 3, 1), ("C", 3, 1))
    systems = tuple((f, n) for f, n, _ in BOXES)
    SMALL_ORBIT = 4

    def _orbits(self, rs, bound):
        orbits = defaultdict(list)
        for mu in itertools.product(range(-bound, bound + 1), repeat=rs.rank):
            orbits[weights.finite_dominance(rs, mu)[0]].append(mu)
        return [orbits[lam] for lam in sorted(orbits)]

    def _candidates(self, family, rank, rs, mu):
        lam, word = weights.finite_dominance(rs, mu)
        out = []
        for k in (1, 2, 3):
            for split in admissibility.enumerate_dominant_splits(rs, lam, k):
                cand = admissibility.pull_back(rs, word, split)
                for r in (1, 2):
                    out.append((family, rank, mu, cand, r))
        return out

    def deck(self, rng, systems):
        items = []
        for family, rank, bound in self.BOXES:
            rs = systems[(family, rank)]
            for orbit in self._orbits(rs, bound):
                for mu in orbit if len(orbit) <= self.SMALL_ORBIT else [rng.choice(orbit)]:
                    items.extend(self._candidates(family, rank, rs, mu))
        rng.shuffle(items)
        return items

    def universe(self, systems):
        items = []
        for family, rank, bound in self.BOXES:
            rs = systems[(family, rank)]
            for orbit in self._orbits(rs, bound):
                for mu in orbit:
                    items.extend(self._candidates(family, rank, rs, mu))
        return items

    def run(self, item, ctx):
        family, rank, mu, split, r = item
        rs = ctx.systems[(family, rank)]
        rep = admissibility.is_r_admissible(rs, mu, split, r)
        cert = characters.embedding_certificate(rs, mu, split, r) if rep.admissible else None
        return rep.admissible, cert

    def summarize(self, item, out):
        family, rank, mu, split, r = item
        admissible, cert = out
        result = None
        if cert is not None:
            result = (cert.certified, cert.split_admissible, cert.failures,
                      digest(_char_terms(cert.lhs)), digest(_char_terms(cert.rhs)))
        s = {"admissible": admissible, "cert": result}
        s["parts"] = self.parts(item, s)
        return s

    def parts(self, item, s):
        family, rank, mu, split, r = item
        group = "%s:%s" % (type_name(family, rank), _coords(mu))
        return [(group, repr((split, r)), digest((s["admissible"], s["cert"])))]

    def check(self, item, s, ctx):
        if not s["admissible"]:
            return [] if s["cert"] is None else ["certificate for an inadmissible split"]
        if s["cert"] is None:
            return ["admissible split without a certificate"]
        certified, split_admissible, failures, _, _ = s["cert"]
        if not (certified and split_admissible and not failures):
            return ["admissible split does not certify"]
        return []

    def corrupt(self, item, s):
        bad = dict(s)
        bad["admissible"] = True
        bad["cert"] = (False, True, (((0,), 0, 1, 0),), "0", "0")
        bad["parts"] = self.parts(item, bad)
        return bad


# -- module-sweep ------------------------------------------------------------

class ModuleSweep:
    """One graded character and its g0 branching per module, no reuse.

    The modules are anti-dominant weights (whose modules are stable under
    the finite Lie algebra, so branching on all finite nodes is defined),
    cheapest first, then twelve more around the median.  Every deck holds all of them and the seed sets their
    order.  Their costs run evenly from 8 to 430 ms, so a seeded subset
    would move the median item with the seed.
    """

    name = "module-sweep"
    probe_inside = True
    MODULES = (
        ("A", 1, (-9,), 1), ("G", 2, (-2, -1), 2), ("A", 2, (-2, -3), 1),
        ("G", 2, (0, -2), 1), ("A", 2, (-3, -3), 2), ("C", 2, (-3, -2), 2),
        ("B", 3, (-1, -1, 0), 1), ("A", 2, (-3, -2), 1), ("B", 3, (0, -1, -1), 1),
        ("A", 3, (-1, -1, -2), 2), ("A", 1, (-10,), 1), ("G", 2, (-1, -2), 2),
        ("C", 3, (0, 0, -2), 1), ("D", 4, (0, -1, -1, 0), 2), ("B", 3, (-1, 0, -2), 2),
        ("D", 4, (0, -1, 0, -1), 2), ("C", 2, (-2, -3), 2), ("G", 2, (-2, -1), 1),
        ("B", 3, (-1, 0, -2), 1), ("A", 3, (-3, 0, -2), 2), ("B", 3, (-2, 0, -1), 1),
        ("D", 4, (0, -1, -1, 0), 1), ("C", 3, (-1, -1, -1), 2), ("A", 2, (-4, -2), 1),
        ("D", 4, (0, -1, 0, -1), 1), ("B", 3, (-1, -1, -1), 2), ("A", 2, (-3, -3), 1),
        ("A", 3, (-1, -1, -2), 1), ("C", 2, (-3, -2), 1), ("C", 2, (-3, -3), 2),
        ("C", 2, (-2, -3), 1), ("C", 3, (-1, -1, -1), 1), ("C", 3, (0, -1, -2), 2),
        ("A", 2, (-4, -4), 2), ("G", 2, (-1, -2), 1), ("G", 2, (-2, -2), 2),
        ("A", 2, (-4, -3), 1), ("D", 4, (0, -1, -1, -1), 2), ("A", 2, (-3, -4), 1),
        ("C", 3, (-2, 0, -2), 2), ("B", 3, (-1, -1, -1), 1), ("D", 4, (-1, -1, 0, -1), 2),
        ("B", 3, (-1, -2, 0), 2), ("D", 4, (-1, -1, -1, 0), 2), ("A", 3, (-1, -3, -1), 2),
        ("A", 3, (-3, 0, -2), 1), ("C", 2, (-3, -3), 1), ("A", 2, (-4, -4), 1),
        ("C", 3, (0, -1, -2), 1), ("A", 3, (-2, -2, -2), 2), ("D", 4, (0, -1, -1, -1), 1),
        ("C", 3, (-1, -2, -1), 2), ("G", 2, (-2, -2), 1), ("A", 3, (-2, -1, -3), 2),
        ("D", 4, (-1, -1, 0, -1), 1), ("B", 3, (-1, -2, 0), 1),
        ("D", 4, (-1, -1, -1, 0), 1), ("C", 3, (-2, 0, -2), 1), ("A", 3, (-1, -3, -1), 1),
        ("C", 3, (-1, -2, -1), 1), ("A", 3, (-2, -1, -3), 1), ("A", 3, (-2, -2, -3), 2),
        ("C", 3, (-2, -1, -2), 2),
        # 45 to 75 ms each, so that many modules sit near the median and one
        # slow moment of the machine cannot move it
        ("C", 3, (0, -2, -1), 2), ("B", 3, (0, -1, -2), 1), ("D", 4, (0, 0, -2, -1), 1),
        ("B", 3, (0, -2, -1), 2), ("G", 2, (-3, -1), 1), ("C", 3, (-1, 0, -2), 1),
        ("D", 4, (-2, 0, -1, 0), 1), ("B", 3, (-2, -1, 0), 1), ("D", 4, (-1, 0, -1, -1), 1),
        ("D", 4, (0, -2, 0, 0), 1), ("G", 2, (0, -3), 1), ("C", 3, (0, -2, -1), 1),
    )
    systems = tuple(sorted({(f, n) for f, n, _, _ in MODULES}))

    def deck(self, rng, systems):
        items = list(self.MODULES)
        rng.shuffle(items)
        return items

    def universe(self, systems):
        return list(self.MODULES)

    def run(self, item, ctx):
        family, rank, mu, k = item
        rs = ctx.systems[(family, rank)]
        ch = characters.demazure_character(rs, mu, k)
        branch = characters.g0_branch(rs, ch, range(1, rank + 1))
        return ch, branch

    def summarize(self, item, out):
        family, rank, mu, k = item
        ch, branch = out
        terms = _char_terms(ch)
        records = tuple((b.finite, b.level, b.grade, b.multiplicity, b.dimension)
                        for b in branch)
        s = {"terms": terms, "records": records}
        s["parts"] = self.parts(item, s)
        return s

    def parts(self, item, s):
        family, rank, mu, k = item
        key = "%s:%s:%d" % (type_name(family, rank), _coords(mu), k)
        return [(key, "", digest((s["terms"], s["records"])))]

    def check(self, item, s, ctx):
        family, rank, mu, k = item
        errors = []
        terms, records = s["terms"], s["records"]
        dim = sum(mult for _, _, _, mult in terms)
        if any(mult <= 0 or grade < 0 for _, _, grade, mult in terms):
            errors.append("nonpositive multiplicity or negative grade")
        extremal = sum(mult for fin, lvl, grade, mult in terms
                       if fin == mu and lvl == k and grade == 0)
        if extremal != 1:
            errors.append("extremal coefficient %d" % extremal)
        if sum(mult * d for _, _, _, mult, d in records) != dim:
            errors.append("branching dimensions do not sum to %d" % dim)
        if family == "A" and k == 1:
            # Chari-Loktev: the level-1 module of -sum m_i w_i has dimension
            # prod C(n+1, i)^m_i.
            want = math.prod(math.comb(rank + 1, i + 1) ** -m for i, m in enumerate(mu))
            if dim != want:
                errors.append("dimension %d, want %d" % (dim, want))
        if family == "A" and rank == 1 and k == 1:
            # sl2 local Weyl module: weight n-2j carries the q-binomial [n, j]_q
            # over the grades.
            n = -mu[0]
            got = defaultdict(dict)
            for fin, _, grade, mult in terms:
                got[fin[0]][grade] = mult
            for j in range(n + 1):
                row = got.pop(n - 2 * j, {})
                want = dict((g, c) for g, c in enumerate(_q_binomial(n, j)) if c)
                if row != want:
                    errors.append("weight %d is not [%d, %d]_q" % (n - 2 * j, n, j))
            if got:
                errors.append("weights outside the q-binomial range")
        return errors

    def corrupt(self, item, s):
        bad = dict(s)
        fin, lvl, grade, mult = s["terms"][0]
        bad["terms"] = ((fin, lvl, grade, mult + 1),) + s["terms"][1:]
        bad["parts"] = self.parts(item, bad)
        return bad


def _q_binomial(n, j):
    """Coefficients of the Gaussian binomial [n, j]_q, lowest degree first."""
    row = [[1]]  # row[i] = [m, i]_q for the current m
    for m in range(1, n + 1):
        new = []
        for i in range(min(m, j) + 1):
            # [m, i] = [m-1, i-1] + q^i [m-1, i]
            a = row[i - 1] if i >= 1 else [0]
            b = row[i] if i < len(row) else [0]
            out = [0] * max(len(a), len(b) + i)
            for d, c in enumerate(a):
                out[d] += c
            for d, c in enumerate(b):
                out[d + i] += c
            new.append(out)
        row = new
    return row[j] if j < len(row) else [0]


# -- crystal-check -----------------------------------------------------------

def _reflect(cartan, i, mu):
    c = mu[i - 1]
    return tuple(mu[j] - c * cartan[j][i - 1] for j in range(len(mu)))


def reduced_word(rs, rng, length):
    """A random reduced word of at most the given length.

    Prepending i to w keeps the word reduced exactly when w.rho pairs
    positively with the i-th simple coroot, so the walk tracks w.rho.
    """
    mu = (1,) * rs.rank
    word = ()
    for _ in range(length):
        choices = [i for i in range(1, rs.rank + 1) if mu[i - 1] > 0]
        if not choices:
            break
        i = rng.choice(choices)
        mu = _reflect(rs.cartan, i, mu)
        word = (i,) + word
    return word


class CrystalCheck:
    """Path crystals: the full crystal, a Demazure subcrystal, and the
    component of a tensor product of two small Demazure subcrystals.

    Every deck holds the FIXED weights, each with its own reduced word and
    tensor pair: D4 (1,1,1,1), the largest crystal here at 4,096
    vertices, and 27 weights of 50 to 600 vertices around the median and
    the tail of the item times.  The seed draws one weight from each of BANDS,
    heavy weights of similar cost, with one of four fixed reduced words of
    the type and one of three fixed tensor pairs, and the order of the
    items.  Within one cheap band the cost still differs twofold, so a
    seeded choice there would move the median item with the seed.
    """

    name = "crystal-check"
    probe_inside = True
    FIXED = (("D", 4, (1, 1, 1, 1)), ("C", 3, (1, 1, 1)), ("D", 4, (1, 0, 1, 1)),
             ("F", 4, (0, 0, 1, 0)), ("G", 2, (1, 2)), ("B", 3, (0, 2, 0)),
             ("A", 3, (2, 2, 0)), ("B", 3, (0, 1, 1)), ("A", 3, (0, 2, 1)),
             ("F", 4, (1, 0, 0, 0)), ("C", 3, (1, 0, 1)), ("G", 2, (0, 2)),
             ("D", 4, (0, 0, 1, 1)), ("G", 2, (1, 1)),
             # weights of 50 to 190 vertices, so that many items sit near
             # the median and one slow moment of the machine cannot move it
             ("A", 3, (0, 3, 0)), ("C", 3, (3, 0, 0)), ("D", 4, (1, 0, 0, 1)),
             ("A", 3, (1, 1, 1)), ("B", 3, (3, 0, 0)), ("G", 2, (3, 0)),
             ("C", 3, (0, 0, 2)), ("B", 3, (1, 1, 0)), ("D", 4, (3, 0, 0, 0)),
             ("C", 3, (0, 1, 1)), ("A", 3, (1, 1, 2)), ("G", 2, (2, 1)),
             ("B", 3, (1, 0, 2)), ("D", 4, (0, 1, 0, 1)))
    BANDS = ((("B", 3, (0, 2, 1)), ("D", 4, (0, 0, 2, 2)), ("D", 4, (0, 1, 1, 1))),
             (("C", 3, (0, 1, 2)), ("A", 3, (2, 2, 2))))
    # fundamental weights whose crystals have at most 26 vertices
    SMALL = {"A3": (1, 2, 3), "B3": (1, 3), "C3": (1, 3), "G2": (1, 2),
             "D4": (1, 3, 4), "F4": (4,)}
    WORD_LENGTHS = (1, 3, 5, 8)
    N_PAIRS = 3
    systems = tuple(sorted({(f, n) for f, n, _ in FIXED + sum(BANDS, ())}))

    def __init__(self):
        self._words = {}
        self._pairs = {}

    def _fixed(self, rs):
        """The type's reduced words and tensor pairs, the same for every seed."""
        t = type_name(rs.family, rs.rank)
        if t not in self._words:
            rng = random.Random("crystal-words:" + t)
            self._words[t] = tuple(reduced_word(rs, rng, n) for n in self.WORD_LENGTHS)
            pairs = []
            for _ in range(self.N_PAIRS):
                factors = []
                for _ in range(2):
                    node = rng.choice(self.SMALL[t])
                    lam = tuple(int(j == node - 1) for j in range(rs.rank))
                    factors.append((lam, reduced_word(rs, rng, rng.randint(1, 3))))
                pairs.append(tuple(factors))
            self._pairs[t] = tuple(pairs)
        return self._words[t], self._pairs[t]

    def _item(self, rs, lam, w, p):
        words, pairs = self._fixed(rs)
        return (rs.family, rs.rank, lam, w, words[w], p, pairs[p])

    def _fixed_items(self, systems):
        n_words = len(self.WORD_LENGTHS)
        return [self._item(systems[(f, n)], lam, j % n_words, j % n_words % self.N_PAIRS)
                for j, (f, n, lam) in enumerate(self.FIXED)]

    def deck(self, rng, systems):
        items = self._fixed_items(systems)
        for family, rank, lam in (rng.choice(band) for band in self.BANDS):
            items.append(self._item(systems[(family, rank)], lam,
                                    rng.randrange(len(self.WORD_LENGTHS)),
                                    rng.randrange(self.N_PAIRS)))
        rng.shuffle(items)
        return items

    def universe(self, systems):
        items = self._fixed_items(systems)
        for family, rank, lam in sum(self.BANDS, ()):
            rs = systems[(family, rank)]
            for w in range(len(self.WORD_LENGTHS)):
                items.append(self._item(rs, lam, w, w % self.N_PAIRS))
        return items

    def run(self, item, ctx):
        family, rank, lam, _, word, _, ((lam1, word1), (lam2, word2)) = item
        rs = ctx.systems[(family, rank)]
        full = crystal.build_crystal(rs, lam)
        sub = crystal.demazure_subcrystal(rs, full, word, lam)
        sub1 = crystal.demazure_subcrystal(rs, crystal.build_crystal(rs, lam1), word1, lam1)
        sub2 = crystal.demazure_subcrystal(rs, crystal.build_crystal(rs, lam2), word2, lam2)
        top = tuple(a + b for a, b in zip(lam1, lam2))
        comp = crystal.component_of(crystal.tensor_crystal(rs, sub1, sub2), top)
        return full, sub, comp

    @staticmethod
    def _graph(b):
        """The vertex weights in discovery order and the edges as (source
        index, target index, label): what ``crystal.to_dot`` prints."""
        index = {v: n for n, v in enumerate(b.vertices)}
        return (tuple(v.weight() for v in b.vertices),
                tuple((index[u], index[v], i) for u, v, i in b.edges))

    def summarize(self, item, out):
        full, sub, comp = out
        s = {"crystal": self._graph(full), "sub": self._graph(sub), "comp": self._graph(comp)}
        s["parts"] = self.parts(item, s)
        return s

    def parts(self, item, s):
        family, rank, lam, w, _, p, _ = item
        t = type_name(family, rank)
        return [("build:%s:%s" % (t, _coords(lam)), "", digest(s["crystal"])),
                ("sub:%s:%s:%d" % (t, _coords(lam), w), "", digest(s["sub"])),
                ("tensor:%s:%d" % (t, p), "", digest(s["comp"]))]

    def check(self, item, s, ctx):
        family, rank, lam = item[:3]
        rs = ctx.systems[(family, rank)]
        weights, edges = s["crystal"]
        want = {fin: mult for (fin, _, _), mult in
                characters.finite_character(rs, lam).terms.items()}
        if Counter(weights) != want:
            return ["vertex weights differ from the finite character"]
        # string lengths read off the graph: phi_i(v) - eps_i(v) = <wt v, h_i>.
        # Each i-string is a chain; walking it from its head gives eps as the
        # position and phi as the length left.
        down, up = {}, set()
        for u, v, i in edges:
            down[(u, i)] = v
            up.add((v, i))
        seen = 0
        for i in range(1, rank + 1):
            for head in range(len(weights)):
                if (head, i) in up:
                    continue
                chain = [head]
                while (chain[-1], i) in down and len(chain) <= len(weights):
                    chain.append(down[(chain[-1], i)])
                seen += len(chain)
                for eps, n in enumerate(chain):
                    if len(chain) - 1 - 2 * eps != weights[n][i - 1]:
                        return ["phi - eps != <wt, h_%d> at weight %r" % (i, weights[n])]
        if seen != rank * len(weights):
            return ["an i-string is not a chain"]
        if not 1 <= len(s["sub"][0]) <= len(weights):
            return ["subcrystal size out of range"]
        return []

    def corrupt(self, item, s):
        """Drop the last vertex found, with its edges."""
        weights, edges = s["crystal"]
        gone = len(weights) - 1
        bad = dict(s)
        bad["crystal"] = (weights[:-1], tuple(e for e in edges if gone not in e[:2]))
        bad["parts"] = self.parts(item, bad)
        return bad


# -- relations-growth --------------------------------------------------------

class RelationsGrowth:
    """All four relation sets of a presentation.

    Every pass carries the box-walk-bound presentations (A1 mu = (-x,) at
    k = 1 for x = 6..9, and C2 (-6, 0)); x = 10 takes about 15 s on its
    own and is left out for run length.  The rest are cheap presentations
    over types A to G, sixteen per type, drawn from a fixed universe of
    small weights whose largest relation family has at most four slots.
    A1 has only nine, and those of E7 and E8 are all taken: the dearest of
    them cost about as much as the cheapest box-walk presentations, so
    drawing them would move the tail with the seed.
    """

    name = "relations-growth"
    probe_inside = True
    HEAVY = tuple(("A", 1, (-x,), "demazure", 1) for x in (6, 7, 8, 9)) + \
        (("C", 2, (-6, 0), "demazure", 1),)
    CHEAP_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
                   ("C", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8), ("F", 4),
                   ("G", 2))
    PRESETS = (("demazure", 1), ("demazure", 2), ("demazure", 3), ("weyl", 1),
               ("genweyl", 2))
    PER_TYPE = 24
    DRAW = 16
    WHOLE = (("E", 7), ("E", 8))
    MAX_SLOTS = 4
    systems = tuple(sorted(set(CHEAP_TYPES) | {("C", 2)}))

    def __init__(self):
        self._cheap = {}

    def _cheap_universe(self, rs):
        t = type_name(rs.family, rs.rank)
        if t in self._cheap:
            return self._cheap[t]
        mus = []
        for support in (1, 2):
            for nodes in itertools.combinations(range(rs.rank), support):
                for signs in itertools.product((-1, 1), repeat=support):
                    mu = [0] * rs.rank
                    for node, sign in zip(nodes, signs):
                        mu[node] = sign
                    mus.append(tuple(mu))
        out = []
        for mu in mus:
            for preset, k in self.PRESETS:
                if preset == "weyl" and any(c > 0 for c in mu):
                    continue
                if self._slots(rs, mu, preset, k) <= self.MAX_SLOTS:
                    out.append((rs.family, rs.rank, mu, preset, k))
        random.Random("relations-universe:" + t).shuffle(out)
        self._cheap[t] = tuple(out[:self.PER_TYPE])
        return self._cheap[t]

    @staticmethod
    def _p(rs, mu, preset, k, root, sign):
        """p_alpha^sign as a function, from the definitions of the presets."""
        x = sum(m * c for m, c in zip(mu, rs.coroot_vector(root)))
        b = -x if sign == "+" else x
        if preset == "demazure":
            step = rs.d(root) * k
            return lambda s: max(0, b - step * s)
        if preset == "weyl":
            return (lambda s: max(0, b - s)) if sign == "+" else (lambda s: 0)
        if sign == "+":
            return lambda s: max(0, b - s)
        return lambda s: max(0, b) if s == 0 else max(0, b - s + 1)

    @staticmethod
    def _slots(rs, mu, preset, k):
        """Largest cutoff of any p family of the presentation, which is the
        number of slots its minimal-tuple walk ranges over."""
        worst = 0
        for root in rs.positive_roots:
            x = sum(m * c for m, c in zip(mu, rs.coroot_vector(root)))
            if preset == "demazure":
                worst = max(worst, -(-abs(x) // (rs.d(root) * k)))
            elif preset == "weyl":
                worst = max(worst, -x)
            else:
                worst = max(worst, x + 1 if x > 0 else -x)
        return worst

    def deck(self, rng, systems):
        items = list(self.HEAVY)
        for family, rank in self.CHEAP_TYPES:
            cheap = self._cheap_universe(systems[(family, rank)])
            n = len(cheap) if (family, rank) in self.WHOLE else min(self.DRAW, len(cheap))
            items.extend(rng.sample(cheap, n))
        rng.shuffle(items)
        return items

    def universe(self, systems):
        items = list(self.HEAVY)
        for family, rank in self.CHEAP_TYPES:
            items.extend(self._cheap_universe(systems[(family, rank)]))
        return items

    def run(self, item, ctx):
        family, rank, mu, preset, k = item
        rs = ctx.systems[(family, rank)]
        if preset == "demazure":
            fam = relations.demazure_p(rs, mu, k)
        elif preset == "weyl":
            fam = relations.weyl_p(rs, mu)
        else:
            fam = relations.generalized_weyl_p(rs, mu)
        return (relations.relations_M(fam), relations.relations_Mprime(fam),
                relations.relations_Mpp(fam),
                relations.simplified_demazure_relations(rs, mu, k))

    def summarize(self, item, out):
        family, rank, mu, preset, k = item
        sets = tuple(tuple((r.root.coords, r.sign, r.factors, r.kind, r.index, r.tags)
                           for r in rels) for rels in out)
        s = {"sets": sets}
        s["parts"] = self.parts(item, s)
        return s

    def parts(self, item, s):
        family, rank, mu, preset, k = item
        key = "%s:%s:%s:%d" % (type_name(family, rank), _coords(mu), preset, k)
        return [(key, "", digest(s["sets"]))]

    def check(self, item, s, ctx):
        family, rank, mu, preset, k = item
        rs = ctx.systems[(family, rank)]
        roots = {root.coords: root for root in rs.positive_roots}
        for coords, sign, factors, kind, i, _ in s["sets"][0]:
            if kind != "tuple" or i is None or i < 1:
                return ["M holds a relation that is not an indexed tuple"]
            target = self._p(rs, mu, preset, k, roots[coords], sign)(i) + 1
            weight = sum((deg - i + 1) * a for deg, a in factors)
            if weight < target:
                return ["M tuple below its bound p(%d) + 1" % i]
            if any(weight - (deg - i + 1) >= target for deg, _ in factors):
                return ["M tuple is not minimal"]
        return []

    def corrupt(self, item, s):
        M = s["sets"][0]
        if not M:
            return None
        bad = dict(s)
        coords, sign, factors, kind, i, tags = M[0]
        (deg, a), rest = factors[0], factors[1:]
        M = ((coords, sign, ((deg, a + 1),) + rest, kind, i, tags),) + M[1:]
        bad["sets"] = (M,) + s["sets"][1:]
        bad["parts"] = self.parts(item, bad)
        return bad


# -- cli-oneshot -------------------------------------------------------------

class CliOneshot:
    """The README invocations, each as its own ``python -m demazure``
    process, one at a time (a closed loop with one client).

    ``admissible`` and ``embed-check`` on the C2 split 1,1|1,0 at r = 1
    exit 1 because that split is not 1-admissible, and ``reproduce``
    exits 1 because ``worked-example-a2`` is red by design; those exit
    codes are the expected output.
    """

    name = "cli-oneshot"
    probe_inside = False  # the item runs in a child process
    INVOCATIONS = (
        ("rootdata", ("rootdata", "--type", "C", "--rank", "2"), 0),
        ("dominance", ("dominance", "--type", "A", "--rank", "2", "--mu", "1,-2",
                       "--level", "2"), 0),
        ("relations", ("relations", "--type", "A", "--rank", "1", "--mu=-2",
                       "--preset", "demazure", "--k", "1"), 0),
        ("admissible", ("admissible", "--type", "C", "--rank", "2", "--mu", "2,1",
                        "--split", "1,1|1,0", "--r", "1"), 1),
        ("split-search", ("split-search", "--type", "A", "--rank", "2", "--mu", "1,-2",
                          "--k", "2", "--find-1-admissible"), 0),
        ("char", ("char", "--type", "A", "--rank", "2", "--mu", "1,-2", "--level", "2",
                  "--json"), 0),
        ("embed-check", ("embed-check", "--type", "C", "--rank", "2", "--mu", "2,1",
                         "--split", "1,1|1,0", "--r", "1"), 1),
        ("crystal", ("crystal", "--type", "A", "--rank", "2", "--lambda", "1,0",
                     "--word", "2,1", "--tensor", "0,1:2", "--component-weight", "1,-2",
                     "--decompose", "2"), 0),
        ("reproduce", ("reproduce", "--paper-examples"), 1),
    )
    systems = ()

    def deck(self, rng, systems):
        items = list(self.INVOCATIONS)
        rng.shuffle(items)
        return items

    def universe(self, systems):
        return list(self.INVOCATIONS)

    def run(self, item, ctx):
        _, argv, _ = item
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "demazure", *argv]
        else:
            out = os.path.join(ctx.trace_dir, "cli-%d.json" % len(ctx.cli_reports))
            ctx.cli_reports.append(out)
            env["PERFBENCH_SPAWN_WALL"] = repr(time.time())
            cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "cliprobe.py"),
                   out, *argv]
        proc = subprocess.run(cmd, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        return proc.returncode, proc.stdout

    def summarize(self, item, out):
        code, stdout = out
        s = {"code": code, "stdout": stdout}
        s["parts"] = self.parts(item, s)
        return s

    def parts(self, item, s):
        return [(item[0], "", digest((s["code"], s["stdout"])))]

    def check(self, item, s, ctx):
        name, _, want_code = item
        errors = []
        if s["code"] != want_code:
            errors.append("exit code %d, want %d" % (s["code"], want_code))
        if name == "reproduce":
            lines = s["stdout"].decode(errors="replace").splitlines()
            rows = [ln.split(" : ", 1) for ln in lines[:-1]]
            verdicts = {n.strip(): v.split()[0] for n, v in rows if v.split()}
            fails = sorted(n for n, v in verdicts.items() if v != "PASS")
            if (len(rows) != 10 or fails != ["worked-example-a2"]
                    or lines[-1] != "9 of 10 criteria passed"):
                errors.append("reproduce table is not 9 PASS with "
                              "worked-example-a2 FAIL")
        return errors

    def corrupt(self, item, s):
        bad = dict(s)
        bad["code"] = 0 if s["code"] else 1
        bad["parts"] = self.parts(item, bad)
        return bad


WORKLOADS = {w.name: w for w in (EmbeddingScan(), ModuleSweep(), CrystalCheck(),
                                 RelationsGrowth(), CliOneshot())}


def golden_groups(summaries):
    """Group digest per golden key; a member seen twice must agree."""
    groups = defaultdict(dict)
    clash = set()
    for s in summaries:
        for group, member, d in s["parts"]:
            if groups[group].setdefault(member, d) != d:
                clash.add(group)
    return {g: digest(sorted(members.items())) for g, members in groups.items()}, clash



