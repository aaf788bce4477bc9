"""Graded characters, Demazure operators and g0 branching.

A character is a finite Z-linear combination of affine weights, stored as a
dict mapping (finite, level, grade) to an integer multiplicity.  ``finite``
is a tuple of fundamental-weight coordinates, ``level`` the central charge,
and ``grade`` the delta-coefficient measured so that the cyclic generator of
a module sits in grade 0.  Lowering by the affine simple root alpha_0 adds
theta to the finite part and drops the grade by one; for the characters
produced by ``demazure_character`` every grade is nonnegative and the
generating weight carries multiplicity 1.

``demazure_operator(rs, i, c)`` applies

    D_i(e^lam) = (e^lam - e^{s_i lam - alpha_i}) / (1 - e^{-alpha_i})

termwise, which for pairing m = lam(h_i) works out to

    m >= 0 : e^lam + e^{lam - alpha_i} + ... + e^{lam - m alpha_i}
    m = -1 : 0
    m <= -2: -(e^{lam + alpha_i} + ... + e^{lam - (m+1) alpha_i})

The operators are linear, idempotent, and satisfy the braid relations, so
compositions along reduced words depend only on the Weyl group element.
Every character is D along one dominance walk's word, and every operator
runs in one loop, ``_apply_word``, on a dict from an int to its
multiplicity.  The int packs a term's (finite, grade, h_0 pairing level -
finite(h_theta), level) in biased bit fields, the first lowest, too wide to
overflow: row i of ``rs._alphas``, packed, is the step of D_i, and m is field
i - 1 (field n + 1 for node 0).  The loop stops a character past
``_TERM_BUDGET`` output terms; one application stops before its strings
would emit more than that.  Products run in one loop too, ``_product``,
which ``tensor`` and ``embedding_certificate`` share: terms packed into ints
of signed fields, so a product of terms is a sum of ints.  ``g0_branch``
sums signs by Weyl's character formula; only a failing slice peels
characters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, compress, takewhile
from math import prod
from operator import add, ge, lshift, mul, sub
from threading import Lock

from .admissibility import AdmissibilityReport, is_r_admissible
from .rootdata import RootSystem
from .weights import AffineWeight, _walk, dominance_algorithm

_TERM_BUDGET = 3 * 10**5  # output terms summed over one character's operators
_MEMO_TERMS = 1 << 16  # terms the certificate memo keeps, summed over its characters


class GradedCharacter:
    """Z-linear combination of affine weights; zero terms are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {(tuple(fin), lvl, grade): mult
                      for (fin, lvl, grade), mult in (terms or {}).items() if mult}

    @classmethod
    def _adopt(cls, terms):
        """Wrap a finished dict, uncopied: tuple keys, no zero multiplicity."""
        char = object.__new__(cls)
        char.terms = terms
        return char

    @classmethod
    def from_weight(cls, finite, level, grade=0):
        return cls({(tuple(finite), level, grade): 1})

    def coefficient(self, finite, level, grade):
        return self.terms.get((tuple(finite), level, grade), 0)

    def dimension(self):
        return sum(self.terms.values())

    def sorted_terms(self):
        return tuple(sorted(self.terms.items(),
                            key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])))

    def scale(self, c):
        return GradedCharacter._adopt({key: c * m for key, m in self.terms.items() if c})

    def __add__(self, other):
        out = dict(self.terms)
        for key, mult in other.terms.items():
            out[key] = out.get(key, 0) + mult
        return GradedCharacter._adopt({key: mult for key, mult in out.items() if mult})

    def __sub__(self, other):
        return self + other.scale(-1)

    def tensor(self, other):
        """Convolution: finite parts, levels and grades all add (``_product``)."""
        if not (self.terms and other.terms):
            return GradedCharacter._adopt({})
        ranks = {len(f) for f, _, _ in self.terms} | {len(f) for f, _, _ in other.terms}
        if len(ranks) > 1:
            raise ValueError("tensor of characters of different ranks %r" % sorted(ranks))
        n = ranks.pop()
        flats = [tuple(chain.from_iterable((*fin, grade, lvl, c)
                                           for (fin, lvl, grade), c in char.terms.items()))
                 for char in (self, other)]
        if not all(isinstance(c, int) for c in chain(*flats)):
            raise ValueError("tensor of characters with an entry that is not an int")
        return GradedCharacter._adopt({(tuple(f[:n]), f[n + 1], f[n]): c
                                       for f, c in _product(flats, n + 2)})

    def __eq__(self, other):
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "GradedCharacter(<%d terms, dim %d>)" % (len(self.terms),
                                                        self.dimension())


def demazure_operator(rs: RootSystem, i: int, char: GradedCharacter) -> GradedCharacter:
    """D_i applied to ``char``, i in 0..rank: pack, one letter, decode."""
    return _apply_word(rs, (i,), char)


def _apply_word(rs: RootSystem, word, char: GradedCharacter) -> GradedCharacter:
    """Apply D_i for each i of word, first letter first, within _TERM_BUDGET terms:
    pack once, step, decode once.  No field overflows, as each emitted term is
    at most budget steps of alpha_i from a term the letter was applied to."""
    n, word, budget = rs.rank, tuple(word), _TERM_BUDGET
    if bad := [i for i in word if not 0 <= i <= n]:
        raise ValueError("node %r out of range" % (bad[0],))
    theta_co, rows = rs.coroot_vector(rs.theta), []
    for term, mult in char.terms.items():
        fin, lvl, grade = term
        fin = fin if len(fin) == n else rs.check_weight(fin)  # raises ValueError
        if not all(isinstance(c, int) for c in (*fin, lvl, grade)):
            raise ValueError("term %r has a coordinate, level or grade that is not an int"
                             % (term,))
        rows.append(((*fin, grade, lvl - sum(map(mul, fin, theta_co)), lvl), mult))
    top = max(abs(c) for alpha in rs._alphas for c in alpha)
    reach = max((abs(c) for fields, _ in rows for c in fields), default=0)
    width = (reach + (len(word) + 1) * top * budget).bit_length() + 1
    bias, mask, shifts = 1 << width - 1, (1 << width) - 1, range(0, (n + 3) * width, width)

    def pack(fields, offset):
        return sum(c + offset << s for c, s in zip(fields, shifts))

    terms, total = {pack(fields, bias): mult for fields, mult in rows}, 0
    for i in word:
        step, at = pack(rs._alphas[i], 0), shifts[i - 1 if i else n + 1]
        out, emitted, down = {}, 0, -step
        get = out.get
        for key, mult in terms.items():
            # pairing m = field - bias: walk m + 1 terms down from lam, or
            # -m - 1 up from lam + alpha_i; m == -1 adds nothing
            if (field := key >> at & mask) >= bias:
                count, stride = field - bias + 1, down
            else:
                count, stride, key, mult = bias - 1 - field, step, key + step, -mult
            emitted += count
            if emitted > budget:
                raise RuntimeError("character budget exceeded: %d terms" % emitted)
            for _ in range(count):
                out[key] = get(key, 0) + mult
                key += stride
        terms = {key: c for key, c in out.items() if c}
        total += len(terms)
        if total > budget:
            raise RuntimeError("character budget exceeded: %d terms" % total)
    decoded = {}
    for key, c in terms.items():
        fields = [(key >> s & mask) - bias for s in shifts]
        decoded[(tuple(fields[:n]), fields[-1], fields[n])] = c
    return GradedCharacter._adopt(decoded)


def demazure_character(rs: RootSystem, mu, k: int, *, pick=None) -> GradedCharacter:
    """Graded character of the module generated from weight ``mu`` at level ``k``.

    The dominant representative and reflection word come from the dominance
    walk; the operators are applied along the word so that the last one
    applied corresponds to the first reflection of the walk.
    """
    mu = tuple(mu)
    lam, word = dominance_algorithm(rs, AffineWeight(mu, k, 0), pick=pick)
    char = _apply_word(rs, reversed(word),
                       GradedCharacter.from_weight(lam.finite, k, lam.degree))
    if (char.coefficient(mu, k, 0) != 1 or any(g < 0 for (_, _, g) in char.terms)
            or any(c <= 0 for c in char.terms.values())):
        raise RuntimeError("character of %r at level %d is not normalised and positive"
                           % (mu, k))
    return char


def parabolic_character(rs: RootSystem, finite, nodes, *, level=0, grade=0) -> GradedCharacter:
    """Character of the irreducible module with highest weight ``finite``
    for the sub-root-system generated by ``nodes``.

    D along the walk of -finite to the dominant chamber of the nodes, first
    letter first: the word is reduced for the shortest u with u(finite) =
    w_J(finite), and D_u e^finite = D_{w_J} e^finite since D_v fixes
    e^finite when v fixes finite.
    """
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    finite = rs.check_weight(finite)
    if any(finite[i - 1] < 0 for i in nodes):
        raise ValueError("weight %r not dominant on nodes %r" % (finite, nodes))
    _, word = _walk(tuple(-c for c in finite), rs._alphas, nodes)
    return _apply_word(rs, word, GradedCharacter.from_weight(finite, level, grade))


def finite_character(rs: RootSystem, finite) -> GradedCharacter:
    return parabolic_character(rs, finite, range(1, rs.rank + 1))


@dataclass(frozen=True)
class BranchRecord:
    finite: tuple
    level: int
    grade: int
    multiplicity: int
    dimension: int


def _peel_order(remaining, nodes, cols, norm):
    """The keys of ``remaining`` in peeling order; the caller removes each
    before asking for the next.  o lies above w only if they share the level,
    the off-node coordinates and the on-node residues mod N; a group lists
    (on-node height, on-node quotients by N, weight), highest first."""
    place, groups = {}, {}
    for key in remaining:
        scaled = [sum(map(mul, key[0], col)) for col in cols]
        on = tuple(scaled[i - 1] // norm for i in nodes)
        for i in nodes:
            scaled[i - 1] %= norm
        group = groups.setdefault((key[1], tuple(scaled)), [])
        group.append((sum(on), on, key))
        place[key] = (group[-1], group)
    for group in groups.values():
        group.sort(reverse=True)
    order = sorted(remaining, reverse=True)
    while remaining:
        for top in order:
            if top in remaining:
                (height, on, _), group = place[top]
                rivals = takewhile(lambda entry: entry[0] > height, group)
                if not any(o in remaining and all(map(ge, q, on)) for _, q, o in rivals):
                    break
        yield top


def g0_branch(rs: RootSystem, char: GradedCharacter, nodes):
    """Decompose each grade slice of ``char`` under the sub-root-system on
    ``nodes``; ValueError unless it is a nonnegative sum of irreducibles.  By
    Weyl's character formula, with rho_J the sum of the fundamental weights on
    the nodes, a term m e^mu adds sign(w) m to lam if w in W_J takes mu + rho_J
    to lam + rho_J, regular and dominant on the nodes; a slice passes when it
    is W_J-invariant and no sum is negative, and Weyl's dimension formula
    gives the dimensions.  Records run by grade, then in peeling order: the
    first unpeeled lam in descending ``(finite, level)`` order that none lies
    above (o - lam a nonzero Z>=0 sum of simple roots on the nodes, one level).
    A finite weight's mirrors s_i(mu), balance step and walk's end are found when it
    first turns up, for its terms in every grade and level, and kept for the call
    only.  A failing slice is peeled, subtracting irreducibles, to say where."""
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    # column i: N times the i-th simple-root coordinate of each fundamental weight
    rows = [rs._scaled_coordinates(tuple(int(i == j) for i in range(rs.rank)))
            for j in range(rs.rank)]
    norm, cols = rows[0][1], tuple(zip(*(row for row, _ in rows)))
    rho = tuple(int(i in nodes) for i in range(1, rs.rank + 1))
    alphas = [(i - 1, rs._alphas[i]) for i in nodes]
    levi = [not any(c for c, on in zip(root.coords, rho) if not on)  # roots on the nodes
            for root in rs.positive_roots]
    rho_dim = prod(compress(rs.pairings(rho), levi))
    records, slices, known = [], {}, {}
    for (fin, lvl, grade), c in char.terms.items():
        fin = fin if len(fin) == rs.rank else rs.check_weight(fin)  # raises ValueError
        slices.setdefault(grade, {})[(fin, lvl)] = c
    for grade in sorted(slices):
        terms, mults, invariant, balance = slices[grade], {}, True, 0
        for (fin, lvl), m in terms.items():
            if (seen := known.get(fin)) is None:
                step, mirrors = 0, []
                for i, alpha in alphas:  # s_i pairs the terms of pairings p > 0 and -p
                    if (p := fin[i]) > 0:
                        step += 1
                        mirrors.append(tuple([a - p * b for a, b in zip(fin, alpha)]))
                    elif p:
                        step -= 1
                # not weights._walk, which neither stops at a zero pairing nor keeps a sign
                v, sign, end = list(map(add, fin, rho)), 1, None
                while True:  # into the nodes' dominant chamber; a zero pairing: singular
                    for i, alpha in alphas:
                        if (p := v[i]) <= 0:
                            break
                    else:
                        end = tuple(map(sub, v, rho)), sign
                        break
                    if not p:
                        break
                    v, sign = [a - p * b for a, b in zip(v, alpha)], -sign
                seen = known[fin] = step, mirrors, end
            step, mirrors, end = seen
            balance += step
            for f2 in mirrors:
                invariant &= terms.get((f2, lvl)) == m
            if end:
                key = (end[0], lvl)
                mults[key] = mults.get(key, 0) + end[1] * m
        if not invariant or balance or any(c < 0 for c in mults.values()):
            for fin, lvl in _peel_order(terms, nodes, cols, norm):
                if (mult := terms[(fin, lvl)]) < 0:
                    raise ValueError("negative multiplicity at %r grade %d" % (fin, grade))
                for (f2, _, _), c in parabolic_character(rs, fin, nodes).terms.items():
                    if (left := terms.get((f2, lvl), 0) - mult * c) < 0:
                        raise ValueError("slice at grade %d is not a nonnegative "
                                         "combination on nodes %r" % (grade, nodes))
                    terms[(f2, lvl)] = left
                    if not left:
                        del terms[(f2, lvl)]
            raise RuntimeError("slice at grade %d failed the check but peeled" % grade)
        mults = {key: c for key, c in mults.items() if c}
        for fin, lvl in _peel_order(mults, nodes, cols, norm):
            dim = prod(compress(rs.pairings(map(add, fin, rho)), levi)) // rho_dim
            records.append(BranchRecord(fin, lvl, grade, mults.pop((fin, lvl)), dim))
    return tuple(records)


@dataclass(frozen=True)
class EmbeddingCertificate:
    mu: tuple
    split: tuple
    r: int
    certified: bool
    report: AdmissibilityReport
    failures: tuple  # (finite, grade, lhs multiplicity, rhs multiplicity)
    lhs: GradedCharacter
    rhs: GradedCharacter

    @property
    def k(self):
        return len(self.split)

    @property
    def split_admissible(self):
        return self.report.admissible

    def verdict(self):
        return "Certified" if self.certified else "Violation"


_memo, _memo_lock = OrderedDict(), Lock()  # (rs, mu, k) -> flat terms, oldest use first
_memo_terms = 0  # terms held in _memo


def _flat(rs: RootSystem, mu, k: int) -> tuple:
    """demazure_character(rs, mu, k) as one flat tuple of ints (finite
    coordinates, grade, multiplicity per term).  The memo keeps it, up to
    _MEMO_TERMS terms in all; a larger character is not kept."""
    global _memo_terms
    key = (rs, mu, k)
    with _memo_lock:
        if (flat := _memo.pop(key, None)) is None:
            char = demazure_character(rs, mu, k)
            flat = tuple(chain.from_iterable(f + (g, c) for (f, _, g), c in char.terms.items()))
            if len(char.terms) > _MEMO_TERMS:
                return flat
            _memo_terms += len(char.terms)
            while _memo_terms > _MEMO_TERMS:
                (old_rs, _, _), old = _memo.popitem(last=False)
                _memo_terms -= len(old) // (old_rs.rank + 2)
        _memo[key] = flat
    return flat


def _product(factors, nfields):
    """The one product loop, over characters given as flat tuples of ints:
    per term nfields fields, then the multiplicity.  A term packs into one
    int of signed fields, first field lowest, each wide enough for the
    factors' largest |entries| summed, so a product of terms is a sum of ints
    and no field overflows.  The factors multiply left to right, the terms
    so far outer and the factor's inner, as a loop over term tuples does,
    and zero sums drop after each factor; the result decodes once, as
    (fields, multiplicity) pairs in insertion order."""
    width = sum(max(map(abs, flat), default=0) for flat in factors).bit_length() + 1
    shifts, stride = range(0, nfields * width, width), nfields + 1
    packed = [[(sum(map(lshift, flat[j:j + nfields], shifts)), flat[j + nfields])
               for j in range(0, len(flat), stride)] for flat in factors]
    acc = dict(packed[0])
    for terms in packed[1:]:
        out = {}
        get = out.get
        for key, c in acc.items():
            for step, m in terms:
                term = key + step
                out[term] = get(term, 0) + c * m
        acc = {key: c for key, c in out.items() if c}
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = sum(half << s for s in shifts)
    return [([(key >> s & mask) - half for s in shifts], c)
            for key, c in zip(map(bias.__add__, acc), acc.values())]


def embedding_certificate(rs: RootSystem, mu, split, r: int) -> EmbeddingCertificate:
    """Coefficientwise comparison backing the character containment

        char(mu, r*k)  <=  char(mu_1, r) * ... * char(mu_k, r)

    for a splitting mu = mu_1 + ... + mu_k.  Both extremal coefficients at
    (mu, grade 0) must equal 1.  ``report`` is is_r_admissible(rs, mu, split,
    r), always computed here; the comparison runs whatever its verdict, so
    an inadmissible split can still be probed for violations.  ``rhs``
    multiplies the parts in split order, ``failures`` follow
    ``lhs.sorted_terms()``, and both characters are fresh objects.
    """
    mu = tuple(mu)
    split = tuple(tuple(p) for p in split)
    report = is_r_admissible(rs, mu, split, r)
    n, level = rs.rank, r * len(split)
    flat = _flat(rs, mu, level)
    lhs = GradedCharacter._adopt({(flat[j:j + n], level, flat[j + n]): flat[j + n + 1]
                                  for j in range(0, len(flat), n + 2)})
    rhs = GradedCharacter._adopt({(tuple(f[:n]), level, f[n]): c for f, c in
                                  _product([_flat(rs, part, r) for part in split], n + 1)})
    get = rhs.terms.get
    failures = sorted(((key[0], key[2], mult, have) for key, mult in lhs.terms.items()
                       if mult > (have := get(key, 0))), key=lambda f: (f[1], f[0]))
    extremal = (lhs.coefficient(mu, level, 0), rhs.coefficient(mu, level, 0))
    if extremal != (1, 1):
        failures.append((mu, 0) + extremal)
    return EmbeddingCertificate(mu=mu, split=split, r=r,
                                certified=not failures,
                                report=report,
                                failures=tuple(failures), lhs=lhs, rhs=rhs)
