"""Every root system is pinned against ``data/root_systems.json``: for each of
A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4 and G2 the sha256 of its Cartan matrix,
lengths d_i, positive roots in order, theta, theta's fundamental coordinates
and alpha_0..alpha_n rows, and the ValueError text of every invalid family
and rank, the root budget included."""

import hashlib
import json
import os

import pytest

from demazure.rootdata import RootSystem

with open(os.path.join(os.path.dirname(__file__), "data", "root_systems.json")) as fh:
    DATA = json.load(fh)

SYSTEMS = ([("A", n) for n in range(1, 9)] + [(f, n) for f in "BC" for n in range(2, 9)]
           + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
INVALID = [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3),
           ("H", 2), ("A", 63)]


def digest(rs: RootSystem) -> str:
    data = [rs.cartan, rs.d_simple, [r.coords for r in rs.positive_roots], rs.theta.coords,
            rs.theta_weight, rs._alphas]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def error_text(family: str, rank: int) -> str:
    with pytest.raises(ValueError) as exc:
        RootSystem(family, rank)
    return str(exc.value)


@pytest.mark.parametrize("family,rank", SYSTEMS, ids=lambda v: str(v))
def test_root_system_digest(family, rank):
    assert digest(RootSystem(family, rank)) == DATA["digests"][f"{family}{rank}"]


@pytest.mark.parametrize("family,rank", INVALID, ids=lambda v: str(v))
def test_invalid_system_error(family, rank):
    assert error_text(family, rank) == DATA["errors"][f"{family}{rank}"]


def test_every_system_is_pinned():
    assert len(SYSTEMS) == 32
    assert sorted(DATA["digests"]) == sorted(f"{f}{n}" for f, n in SYSTEMS)
    assert sorted(DATA["errors"]) == sorted(f"{f}{n}" for f, n in INVALID)
