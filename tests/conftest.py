import faulthandler
import os
import random
import sys
from itertools import combinations

import pytest

from kjdt.poset import Shape, bits
from kjdt.tableau import Tableau, increasing_fillings


# One poset of every family, bounded and ambient.
SLIDE_FAMILIES = [
    "a:3,4", "og:5", "lg:4", "qodd:3", "qeven:4", "qeven:5",
    "e6", "e7", "grid:4,5", "shifted:5",
]


def random_ideal(rng: random.Random, poset, max_size=None) -> int:
    """Random lower order ideal mask built by a random growth walk."""
    size_cap = poset.n if max_size is None else min(max_size, poset.n)
    target = rng.randint(0, size_cap)
    mask = 0
    for _ in range(target):
        addable = poset.minimal_absent_boxes(mask)
        if not addable:
            break
        mask |= 1 << rng.choice(addable)
    return mask


def random_skew_tableau(rng: random.Random, poset, max_size=None, jitter=2) -> Tableau:
    """Random increasing tableau on a random skew shape of the poset."""
    outer = random_ideal(rng, poset, max_size)
    # random sub-ideal of outer as the inner shape
    sub = 0
    grow = rng.randint(0, outer.bit_count())
    for _ in range(grow):
        addable = [
            i
            for i in bits(outer & ~sub)
            if not (poset.below[i] & outer & ~sub & ~(1 << i))
        ]
        if not addable:
            break
        sub |= 1 << rng.choice(addable)
    inner = sub
    mask = outer & ~inner
    vals = {}
    for i in bits(mask):
        lo = 1 + max(
            (vals[j] for j in poset.down[i] if mask & (1 << j)), default=0
        )
        vals[i] = lo + rng.randint(0, jitter)
    values = tuple(vals[i] for i in bits(mask))
    return Tableau(poset, mask, values)


def walk_tableau(poset, masks: tuple[int, ...], values=None) -> Tableau:
    """The tableau of a walk's mask tuple: level k holds ``values[k]``, by default k + 1."""
    if values is None:
        values = range(1, len(masks) + 1)
    return Tableau.from_masks(poset, tuple(values), masks)


def fillings_skipping_values(poset, lam: int, nu: int, d: int):
    """Tableaux filling nu/lam by values in 1..d, any of which may be skipped.

    One surjective walk per subset of the values: the walk's value k is the
    k-th smallest value of the subset.
    """
    for k in range(d + 1):
        for values in combinations(range(1, d + 1), k):
            for masks in increasing_fillings(poset, lam, nu, k):
                yield walk_tableau(poset, masks, values)


# A copy of stderr taken while pytest captures no output, so the guard's dump is seen.
_GUARD_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_GUARD_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_GUARD_STDERR])


@pytest.fixture(autouse=True)
def _runaway_guard(request):
    """A test still running after 60 s dumps every thread's traceback and ends the run.

    The slowest test takes a few seconds, so this only turns a runaway search
    into a prompt failure with a traceback; it forgives nothing.
    """
    faulthandler.dump_traceback_later(60, exit=True, file=request.config.stash[_GUARD_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return random.Random(20130623)
