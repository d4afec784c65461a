import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from monoidrep import (
    Monoid,
    Representation,
    from_transformations,
    natural_representation,
    nt_paper_representation,
)

# T_3 needs a rank-2 idempotent among the generators; a constant map only
# reaches the permutations and the constants.
T3_GENERATORS = [(2, 3, 1), (2, 1, 3), (1, 1, 3)]


def _build_corpus():
    trivial = Monoid([[0]], 0)
    s2 = from_transformations(2, [(2, 1)])
    s3 = from_transformations(3, [(2, 3, 1), (2, 1, 3)])
    t2 = from_transformations(2, [(2, 1), (1, 1)])
    t3 = from_transformations(3, T3_GENERATORS)
    return {
        "trivial": Representation(trivial, [[[1]]]),
        "s2_sign": Representation(s2, [[[1]], [[-1]]]),
        "s3_natural": natural_representation(s3),
        "t2_natural": natural_representation(t2),
        "t3_natural": natural_representation(t3),
        "n2_paper": nt_paper_representation(2),
        "n3_paper": nt_paper_representation(3),
        "n5_paper": nt_paper_representation(5),
    }


@pytest.fixture(scope="session")
def corpus():
    """Name -> faithful representation, covering groups, N_t and T_k."""
    return _build_corpus()


@pytest.fixture(scope="session")
def t2_natural(corpus):
    return corpus["t2_natural"]


@pytest.fixture(scope="session")
def t3_natural(corpus):
    return corpus["t3_natural"]


@pytest.fixture(scope="session")
def n5_paper(corpus):
    return corpus["n5_paper"]
