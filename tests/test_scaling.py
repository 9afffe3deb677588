"""Operation counts of certificate synthesis, held by exact bounds.

Counts are deterministic where clocks are not, so a change that makes a
certificate do more work of one kind fails here at small sizes.  Each
bound is the count measured when its row was added; a change that lowers
a count lowers its bound with it.
"""

import pytest

from tourmod import (
    comodular,
    inversion,
    modular,
    random_tournament,
    synthesize_certificate,
    transitive,
)

from conftest import doubled, record_calls, relabelled_chain

# input, then the bounds: trees built, dominance masks built by the
# labelling, optima listed over the overlap paths (switch points, one per
# optimum, named afresh each time a state's decompositions are read), and
# tournaments built by reversing an arc (one per high step, one per
# candidate of a low step).  A set that overlaps none is no path, so twins
# list no optimum.
# A chain of odd order has a long path with an even number of twins, which
# each high step cuts and whose k/2 + 1 optima its next state names, so
# its optima listed grow as n^2; its labelling tries every M2 under each
# free M1, so its dominance masks grow as n^2 too.
# A relabelled chain's path positions are not in path order, so its
# labelling meets the parts in another order than a plain chain's.
ROWS = [
    pytest.param(lambda: transitive(100), 3, 95, 25, 26, id="chain-100"),
    pytest.param(lambda: transitive(400), 3, 395, 100, 101, id="chain-400"),
    pytest.param(lambda: transitive(101), 3, 1_941, 676, 26, id="chain-101"),
    pytest.param(lambda: transitive(401), 3, 30_291, 10_201, 101, id="chain-401"),
    pytest.param(lambda: doubled(random_tournament(100, 7)), 2, 100, 0, 50, id="twins-200"),
    pytest.param(lambda: doubled(random_tournament(400, 7)), 2, 398, 0, 200, id="twins-800"),
    pytest.param(lambda: relabelled_chain(100, 1), 3, 117, 25, 26, id="relabelled-100"),
    pytest.param(lambda: relabelled_chain(400, 1), 3, 496, 100, 101, id="relabelled-400"),
    pytest.param(lambda: relabelled_chain(101, 1), 3, 424, 676, 26, id="relabelled-101"),
    pytest.param(lambda: relabelled_chain(401, 1), 3, 1_203, 10_201, 101, id="relabelled-401"),
    pytest.param(lambda: relabelled_chain(1201, 1), 3, 4_117, 90_601, 301, id="relabelled-1201"),
]


@pytest.mark.parametrize("make, trees, dominance, optima, inverts", ROWS)
def test_counts_at_most_measured(make, trees, dominance, optima, inverts, monkeypatch):
    T = make()
    built = record_calls(monkeypatch, modular, "_tree")
    masks = record_calls(monkeypatch, comodular, "_dominance")
    reversed_ = record_calls(monkeypatch, inversion, "invert")
    listed = 0
    real = modular._path_optima

    def listing(path):
        nonlocal listed
        points = real(path)
        listed += len(points)
        return points

    monkeypatch.setattr(modular, "_path_optima", listing)
    synthesize_certificate(T)
    counts = (len(built), len(masks), listed, len(reversed_))
    bounds = (trees, dominance, optima, inverts)
    assert all(c <= bound for c, bound in zip(counts, bounds)), counts
