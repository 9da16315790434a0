"""Property tests over random cotrees for the facts the DP's fast path uses."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cogex.cotree import (
    NEG_INF,
    biclique_sequence,
    make_leaf,
    make_product,
    make_sum,
    product_entries,
    sum_entries,
)

MAX_N = 12


@st.composite
def cotrees(draw, n=None):
    """A cotree on n vertices (drawn from 1..MAX_N when not given), built
    by random binary splits under sum or join."""
    if n is None:
        n = draw(st.integers(1, MAX_N))
    if n == 1:
        return make_leaf()
    n1 = draw(st.integers(1, n - 1))
    maker = draw(st.sampled_from((make_sum, make_product)))
    return maker([draw(cotrees(n1)), draw(cotrees(n - n1))])


caps = st.integers(1, 6)


@settings(max_examples=200, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_join_entry_lower_bound(g1, g2, cap):
    k1 = biclique_sequence(g1, cap).entries
    k2 = biclique_sequence(g2, cap).entries
    joined = product_entries(k1, k2, cap)
    for j in range(cap + 1):
        if k1[j] != NEG_INF:
            assert joined[j] >= k1[j] + k2[0]
        if k2[j] != NEG_INF:
            assert joined[j] >= k2[j] + k1[0]


@settings(max_examples=200, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_sum_key_is_pointwise_max_above_cap(g1, g2, cap):
    k1 = biclique_sequence(g1, cap).entries
    k2 = biclique_sequence(g2, cap).entries
    n = g1.n + g2.n
    key = (n, *map(max, k1[1:], k2[1:]))
    if max(g1.n, g2.n) >= cap:
        assert key == sum_entries(k1, k2, cap)
    else:
        # below cap the floor lifts the -inf entries both parts share
        assert key != sum_entries(k1, k2, cap)
