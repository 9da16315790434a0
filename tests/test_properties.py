"""Property tests over random cotrees for the facts the DP's fast path uses."""

from operator import le

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogex.cotree import (
    INF,
    NEG_INF,
    biclique_sequence,
    edgeless,
    make_leaf,
    make_product,
    make_sum,
    product_entries,
    sum_entries,
)
from cogex.enumerator import (
    _encode,
    _join_code,
    _join_slack,
    _join_units,
    _passes,
    build_registries,
)
from cogex.profile import BicliqueProfile
from test_enumerator import _as_levels, _decode, _reference_registries
from test_traversal import old_product_entries, old_sum_entries

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
@given(cotrees(), cotrees(), st.integers(0, 6))
@example(make_leaf(), edgeless(3), 0)
@example(make_leaf(), make_product([make_leaf(), edgeless(2)]), 6)  # both parts below cap
def test_join_entry_lower_bound(g1, g2, cap):
    k1 = biclique_sequence(g1, cap)
    k2 = biclique_sequence(g2, cap)
    joined = product_entries(k1, k2, cap)
    assert (sum_entries(k1, k2, cap), joined) == \
        (old_sum_entries(k1, k2, cap), old_product_entries(k1, k2, cap))
    for j in range(cap + 1):
        if k1[j] != NEG_INF:
            assert joined[j] >= k1[j] + k2[0]
        if k2[j] != NEG_INF:
            assert joined[j] >= k2[j] + k1[0]


@settings(max_examples=200, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_sum_key_is_pointwise_max_above_cap(g1, g2, cap):
    k1 = biclique_sequence(g1, cap)
    k2 = biclique_sequence(g2, cap)
    n = g1.n + g2.n
    key = (n, *map(max, k1[1:], k2[1:]))
    if max(g1.n, g2.n) >= cap:
        assert key == sum_entries(k1, k2, cap)
    else:
        # below cap the floor lifts the -inf entries both parts share
        assert key != sum_entries(k1, k2, cap)


# build_registries' field width for n_max = 2 * MAX_N, the largest sum of
# two drawn cotrees
WIDTH = 2 * MAX_N + 2
windows = st.lists(st.sampled_from((NEG_INF, -1, *range(MAX_N + 4), INF)),
                   min_size=7, max_size=7)


def _key(g, cap):
    return biclique_sequence(g, cap)


@settings(max_examples=200, deadline=None)
@given(cotrees(), caps)
def test_codec_round_trip(g, cap):
    key = _key(g, cap)
    assert _decode(_encode(key, WIDTH), g.n, cap, WIDTH) == key


@settings(max_examples=300, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_code_order_and_dominance_are_tuple_order_and_pointwise_le(g1, g2, cap):
    k1, k2 = _key(g1, cap), _key(g2, cap)
    c1, c2 = _encode(k1, WIDTH), _encode(k2, WIDTH)
    assert (c1 < c2) == (k1[1:] < k2[1:])
    assert (c1 == c2) == (k1[1:] == k2[1:])
    assert (not c1 & ~c2) == all(map(le, k1[1:], k2[1:]))
    assert (not c2 & ~c1) == all(map(le, k2[1:], k1[1:]))


@settings(max_examples=300, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_sum_code_is_or_with_the_edgeless_floor(g1, g2, cap):
    """For every split size, sum_entries is the pointwise maximum of both
    parts' keys and the edgeless graph's key on as many vertices."""
    k1, k2 = _key(g1, cap), _key(g2, cap)
    floor = _encode(_key(edgeless(g1.n + g2.n), cap), WIDTH)
    code = _encode(k1, WIDTH) | _encode(k2, WIDTH) | floor
    assert code == _encode(sum_entries(k1, k2, cap), WIDTH)


@settings(max_examples=300, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_join_code_is_the_coded_product(g1, g2, cap):
    """The DP's join kernel, on a part's finite prefix and the other's code
    with entry 0, is the code of product_entries, parts below cap included."""
    k1, k2 = _key(g1, cap), _key(g2, cap)
    units = _join_units(cap, WIDTH)[min(g2.n, cap)]
    assert _join_code(k1[:min(g1.n, cap) + 1], _encode((0,) + k2, WIDTH), units, WIDTH) == \
        _encode((0,) + product_entries(k1, k2, cap), WIDTH)


@settings(max_examples=300, deadline=None)
@given(cotrees(), caps, windows)
def test_coded_window_test_is_passes(g, cap, window):
    key, window = _key(g, cap), tuple(window[:cap + 1])
    coded = key[0] <= window[0] and not _encode(key, WIDTH) & ~_encode(window, WIDTH)
    assert coded == _passes(key, window)


@settings(max_examples=300, deadline=None)
@given(cotrees(), caps, windows)
# the first bounded entry is -inf in both, where a NaN would come first
@example(edgeless(2), 4, [INF, INF, INF, NEG_INF, NEG_INF, NEG_INF, NEG_INF])
def test_join_slack_is_the_per_split_join_test(g, cap, window):
    """Against windows with -inf entries, where -inf - -inf is NaN, and
    keys that pass the window or not."""
    key, window = _key(g, cap), tuple(window[:cap + 1])
    bounded = [j for j, w in enumerate(window) if w < INF]
    slack = _join_slack(key, window, bounded)
    for other_n in range(1, 2 * MAX_N + 1):
        assert (slack >= other_n) == all(key[j] + other_n <= window[j] for j in bounded)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(cotrees), st.integers(1, 9), st.booleans())
def test_fast_dp_matches_reference_under_graph_profiles(g, n_max, exhaustive):
    """A graph's own sequence is a valid profile, so the fast DP meets
    windows with finite, -inf and small entry-0 bounds on joins and sums."""
    p = BicliqueProfile(biclique_sequence(g, g.n), NEG_INF)
    opts = dict(prune=p, exhaustive=exhaustive)
    assert _as_levels(build_registries(n_max, **opts)) == \
        _reference_registries(n_max, **opts)
