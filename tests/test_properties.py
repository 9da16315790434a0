"""Property tests over random cotrees for the facts the DP's fast path uses."""

from operator import le

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogex.cotree import (
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
from cogex.profile import INF, NEG_INF, BicliqueProfile
from test_enumerator import _as_levels, _decode, _reference_registries
from test_traversal import _same_entries, old_product_entries, old_sum_entries, padded

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
    # the old loops run on padded sequences; the kernels' results are theirs
    # with the -inf tail stripped, of min(n, cap) + 1 int entries
    p1, p2 = padded(k1, cap), padded(k2, cap)
    assert _same_entries(sum_entries(k1, k2, cap), old_sum_entries(p1, p2, cap))
    assert _same_entries(joined, old_product_entries(p1, p2, cap))
    # every stored entry of a part bounds the join's entry from below
    for j, v in enumerate(k1):
        assert joined[j] >= v + k2[0]
    for j, v in enumerate(k2):
        assert joined[j] >= v + k1[0]


@settings(max_examples=200, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_sum_key_is_pointwise_max_above_cap(g1, g2, cap):
    k1 = biclique_sequence(g1, cap)
    k2 = biclique_sequence(g2, cap)
    n = g1.n + g2.n
    # the pointwise maximum of the padded parts, entries 0..cap
    key = (n, *map(max, padded(k1, cap)[1:], padded(k2, cap)[1:]))
    summed = sum_entries(k1, k2, cap)
    m = len(summed)
    assert m == min(n, cap) + 1 and all(v == NEG_INF for v in key[m:])
    if max(g1.n, g2.n) >= cap:
        assert key == summed
    else:
        # below cap the floor lifts the -inf entries both parts share
        assert key[:m] != summed
        assert summed == tuple(max(v, 0) for v in key[:m])


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
    assert _decode(_encode(key, cap, WIDTH), g.n, cap, WIDTH) == key


@settings(max_examples=300, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_code_order_and_dominance_are_tuple_order_and_pointwise_le(g1, g2, cap):
    k1, k2 = _key(g1, cap), _key(g2, cap)
    c1, c2 = _encode(k1, cap, WIDTH), _encode(k2, cap, WIDTH)
    # against the padded keys, entries 1..cap with -inf past n
    t1, t2 = padded(k1, cap)[1:], padded(k2, cap)[1:]
    assert (c1 < c2) == (t1 < t2) == (k1[1:] < k2[1:])
    assert (c1 == c2) == (t1 == t2)
    assert (not c1 & ~c2) == all(map(le, t1, t2))
    assert (not c2 & ~c1) == all(map(le, t2, t1))


@settings(max_examples=300, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_sum_code_is_or_with_the_edgeless_floor(g1, g2, cap):
    """For every split size, sum_entries is the pointwise maximum of both
    parts' keys and the edgeless graph's key on as many vertices."""
    k1, k2 = _key(g1, cap), _key(g2, cap)
    floor = _encode(_key(edgeless(g1.n + g2.n), cap), cap, WIDTH)
    code = _encode(k1, cap, WIDTH) | _encode(k2, cap, WIDTH) | floor
    assert code == _encode(sum_entries(k1, k2, cap), cap, WIDTH)


@settings(max_examples=300, deadline=None)
@given(cotrees(), cotrees(), caps)
def test_join_code_is_the_coded_product(g1, g2, cap):
    """The DP's join kernel, on a part's key and the other's code with
    entry 0, is the code of product_entries, parts below cap included."""
    k1, k2 = _key(g1, cap), _key(g2, cap)
    units = _join_units(cap, WIDTH)[min(g2.n, cap)]
    assert _join_code(k1, _encode((0, *k2), cap + 1, WIDTH), units, WIDTH) == \
        _encode((0, *product_entries(k1, k2, cap)), cap + 1, WIDTH)


@settings(max_examples=300, deadline=None)
@given(cotrees(), caps, windows)
def test_coded_window_test_is_passes(g, cap, window):
    key, window = _key(g, cap), tuple(window[:cap + 1])
    coded = key[0] <= window[0] and not _encode(key, cap, WIDTH) & ~_encode(window, cap, WIDTH)
    # -inf past n passes every window entry, so the stored entries decide
    assert coded == _passes(key, window) == _passes(padded(key, cap), window)


@settings(max_examples=300, deadline=None)
@given(cotrees(), caps, windows)
# the window's first bounded entries are -inf past the key's n, where the
# padded key is -inf too
@example(edgeless(2), 4, [INF, INF, INF, NEG_INF, NEG_INF, NEG_INF, NEG_INF])
def test_join_slack_is_the_per_split_join_test(g, cap, window):
    """Against windows with -inf entries, keys shorter than the window, and
    keys that pass the window or not; the per-split test reads the key
    padded with -inf to the window's length."""
    key, window = _key(g, cap), tuple(window[:cap + 1])
    bounded = [j for j, w in enumerate(window) if w < INF]
    slack = _join_slack(key, window)
    full = padded(key, cap)
    for other_n in range(1, 2 * MAX_N + 1):
        assert (slack >= other_n) == all(full[j] + other_n <= window[j] for j in bounded)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(cotrees), st.integers(1, 9), st.booleans())
def test_fast_dp_matches_reference_under_graph_profiles(g, n_max, exhaustive):
    """A graph's own sequence is a valid profile, so the fast DP meets
    windows with finite, -inf and small entry-0 bounds on joins and sums."""
    p = BicliqueProfile(biclique_sequence(g, g.n), NEG_INF)
    opts = dict(prune=p, exhaustive=exhaustive)
    assert _as_levels(build_registries(n_max, **opts)) == \
        _reference_registries(n_max, **opts)
