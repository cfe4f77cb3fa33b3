import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featureclock.seeding import Stream

# the three paths of Generator.integers (32-bit Lemire, the raw 32-bit draw,
# 64-bit Lemire) and n = 1, which draws nothing; 2**31 + 5 and 2**62 + 1
# reject about half and a quarter of their draws
SIZES = [1, 2, 3, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63]

WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300)), min_size=1, max_size=40
).filter(lambda w: 0.0 < sum(w) < 1e308)

P = np.array([0.0, 0.5, 0.0, 0.25, 0.25])
CALLS = [3, 2**32 + 1, P, 2**32 - 1, 2**32, 2**63, P, 2, 1, 2**31 + 5, 2**62 + 1, P, 3]


def draw(rng, call):
    if isinstance(call, int):
        return int(rng.integers(call))
    if isinstance(rng, Stream):
        return rng.choice(call)
    return int(rng.choice(len(call), p=call))


@given(
    seed=st.integers(min_value=0, max_value=2**130 - 1),
    calls=st.lists(
        st.one_of(
            st.sampled_from(SIZES),
            WEIGHTS.map(lambda w: np.array(w) / np.sum(w)),
        ),
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_draws_match_numpy(seed, calls):
    ours, numpy_rng = Stream(seed), np.random.default_rng(seed)
    for call in calls:
        assert draw(ours, call) == draw(numpy_rng, call)


# CALLS drawn from numpy 2.4.6's default_rng(seed)
@pytest.mark.parametrize(
    "seed, expected",
    [
        (0, [2, 1158725112, 1, 2735729614, 323153949, 7501093982645987485, 4, 0, 0,
             1302740411, 3364209090780767889, 3, 1]),
        (1, [1, 4082210492, 1, 2198257138, 3534516178, 2876137494685333844, 1, 1, 0,
             1777477789, 1887097935946223282, 3, 0]),
        (2**32, [1, 2392889705, 4, 3821399009, 982227334, 540629429057320361, 1, 1, 0,
                 538649391, 3346806950669772799, 3, 2]),
        # five 32-bit words: the last is mixed into the pool after the first four
        (2**129 + 12345, [0, 906959691, 1, 607047512, 439313272, 897141026501771557, 1, 0, 0,
                          296146827, 539884090745119395, 1, 1]),
    ],
)
def test_known_draws(seed, expected):
    rng = Stream(seed)
    assert [draw(rng, call) for call in CALLS] == expected
