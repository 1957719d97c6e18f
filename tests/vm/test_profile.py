"""Value feedback: the running leader agrees with a brute-force scan."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vm.profile import FunctionProfile, ValueFeedback

#: a few ints and floats (so values repeat and tie), plus non-scalars that
#: count toward the total but never toward a value
_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, -1.25, 2.0]),
    st.sampled_from([None, "handle", (1, 2)]),
)


def _brute_counts(stream):
    counts = {}
    for value in stream:
        if type(value) in (int, float):
            counts[value] = counts.get(value, 0) + 1
    return counts


def _brute_stable(streams, min_samples, min_ratio):
    for index, stream in enumerate(streams):
        if len(stream) < min_samples:
            continue
        counts = _brute_counts(stream)
        if not counts:
            continue
        value = max(counts, key=counts.get)
        if counts[value] / len(stream) >= min_ratio:
            return index, value
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(_values, max_size=60))
def test_dominant_count_matches_brute_force(stream):
    feedback = ValueFeedback()
    for value in stream:
        feedback.record(value)
        counts = _brute_counts(stream[:feedback.total])
        dom = feedback.dominant()
        if not counts:
            assert dom is None
            continue
        value, count = dom
        assert count == max(counts.values())
        assert counts[value] == count


#: one call's arguments: three slots, the first often monomorphic so the
#: 0.95 share is sometimes reached
_calls = st.lists(
    st.tuples(st.one_of(st.just(7), _values), _values,
              st.one_of(st.just(-1.5), _values)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_calls, st.integers(min_value=1, max_value=6),
       st.sampled_from([0.6, 0.95, 1.0]))
@example([(7, 1, -1.5)] * 19 + [(8, 1, 2.0)], 4, 0.95)
def test_stable_argument_matches_brute_force(calls, min_samples, ratio):
    # a share above one half has exactly one winner, so ties never decide
    profile = FunctionProfile("f")
    for args in calls:
        profile.record_args(args)
    columns = [[args[slot] for args in calls] for slot in range(3)]
    expected = _brute_stable(columns, min_samples, ratio)
    assert profile.stable_argument(min_samples, ratio) == expected
