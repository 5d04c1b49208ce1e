"""Property-based checks (``hypothesis``, derandomized, bounded examples)."""

import numpy as np
import pytest

from conftest import random_cptp

from chan_atlas import channels
from chan_atlas.channels import kraus_channel
from chan_atlas.fixed_points import fixed_point_structure

hypothesis = pytest.importorskip("hypothesis")
given, settings, strategies = hypothesis.given, hypothesis.settings, hypothesis.strategies


@settings(max_examples=50, derandomize=True, deadline=None)
@given(d=strategies.sampled_from([2, 3, 4]), log_eps=strategies.floats(-12, -1),
       seed=strategies.integers(0, 2 ** 16))
def test_fixed_point_structure_near_identity_property(d, log_eps, seed):
    # (1 - eps) id + eps R: never raises, and a projection that is reported
    # has trace fixed_dim and satisfies the Cesaro identities
    eps = 10.0 ** log_eps
    r = random_cptp(np.random.default_rng(seed), d, d)
    t = kraus_channel([np.sqrt(1 - eps) * np.eye(d, dtype=complex),
                       *(np.sqrt(eps) * k for k in r.kraus_operators())])
    st = fixed_point_structure(t)
    assert st.status in ("ok", "indeterminate")
    if st.cesaro is not None:
        p, n = st.cesaro.natural_matrix(), t.natural_matrix()
        assert np.trace(p).real == pytest.approx(st.fixed_dim, abs=1e-8)
        for x in (n @ p, p @ n, p @ p):
            assert channels._max_column_op_norm(x - p, d) <= 1e-8
