"""Shared fixtures and strategies: synthetic dataset and hierarchy files,
and random cross-temporal structures."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st


@pytest.fixture
def toy_files(tmp_path):
    """A = B + C semi-annual dataset (m = 2) with coherent uppers."""
    rng = np.random.default_rng(99)
    T = 80
    b = np.zeros((2, T + 50))
    eps = rng.normal(size=(2, T + 50))
    for t in range(2, T + 50):
        b[0, t] = 1.1 * b[0, t - 1] - 0.5 * b[0, t - 2] + eps[0, t]
        b[1, t] = 0.7 * b[1, t - 1] - 0.2 * b[1, t - 2] + eps[1, t]
    b = b[:, 50:] + 30.0  # keep values positive for nonneg tests
    a = b.sum(axis=0)

    hierarchy = tmp_path / "hierarchy.json"
    hierarchy.write_text(
        json.dumps(
            {
                "agg_matrix": [[1.0, 1.0]],
                "m": 2,
                "series_names": ["A", "B", "C"],
            }
        )
    )
    data = tmp_path / "data.csv"
    lines = ["A,B,C"]
    for t in range(T):
        lines.append(f"{a[t]:.10g},{b[0, t]:.10g},{b[1, t]:.10g}")
    data.write_text("\n".join(lines) + "\n")
    return {"hierarchy": hierarchy, "data": data, "tmp": tmp_path, "T": T}


@st.composite
def _scoring_case(draw):
    """A random hierarchy, 0/1 or with real aggregation entries, a seasonal
    period, a draw count and the shape of the draws: ties (values on an
    integer grid) and constant columns."""
    n_upper = draw(st.integers(1, 4))
    n_bottom = draw(st.integers(2, 6))
    entries = draw(st.sampled_from([
        st.integers(0, 1),
        st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 3.7, -2.3]),
    ]))
    agg = draw(
        st.lists(
            st.lists(entries, min_size=n_bottom, max_size=n_bottom),
            min_size=n_upper,
            max_size=n_upper,
        )
    )
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    L = draw(st.sampled_from([2, 3, 17, 200]))
    seed = draw(st.integers(0, 2**32 - 1))
    ties, constant = draw(st.booleans()), draw(st.booleans())
    return np.array(agg, dtype=float), m, L, seed, ties, constant


@pytest.fixture(scope="session")
def scoring_cases():
    """The hypothesis strategy of random cross-temporal cases: 1-4 upper
    over 2-6 bottom series, with 0/1 or real (positive, negative or zero)
    aggregation entries, m in {1, 2, 3, 4, 6, 12}.  A test takes it
    with ``st.data()`` and draws ``(agg, m, L, seed, ties, constant)``.

    It is a fixture because test modules cannot import this conftest by
    name while ``perfbench/tests`` has one too."""
    return _scoring_case()
