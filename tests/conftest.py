"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.metrics import Chebyshev, Euclidean, Manhattan, Minkowski


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def uniform_2d(rng) -> np.ndarray:
    """500 uniform points in the unit square."""
    return rng.random((500, 2))


@pytest.fixture
def uniform_3d(rng) -> np.ndarray:
    """400 uniform points in the unit cube."""
    return rng.random((400, 3))


@pytest.fixture
def clustered_2d(rng) -> np.ndarray:
    """600 points in 6 tight clusters — the output-explosion workload."""
    centers = rng.random((6, 2))
    choice = rng.integers(0, 6, size=600)
    return np.clip(centers[choice] + rng.normal(scale=0.01, size=(600, 2)), 0, 1)


@pytest.fixture
def mutated_words() -> list[str]:
    """105 words: five seed words, each followed by twenty copies with one
    letter replaced — Hamming clusters for the object-metric joins."""
    rng = np.random.default_rng(3)
    words = []
    for seed_word in ("alpha", "bridge", "crystal", "domino", "eagle"):
        words.append(seed_word)
        for _ in range(20):
            chars = list(seed_word)
            pos = int(rng.integers(len(chars)))
            chars[pos] = "abcdefghij"[int(rng.integers(10))]
            words.append("".join(chars))
    return words


ALL_METRICS = [Euclidean(), Manhattan(), Chebyshev(), Minkowski(3)]


@pytest.fixture(params=ALL_METRICS, ids=[m.name for m in ALL_METRICS])
def metric(request):
    return request.param
