import numpy as np
import pytest
from hypothesis import settings

from handover.classifier import TorqueNetConfig, train
from handover.synth import default_signature_model, generate_dataset

# property tests replay the same examples on every run and keep no database
settings.register_profile(
    "deterministic", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_model():
    """A quickly trained but accurate model for episode-level tests."""
    dataset = generate_dataset(default_signature_model(), per_class_count=40, seed=11)
    net, stats, report = train(dataset, TorqueNetConfig(seed=11, epochs=8))
    assert report.holdout_accuracy >= 0.9, "small fixture model failed to train"
    return net, stats, report


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
