import numpy as np
import pytest

from physiobench import datapipe as dp
from physiobench import harness as hz
from physiobench.core import tensor as T


@pytest.fixture
def restore_default_dtype():
    """For tests that set the default dtype themselves: put it back after."""
    saved = T.default_dtype()
    yield
    T.set_default_dtype(saved)


@pytest.fixture
def float32_mode(restore_default_dtype):
    T.set_default_dtype(np.float32)


@pytest.fixture(scope="session")
def cls_dataset():
    return dp.generate_synthetic(n_cases=30, samples_per_case=6,
                                 task="classification", seed=101,
                                 difficulty=1.0, prevalence=0.5)


@pytest.fixture(scope="session")
def reg_dataset():
    return dp.generate_synthetic(n_cases=30, samples_per_case=6,
                                 task="regression", seed=202, difficulty=1.0)


@pytest.fixture(scope="session")
def cls_bundle(cls_dataset):
    train, test = dp.split_by_case(cls_dataset, test_fraction=0.2, seed=0)
    return hz.prepare(train, test)


@pytest.fixture(scope="session")
def reg_bundle(reg_dataset):
    train, test = dp.split_by_case(reg_dataset, test_fraction=0.2, seed=0)
    return hz.prepare(train, test)
