import pickle
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import kspod


def assert_equal_and_read_only(copy, orig):
    """Field by field, nested frozen dataclasses included: equal values, and
    every array read-only as in a constructed instance."""
    assert type(copy) is type(orig)
    for f in fields(orig):
        got, want = getattr(copy, f.name), getattr(orig, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            assert not got.flags.writeable, f.name
        elif is_dataclass(want):
            assert_equal_and_read_only(got, want)
        else:
            assert got == want, f.name


INSTANCES = {
    "DesignMatrix": lambda cases, model: kspod.generate_slhd(2, 3, 2, seed=1),
    "DesignRanges": lambda cases, model: kspod.SWIRL_DESIGN_RANGES,
    "PODBasis": lambda cases, model: kspod.decompose(cases[0]),
    "PODBasis-uncentered": lambda cases, model: kspod.decompose(cases[0], centering=False),
    "SnapshotSet": lambda cases, model: cases[0],
    # a model's DesignRanges is checked as a nested dataclass
    "EmulatorModel": lambda cases, model: model,
}


@pytest.mark.parametrize("name", INSTANCES)
def test_round_trip_is_equal_and_read_only(name, small_cases, small_model):
    # numpy does not pickle the read-only flag; the copy must come back
    # through the constructor, which checks and freezes its arrays again
    orig = INSTANCES[name](small_cases, small_model)
    copy = pickle.loads(pickle.dumps(orig))
    assert_equal_and_read_only(copy, orig)

