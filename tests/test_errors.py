import inspect
import pickle

import numpy as np
import pytest

from confgames import (BestResponseStalled, BlowUpDetected, ConfGamesError,
                       InfeasibleTheta)

# constructor arguments for every error that carries fields
FIELD_ARGS = {
    BlowUpDetected: (0.25, 3.5e8, 1, np.arange(4.0).reshape(2, 2)),
    InfeasibleTheta: ((0.1, 0.2), 0.75, 0),
    BestResponseStalled: (1, (0.4, 1.1), [(0.4, 0.01)]),
}


def test_every_error_with_fields_is_listed():
    fielded = {cls for cls in ConfGamesError.__subclasses__() if "__init__" in vars(cls)}
    assert fielded == set(FIELD_ARGS)


@pytest.mark.parametrize("cls", list(FIELD_ARGS), ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_fields_and_message(cls):
    err = cls(*FIELD_ARGS[cls])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    for name in inspect.signature(cls).parameters:
        np.testing.assert_equal(getattr(back, name), getattr(err, name))
