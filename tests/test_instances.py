import random
import time

import pytest

from minkarr.bodies import body_from_json
from minkarr.instances import (FLOOR_ATTEMPTS, NoArrangementFound,
                               random_minkowski_arrangement)

# a thin random hexagon of the benchmark's verify_exact inputs (seed 13,
# input 32); from rng seed 1 no full-lift family on it turns up, and the
# generator ran on until the benchmark's draw cap stopped it
THIN_HEXAGON = {"dim": 2, "type": "vpoly",
                "vertices": [["1/2", "1/2"], [-1, "-5/4"], ["-3/2", -2],
                             ["-1/2", "-1/2"], [1, "5/4"], ["3/2", 2]]}


def test_full_lift_gives_up_on_a_thin_hexagon():
    body = body_from_json(THIN_HEXAGON)
    t0 = time.perf_counter()
    with pytest.raises(NoArrangementFound):
        random_minkowski_arrangement(random.Random(1), body=body, n=5,
                                     full_lift=True)
    assert time.perf_counter() - t0 < 20
    assert issubclass(NoArrangementFound, ValueError)
    # every floor attempt draws n*dim >= 8 randint values (n = 4, dim = 2),
    # so a caller that caps one call at 50,000 draws always stops it first
    assert FLOOR_ATTEMPTS * 8 > 50_000

