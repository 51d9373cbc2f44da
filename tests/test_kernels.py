import numpy as np

from multisurf import _pure


class TestBackends:
    def test_pure_solves(self):
        M = np.array([[2.0, 0.0], [0.0, 2.0]])
        q = np.array([-1.0, 3.0])
        z = np.zeros(2)
        sweeps, delta = _pure.psor_sweeps(M, q, -np.ones(2), np.ones(2), z,
                                          1.0, 100, 1e-12)
        assert delta < 1e-12
        assert np.allclose(z, [0.5, -1.0])

    def test_in_place_update(self):
        M = np.array([[1.0]])
        z = np.array([0.9])
        _pure.psor_sweeps(M, np.array([-2.0]), -np.ones(1), np.ones(1), z,
                          1.0, 50, 1e-12)
        assert z[0] == 1.0
