import numpy as np
import pytest
from hypothesis import settings

from ssrlab.model import init_model

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# failure seen in CI repeats locally
settings.register_profile("ci", derandomize=True, database=None)


def numeric_grad(f, arrays, eps=1e-5):
    """Central finite differences of f() w.r.t. every entry of the given
    arrays, perturbed in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = a[ix]
            a[ix] = orig + eps
            fp = f()
            a[ix] = orig - eps
            fm = f()
            a[ix] = orig
            g[ix] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def flat(arrays):
    return np.concatenate([np.asarray(a).ravel() for a in arrays])


def rel_err(analytic, numeric):
    a = flat(analytic)
    n = flat(numeric)
    return np.linalg.norm(a - n) / max(np.linalg.norm(n), 1e-10)


@pytest.fixture
def tiny_model():
    rng = np.random.default_rng(7)
    model = init_model(5, 3, hidden_dims=(6, 4), rng=rng)
    # random head: the zero init would hide head-gradient bugs
    model.head[0][:] = rng.normal(0, 0.5, model.head[0].shape)
    model.head[1][:] = rng.normal(0, 0.1, model.head[1].shape)
    return model
