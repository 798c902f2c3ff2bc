import contextlib
import os
import warnings

import pytest

from topoclass.data import gen_annulus2d
from topoclass.network import build_paper_net
from topoclass.numerics import make_rng
from topoclass.training import TrainConfig, train

# hypothesis explains a failing property by importing libcst, whose import
# of mypy_extensions.TypedDict warns DeprecationWarning; pyproject.toml makes
# that an error, which would end the session at the first failing property.
# Imported once here with the warning ignored, libcst is cached for it.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import libcst  # noqa: F401


@pytest.fixture(scope="session")
def annulus500():
    return gen_annulus2d(500, 0)


@pytest.fixture(scope="session")
def trained_paper_net(annulus500):
    """Paper-architecture net trained to 100% on the session annulus."""
    net = build_paper_net(make_rng(0))
    cfg = TrainConfig(epochs=500, seed=0, target_accuracy=1.0)
    trained, history = train(net, annulus500, cfg)
    assert history.accuracies[-1] == 1.0, "fixture net failed to converge"
    return trained


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which a child process is running or not yet reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process is still running" if pid == 0 else f"child {pid} was not reaped")
