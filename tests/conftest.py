"""Shared fixtures: one default simulated corpus and the artifacts built
from it. Session scoped because lattice sweeps and surface fits dominate
the suite's runtime; every consumer treats these as read-only."""

import pytest

from xfertune import (
    ENDPOINTS,
    SLA,
    StratifyConfig,
    fit_all_strata,
    generate_training_logs,
    optimize_all,
    stratify,
)


@pytest.fixture(scope="session")
def corpus():
    """Default noise-free sweep: chameleon endpoint, full lattice,
    three load levels, three file classes."""
    return generate_training_logs(seed=0)


@pytest.fixture(scope="session")
def corpus_two_sweeps():
    """Same corpus swept twice, so every lattice point has a duplicate
    and a 70/30 holdout split leaves test entries on every tuple."""
    return generate_training_logs(sweeps=2, seed=0)


@pytest.fixture(scope="session")
def multiroute_noisy():
    """The benchmark's multiroute-noisy corpus at seed 1: chameleon,
    cloudlab and intercloud swept twice with noise 0.02, 23,328 entries."""
    specs = [ENDPOINTS[n] for n in ("chameleon", "cloudlab", "intercloud")]
    return generate_training_logs(specs=specs, sweeps=2, noise=0.02, seed=1)


@pytest.fixture(scope="session")
def stratify_config():
    return StratifyConfig()


@pytest.fixture(scope="session")
def strata(corpus, stratify_config):
    return stratify(corpus, stratify_config)


@pytest.fixture(scope="session")
def models(corpus, strata):
    fitted, _ = fit_all_strata(corpus, strata, with_holdout=False)
    return fitted


@pytest.fixture(scope="session")
def table(models):
    return optimize_all(models, [SLA.max_throughput(), SLA.min_energy()])
