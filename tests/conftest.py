import numpy as np
import pytest

from radioscope import SamplingConfig, SecretKey, WatermarkConfig, make_teacher

# one PASS/FAIL line per acceptance criterion, echoed after the test
# summary so they survive output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def teacher64():
    return make_teacher(vocab_size=64, seed=7, source_tokens=120_000)


@pytest.fixture
def fresh_teacher64():
    """``teacher64`` without the decode rows earlier tests built in it."""
    return make_teacher(vocab_size=64, seed=7, source_tokens=120_000)


@pytest.fixture(scope="session")
def teacher128():
    return make_teacher(vocab_size=128, seed=7)


@pytest.fixture
def key():
    return SecretKey(0xDEADBEEFCAFE)


@pytest.fixture
def kgw_cfg(key):
    return WatermarkConfig("kgw", key, 64, k=2, gamma=0.25, delta=3.0)


@pytest.fixture
def sampling():
    return SamplingConfig(seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
