"""Shared fixtures: precision hygiene plus the two session-scoped trainings.

The two training runs (a 200-step single-sequence overfit and an 800-step
16-sequence run) are expensive on one CPU core, so they are built once per
session and shared between the pipeline tests and the acceptance suite.

OpenBLAS runs one thread unless the caller's environment names a count: it
reads ``OPENBLAS_NUM_THREADS`` once, when NumPy is first imported, below this
point.  Its own default of one thread per core oversubscribes a small host
that is busy with anything else.
"""

import os
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest
from hypothesis import settings

from kinterp import numcore
from kinterp.model import tiny_config
from kinterp.phantom import DatasetSpec, make_dataset
from kinterp.pipeline import TrainConfig, train

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")

# (criterion number, description, "PASS"/"FAIL") tuples collected by
# test_acceptance and echoed after the run summary.
ACCEPTANCE_LINES: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for number, description, verdict in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(f"criterion {number} ({description}): {verdict}")


@pytest.fixture(autouse=True)
def _test_precision():
    # Gradient checks need float64; training fixtures switch modes internally.
    numcore.set_mode("test")
    yield
    numcore.set_mode("test")


@pytest.fixture(scope="session")
def dataset_manifests(tmp_path_factory):
    """A 16-train / 5-test phantom set plus a single-sequence train manifest."""
    root = tmp_path_factory.mktemp("phantoms")
    full = make_dataset(root, 16, 5, DatasetSpec(32, 32, 8), seed=0)
    kept = [
        line
        for line in full.read_text().splitlines()
        if line.split()[2].startswith("train_000.") or line.startswith("test ")
    ]
    single = root / "manifest_one.txt"
    single.write_text("\n".join(kept) + "\n")
    return {"full": full, "single": single, "root": root}


@pytest.fixture(scope="session")
def overfit_run(dataset_manifests, tmp_path_factory):
    """200 steps on one sequence at R=4 — the capacity check configuration."""
    out = tmp_path_factory.mktemp("overfit")
    cfg = TrainConfig(
        model=tiny_config(32, 32, 8),
        manifest=dataset_manifests["single"],
        r_train=4.0,
        steps=200,
        seed=0,
        max_lr=1e-4,
    )
    started = time.monotonic()
    result = train(cfg, out)
    return {"config": cfg, "result": result, "seconds": time.monotonic() - started}


@pytest.fixture(scope="session")
def generalize_run(dataset_manifests, tmp_path_factory):
    """800 steps over all 16 training sequences at R=4, for held-out checks."""
    out = tmp_path_factory.mktemp("generalize")
    cfg = TrainConfig(
        model=tiny_config(32, 32, 8),
        manifest=dataset_manifests["full"],
        r_train=4.0,
        steps=800,
        seed=0,
        max_lr=1e-4,
    )
    return {"config": cfg, "result": train(cfg, out)}
