"""Golden-metrics regression tests.

``tests/golden/smoke_metrics.json`` freezes the key figure outputs of the
``smoke`` scenario — Figure 9 interactivity/TCT CDF quantiles, Figure 12
cost/revenue, Figure 13 GPU-hours saved — plus a SHA-256 digest of the full
serialized :class:`MetricsCollector`, as produced by the seed (pre-fast-path)
engine.  The optimized engine must reproduce every number *exactly*: the
fast path is a pure performance refactor, so any drift here is a scheduling
or accounting regression, not noise.

Regenerate the goldens only for an intended behaviour change::

    PYTHONPATH=src python tests/golden/generate.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py")
_generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_generate)
GOLDEN_PATH = _generate.GOLDEN_PATH
MEGA_GOLDEN_PATH = _generate.MEGA_GOLDEN_PATH
build_goldens = _generate.build_goldens
build_mega_goldens = _generate.build_mega_goldens


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(Path(GOLDEN_PATH).read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return build_goldens()


@pytest.fixture(scope="module")
def mega_golden() -> dict:
    return json.loads(Path(MEGA_GOLDEN_PATH).read_text())


@pytest.fixture(scope="module")
def mega_current() -> dict:
    return build_mega_goldens()


def test_golden_file_is_committed(golden):
    assert golden["policies"], "golden fixture is empty — run generate.py"


def test_collector_digests_match_exactly(golden, current):
    """The strongest pin: byte-identical serialized collectors."""
    for policy, frozen in golden["policies"].items():
        assert current["policies"][policy]["collector_sha256"] == \
            frozen["collector_sha256"], (
                f"{policy}: serialized MetricsCollector drifted from the "
                f"seed engine's output")


def test_fig9_cdf_quantiles_match_exactly(golden, current):
    for policy, frozen in golden["policies"].items():
        now = current["policies"][policy]
        assert now["interactivity_quantiles"] == frozen["interactivity_quantiles"]
        assert now["tct_quantiles"] == frozen["tct_quantiles"]
        assert now["tasks_completed"] == frozen["tasks_completed"]


def test_fig12_cost_matches_exactly(golden, current):
    for policy, frozen in golden["policies"].items():
        assert current["policies"][policy]["fig12_cost"] == frozen["fig12_cost"]


def test_fig13_gpu_hours_match_exactly(golden, current):
    assert current["fig13_gpu_hours_saved"] == golden["fig13_gpu_hours_saved"]


def test_gpu_hours_match_exactly(golden, current):
    for policy, frozen in golden["policies"].items():
        now = current["policies"][policy]
        assert now["provisioned_gpu_hours"] == frozen["provisioned_gpu_hours"]
        assert now["committed_gpu_hours"] == frozen["committed_gpu_hours"]


def test_mega_smoke_collector_digest_matches_exactly(mega_golden, mega_current):
    """The mega_scale-smoke pin: the scheduling path must be byte-identical
    on the large-cluster scenario family too, not only on ``smoke``."""
    assert mega_current["overrides"] == mega_golden["overrides"]
    for policy, frozen in mega_golden["policies"].items():
        now = mega_current["policies"][policy]
        assert now["collector_sha256"] == frozen["collector_sha256"], (
            f"{policy}: mega-smoke serialized MetricsCollector drifted")
        assert now["tasks_completed"] == frozen["tasks_completed"]
