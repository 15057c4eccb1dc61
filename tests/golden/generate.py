"""Regenerate the golden-metrics fixtures in this directory.

The goldens freeze the key figure outputs of the ``smoke`` scenario —
Figure 9 interactivity/TCT CDF quantiles, Figure 12 cost/revenue, and
Figure 13 GPU-hours saved — plus a SHA-256 digest of the full serialized
:class:`~repro.metrics.collector.MetricsCollector`, so that engine
refactors can be proven output-preserving bit for bit.

Run from the repository root (only when a behavior change is *intended*)::

    PYTHONPATH=src python tests/golden/generate.py

and commit the resulting ``smoke_metrics.json`` and
``mega_smoke_metrics.json`` together with the change that moved the
numbers.  ``tests/test_golden_metrics.py`` asserts the current engine
reproduces these files exactly.

The mega-smoke golden replays a scaled-down ``mega_scale`` scenario
(same platform/cluster config preset, fewer sessions over a shorter
window) so the scheduling path is pinned on the large-cluster scenario
family, at a size the test suite can afford.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("smoke_metrics.json")
MEGA_GOLDEN_PATH = Path(__file__).with_name("mega_smoke_metrics.json")

QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)
FIG13_INTERVALS_MIN = (15, 30, 60, 90, 120)
POLICIES = ("notebookos", "reservation")
MEGA_POLICIES = ("notebookos",)
#: Generator overrides that shrink mega_scale to test-suite size.
MEGA_SMOKE_OVERRIDES = {"num_sessions": 150, "duration_hours": 1.0}


def collector_digest(collector) -> str:
    canonical = json.dumps(collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_goldens() -> dict:
    from repro.experiments import build_trace, default_registry
    from repro.experiments.runner import _execute_spec
    from repro.metrics.collector import ExperimentResult
    from repro.metrics.cost import BillingModel, gpu_hours_saved_by_state_persistence

    scenario = default_registry().get("smoke")
    billing = BillingModel()
    golden: dict = {"scenario": "smoke", "policies": {}}

    for policy in POLICIES:
        spec = scenario.instantiate(policy=policy)
        # Materialize through the same JSON round-trip the runner and the
        # result store use, so the digest pins the serialized form exactly.
        result = ExperimentResult.from_dict(_execute_spec(spec.to_dict()))
        collector = result.collector
        interactivity = collector.interactivity_cdf()
        tct = collector.tct_cdf()
        trace = build_trace(spec)
        report = billing.report(policy, trace, collector.provisioned_gpus)
        golden["policies"][policy] = {
            "collector_sha256": collector_digest(collector),
            "tasks_completed": len(collector.completed_tasks()),
            "interactivity_quantiles": {
                str(q): interactivity.percentile(q) for q in QUANTILES},
            "tct_quantiles": {str(q): tct.percentile(q) for q in QUANTILES},
            "provisioned_gpu_hours": collector.provisioned_gpu_hours(),
            "committed_gpu_hours": collector.committed_gpu_hours(),
            "fig12_cost": {
                "provider_cost_usd": report.provider_cost_usd,
                "revenue_usd": report.revenue_usd,
                "profit_margin": report.profit_margin,
            },
        }

    smoke_trace = build_trace(scenario.instantiate())
    golden["fig13_gpu_hours_saved"] = {
        str(minutes): {"reclamations": r.reclamations,
                       "gpu_hours_saved": r.gpu_hours_saved}
        for minutes, r in zip(
            FIG13_INTERVALS_MIN,
            gpu_hours_saved_by_state_persistence(
                smoke_trace, reclamation_intervals_minutes=FIG13_INTERVALS_MIN))}
    return golden


def build_mega_goldens() -> dict:
    from repro.experiments import default_registry
    from repro.experiments.runner import _execute_spec
    from repro.metrics.collector import ExperimentResult

    scenario = default_registry().get("mega_scale")
    golden: dict = {"scenario": "mega_scale",
                    "overrides": dict(MEGA_SMOKE_OVERRIDES),
                    "policies": {}}
    for policy in MEGA_POLICIES:
        spec = scenario.instantiate(policy=policy, **MEGA_SMOKE_OVERRIDES)
        result = ExperimentResult.from_dict(_execute_spec(spec.to_dict()))
        collector = result.collector
        golden["policies"][policy] = {
            "collector_sha256": collector_digest(collector),
            "tasks_completed": len(collector.completed_tasks()),
        }
    return golden


def main() -> None:
    golden = build_goldens()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    mega = build_mega_goldens()
    MEGA_GOLDEN_PATH.write_text(json.dumps(mega, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MEGA_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
