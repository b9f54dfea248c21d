"""Trace-level keep-alive policy evaluation (Fig. 16).

Evaluates cold-start policies the way the Azure characterisation does:
replay a function's invocation times; after each invocation the policy
emits its (pre-warm, keep-alive) windows; the next idle gap either hits
a warm image (idle time inside ``[prewarm, prewarm + keepalive]``) or
causes a cold start.  Wasted resource time is the loaded-but-idle
interval each gap produces.

This isolates the policy (LSTH vs HHP vs fixed keep-alive) from the
rest of the platform, exactly what Fig. 16 compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.core.coldstart import KeepAlivePolicy


@dataclass
class PolicyEvaluation:
    """Outcome of replaying invocations through one policy."""

    policy: str
    invocations: int = 0
    cold_starts: int = 0
    wasted_loaded_s: float = 0.0
    #: total idle seconds, for normalising waste across traces.
    total_idle_s: float = 0.0
    per_function: Dict[str, "PolicyEvaluation"] = field(default_factory=dict)

    @property
    def cold_start_rate(self) -> float:
        if self.invocations == 0:
            return 0.0
        return self.cold_starts / self.invocations

    @property
    def waste_ratio(self) -> float:
        """Loaded-but-idle time per second of idle time."""
        if self.total_idle_s <= 0:
            return 0.0
        return self.wasted_loaded_s / self.total_idle_s


def evaluate_policy(
    policy: KeepAlivePolicy,
    invocation_times: Dict[str, Sequence[float]],
) -> PolicyEvaluation:
    """Replay per-function invocation streams through a policy.

    Args:
        policy: the keep-alive policy under test (fresh instance; its
            histograms are populated by this replay).
        invocation_times: function name -> sorted invocation times.

    Returns:
        Aggregate and per-function cold-start / waste statistics.
    """
    total = PolicyEvaluation(policy=getattr(policy, "name", "policy"))
    for name, times in invocation_times.items():
        per_fn = PolicyEvaluation(policy=total.policy)
        ordered = sorted(float(t) for t in times)
        previous = None
        for t in ordered:
            per_fn.invocations += 1
            if previous is not None:
                idle = t - previous
                decision = policy.windows(name, previous)
                if not decision.is_warm_at(idle):
                    per_fn.cold_starts += 1
                per_fn.wasted_loaded_s += decision.wasted_loaded_time(idle)
                per_fn.total_idle_s += idle
            else:
                per_fn.cold_starts += 1  # very first call is always cold
            policy.record_invocation(name, t)
            previous = t
        total.per_function[name] = per_fn
        total.invocations += per_fn.invocations
        total.cold_starts += per_fn.cold_starts
        total.wasted_loaded_s += per_fn.wasted_loaded_s
        total.total_idle_s += per_fn.total_idle_s
    return total


def compare_policies(
    policies: Iterable[KeepAlivePolicy],
    invocation_times: Dict[str, Sequence[float]],
) -> List[PolicyEvaluation]:
    """Evaluate several policies on identical invocation streams."""
    return [evaluate_policy(policy, invocation_times) for policy in policies]
