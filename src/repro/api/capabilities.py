"""The support matrix: which engine, platform class and feature combine.

Every combination either runs or is refused with its rule's reason;
nothing is silently ignored.  :func:`check_supported` is the only
place a combination error is raised, and :func:`render_markdown`
writes the table ``docs/architecture.md`` embeds.  A feature is in
use when it is set or off its default -- never judged by truthiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

ENGINES = ("des", "fluid", "hybrid")
#: registry INFless, registry single-shot baseline, registry LLM,
#: pre-built platform object, ``cluster -> platform`` factory.  An
#: object or factory is also checked as the class it is or builds.
PLATFORM_CLASSES = ("infless", "baseline", "autoregressive", "object", "factory")
FEATURES = (
    "workflow", "faults", "resilience", "telemetry", "timeline", "windowed",
    "sketch", "fleet", "coldstart", "autoscaler", "platform_options", "hot_k",
)


@dataclass(frozen=True)
class Rule:
    """Refuse ``engines`` x ``platforms`` runs using any of ``features``
    (every run when empty) while all of ``alongside`` are in use too."""

    engines: Tuple[str, ...]
    platforms: Tuple[str, ...]
    features: Tuple[str, ...]
    reason: str
    alongside: Tuple[str, ...] = ()


_APPROX = ("fluid", "hybrid")

#: the table; the first rule that refuses a combination gives its reason.
RULES = (
    Rule(_APPROX, ("baseline", "autoregressive", "object", "factory"), (),
         "the fluid and hybrid engines model the INFless control laws only;"
         " use platform='infless' (baseline, LLM and pre-built platforms run"
         " engine='des')"),
    Rule(_APPROX, ("infless",),
         ("workflow", "faults", "resilience", "telemetry", "timeline", "windowed"),
         "the fluid and hybrid engines integrate rates read off the trace and"
         " keep no per-request or per-tick records; workflow, faults,"
         " resilience, telemetry, timeline and windowed arrivals need"
         " engine='des'"),
    Rule(_APPROX, ("infless",),
         ("fleet", "coldstart", "autoscaler", "platform_options"),
         "the fluid and hybrid engines model the default fleet and platform"
         " settings; fleet, coldstart, autoscaler and platform_options need"
         " engine='des'"),
    Rule(("des", "fluid"), PLATFORM_CLASSES, ("hot_k",),
         "hot_k sizes the hybrid engine's discrete partition; it needs"
         " engine='hybrid'"),
    Rule(("des",), ("baseline", "autoregressive"), ("coldstart", "autoscaler"),
         "coldstart and autoscaler select INFless mechanisms (the cold-start"
         " policy, the vertical-first autoscaler); baseline and LLM platforms"
         " keep their own"),
    Rule(("des",), ("object", "factory"),
         ("coldstart", "autoscaler", "platform_options"),
         "a pre-built platform or factory constructs the platform itself;"
         " pass coldstart, autoscaler and platform_options to its constructor"),
    Rule(("des",), ("object",), ("fleet",),
         "a pre-built platform owns its cluster; build that cluster with"
         " FleetSpec.build_cluster() or pass a cluster -> platform factory"),
    Rule(("des",), ("autoregressive",),
         ("workflow", "resilience", "windowed", "sketch"),
         "autoregressive (LLM) platforms serve single requests and keep"
         " per-request token records; workflow, resilience (preemption"
         " recovers at token granularity), windowed arrivals and sketch"
         " metrics are not supported"),
    Rule(("des",), PLATFORM_CLASSES, ("faults", "resilience"),
         "workflow= runs on the plain discrete-event loop; it does not"
         " support faults or resilience yet", alongside=("workflow",)),
)


def rejection(
    engine: str, platforms: Iterable[str], in_use: Iterable[str]
) -> Optional[str]:
    """The reason the table refuses this run, or None if it is supported."""
    platforms, in_use = set(platforms), set(in_use)
    for rule in RULES:
        if (
            engine in rule.engines
            and not platforms.isdisjoint(rule.platforms)
            and (not rule.features or not in_use.isdisjoint(rule.features))
            and in_use.issuperset(rule.alongside)
        ):
            return rule.reason
    return None


def check_supported(
    engine: str, platforms: Iterable[str], in_use: Iterable[str]
) -> None:
    """Raise ``ValueError`` with the table's reason for a refused run."""
    reason = rejection(engine, platforms, in_use)
    if reason is not None:
        raise ValueError(reason)


def render_markdown() -> str:
    """The matrix as markdown: ✓ runs, ✗n is refused for reason n."""
    reasons = [rule.reason for rule in RULES]
    rows = []
    for engine in ENGINES:
        for platform in PLATFORM_CLASSES:
            marks = []
            for feature in (None, *FEATURES):
                reason = rejection(engine, [platform], [feature] if feature else [])
                marks.append("✓" if reason is None else f"✗{reasons.index(reason) + 1}")
            if rows and rows[-1][0] == engine and rows[-1][2] == marks:
                rows[-1][1].append(platform)  # merge rows that agree
            else:
                rows.append((engine, [platform], marks))
    lines = ["| engine | platform | plain | " + " | ".join(FEATURES) + " |",
             "|---|---|---|" + "---|" * len(FEATURES)]
    for engine, platforms, marks in rows:
        lines.append(f"| {engine} | {', '.join(platforms)} | " + " | ".join(marks) + " |")
    lines.append("")
    for number, rule in enumerate(RULES, start=1):
        context = f"(with {', '.join(rule.alongside)}) " if rule.alongside else ""
        lines.append(f"{number}. {context}{rule.reason}")
    return "\n".join(lines) + "\n"
