"""The scheduler's vectorised best-fit query against a brute-force oracle.

The oracle scores Eq. 10 the slow, obvious way: for every candidate
configuration it walks *every* server, keeps those where
``Server.can_fit`` holds and whose weighted free capacity covers the
configuration's weighted cost, takes the least weighted free capacity
(ties to the lowest server id), and scores the pair with
``efficiency.resource_efficiency``.  Hypothesis draws the cluster
states -- homogeneous and mixed-generation fleets, partly filled,
with failed servers, host memory held by swapped-out weights, and a
co-placement hint -- and every scheduler pick must equal the oracle's.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    Cluster, ResourceVector, Server, build_testbed_cluster,
)
from repro.cluster.fleet import FleetSpec, GpuProfile, ServerGroup, profile_map
from repro.core import FunctionSpec, GreedyScheduler
from repro.core import efficiency
from repro.core.efficiency import rps_per_resource
from repro.profiling.configspace import batch_choices
from repro.workflows import CoPlacementHint, WorkflowSpec, WorkflowStage

MODELS = ("resnet-50", "mobilenet", "ssd", "mnist", "lstm-2365")


def reference_fit(
    cluster, resources: ResourceVector, beta: float,
    servers: Optional[Set[int]] = None,
) -> Optional[Tuple[float, int]]:
    """(weighted free, id) of the best-fit server, by brute force."""
    cost = resources.weighted(beta)
    best = None
    for server in sorted(cluster.servers, key=lambda s: s.server_id):
        if servers is not None and server.server_id not in servers:
            continue
        if not server.can_fit(resources):
            continue
        free = server.weighted_free(beta)
        if free < cost - 1e-9:
            continue
        if best is None or free < best[0]:
            best = (free, server.server_id)
    return best


def reference_rows(scheduler, function, batch, remaining):
    """Candidate rows and the servers each may land on.

    Rows priced for a GPU generation only fit servers of that
    generation; CPU-only rows fit anywhere (``None``).
    """
    generation = {
        sid: profile.name
        for sid, profile in profile_map(scheduler.cluster).items()
    }
    if not generation:
        return [
            (row, None)
            for row in scheduler.available_configs(function, batch, remaining)
        ]
    profiles = {p.name: p for p in profile_map(scheduler.cluster).values()}
    rows = []
    for profile in [None] + [profiles[name] for name in sorted(profiles)]:
        name = None if profile is None else profile.name
        on = {
            server.server_id for server in scheduler.cluster.servers
            if generation.get(server.server_id) == name
        }
        for row in scheduler.available_configs(
            function, batch, remaining, gpu_profile=profile
        ):
            cpu_only = profile is None and row[0].gpu == 0
            rows.append((row, None if cpu_only else on))
    return rows


def reference_pick(scheduler, function, remaining):
    """The (config, server id) one ``schedule(max_instances=1)`` places."""
    cluster = scheduler.cluster
    beta = scheduler._efficiency_beta()
    hint = scheduler.coplacement
    preferred = (
        hint.preferred_servers(function.name)
        if hint is not None and hint.tracks(function.name)
        else set()
    )
    batches = [
        b for b in sorted(
            batch_choices(scheduler.config_space.max_batch), reverse=True
        )
        if b <= function.model.max_batch
    ]
    for batch in batches:
        rows = reference_rows(scheduler, function, batch, remaining)
        if not rows:
            continue
        normaliser = max(
            rps_per_resource(
                min(row[2].r_up, remaining), row[0].cpu, row[0].gpu, beta
            )
            for row, _servers in rows
        )

        def score(row, server_id):
            server = cluster.server(server_id)
            return efficiency.resource_efficiency(
                min(row[2].r_up, remaining), row[0].cpu, row[0].gpu,
                server.cpu_free, server.gpu_free, beta,
                normaliser=normaliser,
            )

        best, best_score = None, -1.0
        pref_best, pref_score = None, -1.0
        for row, servers in rows:
            resources = scheduler._instance_resources(function, row[0])
            fit = reference_fit(cluster, resources, beta, servers)
            if fit is None:
                continue
            value = score(row, fit[1])
            if value > best_score:
                best, best_score = (row[0], fit[1]), value
            if preferred and fit[1] not in preferred:
                within = reference_fit(cluster, resources, beta, preferred)
                if within is not None:
                    value = score(row, within[1])
                    if value > pref_score:
                        pref_best, pref_score = (row[0], within[1]), value
        if best is None:
            continue
        if (
            preferred
            and best[1] not in preferred
            and pref_best is not None
            and pref_score >= hint.tolerance * best_score
        ):
            best = pref_best
        return best
    return None


def stage_workflow() -> WorkflowSpec:
    return WorkflowSpec(
        name="oracle",
        stages=(
            WorkflowStage("o-ssd", model="ssd", downstream=("o-mnet",)),
            WorkflowStage("o-mnet", model="mobilenet", downstream=("o-rnet",)),
            WorkflowStage("o-rnet", model="resnet-50"),
        ),
        end_to_end_slo_s=0.6,
    )


def build_cluster(kind: str, sizes: List[int]):
    if kind == "homogeneous":
        return build_testbed_cluster(num_servers=sizes[0] + sizes[1])
    return FleetSpec(groups=(
        ServerGroup(count=sizes[0], gpu_profile="2080ti"),
        ServerGroup(count=sizes[1], gpu_profile="t4"),
        ServerGroup(count=sizes[2], gpus=1, gpu_profile="a100"),
        ServerGroup(count=sizes[3], gpus=0),
    )).build_cluster()


def prepare(cluster, loads, failures, swaps):
    """Fill, fail and swap-reserve servers as drawn."""
    servers = cluster.servers
    for index, cpu, gpu, memory_gb in loads:
        server = servers[index % len(servers)]
        request = ResourceVector(cpu=cpu, gpu=gpu, memory_mb=memory_gb * 1024)
        if server.can_fit(request):
            cluster.allocate(server.server_id, request)
    for index, share in swaps:
        server = servers[index % len(servers)]
        cluster.swap_reserve(
            server.server_id, share * server.host_memory_available_mb
        )
    for index in failures:
        cluster.fail_server(servers[index % len(servers)].server_id)


class TestBestFitOracle:
    @given(
        kind=st.sampled_from(["homogeneous", "mixed"]),
        sizes=st.lists(st.integers(1, 3), min_size=4, max_size=4),
        loads=st.lists(
            st.tuples(
                st.integers(0, 11), st.integers(0, 16),
                st.integers(0, 100), st.integers(0, 120),
            ),
            max_size=14,
        ),
        failures=st.lists(st.integers(0, 11), max_size=2),
        swaps=st.lists(
            st.tuples(
                st.integers(0, 11),
                st.sampled_from([0.25, 0.9, 0.999, 1.0]),
            ),
            max_size=4,
        ),
        model=st.sampled_from(MODELS),
        slo_ms=st.sampled_from([100, 200, 400]),
        residual=st.floats(1.0, 3000.0),
        dynamic_beta=st.booleans(),
    )
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_picks_match_brute_force(
        self, predictor, kind, sizes, loads, failures, swaps, model,
        slo_ms, residual, dynamic_beta,
    ):
        cluster = build_cluster(kind, sizes)
        prepare(cluster, loads, failures, swaps)
        scheduler = GreedyScheduler(
            cluster, predictor, dynamic_beta=dynamic_beta
        )
        function = FunctionSpec.for_model(model, slo_s=slo_ms / 1e3)
        self._check_steps(scheduler, function, residual, steps=4)

    @given(
        loads=st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 16),
                st.integers(0, 100), st.integers(0, 120),
            ),
            max_size=10,
        ),
        neighbours=st.lists(st.integers(0, 7), min_size=1, max_size=4),
        swaps=st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from([0.9, 1.0])),
            max_size=2,
        ),
        failures=st.lists(st.integers(0, 7), max_size=1),
        tolerance=st.sampled_from([0.5, 0.9, 1.0]),
        residual=st.floats(1.0, 2000.0),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_coplacement_picks_match_brute_force(
        self, predictor, loads, neighbours, swaps, failures, tolerance,
        residual,
    ):
        cluster = build_testbed_cluster()
        prepare(cluster, loads, failures, swaps)
        scheduler = GreedyScheduler(cluster, predictor)
        hint = CoPlacementHint(stage_workflow(), tolerance=tolerance)
        for index in neighbours:
            hint.record("o-ssd", cluster.servers[index].server_id)
        scheduler.coplacement = hint
        function = FunctionSpec.for_model(
            "mobilenet", slo_s=0.2, name="o-mnet"
        )
        self._check_steps(scheduler, function, residual, steps=4)

    def _check_steps(self, scheduler, function, residual, steps):
        remaining = residual
        for _ in range(steps):
            expected = reference_pick(scheduler, function, remaining)
            outcome = scheduler.schedule(
                function, remaining, max_instances=1
            )
            placed = [
                (instance.config, instance.placement.server_id)
                for instance in outcome.instances
            ]
            assert placed == ([] if expected is None else [expected])
            if not placed:
                return
            remaining = outcome.leftover_rps
            if remaining <= 1e-9:
                return


class TestSwapReservationBlocksPlacement:
    """Swapped-out weights that fill host RAM keep placements away."""

    def test_full_host_memory_is_never_picked_until_released(
        self, predictor
    ):
        cluster = build_testbed_cluster(num_servers=2)
        scheduler = GreedyScheduler(cluster, predictor)
        function = FunctionSpec.for_model("mobilenet", slo_s=0.2)

        first = scheduler.schedule(function, 1e9, max_instances=1)
        assert first.instances[0].placement.server_id == 0
        scheduler.release(first.instances[0])

        full = cluster.server(0).host_memory_available_mb
        assert cluster.swap_reserve(0, full)
        placed = []
        for _ in range(3):
            outcome = scheduler.schedule(function, 1e9, max_instances=1)
            placed += outcome.instances
        assert placed
        assert all(inst.placement.server_id != 0 for inst in placed)

        cluster.swap_release(0, full)
        for instance in placed:
            scheduler.release(instance)
        again = scheduler.schedule(function, 1e9, max_instances=1)
        assert again.instances[0].placement.server_id == 0


class TestQueryShape:
    def test_no_fit_reports_minus_one(self):
        cluster = build_testbed_cluster(num_servers=2)
        servers, capacity = cluster.best_fit(
            [ResourceVector(cpu=17), ResourceVector(gpu=101)], cluster.beta
        )
        assert servers == [-1, -1]
        assert capacity == [float("inf")] * 2

    def test_gpu_quota_capped_at_one_whole_device(self):
        """A device with more than 100 quota units still caps one
        instance's share at 100, exactly as ``Server.can_fit`` does."""
        big = GpuProfile(name="big", sm_units=200)
        cluster = Cluster(servers=[Server(server_id=0, gpu_profile=big)])
        request = ResourceVector(gpu=150)
        assert not cluster.server(0).can_fit(request)
        servers, _capacity = cluster.best_fit([request], cluster.beta)
        assert servers == [-1]
        servers, _capacity = cluster.best_fit(
            [ResourceVector(gpu=100)], cluster.beta
        )
        assert servers == [0]

    def test_ties_break_to_lowest_id(self):
        cluster = build_testbed_cluster(num_servers=4)
        cluster.allocate(3, ResourceVector(cpu=2))
        cluster.allocate(1, ResourceVector(cpu=2))
        servers, capacity = cluster.best_fit(
            [ResourceVector(cpu=1)], cluster.beta
        )
        assert servers == [1]
        assert capacity == [pytest.approx(14 * cluster.beta + 200)]
