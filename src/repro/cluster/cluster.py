"""The cluster: a set of servers plus placement bookkeeping.

The scheduler (Algorithm 1) asks the cluster two questions: "where does
this resource request fit?" and "how efficient is placing it on server
j?" (Eq. 10).  The cluster also produces the aggregate statistics used
throughout the evaluation: active servers, weighted resource usage and
the fragment ratio of Fig. 17(b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.resources import BETA, ResourceVector
from repro.cluster.server import AllocationError, Server


@dataclass(frozen=True)
class Placement:
    """A record of one instance's allocation on a server."""

    placement_id: int
    server_id: int
    resources: ResourceVector
    gpu_device_id: Optional[int]


@dataclass
class Cluster:
    """A collection of servers with allocation / release / metrics APIs."""

    servers: List[Server]
    beta: float = BETA
    #: bumped on every allocate/release so callers (the scheduler) can
    #: cache derived values and invalidate them cheaply.
    version: int = 0
    _placements: Dict[int, Placement] = field(default_factory=dict)
    _next_placement_id: Iterable[int] = field(default_factory=itertools.count)

    def __post_init__(self) -> None:
        ids = [server.server_id for server in self.servers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate server ids in cluster")
        self._by_id = {server.server_id: server for server in self.servers}
        # Placement-feasibility mirror: one array entry per server, in
        # ascending server-id order, so an argmin over the arrays breaks
        # ties by the lowest id.  _sync_server_free keeps every entry
        # equal to its live Server fields; all mutations of those
        # fields flow through this class.
        by_id = sorted(self.servers, key=lambda server: server.server_id)
        self._index_of = {
            server.server_id: index for index, server in enumerate(by_id)
        }
        self._ids_arr = np.array(sorted(ids), dtype=np.int64)
        count = len(by_id)
        self._cpu_free_arr = np.zeros(count)
        self._gpu_free_arr = np.zeros(count)
        #: host memory available to placements: free minus swap.
        self._mem_avail_arr = np.zeros(count)
        #: largest single-device free GPU share (the MPS quota bound).
        self._gpu_max_arr = np.zeros(count)
        self._healthy_arr = np.zeros(count, dtype=bool)
        for server in by_id:
            self._sync_server_free(server)
        #: narrowest signed integer type holding -1, every CPU and GPU
        #: capacity, and a value above all of them (see _units).
        self._unit_dtype = np.min_scalar_type(-2 - max(
            [server.cpu_capacity for server in by_id]
            + [gpu.capacity for server in by_id for gpu in server.gpus],
            default=0,
        ))
        # Incrementally-maintained free-pool aggregates: the scheduler
        # re-prices its CPU<->GPU conversion factor after *every*
        # placement, and summing per-server free pools there would be
        # quadratic over a provisioning sweep.  Like the per-server
        # iteration they replace, they span every server regardless
        # of health (a failed machine keeps its free counters).
        self._free_cpu_total = int(sum(s.cpu_free for s in self.servers))
        self._free_gpu_total = int(sum(s.gpu_free for s in self.servers))

    def _sync_server_free(self, server: Server) -> None:
        index = self._index_of[server.server_id]
        self._cpu_free_arr[index] = server.cpu_free
        self._gpu_free_arr[index] = server.gpu_free
        self._mem_avail_arr[index] = (
            server.memory_free_mb - server.swap_reserved_mb
        )
        self._gpu_max_arr[index] = server._gpu_free_max
        self._healthy_arr[index] = server.healthy

    def mirror_drift(self, server: Server) -> List[str]:
        """Mirrored fields of ``server`` that differ from its live state.

        A failed server is only checked for health: placement never
        reads the free counters of a machine that is down.
        """
        index = self._index_of[server.server_id]
        live = [("healthy", self._healthy_arr, server.healthy)]
        if server.healthy:
            live += [
                ("cpu_free", self._cpu_free_arr, server.cpu_free),
                ("gpu_free", self._gpu_free_arr, server.gpu_free),
                (
                    "host_memory_available_mb", self._mem_avail_arr,
                    server.memory_free_mb - server.swap_reserved_mb,
                ),
                ("gpu_free_max", self._gpu_max_arr, server._gpu_free_max),
            ]
        return [name for name, arr, value in live if arr[index] != value]

    @property
    def free_cpu_total(self) -> int:
        """Total free CPU cores across all servers (healthy or not)."""
        return self._free_cpu_total

    @property
    def free_gpu_total(self) -> int:
        """Total free GPU percent units across all servers."""
        return self._free_gpu_total

    def server_mask(self, server_ids: Iterable[int]) -> np.ndarray:
        """Boolean mask over the mirror, True for the named servers."""
        mask = np.zeros(len(self._ids_arr), dtype=bool)
        index_of = self._index_of
        mask[[index_of[server_id] for server_id in server_ids]] = True
        return mask

    def best_fit(
        self,
        requests: Sequence[ResourceVector],
        beta: float,
        server_masks: Optional[np.ndarray] = None,
        allowed: Optional[np.ndarray] = None,
    ) -> Tuple[List[int], List[float]]:
        """The best-fit server for each request, in one vectorised pass.

        For every request, returns the server with the least
        ``(beta * cpu_free + gpu_free, server_id)`` among those where
        the request fits (:meth:`Server.can_fit`), together with that
        weighted free capacity; ``-1`` and ``inf`` where none fits.
        The weighted keys are the same two IEEE-754 operations as
        :meth:`Server.weighted_free`, so both results are bit-identical
        to a per-server Python scan.  A server that fits a request
        always covers its weighted cost ``beta * cpu + gpu`` too: the
        CPU test bounds the first term and the single-device GPU test
        the second, and rounding is monotone.

        ``server_masks`` (one row per request, from
        :meth:`server_mask`) restricts each request to its own server
        set; ``allowed`` restricts all of them to one set.
        """
        weighted = beta * self._cpu_free_arr + self._gpu_free_arr
        # Preference order; the arrays are in id order, so the stable
        # sort breaks ties by the lowest id.
        order = np.argsort(weighted, kind="stable")
        eligible = self._healthy_arr
        if allowed is not None:
            eligible = eligible & allowed
        cpu = [request.cpu for request in requests]
        gpu = np.array([request.gpu for request in requests], dtype=float)
        # A GPU quota must come from one device (and MPS caps it at a
        # whole one); CPU-only requests ignore the GPU axis.
        gpu_bound = np.where(gpu == 0, -1, np.where(gpu <= 100, gpu, np.inf))
        free_cpu = np.where(eligible, self._cpu_free_arr, -1)[order]
        fits = self._units(cpu)[:, None] <= self._units(free_cpu)
        fits &= (
            self._units(gpu_bound)[:, None]
            <= self._units(self._gpu_max_arr[order])
        )
        memory = np.array(
            [request.memory_mb for request in requests], dtype=float
        )
        if memory.max() > self._mem_avail_arr.min():
            # Host memory binds somewhere (it rarely does).
            fits &= memory[:, None] <= self._mem_avail_arr[order]
        if server_masks is not None:
            fits &= server_masks[:, order]
        first = fits.argmax(axis=1)
        found = fits[np.arange(len(requests)), first]
        best = order[first]
        picks = np.where(found, self._ids_arr[best], -1)
        capacity = np.where(found, weighted[best], np.inf)
        return picks.tolist(), capacity.tolist()

    def _units(self, values) -> np.ndarray:
        """Whole CPU/GPU units in the narrow ``_unit_dtype``.

        The free ledgers hold whole units, so rounding a request up
        keeps ``request <= free`` exact; anything above every capacity
        (``inf`` included) clamps to a value no server has, and
        anything below zero to -1, so the cast cannot wrap.  Comparing
        int8/int16 lanes is several times faster than float64 ones.
        """
        top = np.iinfo(self._unit_dtype).max
        return np.clip(np.ceil(values), -1, top).astype(self._unit_dtype)

    # ------------------------------------------------------------------
    # swap ledger
    # ------------------------------------------------------------------
    def swap_reserve(self, server_id: int, mb: float) -> bool:
        """Park ``mb`` of evicted weights in a server's host RAM.

        See :meth:`Server.swap_reserve`; the reservation shrinks the
        host memory placements may use, so the mirror follows it.
        """
        server = self.server(server_id)
        reserved = server.swap_reserve(mb)
        self._sync_server_free(server)
        return reserved

    def swap_release(self, server_id: int, mb: float) -> None:
        """Return parked weights to a server's host RAM."""
        server = self.server(server_id)
        server.swap_release(mb)
        self._sync_server_free(server)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def server(self, server_id: int) -> Server:
        return self._by_id[server_id]

    def __len__(self) -> int:
        return len(self.servers)

    def feasible_servers(self, request: ResourceVector) -> List[Server]:
        """Servers where the request currently fits."""
        return [server for server in self.servers if server.can_fit(request)]

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, server_id: int, request: ResourceVector) -> Placement:
        """Allocate ``request`` on a named server, returning a Placement."""
        server = self.server(server_id)
        device_id = server.allocate(request)
        placement = Placement(
            placement_id=next(self._next_placement_id),
            server_id=server_id,
            resources=request,
            gpu_device_id=device_id,
        )
        self._placements[placement.placement_id] = placement
        self._free_cpu_total -= request.cpu
        self._free_gpu_total -= request.gpu
        self._sync_server_free(server)
        self.version += 1
        return placement

    def release(self, placement: Placement) -> None:
        if placement.placement_id not in self._placements:
            raise AllocationError(f"unknown placement {placement.placement_id}")
        server = self.server(placement.server_id)
        server.release(placement.resources, placement.gpu_device_id)
        del self._placements[placement.placement_id]
        self._free_cpu_total += placement.resources.cpu
        self._free_gpu_total += placement.resources.gpu
        self._sync_server_free(server)
        self.version += 1

    def resize_placement(
        self, placement: Placement, new_resources: ResourceVector
    ) -> Placement:
        """Resize a live placement's GPU quota in place (HAS-GPU style).

        Vertical scaling grows (or shrinks) the SM share on the *same*
        device the instance already occupies -- MPS quotas cannot move
        across GPUs without a reload, and CPU/memory stay untouched, so
        only the ``gpu`` dimension may change.  Returns the replacement
        :class:`Placement` record (same ``placement_id``).
        """
        if placement.placement_id not in self._placements:
            raise AllocationError(f"unknown placement {placement.placement_id}")
        old = placement.resources
        if (
            new_resources.cpu != old.cpu
            or new_resources.memory_mb != old.memory_mb
        ):
            raise AllocationError(
                "resize_placement only changes the GPU share"
            )
        delta = new_resources.gpu - old.gpu
        if delta == 0:
            return placement
        if placement.gpu_device_id is None:
            raise AllocationError("cannot resize a CPU-only placement")
        server = self.server(placement.server_id)
        device = server.gpus[placement.gpu_device_id]
        if delta > 0:
            device.allocate(delta)
        else:
            device.release(-delta)
        server._refresh_gpu_totals()
        resized = Placement(
            placement_id=placement.placement_id,
            server_id=placement.server_id,
            resources=new_resources,
            gpu_device_id=placement.gpu_device_id,
        )
        self._placements[placement.placement_id] = resized
        self._free_gpu_total -= delta
        self._sync_server_free(server)
        self.version += 1
        return resized

    @property
    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> ResourceVector:
        total = ResourceVector()
        for server in self.servers:
            if server.healthy:
                total = total + server.capacity
        return total

    @property
    def total_used(self) -> ResourceVector:
        total = ResourceVector()
        for server in self.servers:
            if server.healthy:
                total = total + server.used
        return total

    def active_servers(self) -> List[Server]:
        return [server for server in self.servers if server.is_active()]

    def weighted_used(self) -> float:
        """beta * used_cpu + used_gpu across the cluster."""
        used = self.total_used
        return used.weighted(self.beta)

    def weighted_active_capacity(self) -> float:
        """Eq. 2's objective value: resources of every *used* server."""
        return sum(server.weighted_capacity(self.beta) for server in self.active_servers())

    def fragment_ratio(self) -> float:
        """Average unallocated fraction across active servers (Fig. 17b)."""
        active = self.active_servers()
        if not active:
            return 0.0
        return sum(server.fragment_ratio(self.beta) for server in active) / len(active)

    def utilisation(self) -> float:
        """Weighted used resources over weighted total capacity."""
        capacity = self.total_capacity.weighted(self.beta)
        if capacity == 0:
            return 0.0
        return self.weighted_used() / capacity

    def reset(self) -> None:
        """Release every placement (used between benchmark repetitions)."""
        for placement in list(self._placements.values()):
            self.release(placement)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail_server(self, server_id: int) -> List[Placement]:
        """Take a server down; its placements are lost, not released.

        Returns the placements that were on the failed machine so the
        control plane can terminate the corresponding instances and
        re-provision elsewhere.
        """
        server = self.server(server_id)
        if not server.healthy:
            return []
        server.healthy = False
        lost = [
            placement
            for placement in self._placements.values()
            if placement.server_id == server_id
        ]
        for placement in lost:
            del self._placements[placement.placement_id]
        self._sync_server_free(server)
        self.version += 1
        return lost

    def recover_server(self, server_id: int) -> None:
        """Bring a failed server back, empty (a replacement machine)."""
        server = self.server(server_id)
        if server.healthy:
            return
        self._free_cpu_total += server.cpu_capacity - server.cpu_free
        self._free_gpu_total += server.gpu_capacity - server.gpu_free
        server.reset_free()
        server.healthy = True
        self._sync_server_free(server)
        self.version += 1

    def healthy_servers(self) -> List[Server]:
        return [server for server in self.servers if server.healthy]


def build_testbed_cluster(num_servers: int = 8, gpus_per_server: int = 2) -> Cluster:
    """Build the paper's local testbed: 8 machines, 16 GPUs total (Table 2).

    The homogeneous special case of
    :meth:`~repro.cluster.fleet.FleetSpec.build_cluster`, priced at the
    paper's FLOPS-ratio ``BETA``.
    """
    from repro.cluster.fleet import FleetSpec

    fleet = FleetSpec.homogeneous(servers=num_servers, gpus=gpus_per_server)
    return fleet.build_cluster(beta=BETA)
