"""A frozen per-second reference host for the span and golden tests.

:class:`HostSimulator` steps time through one path: ``tick`` brings the host
to its clock in one span, looking up each container's demand at that second
once. A test that checks spans against ``tick`` would then check that path
against itself, so the tests compare it with :class:`PerSecondHost`, whose
``tick`` steps one second on its own: its own demand lookup, class split, OOM
comparison and grant. Keep its body as it is; it is the oracle, not a copy to
keep in step.

Both hosts read demand from the same tables: one per workload spec for the
whole process, and one per container for pattern 4. So this oracle checks the
stepping, not the table entries; the tests of ``shared_table`` check those
against ``demand_range``, whichever host filled them first.
"""
from orchestrion.hostsim import (
    CHUNK_BITS,
    CHUNK_MASK,
    FLAT_CPU_MCPU,
    FLAT_MEM_MB,
    STATUS_KILLED_OOM,
    ContainerState,
    HostSimulator,
    SimEvent,
    _grant,
)


class PerSecondHost(HostSimulator):
    """A host whose every tick looks up, checks and grants one second alone."""

    def tick(self) -> list[SimEvent]:
        """Advance one simulated second; returns lifecycle events raised during it."""
        self.now += 1
        now = self.now
        events: list[SimEvent] = []
        killed: list[ContainerState] = []
        for state in self._live.values():
            spec = state.spec
            phase = (now - state.start_t) % spec.period_s
            try:
                amount = state.demand[phase >> CHUNK_BITS][phase & CHUNK_MASK]
            except IndexError:
                amount = self._fill_demand(state, phase)
            if spec.workload_class == "cpu":
                cpu, mem = amount, FLAT_MEM_MB
            else:
                cpu, mem = FLAT_CPU_MCPU, amount
            limits = state.limits

            # Memory first: exceeding the enforced limit kills the container.
            if mem > limits.mem:
                state.mem_usage = 0
                killed.append(state)
                events.append(
                    SimEvent(
                        kind="oom_kill",
                        container_id=state.container_id,
                        t=now,
                        detail={"demand_mem": mem, "mem_limit": limits.mem, "reason": "limit"},
                    )
                )
                continue
            state.mem_usage = mem
            _grant(state, (cpu,), cpu, 1, cpu <= limits.cpu)
        for state in killed:  # off the live set only once the loop over it is done
            self._retire(state, STATUS_KILLED_OOM)
        return events
