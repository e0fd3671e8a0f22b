"""The fleet-wide invariant oracle.

The fleet mirror of :mod:`repro.resilience.invariants`: where that module
audits one fabric, :func:`check_fleet_invariants` audits the *cluster*
bookkeeping that faults, evacuation, and migration stress — and it is the
pass/fail arbiter of every chaos campaign (``repro.fleet.chaos``).

Five families of checks:

1. **Binding soundness** — every scheduler binding points at a host that
   actually holds the placement, and no host holds a fleet placement the
   scheduler does not know about.  A failed migration or evacuation that
   lost (or duplicated) a session shows up here first.
2. **Crashed hosts are empty** — a crashed host carries zero fleet
   placements and (fleet-visible) zero ledger reservations: a dead
   host's promises are void, so any residue is a leak.
3. **Telemetry conservation** — each host's headroom summary reports
   exactly the placements its manager holds, and a fault-marked host
   never reports healthy (placement must not route into a known fault).
4. **Per-host deep audit** — the full five-way per-host oracle
   (:func:`repro.resilience.invariants.check_invariants`) on every
   *live* host: floors vs allocations, ledger vs links, health vs flows.
   Skipped for crashed hosts — their fabric is frozen mid-flight and
   will be audited after recovery.
5. **Session conservation** — the campaign-level accounting identity:
   every admitted session is currently placed, awaiting re-placement,
   explicitly shed, or released/cancelled.  Nothing vanishes, nothing
   double-counts.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..resilience.invariants import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet
    from .recovery import FleetRecoveryController

#: Reservation mass below this (bytes/s) counts as zero on a crashed
#: host.  Fleet reservations run at 1e10 B/s scale, so 1 B/s of float
#: residue after release-everything is 1e-10 relative — noise, not leak.
_RESERVATION_TOL = 1.0


def check_fleet_invariants(
    fleet: "Fleet",
    recovery: Optional["FleetRecoveryController"] = None,
    deep: bool = True,
    rate_tol: float = 1.0,
) -> List[InvariantViolation]:
    """Run every fleet invariant; return the violations (empty = green).

    Args:
        fleet: The fleet to audit.
        recovery: The attached recovery controller — enables the
            session-conservation identity (its shed/pending counters are
            terms of the equation).
        deep: Also run the per-host fabric oracle on every live host.
            The fleet checks alone are cheap enough for per-fault-event
            audits; the deep audit is for campaign ends and property
            tests.
        rate_tol: Bytes/s tolerance forwarded to the per-host oracle.
            Default 1 B/s: at the 1e10 B/s bandwidths fleet sessions
            reserve, the per-host default (1e-6) is below float64
            resolution and would flag arithmetic residue as leaks.
    """
    violations: List[InvariantViolation] = []
    now = fleet.now
    health = fleet.health
    scheduler = fleet.scheduler

    def violation(name: str, detail: str) -> None:
        violations.append(InvariantViolation(name=name, detail=detail,
                                             time=now))

    # 1. Binding soundness: scheduler bindings vs per-host managers.
    #    ``placed_intents`` is the fleet-surface view of each manager's
    #    placements.
    bindings = scheduler.bindings()
    placed = fleet.placed_intents()
    seen_on_hosts = {}
    for host_id in fleet.host_ids():
        for intent_id in placed.get(host_id, ()):
            prev = seen_on_hosts.get(intent_id)
            if prev is not None:
                violation(
                    "duplicated-session",
                    f"{intent_id} placed on both {prev} and {host_id}")
            seen_on_hosts[intent_id] = host_id
    for intent_id, host_id in sorted(bindings.items()):
        actual = seen_on_hosts.get(intent_id)
        if actual is None:
            violation(
                "lost-session",
                f"{intent_id} bound to {host_id} but placed nowhere")
        elif actual != host_id:
            violation(
                "binding-mismatch",
                f"{intent_id} bound to {host_id} but placed on {actual}")
        if health.is_crashed(host_id):
            violation(
                "binding-to-crashed-host",
                f"{intent_id} bound to crashed host {host_id}")
    bound = set(bindings)
    for intent_id, host_id in sorted(seen_on_hosts.items()):
        if intent_id not in bound:
            violation(
                "unbound-placement",
                f"{intent_id} placed on {host_id} but unknown to the "
                f"fleet scheduler")

    # 2. Crashed hosts hold nothing.
    for host_id in sorted(health.crashed):
        fleet.require_host(host_id)
        leftover = placed.get(host_id, ())
        if leftover:
            ids = sorted(leftover)
            violation(
                "crashed-host-placements",
                f"{host_id} crashed but still holds {ids}")
        reserved = fleet.reserved_total(host_id)
        if reserved > _RESERVATION_TOL:
            violation(
                "crashed-host-reservations",
                f"{host_id} crashed but its ledger still reserves "
                f"{reserved:.1f} B/s")

    # 3. Telemetry conservation.
    for host_id in fleet.host_ids():
        summary = fleet.telemetry.headroom(host_id)
        actual = len(placed.get(host_id, ()))
        if summary.placements != actual:
            violation(
                "telemetry-placement-drift",
                f"{host_id} summary says {summary.placements} placements, "
                f"manager holds {actual}")
        if ((health.is_crashed(host_id) or health.is_degraded(host_id))
                and summary.healthy):
            violation(
                "telemetry-fault-mark",
                f"{host_id} is faulted but its summary reports healthy")

    # 4. Per-host deep audit (live hosts only).
    if deep:
        for host_id, name, detail, vtime in fleet.deep_audits(
                rate_tol=rate_tol, exclude=health.crashed):
            violations.append(InvariantViolation(
                name=name, detail=f"{host_id}: {detail}", time=vtime))

    # 5. Session conservation: admitted - released - cancelled
    #    == placed + shed + pending re-placements.  (Live retry entries
    #    are still placed, so they appear on the left via bindings.)
    if recovery is not None:
        lhs = (scheduler.admitted_count - scheduler.released_count
               - recovery.cancelled)
        rhs = (len(bindings) + recovery.shed
               + recovery.pending_replacements)
        if lhs != rhs:
            violation(
                "session-conservation",
                f"admitted({scheduler.admitted_count}) "
                f"- released({scheduler.released_count}) "
                f"- cancelled({recovery.cancelled}) = {lhs} != {rhs} = "
                f"placed({len(bindings)}) + shed({recovery.shed}) "
                f"+ pending({recovery.pending_replacements})")

    return violations
