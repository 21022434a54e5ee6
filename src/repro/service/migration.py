"""Session migration — one bundle that moves a live service between
processes.

The session checkpoints (:meth:`StreamSession.state_dict`) capture one
query; migrating a *service* means capturing every live session on every
stream, the scheduler state around them (stream cursors, fleet
membership, the shared caches' charge bookkeeping — which rides inside
each session checkpoint), the registry's book of record and the admission
ledgers, all in one versioned, JSON-serialisable bundle.

The contract matches the session-level one: deterministic components
(model zoos, videos, configs, quota tables) are *not* serialised — the
operator rebuilds the new service exactly as the old one was built, then
loads the bundle.  Output after a migration is result-identical to the
uninterrupted run: sessions resume their quota state and open runs, the
caches keep metering already-charged clips as hits, and the admission
ledgers keep counting from where they were.

Capturing a snapshot freezes the source: every captured session is marked
``SNAPSHOTTED`` (:meth:`StreamSession.mark_snapshotted`), so the old
process cannot keep emitting results the new one will emit again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError
from repro.utils.validation import require_keys
from repro._typing import StateDict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import QueryService

__all__ = ["ServiceState", "SERVICE_BUNDLE_VERSION"]

#: Format tag of service migration bundles.  Bump on layout changes; old
#: bundles are refused loudly rather than misread.
SERVICE_BUNDLE_VERSION = 1

#: The exact key set of :meth:`ServiceState.to_dict`.
_BUNDLE_KEYS = frozenset({"version", "streams", "registry", "admission"})


@dataclass(frozen=True)
class ServiceState:
    """A captured service, ready to serialise or resume.

    ``streams`` maps stream name → that stream's fleet checkpoint
    (:meth:`repro.core.scheduler.FleetRun.state_dict`, which bundles each
    live session, its execution counters and the shared cache's charge
    state).  ``registry`` and ``admission`` are the corresponding
    components' state dicts.
    """

    version: int
    streams: Mapping[str, StateDict]
    registry: StateDict
    admission: StateDict

    @classmethod
    def snapshot(cls, service: "QueryService") -> "ServiceState":
        """Capture a live service and freeze its sessions.

        Sessions are marked ``SNAPSHOTTED`` *after* the full bundle is
        assembled, so a mid-capture failure leaves the service running.
        """
        streams = {
            name: fleet.state_dict()
            for name, fleet in service.fleets().items()
        }
        state = cls(
            version=SERVICE_BUNDLE_VERSION,
            streams=streams,
            registry=service.registry.state_dict(),
            admission=service.admission.state_dict(),
        )
        for fleet in service.fleets().values():
            for name in fleet.live:
                fleet.session(name).mark_snapshotted()
        return state

    def to_dict(self) -> StateDict:
        """The bundle as one JSON-serialisable dict."""
        return {
            "version": self.version,
            "streams": {k: dict(v) for k, v in self.streams.items()},
            "registry": dict(self.registry),
            "admission": dict(self.admission),
        }

    @classmethod
    def from_dict(cls, payload: StateDict) -> "ServiceState":
        """Parse a bundle, refusing any other version and any missing or
        unknown key with :class:`~repro.errors.ConfigurationError`."""
        require_keys(payload, _BUNDLE_KEYS, "service bundle")
        version = payload["version"]
        if version != SERVICE_BUNDLE_VERSION:
            raise ConfigurationError(
                f"unsupported service bundle version {version!r} "
                f"(this build reads v{SERVICE_BUNDLE_VERSION})"
            )
        return cls(
            version=int(version),
            streams=dict(payload["streams"]),
            registry=dict(payload["registry"]),
            admission=dict(payload["admission"]),
        )
