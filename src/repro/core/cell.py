"""The trusted cell: a personal data server on secure hardware.

A :class:`TrustedCell` composes the full stack the paper enumerates:

1. *acquire data and synchronize it with the user's digital space* —
   :meth:`store_object`, :meth:`append_sample`, plus :mod:`repro.sync`;
2. *extract metadata, index it and provide query facilities* — the
   embedded :class:`~repro.store.catalog.Catalog`;
3. *cryptographically protect data* — every object lives in a
   :class:`~repro.policy.sticky.DataEnvelope` under a per-object key
   confined to the TEE;
4. *enforce access and usage control rules* — the reference monitor in
   :meth:`read_object` / :meth:`read_series`: no code path returns
   plaintext without a policy decision;
5. *make all access and usage actions accountable* — every decision
   lands in the hash-chained :class:`~repro.policy.audit.AuditLog`;
6. *participate to computations distributed among trusted cells* —
   hooks used by :mod:`repro.commons`.

Even the cell owner authenticates and "only gets data according to her
privileges": sessions, not identities, access data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..crypto.keys import KeyRing
from ..crypto.primitives import sha256
from ..errors import (
    AccessDenied,
    AuthenticationError,
    ConfigurationError,
    NotFoundError,
    PolicyError,
)
from ..hardware.flash import NandFlash
from ..hardware.profiles import HardwareProfile
from ..hardware.tee import AttestationQuote, TrustedExecutionEnvironment
from ..policy.audit import AuditLog
from ..policy.conditions import AccessContext
from ..policy.sticky import DataEnvelope
from ..policy.ucon import (
    OBLIGATION_AUDIT,
    OBLIGATION_NOTIFY_OWNER,
    RIGHT_READ,
    Decision,
    UsagePolicy,
    private_policy,
)
from ..policy.usage_state import UsageState
from ..sim.world import World
from ..store.catalog import Catalog
from ..store.query import Query, QueryResult
from ..store.timeseries import TimeSeries
from .identity import Credential, Principal, TrustRegistry

# Simulated flash devices are sparse; cap the simulated page range so
# page-count bookkeeping stays cheap regardless of profile.flash_bytes.
_SIM_FLASH_BYTES = 16 * 1024 * 1024


@dataclass
class Session:
    """An authenticated session on one cell."""

    cell: "TrustedCell"
    subject: str
    attributes: dict[str, Any] = field(default_factory=dict)
    location: str | None = None
    purpose: str | None = None

    def context(self) -> AccessContext:
        """The access context for a request made *now*."""
        return AccessContext(
            subject=self.subject,
            timestamp=self.cell.world.now,
            attributes=dict(self.attributes),
            location=self.location,
            purpose=self.purpose,
        )


@dataclass
class ObjectMetadata:
    """Catalog view of one object (never contains the payload)."""

    object_id: str
    owner: str
    version: int
    kind: str
    size: int
    created_at: int
    keywords: str


class TrustedCell:
    """One personal data server on simulated secure hardware."""

    def __init__(
        self,
        world: World,
        name: str,
        profile: HardwareProfile,
        registry: TrustRegistry | None = None,
        key_ring: KeyRing | None = None,
    ) -> None:
        """``key_ring`` lets a replacement device be provisioned with a
        master secret recovered from escrow (see
        :mod:`repro.sync.recovery`); by default a fresh ring is
        generated from the world's seed stream."""
        if not name:
            raise ConfigurationError("cell name must be non-empty")
        self.world = world
        self.name = name
        self.profile = profile
        rng = world.rng(f"cell:{name}")
        self.tee = TrustedExecutionEnvironment(
            profile, key_ring if key_ring is not None else KeyRing.generate(rng)
        )
        flash_bytes = min(profile.flash_bytes, _SIM_FLASH_BYTES)
        self.flash = NandFlash(profile.flash, flash_bytes)
        self.catalog = Catalog(self.flash, profile)
        objects = self.catalog.collection("objects")
        objects.create_hash_index("kind")
        objects.create_ordered_index("created_at")
        self.audit = AuditLog(self.tee.keys.derive("audit"))
        self.usage_state = UsageState()
        self.registry = registry or TrustRegistry()
        # Local mass storage ("optional and potentially untrusted"):
        # holds only sealed envelopes, keyed by object id.
        self._envelopes: dict[str, DataEnvelope] = {}
        self._series: dict[str, TimeSeries] = {}
        self._series_policies: dict[str, dict[int, UsagePolicy]] = {}
        # Predefined aggregate views ("data leaves only via a
        # predefined set of aggregate queries").
        from .views import ViewRegistry

        self.views = ViewRegistry()
        # Adopted policy pack (defaults from a trusted third party).
        self._policy_pack = None
        # Obligation outputs awaiting delivery to data owners.
        self.outbox: list[dict[str, Any]] = []
        # Optional hook installed by the sync layer: fetch a missing
        # envelope from the user's encrypted cloud vault.
        self.envelope_fetcher: Callable[[str], DataEnvelope] | None = None

    # -- identity ------------------------------------------------------------

    @property
    def principal(self) -> Principal:
        """This cell's public identity."""
        keys = self.tee.keys
        return Principal(
            principal_id=self.name,
            verify_key=keys.verify_key,
            exchange_public=keys.exchange_public,
        )

    def attest(self, nonce: bytes) -> AttestationQuote:
        """Produce an attestation quote for a challenger's nonce."""
        return self.tee.attest(nonce)

    # -- local users and sessions ------------------------------------------------

    def register_user(self, user_id: str, pin: str) -> None:
        """Enroll a local user (e.g. Alice and Bob on the gateway)."""
        self.tee.store_secret(f"user:{user_id}", sha256(pin.encode()))

    def login(
        self,
        user_id: str,
        pin: str,
        credentials: list[Credential] | None = None,
        location: str | None = None,
        purpose: str | None = None,
    ) -> Session:
        """Authenticate a local user and open a session.

        Presented credentials are verified against the cell's trust
        registry; their attributes become the session's verified
        attributes.
        """
        stored = self.tee.load_secret(f"user:{user_id}")
        if stored is None or stored != sha256(pin.encode()):
            self.audit.append(
                self.world.now, user_id, "-", "login", False, reason="bad pin"
            )
            raise AuthenticationError(f"authentication failed for {user_id!r}")
        attributes = self.registry.verify_credentials(
            user_id, credentials or [], self.world.now
        )
        self.audit.append(self.world.now, user_id, "-", "login", True)
        return Session(
            cell=self,
            subject=user_id,
            attributes=attributes,
            location=location,
            purpose=purpose,
        )

    def session_for_peer(
        self,
        peer_id: str,
        credentials: list[Credential] | None = None,
        location: str | None = None,
        purpose: str | None = None,
    ) -> Session:
        """A session for a *remote* principal known to the registry.

        Used by the sharing protocol: the recipient cell evaluates the
        sticky policy under the recipient's identity. Requires the peer
        to be enrolled (i.e. its cell attested/was introduced).
        """
        if not self.registry.knows_principal(peer_id):
            raise AuthenticationError(f"unknown peer principal {peer_id!r}")
        attributes = self.registry.verify_credentials(
            peer_id, credentials or [], self.world.now
        )
        return Session(
            cell=self,
            subject=peer_id,
            attributes=attributes,
            location=location,
            purpose=purpose,
        )

    # -- object lifecycle -----------------------------------------------------------

    def store_object(
        self,
        session: Session,
        object_id: str,
        payload: bytes,
        policy: UsagePolicy | None = None,
        kind: str = "document",
        keywords: str = "",
    ) -> ObjectMetadata:
        """Seal and store a new object (or a new version of one).

        When no policy is given, the default comes from the adopted
        policy pack's template for ``kind`` (bound to the session
        subject), falling back to owner-only.
        """
        return self._store(
            session, object_id, policy, kind, keywords, len(payload),
            lambda key, version, policy: DataEnvelope.create(
                key, object_id, version, payload, policy),
        )

    def store_frames(
        self,
        session: Session,
        object_id: str,
        frames: list[bytes],
        policy: UsagePolicy | None = None,
        kind: str = "records",
        keywords: str = "",
    ) -> ObjectMetadata:
        """Seal and store a page's worth of record frames as one object.

        The frames (e.g. one flash page of encoded records) are packed
        and sealed in a single AEAD pass — 4 keyed HMACs for the whole
        bundle instead of 4 per frame — so outsourcing a day of 1 Hz
        samples costs HMACs per *page*, not per record. The sticky
        policy governs every frame in the bundle. The bundle behaves
        like any other object afterwards: it is pushed, fetched,
        version-anchored and policy-checked as one unit.
        """
        return self._store(
            session, object_id, policy, kind, keywords,
            sum(len(frame) for frame in frames),
            lambda key, version, policy: DataEnvelope.create_bundle(
                key, object_id, version, frames, policy),
            suffix=f" bundle[{len(frames)}]",
        )

    def _store(
        self,
        session: Session,
        object_id: str,
        policy: UsagePolicy | None,
        kind: str,
        keywords: str,
        size: int,
        seal: Callable[[bytes, int, UsagePolicy], DataEnvelope],
        suffix: str = "",
    ) -> ObjectMetadata:
        """The one store routine: version, seal, catalog, audit, charge.

        ``seal(key, version, policy)`` builds the envelope; the public
        store calls differ only in it, the object's ``size`` and the
        audit reason's ``suffix``.
        """
        if policy is None:
            policy = self._default_policy(session.subject, kind)
        objects = self.catalog.collection("objects")
        version = 1
        if objects.contains(object_id):
            version = objects.get(object_id)["version"] + 1
        key = self.tee.keys.object_key(object_id, version)
        self._envelopes[object_id] = seal(key, version, policy)
        metadata = ObjectMetadata(
            object_id=object_id,
            owner=policy.owner,
            version=version,
            kind=kind,
            size=size,
            created_at=self.world.now,
            keywords=keywords,
        )
        objects.insert(
            object_id,
            {
                "owner": metadata.owner,
                "version": metadata.version,
                "kind": metadata.kind,
                "size": metadata.size,
                "created_at": metadata.created_at,
                "keywords": metadata.keywords,
            },
        )
        self.audit.append(
            self.world.now, session.subject, object_id, "store", True,
            reason=f"v{version}{suffix}",
        )
        self.tee.charge_cpu(size)
        return metadata

    def adopt_policy_pack(self, pack, publisher_key) -> None:
        """Adopt a signed default-policy pack from a trusted publisher.

        Verification happens here: an unverifiable pack must never
        become the source of defaults. Adopting replaces any previous
        pack; it does not rewrite policies of already-stored objects.
        """
        from ..policy.presets import verify_pack

        verify_pack(pack, publisher_key)
        self._policy_pack = pack
        self.audit.append(
            self.world.now, self.name, "-", "adopt-policy-pack", True,
            reason=f"{pack.name} by {pack.publisher}",
        )

    def _default_policy(self, owner: str, kind: str) -> UsagePolicy:
        if self._policy_pack is not None:
            template = self._policy_pack.template_for(kind)
            if template is not None:
                from ..policy.presets import bind_template

                return bind_template(template, owner)
        return private_policy(owner)

    def object_metadata(self, object_id: str) -> ObjectMetadata:
        """Metadata lookup (no policy check: metadata stays in-cell)."""
        record = self.catalog.collection("objects").get(object_id)
        return ObjectMetadata(
            object_id=object_id,
            owner=record["owner"],
            version=record["version"],
            kind=record["kind"],
            size=record["size"],
            created_at=record["created_at"],
            keywords=record["keywords"],
        )

    def envelope_for(self, object_id: str) -> DataEnvelope:
        """The sealed envelope, from local mass storage or the vault."""
        envelope = self._envelopes.get(object_id)
        if envelope is not None:
            return envelope
        if self.envelope_fetcher is not None:
            envelope = self.envelope_fetcher(object_id)
            self._envelopes[object_id] = envelope
            return envelope
        raise NotFoundError(f"no envelope for {object_id!r} on {self.name!r}")

    def import_envelope(self, envelope: DataEnvelope, kind: str = "shared",
                        keywords: str = "") -> None:
        """Accept a sealed envelope from a peer (sharing protocol).

        Only metadata is derived here; the payload stays sealed until a
        policy-checked read.
        """
        self._envelopes[envelope.object_id] = envelope
        self.catalog.collection("objects").insert(
            envelope.object_id,
            {
                "owner": "",  # learned on first authorized open
                "version": envelope.version,
                "kind": kind,
                "size": envelope.size,
                "created_at": self.world.now,
                "keywords": keywords,
            },
        )

    def read_object(self, session: Session, object_id: str) -> bytes:
        """The reference monitor's read path.

        Opens the envelope inside the TEE, evaluates the sticky policy
        for the session's subject, fulfils obligations, updates
        mutability state, writes the audit trail — and only then
        releases plaintext. Denials raise :class:`AccessDenied`.
        """
        context = session.context()
        metadata = self.catalog.collection("objects").get(object_id)
        envelope = self.envelope_for(object_id)
        key = self.tee.keys.key_for(object_id, metadata["version"])
        payload, policy = envelope.open(key)
        self.tee.charge_cpu(len(payload))
        decision = policy.evaluate(
            RIGHT_READ,
            context,
            prior_uses=self.usage_state.uses(object_id, context.subject),
        )
        if not decision.allowed:
            self.audit.append(
                self.world.now, context.subject, object_id, "read", False,
                reason=decision.reason,
            )
            raise AccessDenied(
                f"read of {object_id!r} denied for {context.subject!r}: "
                f"{decision.reason}"
            )
        if policy.max_uses is not None:
            self.usage_state.record_use(object_id, context.subject)
        self._fulfil_obligations(decision, policy, object_id, context)
        self.audit.append(
            self.world.now, context.subject, object_id, "read", True
        )
        return payload

    def rights_on(self, session: Session, object_id: str) -> set[str]:
        """The rights the session's subject holds on an object."""
        metadata = self.catalog.collection("objects").get(object_id)
        envelope = self.envelope_for(object_id)
        key = self.tee.keys.key_for(object_id, metadata["version"])
        _, policy = envelope.open(key)
        return policy.rights_of(session.context())

    def _fulfil_obligations(
        self,
        decision: Decision,
        policy: UsagePolicy,
        object_id: str,
        context: AccessContext,
    ) -> None:
        """Execute each obligation *before* plaintext is released.

        An unfulfillable obligation must deny the access; here the two
        supported obligations always succeed locally (notification is
        queued durably in the outbox for delivery by the sync layer).
        """
        for obligation in decision.obligations:
            if obligation.kind == OBLIGATION_NOTIFY_OWNER:
                self.outbox.append(
                    {
                        "to": policy.owner,
                        "about": object_id,
                        "subject": context.subject,
                        "timestamp": context.timestamp,
                        "kind": "access-notification",
                    }
                )
            self.audit.append(
                context.timestamp,
                context.subject,
                object_id,
                f"obligation:{obligation.kind}",
                True,
            )

    # -- metadata queries ----------------------------------------------------------

    def query_metadata(self, session: Session, query: Query) -> QueryResult:
        """Query the metadata catalog (audited, but not policy-gated:
        local metadata is the session user's own index)."""
        result = self.catalog.query(query)
        self.audit.append(
            self.world.now, session.subject, query.collection, "query", True,
            reason=result.plan,
        )
        return result

    def register_view(self, view) -> None:
        """Register a predefined aggregate view (owner-side operation)."""
        self.views.register_view(view)

    def read_view(self, session: Session, name: str):
        """Evaluate a predefined aggregate view for a session."""
        from .views import read_view

        return read_view(self, session, name)

    # -- time series ------------------------------------------------------------------

    def register_series(
        self,
        name: str,
        policies: dict[int, UsagePolicy],
    ) -> None:
        """Declare a sensed time series and its per-granularity policies.

        ``policies`` maps a bucket width in seconds to the policy
        governing reads at that granularity — the scenario's "15 min
        aggregates for the household, daily statistics for the game,
        monthly for the utility" is exactly this map. Granularities
        without a policy are denied for everyone (fail closed).
        """
        if name in self._series:
            raise ConfigurationError(f"series {name!r} already registered")
        if not policies:
            raise ConfigurationError("a series needs at least one granularity policy")
        self._series[name] = TimeSeries(name)
        self._series_policies[name] = dict(policies)

    def append_sample(self, name: str, timestamp: int, value: float) -> None:
        """Data acquisition path (trusted source -> cell), no session:
        the sample never crosses a trust boundary here."""
        try:
            self._series[name].append(timestamp, value)
        except KeyError:
            raise NotFoundError(f"no series {name!r} on {self.name!r}") from None

    def read_series(
        self,
        session: Session,
        name: str,
        granularity: int,
        start: int | None = None,
        end: int | None = None,
    ):
        """Policy-checked series read at one granularity.

        Returns raw ``(timestamp, value)`` pairs for granularity 1, and
        a list of :class:`~repro.store.timeseries.Bucket` otherwise.
        """
        series = self._series.get(name)
        if series is None:
            raise NotFoundError(f"no series {name!r} on {self.name!r}")
        policy = self._series_policies[name].get(granularity)
        context = session.context()
        if policy is None:
            self.audit.append(
                self.world.now, context.subject, name, f"read-series@{granularity}",
                False, reason="no policy at this granularity",
            )
            raise AccessDenied(
                f"series {name!r} has no policy at granularity {granularity}"
            )
        decision = policy.evaluate(
            RIGHT_READ,
            context,
            prior_uses=self.usage_state.uses(f"series:{name}@{granularity}",
                                             context.subject),
        )
        if not decision.allowed:
            self.audit.append(
                self.world.now, context.subject, name, f"read-series@{granularity}",
                False, reason=decision.reason,
            )
            raise AccessDenied(
                f"series read denied for {context.subject!r}: {decision.reason}"
            )
        if policy.max_uses is not None:
            self.usage_state.record_use(
                f"series:{name}@{granularity}", context.subject
            )
        self._fulfil_obligations(decision, policy, f"series:{name}", context)
        self.audit.append(
            self.world.now, context.subject, name, f"read-series@{granularity}", True
        )
        if start is None:
            start = series.start if len(series) else 0
        if end is None:
            end = (series.end + 1) if len(series) else 0
        self.tee.charge_cpu(len(series))
        if granularity <= 1:
            return series.window(start, end)
        windowed = TimeSeries(name)
        windowed.extend(series.window(start, end))
        return windowed.resample(granularity)

    def archive_series(
        self,
        session: Session,
        name: str,
        granularity: int,
        policy: UsagePolicy | None = None,
    ) -> ObjectMetadata:
        """Persist a series' aggregates as a sealed, queryable object.

        Series samples live in RAM; archiving turns one granularity
        into a durable object in the digital space (syncable, sharable,
        policy-protected like any other object). The archive's policy
        defaults to the policy registered for that granularity — the
        archived view must not be *more* visible than the live one.
        """
        series = self._series.get(name)
        if series is None:
            raise NotFoundError(f"no series {name!r} on {self.name!r}")
        effective = policy or self._series_policies[name].get(granularity)
        if effective is None:
            raise PolicyError(
                f"series {name!r} has no policy at granularity {granularity}; "
                "pass one explicitly to archive"
            )
        buckets = series.resample(granularity)
        payload = repr(
            [(bucket.start, bucket.count, round(bucket.sum, 6))
             for bucket in buckets]
        ).encode()
        return self.store_object(
            session,
            f"series-archive:{name}@{granularity}",
            payload,
            policy=effective,
            kind="series-archive",
            keywords=f"{name} archive granularity {granularity}",
        )

    def certify_aggregates(
        self, name: str, granularity: int
    ) -> tuple[bytes, "object"]:
        """Export a *certified* aggregate series (payload, signature).

        This is the trusted-source output of the motivation section:
        "a certified time series of readings ... for verification,
        billing and network operation". Consumers verify with the
        cell's public key; no session is involved because the output
        policy was fixed at registration time (the cell will only ever
        certify granularities that have a policy).
        """
        series = self._series.get(name)
        if series is None:
            raise NotFoundError(f"no series {name!r} on {self.name!r}")
        if granularity not in self._series_policies[name]:
            raise PolicyError(
                f"series {name!r} does not externalize granularity {granularity}"
            )
        buckets = series.resample(granularity)
        payload = repr(
            [(bucket.start, bucket.count, round(bucket.sum, 6)) for bucket in buckets]
        ).encode()
        message = f"certified|{self.name}|{name}|{granularity}|".encode() + payload
        signature = self.tee.keys.sign(message)
        self.audit.append(
            self.world.now, self.name, name, f"certify@{granularity}", True
        )
        return payload, signature

    # -- breach hook -------------------------------------------------------------

    def breach(self) -> dict[str, Any]:
        """Physical attack: the attacker gets the TEE loot plus every
        sealed envelope in local mass storage. Disables the cell."""
        loot = self.tee.breach()
        loot["envelopes"] = dict(self._envelopes)
        loot["series"] = {name: series.samples() for name, series in self._series.items()}
        return loot
