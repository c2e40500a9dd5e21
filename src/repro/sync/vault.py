"""Cell ↔ cloud vault synchronization.

Each cell outsources its sealed envelopes to the cloud under
``vault/<cell>/<object-id>``, keeping only integrity anchors in
tamper-resistant memory:

* the latest version number per object (anti-rollback: a returned
  envelope older than the anchor is a replay, by construction);
* a Merkle root over the whole vault manifest (so a *set-level* check
  can prove nothing was dropped).

Detection turns into conviction: every integrity failure is filed with
the provider as evidence (:meth:`CloudProvider.file_evidence`) before
the error propagates — exactly the paper's deterrence mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.merkle import MerkleTree
from ..errors import IntegrityError, NotFoundError, ReplayError, TransientCloudError
from ..faults.retry import RetryPolicy, retry_call
from ..infrastructure.cloud import CloudProvider
from ..policy.sticky import DataEnvelope
from ..core.cell import TrustedCell


@dataclass
class BatchPushReport:
    """Outcome of one :meth:`VaultClient.push_many` call."""

    pushed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)  # object_id -> reason
    manifest_written: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed


class VaultClient:
    """Synchronizes one cell's envelopes with its encrypted cloud vault.

    ``retry_policy`` makes every cloud round-trip resilient to
    *transient* operational failures (the fault plane's
    :class:`~repro.errors.TransientCloudError`): the call is retried
    with exponential backoff before the error reaches the caller.
    Integrity failures are never retried — they are evidence, and
    retrying would mask the very signal the paper requires.
    """

    def __init__(self, cell: TrustedCell, cloud: CloudProvider,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.cell = cell
        self.cloud = cloud
        self.retry_policy = retry_policy
        self._retry_rng = cell.world.rng(f"vault-retry:{cell.name}")
        self.pushes = 0
        self.fetches = 0
        self.bytes_pushed = 0
        self.detections: list[dict] = []
        obs = cell.world.obs
        self._obs = obs
        self._pushes_metric = obs.metrics.counter(
            "vault.pushes", help="envelopes pushed to cloud vaults")
        self._push_bytes_metric = obs.metrics.counter(
            "vault.bytes_pushed", help="envelope bytes pushed to cloud vaults")
        self._fetches_metric = obs.metrics.counter(
            "vault.fetches", help="envelopes fetched from cloud vaults")
        self._detections_metric = obs.metrics.counter(
            "vault.detections", help="integrity violations filed as evidence")

    # -- key naming -----------------------------------------------------------

    def vault_key(self, object_id: str, cell_name: str | None = None) -> str:
        return f"vault/{cell_name or self.cell.name}/{object_id}"

    # -- resilient cloud I/O ---------------------------------------------------

    def _cloud_put(self, key: str, data: bytes) -> None:
        retry_call(
            lambda: self.cloud.put_object(key, data),
            policy=self.retry_policy, obs=self._obs, rng=self._retry_rng,
            operation="vault.put",
        )

    def _cloud_get(self, key: str) -> bytes:
        # NotFoundError is NOT transient: a miss (or an adversarial
        # drop) must surface immediately so the anchor check can file it
        return retry_call(
            lambda: self.cloud.get_object(key),
            policy=self.retry_policy, obs=self._obs, rng=self._retry_rng,
            operation="vault.get",
        )

    # -- push path ---------------------------------------------------------------

    def push(self, object_id: str) -> str:
        """Outsource one sealed envelope; returns its cloud key.

        Also records the object's version anchor in secure memory,
        refreshes the vault Merkle root, and rewrites the encrypted
        vault manifest (the object inventory a replacement device needs
        after recovery from escrow).
        """
        with self._obs.tracer.span(
            "vault.push", cell=self.cell.name, object_id=object_id
        ):
            envelope = self.cell.envelope_for(object_id)
            key = self.vault_key(object_id)
            self._cloud_put(key, envelope.to_bytes())
            self.cell.tee.store_secret(
                f"vault-version:{object_id}", envelope.version
            )
            self._refresh_manifest_root()
            self._write_manifest()
        self.pushes += 1
        self.bytes_pushed += envelope.size
        self._pushes_metric.inc()
        self._push_bytes_metric.inc(envelope.size)
        self._obs.events.emit(
            "vault.push", cell=self.cell.name, object_id=object_id,
            version=envelope.version, bytes=envelope.size,
        )
        return key

    def push_all(self) -> int:
        """Push every locally held envelope; returns the count."""
        count = 0
        for object_id in list(self.cell._envelopes):
            self.push(object_id)
            count += 1
        return count

    def push_many(self, object_ids, *,
                  raise_on_failure: bool = True) -> BatchPushReport:
        """Outsource N sealed envelopes with one manifest refresh.

        Stores the same cloud objects and the same secure-memory
        anchors as N :meth:`push` calls, but the Merkle-root refresh
        and the sealed-manifest write (the per-push fixed cost) are
        paid once for the whole batch — the manifest content is derived
        from the anchors, so only its sequence number differs from the
        unbatched path.

        With ``raise_on_failure=False``, transient cloud failures are
        collected per object instead of raised, and a failed manifest
        write marks the *whole* batch failed (pushes are idempotent;
        callers simply re-push, and the next successful batch rewrites
        the manifest from the anchors).
        """
        pushed: list[str] = []
        failed: dict[str, str] = {}
        batch_bytes = 0
        manifest_written = False
        with self._obs.tracer.span(
            "vault.push_many", cell=self.cell.name
        ):
            for object_id in object_ids:
                envelope = self.cell.envelope_for(object_id)
                try:
                    self._cloud_put(
                        self.vault_key(object_id), envelope.to_bytes()
                    )
                except TransientCloudError as error:
                    if raise_on_failure:
                        raise
                    failed[object_id] = type(error).__name__
                    continue
                self.cell.tee.store_secret(
                    f"vault-version:{object_id}", envelope.version
                )
                pushed.append(object_id)
                self.pushes += 1
                self.bytes_pushed += envelope.size
                batch_bytes += envelope.size
                self._pushes_metric.inc()
                self._push_bytes_metric.inc(envelope.size)
            if pushed:
                self._refresh_manifest_root()
                try:
                    self._write_manifest()
                    manifest_written = True
                except TransientCloudError as error:
                    if raise_on_failure:
                        raise
                    for object_id in pushed:
                        failed[object_id] = (
                            f"manifest write failed: {type(error).__name__}"
                        )
                    pushed = []
        self._obs.events.emit(
            "vault.push_batch", cell=self.cell.name, pushed=len(pushed),
            failed=len(failed), bytes=batch_bytes,
        )
        return BatchPushReport(
            pushed=pushed, failed=failed, manifest_written=manifest_written
        )

    def _manifest_leaves(self) -> list[bytes]:
        leaves = []
        for name in self.cell.tee.secure_memory.keys():
            if name.startswith("vault-version:"):
                object_id = name[len("vault-version:"):]
                version = self.cell.tee.load_secret(name)
                leaves.append(f"{object_id}@{version}".encode())
        return sorted(leaves)

    def _refresh_manifest_root(self) -> None:
        root = MerkleTree(self._manifest_leaves()).root
        self.cell.tee.store_secret("vault-root", root)

    # -- encrypted vault manifest ---------------------------------------------

    MANIFEST_OBJECT = "__manifest__"

    @property
    def manifest_seq(self) -> int:
        """Monotone sequence number of the last manifest written."""
        return self.cell.tee.load_secret("vault-manifest-seq", 0)

    def _manifest_objects(self) -> dict[str, int]:
        objects: dict[str, int] = {}
        for name in self.cell.tee.secure_memory.keys():
            if name.startswith("vault-version:"):
                object_id = name[len("vault-version:"):]
                objects[object_id] = self.cell.tee.load_secret(name)
        return objects

    def _write_manifest(self) -> None:
        import json

        seq = self.manifest_seq + 1
        self.cell.tee.store_secret("vault-manifest-seq", seq)
        payload = json.dumps(
            {"seq": seq, "objects": self._manifest_objects()}, sort_keys=True
        ).encode()
        from ..crypto.aead import seal

        header = f"manifest|{self.cell.name}|{seq}".encode()
        blob = seal(
            self.cell.tee.keys.derive("vault-manifest"),
            payload,
            header=header,
            nonce_seed=header,
        )
        self._cloud_put(self.vault_key(self.MANIFEST_OBJECT), blob.to_bytes())

    def read_manifest(self, owner_cell: str | None = None) -> dict:
        """Fetch and decrypt the vault manifest (own vault by default).

        Returns ``{"seq": int, "objects": {object_id: version}}``;
        raises :class:`IntegrityError` on tampering.
        """
        import json

        from ..crypto.aead import SealedBlob, open_sealed

        key = self.vault_key(self.MANIFEST_OBJECT, owner_cell)
        data = self._cloud_get(key)
        try:
            blob = SealedBlob.from_bytes(data)
            payload = open_sealed(
                self.cell.tee.keys.derive("vault-manifest"), blob
            )
        except IntegrityError:
            self._file(key, "manifest tampering")
            raise
        return json.loads(payload.decode())

    # -- fetch path --------------------------------------------------------------

    def fetch(self, object_id: str, owner_cell: str | None = None) -> DataEnvelope:
        """Fetch an envelope, verifying structure and freshness.

        * malformed bytes or a failed AEAD check → evidence + raise
          :class:`IntegrityError`;
        * a version older than the anchored one → evidence + raise
          :class:`ReplayError`.

        ``owner_cell`` lets a recipient fetch from a *peer's* vault (the
        sharing protocol names the owner); freshness is then anchored
        by the version stated in the share offer, recorded by
        :meth:`anchor_version`.
        """
        key = self.vault_key(object_id, owner_cell)
        try:
            data = self._cloud_get(key)
        except NotFoundError:
            anchor = self.cell.tee.load_secret(f"vault-version:{object_id}")
            if anchor is not None:
                # We hold a version anchor, so the object was provably
                # stored: a denial is a drop attack, not a miss.
                self._file(key, "object denied though provably stored (drop)")
            raise
        try:
            envelope = DataEnvelope.from_bytes(data)
        except IntegrityError:
            self._file(key, "malformed envelope (tampering)")
            raise
        if envelope.object_id != object_id:
            self._file(key, "envelope id mismatch (substitution)")
            raise IntegrityError(
                f"cloud returned envelope for {envelope.object_id!r}, "
                f"wanted {object_id!r}"
            )
        anchor = self.cell.tee.load_secret(f"vault-version:{object_id}")
        if anchor is not None and envelope.version < anchor:
            self._file(key, f"stale version {envelope.version} < anchor {anchor}")
            raise ReplayError(
                f"rollback detected on {object_id!r}: version "
                f"{envelope.version} < anchored {anchor}"
            )
        self.fetches += 1
        self._fetches_metric.inc()
        return envelope

    def verified_fetch(self, object_id: str, owner_cell: str | None = None) -> DataEnvelope:
        """Fetch *and* authenticate by opening the envelope in the TEE.

        Catches byte-level tampering that structural parsing admits.
        The plaintext is discarded here; reads still go through the
        reference monitor.
        """
        envelope = self.fetch(object_id, owner_cell)
        key = self.cell.tee.keys.key_for(object_id, envelope.version)
        try:
            envelope.open(key)
        except IntegrityError:
            self._file(self.vault_key(object_id, owner_cell),
                       "AEAD failure (byte tampering)")
            raise
        return envelope

    def anchor_version(self, object_id: str, version: int) -> None:
        """Record the minimum acceptable version for an object.

        Used by the sharing protocol: the share offer states the
        version, so the recipient can detect the cloud serving an older
        (possibly policy-weaker) envelope.
        """
        self.cell.tee.store_secret(f"vault-version:{object_id}", version)

    # -- lifecycle ------------------------------------------------------------------

    def install_fetcher(self, owner_cell: str | None = None) -> None:
        """Let the cell's read path fall back to the vault transparently."""
        self.cell.envelope_fetcher = (
            lambda object_id: self.verified_fetch(object_id, owner_cell)
        )

    def evict_local(self, object_id: str) -> None:
        """Drop the local copy (cache management on small cells).

        The object remains readable through the vault fetcher; evicting
        an object that was never pushed would lose data, so that is an
        error.
        """
        key = self.vault_key(object_id)
        if not self.cloud.contains(key):
            raise NotFoundError(
                f"refusing to evict {object_id!r}: not in the cloud vault"
            )
        self.cell._envelopes.pop(object_id, None)

    def restore_all(self) -> int:
        """Re-populate local storage from the vault (device replacement).

        Uses the secure-memory anchors as the authoritative object
        list; returns the number restored.
        """
        count = 0
        for name in self.cell.tee.secure_memory.keys():
            if name.startswith("vault-version:"):
                object_id = name[len("vault-version:"):]
                self.cell._envelopes[object_id] = self.verified_fetch(object_id)
                count += 1
        return count

    # -- evidence -----------------------------------------------------------------

    def _file(self, key: str, reason: str) -> None:
        self.detections.append({"key": key, "reason": reason, "at": self.cell.world.now})
        self._detections_metric.inc()
        self._obs.events.emit(
            "vault.detect", cell=self.cell.name, key=key, reason=reason
        )
        self.cloud.file_evidence(self.cell.name, key, reason)
