"""Policy packs: signed default-policy bundles from trusted third parties.

From the sharing challenges: usability can come from "definition of
default policies by trusted third parties – e.g., citizen associations
– which could be automatically selected depending on a computed
individual's profile". A :class:`PolicyPack` is a named bundle mapping
object *kinds* to policy templates, signed by its publisher; a cell
that adopts a (verified) pack applies the matching template whenever an
object is stored without an explicit policy.

Templates are policies with the owner left open: adoption binds the
template to the storing user at store time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..crypto.signing import Signature, SigningKey, VerifyKey
from ..errors import ConfigurationError, CredentialError, PolicyError
from .ucon import Grant, Obligation, UsagePolicy

_TEMPLATE_OWNER = "__owner__"  # placeholder bound at store time


def template(
    grants: tuple[Grant, ...] = (),
    conditions: tuple = (),
    obligations: tuple[Obligation, ...] = (),
    max_uses: int | None = None,
) -> UsagePolicy:
    """A policy template (owner bound later)."""
    return UsagePolicy(
        owner=_TEMPLATE_OWNER,
        grants=grants,
        conditions=conditions,
        obligations=obligations,
        max_uses=max_uses,
    )


def bind_template(policy_template: UsagePolicy, owner: str) -> UsagePolicy:
    """Instantiate a template for a concrete owner."""
    if policy_template.owner != _TEMPLATE_OWNER:
        raise PolicyError("not a template (owner already bound)")
    return UsagePolicy(
        owner=owner,
        grants=policy_template.grants,
        conditions=policy_template.conditions,
        obligations=policy_template.obligations,
        max_uses=policy_template.max_uses,
    )


@dataclass(frozen=True)
class PolicyPack:
    """A signed bundle of kind -> policy template."""

    name: str
    publisher: str
    templates: tuple[tuple[str, UsagePolicy], ...]  # (kind, template)
    signature: Signature

    @staticmethod
    def canonical(
        name: str, publisher: str, templates: tuple[tuple[str, UsagePolicy], ...]
    ) -> bytes:
        body = {
            "name": name,
            "publisher": publisher,
            "templates": {
                kind: policy_template.to_dict()
                for kind, policy_template in templates
            },
        }
        return b"policy-pack|" + json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode()

    def message(self) -> bytes:
        return self.canonical(self.name, self.publisher, self.templates)

    def template_for(self, kind: str) -> UsagePolicy | None:
        for template_kind, policy_template in self.templates:
            if template_kind == kind:
                return policy_template
        return None


class PackPublisher:
    """A citizen association (or similar) that signs policy packs."""

    def __init__(self, name: str, seed: bytes) -> None:
        if not name:
            raise ConfigurationError("publisher name must be non-empty")
        self.name = name
        self._signing_key = SigningKey.from_seed(b"pack|" + seed)

    @property
    def verify_key(self) -> VerifyKey:
        return self._signing_key.public_key()

    def publish(
        self, pack_name: str, templates: dict[str, UsagePolicy]
    ) -> PolicyPack:
        for kind, policy_template in templates.items():
            if policy_template.owner != _TEMPLATE_OWNER:
                raise PolicyError(
                    f"template for kind {kind!r} has a bound owner; "
                    "use presets.template()"
                )
        ordered = tuple(sorted(templates.items()))
        message = PolicyPack.canonical(pack_name, self.name, ordered)
        return PolicyPack(
            name=pack_name,
            publisher=self.name,
            templates=ordered,
            signature=self._signing_key.sign(message),
        )


def verify_pack(pack: PolicyPack, publisher_key: VerifyKey) -> None:
    """Raise :class:`CredentialError` unless the pack's signature holds."""
    if not publisher_key.verify(pack.message(), pack.signature):
        raise CredentialError(
            f"policy pack {pack.name!r} failed signature verification"
        )


# -- a reference pack: the "privacy by default" bundle -----------------------


def privacy_by_default_templates() -> dict[str, UsagePolicy]:
    """A sane restrictive default set: everything owner-only, with
    audit-notification on the most sensitive kinds."""
    from .ucon import OBLIGATION_NOTIFY_OWNER

    notify = (Obligation(OBLIGATION_NOTIFY_OWNER),)
    return {
        "photo": template(obligations=notify),
        "medical": template(obligations=notify, max_uses=3),
        "gps-trace": template(),
        "payslip": template(),
        "document": template(),
    }
