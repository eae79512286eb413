"""Composable stage and method registries.

MDZ's multi-algorithm ADP selector wins because it can pick the best
member per buffer — which is only as valuable as the pool of members it
can pick from.  This module makes that pool open: compression *methods*
(the ADP-selectable members) and the *stages* they compose — predictors,
quantizers, and encoders — are looked up by name in registries instead of
being hard-wired into ``core/mdz.py`` and ``core/adaptive.py``.

The shape is the classic name -> factory lookup dict (SZ3 recasts SZ the
same way: a compressor is a composition of interchangeable predictor /
quantizer / encoder stages).  Adding a member is:

1. implement the :class:`~repro.core.methods.MDZMethod` contract
   (``prepare`` / ``serialize`` / ``estimate`` / ``reconstruction`` /
   ``decode`` — see ``docs/stages.md`` for the worked tutorial);
2. reserve a wire id in :data:`~repro.core.methods.METHOD_IDS`;
3. call :func:`register_method` at module import and list the module in
   :func:`ensure_members`.

Everything else — ADP trials, the streaming executor's out-of-session
dispatch, container method tags, ``mdz info`` summaries, the CLI
``--methods`` flag, and the generated ``docs/stages.md`` tables — picks
the new member up from the registry.

Stage registries (:data:`PREDICTORS`, :data:`QUANTIZERS`,
:data:`ENCODERS`) serve two roles: new members build themselves from
stage lookups instead of private imports, and the docs generator
(``tools/list_stages.py``) renders the authoritative composition tables
from the same entries the code resolves at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..exceptions import ConfigurationError
from .methods import METHOD_IDS, MDZMethod

#: The ADP candidate pool used when none is configured.  This is the
#: paper's original three-way trial; archives produced with it are pinned
#: byte-identical to the pre-registry seed (tools/legacy_digests.py).
DEFAULT_MEMBERS = ("vq", "vqt", "mt")


@dataclass(frozen=True)
class StageEntry:
    """One registered stage: a named, documented factory."""

    name: str
    kind: str  # "predictor" | "quantizer" | "encoder"
    factory: Callable
    description: str
    ref: str  # code pointer, e.g. "sz/predictors.py"


class StageRegistry:
    """Name -> :class:`StageEntry` lookup for one stage kind.

    A thin ordered dict wrapper; iteration order is registration order,
    which is also the order the documentation tables render in.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, StageEntry] = {}

    def register(
        self, name: str, factory: Callable, *, description: str, ref: str
    ) -> Callable:
        if name in self._entries:
            raise ConfigurationError(
                f"duplicate {self.kind} stage {name!r}"
            )
        self._entries[name] = StageEntry(
            name=name,
            kind=self.kind,
            factory=factory,
            description=description,
            ref=ref,
        )
        return factory

    def get(self, name: str) -> StageEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} stage {name!r}; "
                f"registered: {', '.join(self._entries) or '(none)'}"
            ) from None

    def create(self, name: str, *args, **kwargs):
        """Instantiate the named stage via its factory."""
        return self.get(name).factory(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entries(self) -> tuple[StageEntry, ...]:
        return tuple(self._entries.values())


PREDICTORS = StageRegistry("predictor")
QUANTIZERS = StageRegistry("quantizer")
ENCODERS = StageRegistry("encoder")


@dataclass(frozen=True)
class MethodEntry:
    """One registered compression member.

    ``needs_reference`` marks members whose encode and decode read the
    session reference snapshot.  Only for these does
    :meth:`~repro.core.mdz.MDZAxisCompressor.export_session_state` ship
    the reference with out-of-session jobs, and does a random read
    decode buffer 0 first (:func:`needs_head`).
    ``stages`` names the member's composition for documentation and
    introspection; every listed name resolves in the matching stage
    registry (pinned by ``tests/test_registry.py``).
    """

    name: str
    method_id: int
    factory: Callable[[], MDZMethod]
    needs_reference: bool
    predictors: tuple[str, ...]
    quantizer: str
    encoder: str
    description: str


_METHODS: dict[str, MethodEntry] = {}
_INSTANCES: dict[str, MDZMethod] = {}


def register_method(
    name: str,
    factory: Callable[[], MDZMethod],
    *,
    needs_reference: bool = False,
    predictors: tuple[str, ...],
    quantizer: str = "linear",
    encoder: str = "huffman-int-stream",
    description: str,
) -> Callable[[], MDZMethod]:
    """Register an ADP-selectable member under its wire id.

    The wire id comes from :data:`~repro.core.methods.METHOD_IDS` — the
    single source of truth for the container format — so a member cannot
    be registered without a reserved id, and two members cannot collide.
    """
    if name not in METHOD_IDS:
        raise ConfigurationError(
            f"method {name!r} has no wire id; reserve one in "
            "repro.core.methods.METHOD_IDS first"
        )
    if name in _METHODS:
        raise ConfigurationError(f"duplicate method registration {name!r}")
    _METHODS[name] = MethodEntry(
        name=name,
        method_id=METHOD_IDS[name],
        factory=factory,
        needs_reference=needs_reference,
        predictors=tuple(predictors),
        quantizer=quantizer,
        encoder=encoder,
        description=description,
    )
    return factory


def ensure_members() -> None:
    """Import every built-in member and stage module (idempotent).

    Registration happens at module import; this gives every consumer a
    one-call way to guarantee the registries are fully populated without
    eagerly importing the whole package at ``import repro``.
    """
    from ..sz import stages  # noqa: F401  (registers the stage entries)
    from . import bitadaptive, interp, mt, vq, vqt  # noqa: F401


def method_entry(name: str) -> MethodEntry:
    """The registry entry for ``name``; raises ``ConfigurationError``."""
    ensure_members()
    try:
        return _METHODS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; registered: "
            f"{', '.join(sorted(_METHODS))}"
        ) from None


def get_method(name: str) -> MDZMethod:
    """The shared stateless instance of the named member.

    Methods carry no per-session state (that lives in
    :class:`~repro.core.methods.MethodState`), so one instance serves
    every session and trial.
    """
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = method_entry(name).factory()
        _INSTANCES[name] = instance
    return instance


def needs_head(method: str, members: tuple[str, ...]) -> bool:
    """True when buffer ``k > 0`` decodes only after buffer 0: the fixed
    ``method``, or for ``"adp"`` any pool member, sets
    ``needs_reference``.  The one random-access rule behind batch reads,
    salvage and ``MDZAxisCompressor.supports_random_access``."""
    names = members if method == "adp" else (method,)
    return any(method_entry(name).needs_reference for name in names)


def method_names() -> tuple[str, ...]:
    """Every registered member, in wire-id order."""
    ensure_members()
    return tuple(sorted(_METHODS, key=lambda n: _METHODS[n].method_id))


def method_entries() -> tuple[MethodEntry, ...]:
    ensure_members()
    return tuple(
        _METHODS[name] for name in method_names()
    )


def validate_members(members: tuple[str, ...]) -> tuple[str, ...]:
    """Normalize + validate an ADP candidate pool; returns a tuple.

    Raises :class:`ConfigurationError` for an empty pool, duplicates, or
    an unregistered name.
    """
    members = tuple(members)
    if not members:
        raise ConfigurationError(
            "the ADP member pool must name at least one method"
        )
    if len(set(members)) != len(members):
        raise ConfigurationError(
            f"duplicate entries in ADP member pool {members}"
        )
    for name in members:
        method_entry(name)  # raises with the registered-names list
    return members
