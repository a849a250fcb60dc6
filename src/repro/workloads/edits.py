"""Edit-sequence workloads: deterministic program deltas over benchmark specs.

The incremental-analysis study needs *edit sequences*, not just programs: a
base :class:`~repro.workloads.generator.BenchmarkSpec` plus a list of
monotone edits that model a developer iterating on the application — add a
new type variant, add a new call site over an existing megamorphic field,
add a whole guarded module.  This module generates those edits as
:class:`~repro.ir.delta.ProgramDelta` scripts, deterministically derived
from the spec and the step description alone, so the same
``(spec, edit script, step)`` triple always produces the same program — the
property that lets the engine's stores key intermediate programs and solver
snapshots the same way they key base specs.

Edit kinds
----------
``add-variant``
    The canonical *single-method edit*: one new subclass of the spec's
    anchor hierarchy overriding ``run``, plus a tiny driver that allocates
    it into the anchor field (rooted as a new entry point).  The new type
    rides the existing propagation paths into every dispatch site.
``add-dispatch``
    A new megamorphic call site: a driver that loads the anchor field and
    invokes ``run`` on it — new code consuming old state.
``add-guarded-module``
    A whole new library module behind one of the Section 2 guard patterns
    (rotating by step index), generated by the same
    :func:`~repro.workloads.patterns.add_guarded_module` the base specs use
    — :class:`ProgramDelta` implements the builder surface, so the pattern
    generators write straight into the delta.
``add-plugin``
    A new extension of the spec's plugin-system base installed into the
    registry slot by a new rooted driver — the edit that exercises the
    reachability-refined saturation policy's re-collapse on resume (a new
    reachable allocation site appears mid-session).  Requires the spec to
    carry a ``plugins`` family.
``add-service``
    A new service deployed into the spec's mesh backbone by a new rooted
    driver.  Requires the spec to carry a ``services`` family.
``add-consumer``
    A new rooted consumer of the anchor hierarchy: a static entry point
    whose one parameter is declared as the anchor's root class, dispatching
    ``run`` on it.  Conservative root seeding gives that parameter every
    instantiable subtype of the root class, so a later ``add-variant``
    widens a seed that a warm resume must re-play.  Outside the default
    rotation; the fuzzer draws it.
``touch-existing``
    Deliberately **non-monotone**: a new method on a pre-existing class.
    Excluded from :func:`default_edit_script`; exists so fallback paths
    (session warnings, cold re-solves) have a realistic trigger.

Anchors
-------
Edits attach to the spec's most interesting flow: the first wide hierarchy's
registry field for ``WideHierarchy`` specs (the composed router's ``mixed``
field for composed specs), or the first core module's ``handler`` field for
plain Table 1 style specs.  :func:`edit_anchor` resolves the names exactly
as the generator builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.ir.delta import ProgramDelta
from repro.workloads.generator import BenchmarkSpec, _sanitize
from repro.workloads.patterns import add_guarded_module

#: Guard patterns rotated across ``add-guarded-module`` steps.
EDIT_GUARD_ROTATION = ("boolean_flag", "instanceof_flag",
                      "null_default", "never_returns")

#: Library-module size behind each ``add-guarded-module`` step.
EDIT_MODULE_METHODS = 10

#: The monotone edit kinds, in default rotation order.
MONOTONE_EDIT_KINDS = ("add-variant", "add-dispatch", "add-guarded-module")

#: Monotone kinds that require an application-model family on the spec.
APPLICATION_EDIT_KINDS = ("add-plugin", "add-service")

#: Every edit kind: the rotation, the family kinds, ``add-consumer`` and
#: the deliberately non-monotone one.
EDIT_KINDS = (MONOTONE_EDIT_KINDS + APPLICATION_EDIT_KINDS
              + ("add-consumer", "touch-existing"))


@dataclass(frozen=True)
class EditAnchor:
    """Where a spec's edits attach: a hierarchy root and its shared field."""

    root_class: str
    container_class: str
    field_name: str


def edit_anchor(spec: BenchmarkSpec) -> EditAnchor:
    """The anchor names for ``spec``, mirroring the generator's naming."""
    prefix = _sanitize(spec.name)
    if spec.hierarchies and spec.compose_hierarchies:
        return EditAnchor(
            root_class=f"{prefix}MixCommon",
            container_class=f"{prefix}MixRouter",
            field_name="mixed",
        )
    if spec.hierarchies:
        return EditAnchor(
            root_class=f"{prefix}Hier0Node",
            container_class=f"{prefix}Hier0Registry",
            field_name="current",
        )
    return EditAnchor(
        root_class=f"{prefix}Core0Base",
        container_class=f"{prefix}Core0Worker0",
        field_name="handler",
    )


@dataclass(frozen=True)
class EditStepSpec:
    """One edit of a sequence: a kind plus its position (for unique names)."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in EDIT_KINDS:
            raise ValueError(f"unknown edit kind {self.kind!r}; "
                             f"expected one of {EDIT_KINDS}")
        if self.index < 0:
            raise ValueError(f"edit index must be >= 0, got {self.index}")

    @property
    def label(self) -> str:
        return f"{self.kind}#{self.index}"


@dataclass(frozen=True)
class EditScriptSpec:
    """A base spec plus an edit sequence — the unit the stores key on.

    Being a frozen dataclass of frozen dataclasses, an edit script hashes
    through :func:`repro.engine.cache.hash_dataclass` like any benchmark
    spec; :meth:`prefix` yields the script truncated to the first *n*
    steps, which is how every intermediate program state (and its solver
    snapshot) gets a distinct, reproducible cache identity.
    """

    base: BenchmarkSpec
    steps: Tuple[EditStepSpec, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.base.name}+{len(self.steps)}edits"

    def prefix(self, count: int) -> "EditScriptSpec":
        """The script truncated to its first ``count`` steps."""
        if not 0 <= count <= len(self.steps):
            raise ValueError(
                f"prefix length {count} out of range for {len(self.steps)} steps")
        return replace(self, steps=self.steps[:count])


def default_edit_script(spec: BenchmarkSpec, steps: int = 4) -> EditScriptSpec:
    """A monotone edit sequence rotating through the edit kinds.

    The first step is always ``add-variant`` — the single-method edit the
    incremental study's headline number is defined over.
    """
    return EditScriptSpec(
        base=spec,
        steps=tuple(
            EditStepSpec(kind=MONOTONE_EDIT_KINDS[i % len(MONOTONE_EDIT_KINDS)],
                         index=i)
            for i in range(steps)),
    )


def build_edit_delta(spec: BenchmarkSpec, step: EditStepSpec) -> ProgramDelta:
    """The :class:`ProgramDelta` for one edit step of one spec.

    Purely a function of ``(spec, step)`` — no randomness, no global state —
    so replaying a script prefix always reproduces the identical program.
    """
    anchor = edit_anchor(spec)
    prefix = _sanitize(spec.name)
    k = step.index
    delta = ProgramDelta(f"{spec.name}:{step.label}")

    if step.kind == "add-variant":
        variant = f"{prefix}EditVariant{k}"
        driver = f"{prefix}EditInject{k}"
        delta.declare_class(variant, superclass=anchor.root_class)
        mb = delta.method(variant, "run", return_type="int")
        value = mb.assign_any()
        mb.return_(value)
        delta.finish_method(mb)
        delta.declare_class(driver)
        mb = delta.method(driver, "apply", is_static=True)
        container = mb.assign_new(anchor.container_class)
        instance = mb.assign_new(variant)
        mb.store_field(container, anchor.field_name, instance)
        mb.return_void()
        delta.finish_method(mb)
        delta.add_entry_point(f"{driver}.apply")
    elif step.kind == "add-dispatch":
        site = f"{prefix}EditSite{k}"
        delta.declare_class(site)
        mb = delta.method(site, "poll", is_static=True)
        container = mb.assign_new(anchor.container_class)
        current = mb.load_field(container, anchor.field_name,
                                anchor.root_class)
        mb.invoke_virtual(current, "run", result_type="int")
        mb.return_void()
        delta.finish_method(mb)
        delta.add_entry_point(f"{site}.poll")
    elif step.kind == "add-guarded-module":
        pattern = EDIT_GUARD_ROTATION[k % len(EDIT_GUARD_ROTATION)]
        driver = add_guarded_module(delta, f"{prefix}EditLib{k}",
                                    EDIT_MODULE_METHODS, pattern)
        delta.add_entry_point(driver)
    elif step.kind == "add-plugin":
        if spec.plugins is None:
            raise ValueError(
                f"edit kind 'add-plugin' needs a plugin-system family on "
                f"spec {spec.name!r}")
        base_class = f"{prefix}PlugBase"
        registry = f"{prefix}PlugRegistry"
        plugin = f"{prefix}EditPlug{k}"
        driver = f"{prefix}EditEnable{k}"
        delta.declare_class(plugin, superclass=base_class)
        mb = delta.method(plugin, "onEvent", return_type="int")
        value = mb.assign_any()
        mb.return_(value)
        delta.finish_method(mb)
        delta.declare_class(driver)
        mb = delta.method(driver, "apply", is_static=True)
        holder = mb.assign_new(registry)
        instance = mb.assign_new(plugin)
        mb.store_field(holder, "slot", instance)
        mb.invoke_virtual(holder, "hook0")
        mb.return_void()
        delta.finish_method(mb)
        delta.add_entry_point(f"{driver}.apply")
    elif step.kind == "add-service":
        if spec.services is None:
            raise ValueError(
                f"edit kind 'add-service' needs a microservice family on "
                f"spec {spec.name!r}")
        base_class = f"{prefix}NetServiceBase"
        mesh = f"{prefix}NetMesh"
        service = f"{prefix}EditSvc{k}"
        driver = f"{prefix}EditDeploy{k}"
        delta.declare_class(service, superclass=base_class)
        mb = delta.method(service, "handle", return_type="int")
        value = mb.assign_any()
        mb.return_(value)
        delta.finish_method(mb)
        delta.declare_class(driver)
        mb = delta.method(driver, "apply", is_static=True)
        holder = mb.assign_new(mesh)
        instance = mb.assign_new(service)
        mb.store_field(holder, "backbone", instance)
        mb.invoke_virtual(holder, "route0")
        mb.return_void()
        delta.finish_method(mb)
        delta.add_entry_point(f"{driver}.apply")
    elif step.kind == "add-consumer":
        consumer = f"{prefix}EditConsumer{k}"
        delta.declare_class(consumer)
        mb = delta.method(consumer, "consume", params=(anchor.root_class,),
                          is_static=True)
        mb.invoke_virtual(mb.param(0), "run", result_type="int")
        mb.return_void()
        delta.finish_method(mb)
        delta.add_entry_point(f"{consumer}.consume")
    elif step.kind == "touch-existing":
        mb = delta.method(anchor.container_class, f"probe{k}",
                          return_type="int")
        value = mb.assign_any()
        mb.return_(value)
        delta.finish_method(mb)
    else:  # pragma: no cover — EditStepSpec validates kinds
        raise ValueError(f"unknown edit kind {step.kind!r}")
    return delta


def edit_deltas(script: EditScriptSpec) -> List[ProgramDelta]:
    """One delta per step of ``script``, in order."""
    return [build_edit_delta(script.base, step) for step in script.steps]
