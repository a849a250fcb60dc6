"""Code patterns used by the synthetic benchmark generator.

Two kinds of building blocks are provided:

* :func:`add_library_module` — a self-contained "library": a chain of classes
  with virtual dispatch, field traffic, and type/null/primitive checks whose
  methods all become reachable once the module's entry method is called;
* :func:`add_guarded_module` — a library module plus one of the guard
  patterns from Section 2 of the paper wired in front of its entry method.
  The guard is written so that SkipFlow proves the module unreachable while a
  flow-insensitive analysis cannot:

  ``null_default``
      Figure 1 (DaCapo Sunflow): an optional parameter receives a default
      allocation only when it is ``null``, but callers never pass ``null``.
  ``boolean_flag``
      A configuration method returns the constant ``false`` and the feature
      activation is guarded by it.
  ``instanceof_flag``
      Figure 2 (JDK virtual threads): a query method answers ``this
      instanceof Special`` and no ``Special`` instance exists.
  ``never_returns``
      A guard method never returns (models ``Assert.fail()``-style helpers),
      making everything after the call site dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.ir.builder import ProgramBuilder


@dataclass(frozen=True)
class ModuleHandle:
    """Handle to a generated library module."""

    prefix: str
    entry_class: str
    entry_method: str
    method_names: tuple

    @property
    def entry_qualified_name(self) -> str:
        return f"{self.entry_class}.{self.entry_method}"

    @property
    def method_count(self) -> int:
        return len(self.method_names)


# --------------------------------------------------------------------------- #
# Library modules
# --------------------------------------------------------------------------- #
def add_library_module(pb: ProgramBuilder, prefix: str, method_count: int) -> ModuleHandle:
    """Generate a library module with approximately ``method_count`` methods.

    The module consists of a small dispatch hierarchy (``Base`` with two
    implementations) plus a chain of worker classes.  Each worker method
    allocates both implementations, stores them into a field, performs a
    primitive check, a null check, a type check, a polymorphic call, and then
    calls the next worker in the chain, so every metric of the evaluation is
    exercised proportionally to the module size.
    """
    if method_count < 5:
        method_count = 5
    methods: List[str] = []

    base = f"{prefix}Base"
    impl_a = f"{prefix}ImplA"
    impl_b = f"{prefix}ImplB"
    pb.declare_class(base)
    pb.declare_class(impl_a, superclass=base)
    pb.declare_class(impl_b, superclass=base)
    for class_name in (base, impl_a, impl_b):
        mb = pb.method(class_name, "run", return_type="int")
        value = mb.assign_any()
        mb.return_(value)
        pb.finish_method(mb)
        methods.append(f"{class_name}.run")

    worker_count = max(1, method_count - 4)
    workers = [f"{prefix}Worker{i}" for i in range(worker_count)]
    for index, class_name in enumerate(workers):
        pb.declare_class(class_name)
        pb.declare_field(class_name, "handler", base)
        pb.declare_field(class_name, "cache", base)
        pb.declare_field(class_name, "count", "int")
        methods.append(f"{class_name}.work")
    for index, class_name in enumerate(workers):
        _build_worker_method(pb, class_name, index, workers, base, impl_a, impl_b)

    entry_class = f"{prefix}Entry"
    pb.declare_class(entry_class)
    mb = pb.method(entry_class, "enter", is_static=True)
    first = mb.assign_new(workers[0])
    amount = mb.assign_any()
    mb.invoke_virtual(first, "work", [amount])
    mb.return_void()
    pb.finish_method(mb)
    methods.append(f"{entry_class}.enter")

    return ModuleHandle(prefix, entry_class, "enter", tuple(methods))


def _build_worker_method(pb: ProgramBuilder, class_name: str, index: int,
                         workers: List[str], base: str, impl_a: str, impl_b: str) -> None:
    mb = pb.method(class_name, "work", params=["int"], param_names=["amount"])
    this = mb.receiver
    amount = mb.param(0)

    # Instantiate both implementations so the dispatch below stays polymorphic.
    first = mb.assign_new(impl_a)
    mb.store_field(this, "handler", first)
    second = mb.assign_new(impl_b)
    mb.store_field(this, "handler", second)

    # Primitive check: the argument is unknown, so neither branch can be pruned.
    threshold = mb.assign_int(10)
    mb.if_lt(amount, threshold, "small", "large")
    mb.label("small")
    mb.store_field(this, "count", amount)
    mb.jump("after_prim", [])
    mb.label("large")
    big = mb.assign_any()
    mb.store_field(this, "count", big)
    mb.jump("after_prim", [])
    mb.merge("after_prim", [])

    # Null check on the cache field.  The field really can be null (it is
    # initialized to null before the handler is copied into it), so neither
    # configuration can remove this check; null-check counts therefore track
    # the number of reachable worker methods.
    initial = mb.assign_null()
    mb.store_field(this, "cache", initial)
    mb.store_field(this, "cache", second)
    cached = mb.load_field(this, "cache", base)
    mb.if_null(cached, "is_null", "not_null")
    mb.label("is_null")
    fallback = mb.assign_new(impl_a)
    mb.store_field(this, "cache", fallback)
    mb.jump("after_null", [])
    mb.label("not_null")
    mb.jump("after_null", [])
    mb.merge("after_null", [])

    # Polymorphic dispatch: both implementations flow into the receiver, so
    # this call site cannot be devirtualized by either configuration.
    current = mb.load_field(this, "handler", base)
    mb.invoke_virtual(current, "run", result_type="int")

    # Type check: both implementations reach it, so it cannot be folded.
    mb.if_instanceof(current, impl_a, "is_a", "is_b")
    mb.label("is_a")
    mb.invoke_virtual(current, "run", result_type="int")
    mb.jump("after_type", [])
    mb.label("is_b")
    mb.invoke_virtual(current, "run", result_type="int")
    mb.jump("after_type", [])
    mb.merge("after_type", [])

    # Chain to the next worker so the whole module is reachable from the entry.
    if index + 1 < len(workers):
        next_worker = mb.assign_new(workers[index + 1])
        mb.invoke_virtual(next_worker, "work", [amount])
    mb.return_void()
    pb.finish_method(mb)


# --------------------------------------------------------------------------- #
# Guard patterns
# --------------------------------------------------------------------------- #
def _add_null_default_guard(pb: ProgramBuilder, prefix: str, module: ModuleHandle) -> str:
    """Figure 1: an optional display parameter defaulted only when null."""
    display = f"{prefix}Display"
    frame_display = f"{prefix}FrameDisplay"
    scene = f"{prefix}Scene"
    pb.declare_class(display)
    pb.declare_class(frame_display, superclass=display)
    pb.declare_class(scene)

    mb = pb.method(display, "show")
    mb.return_void()
    pb.finish_method(mb)

    mb = pb.method(frame_display, "show")
    mb.invoke_static(module.entry_class, module.entry_method)
    mb.return_void()
    pb.finish_method(mb)

    mb = pb.method(scene, "render", params=[display], param_names=["display"])
    d = mb.param(0)
    mb.if_null(d, "is_null", "not_null")
    mb.label("is_null")
    default = mb.assign_new(frame_display)
    mb.jump("joined", [default])
    mb.label("not_null")
    mb.jump("joined", [d])
    joined = mb.merge("joined", ["display_joined"])[0]
    mb.invoke_virtual(joined, "show")
    mb.return_void()
    pb.finish_method(mb)

    driver = f"{prefix}Driver"
    pb.declare_class(driver)
    mb = pb.method(driver, "drive", is_static=True)
    scene_obj = mb.assign_new(scene)
    display_obj = mb.assign_new(display)
    mb.invoke_virtual(scene_obj, "render", [display_obj])
    mb.return_void()
    pb.finish_method(mb)
    return f"{driver}.drive"


def _add_boolean_flag_guard(pb: ProgramBuilder, prefix: str, module: ModuleHandle) -> str:
    """A configuration method returning the constant false guards the feature."""
    config = f"{prefix}Config"
    feature = f"{prefix}Feature"
    driver = f"{prefix}Driver"
    pb.declare_class(config)
    pb.declare_class(feature)
    pb.declare_class(driver)

    mb = pb.method(config, "isEnabled", return_type="int")
    disabled = mb.assign_int(0)
    mb.return_(disabled)
    pb.finish_method(mb)

    mb = pb.method(feature, "activate")
    mb.invoke_static(module.entry_class, module.entry_method)
    mb.return_void()
    pb.finish_method(mb)

    mb = pb.method(driver, "drive", is_static=True)
    config_obj = mb.assign_new(config)
    flag = mb.invoke_virtual(config_obj, "isEnabled", result_type="int")
    mb.if_true(flag, "enabled", "disabled")
    mb.label("enabled")
    feature_obj = mb.assign_new(feature)
    mb.invoke_virtual(feature_obj, "activate")
    mb.jump("end", [])
    mb.label("disabled")
    mb.jump("end", [])
    mb.merge("end", [])
    mb.return_void()
    pb.finish_method(mb)
    return f"{driver}.drive"


def _add_instanceof_flag_guard(pb: ProgramBuilder, prefix: str, module: ModuleHandle) -> str:
    """Figure 2: an interprocedural instanceof test on a never-instantiated type."""
    item = f"{prefix}Item"
    special = f"{prefix}SpecialItem"
    handler = f"{prefix}Handler"
    driver = f"{prefix}Driver"
    pb.declare_class(item)
    pb.declare_class(special, superclass=item)
    pb.declare_class(handler)
    pb.declare_class(driver)

    mb = pb.method(item, "isSpecial", return_type="int")
    mb.if_instanceof(mb.receiver, special, "yes", "no")
    mb.label("yes")
    one = mb.assign_int(1)
    mb.jump("done", [one])
    mb.label("no")
    zero = mb.assign_int(0)
    mb.jump("done", [zero])
    result = mb.merge("done", ["result"])[0]
    mb.return_(result)
    pb.finish_method(mb)

    mb = pb.method(handler, "handle")
    mb.invoke_static(module.entry_class, module.entry_method)
    mb.return_void()
    pb.finish_method(mb)

    mb = pb.method(driver, "drive", is_static=True)
    item_obj = mb.assign_new(item)
    special_flag = mb.invoke_virtual(item_obj, "isSpecial", result_type="int")
    mb.if_true(special_flag, "special", "ordinary")
    mb.label("special")
    handler_obj = mb.assign_new(handler)
    mb.invoke_virtual(handler_obj, "handle")
    mb.jump("end", [])
    mb.label("ordinary")
    mb.jump("end", [])
    mb.merge("end", [])
    mb.return_void()
    pb.finish_method(mb)
    return f"{driver}.drive"


def _add_never_returns_guard(pb: ProgramBuilder, prefix: str, module: ModuleHandle) -> str:
    """A guard method that never returns makes the following call dead."""
    validator = f"{prefix}Validator"
    launcher = f"{prefix}Launcher"
    driver = f"{prefix}Driver"
    pb.declare_class(validator)
    pb.declare_class(launcher)
    pb.declare_class(driver)

    # fail() spins forever: it has no reachable return, so its invoke flow
    # never receives a value and everything after the call site stays disabled.
    mb = pb.method(validator, "fail")
    mb.jump("loop", [])
    mb.merge("loop", [])
    mb.jump("loop", [])
    pb.finish_method(mb)

    mb = pb.method(launcher, "launch")
    mb.invoke_static(module.entry_class, module.entry_method)
    mb.return_void()
    pb.finish_method(mb)

    mb = pb.method(driver, "drive", is_static=True)
    validator_obj = mb.assign_new(validator)
    mb.invoke_virtual(validator_obj, "fail")
    launcher_obj = mb.assign_new(launcher)
    mb.invoke_virtual(launcher_obj, "launch")
    mb.return_void()
    pb.finish_method(mb)
    return f"{driver}.drive"


# --------------------------------------------------------------------------- #
# Wide type hierarchies (saturation stress)
# --------------------------------------------------------------------------- #
#: Leaf allocations per ``fill`` method, so populate CFGs stay bounded.
POPULATE_CHUNK = 24


@dataclass(frozen=True)
class HierarchyHandle:
    """Handle to a generated wide-hierarchy module."""

    prefix: str
    driver: str
    root_class: str
    rare_class: str
    leaf_classes: tuple
    class_names: tuple
    method_names: tuple
    payload_entry: str

    @property
    def type_count(self) -> int:
        return len(self.class_names)

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_classes)

    @property
    def method_count(self) -> int:
        return len(self.method_names)


def add_wide_hierarchy_module(pb: ProgramBuilder, prefix: str, depth: int,
                              fanout: int, call_sites: int = 4,
                              guarded_methods: int = 10,
                              superclass: str = "Object") -> HierarchyHandle:
    """Add a module whose flows carry ``fanout ** depth`` receiver types.

    The module stresses the saturation cutoff with realistically wide type
    hierarchies:

    * a class tree of the given ``depth`` and ``fanout`` rooted at
      ``<prefix>Node``, every class concrete and overriding ``run`` — only
      the leaves are ever allocated;
    * a registry whose ``current`` field receives an allocation of *every*
      leaf, so the field flow (and everything downstream) holds the full
      leaf set — hundreds of types for the larger suite entries;
    * ``call_sites`` dispatch methods, each loading the field and invoking
      ``run`` on it, giving the solver that many megamorphic call sites;
    * an audit method guarding a payload library module behind
      ``current instanceof <prefix>Rare``, where ``Rare`` is a concrete but
      never-allocated subclass of the root.

    The ``Rare`` guard is what tells saturation sentinels apart in reachable
    methods: the exact analysis sees that ``Rare`` is not among the leaf
    types flowing into ``current`` and proves the payload dead, and so does
    a saturated flow whose top holds only allocated types
    (``allocated-type``, the sentinel a bare threshold engages), because
    ``Rare`` is never allocated.  A top holding every *instantiable*
    (declared concrete) type would contain ``Rare``, the ``instanceof``
    filter could no longer discharge the guard, and the payload would become
    reachable.  ``benchmarks/run_policy_study.py`` measures each sentinel's
    precision loss and solver effort per threshold.
    """
    if depth < 1:
        raise ValueError(f"hierarchy depth must be >= 1, got {depth}")
    if fanout < 2:
        raise ValueError(f"hierarchy fanout must be >= 2, got {fanout}")
    if call_sites < 1:
        raise ValueError(f"hierarchy needs at least one call site, got {call_sites}")

    methods: List[str] = []
    class_names: List[str] = []

    def _add_run_method(class_name: str) -> None:
        mb = pb.method(class_name, "run", return_type="int")
        value = mb.assign_any()
        mb.return_(value)
        pb.finish_method(mb)
        methods.append(f"{class_name}.run")

    # ``superclass`` roots the whole tree under an existing class (the
    # builder's default is ``Object``), which is how composed modules
    # interleave several hierarchies below one common ancestor; it adds no
    # classes or methods of its own.
    root = f"{prefix}Node"
    pb.declare_class(root, superclass=superclass)
    class_names.append(root)
    _add_run_method(root)

    # Breadth-first levels: every class is concrete; only leaves get allocated.
    level = [root]
    for d in range(1, depth + 1):
        next_level: List[str] = []
        for parent_index, parent in enumerate(level):
            for child_index in range(fanout):
                child = f"{prefix}L{d}N{parent_index * fanout + child_index}"
                pb.declare_class(child, superclass=parent)
                class_names.append(child)
                _add_run_method(child)
                next_level.append(child)
        level = next_level
    leaves = tuple(level)

    rare = f"{prefix}Rare"
    pb.declare_class(rare, superclass=root)
    class_names.append(rare)
    _add_run_method(rare)

    payload = add_library_module(pb, f"{prefix}Payload", guarded_methods)

    registry = f"{prefix}Registry"
    pb.declare_class(registry)
    pb.declare_field(registry, "current", root)

    # Populate methods: allocate every leaf into the shared field, chunked so
    # no single CFG grows with the hierarchy.
    fill_methods: List[str] = []
    for chunk_index in range(0, len(leaves), POPULATE_CHUNK):
        name = f"fill{chunk_index // POPULATE_CHUNK}"
        mb = pb.method(registry, name)
        for leaf in leaves[chunk_index:chunk_index + POPULATE_CHUNK]:
            obj = mb.assign_new(leaf)
            mb.store_field(mb.receiver, "current", obj)
        mb.return_void()
        pb.finish_method(mb)
        fill_methods.append(name)
        methods.append(f"{registry}.{name}")

    # Megamorphic dispatch: every call site sees the whole leaf set.
    dispatch_methods: List[str] = []
    for site in range(call_sites):
        name = f"dispatch{site}"
        mb = pb.method(registry, name)
        current = mb.load_field(mb.receiver, "current", root)
        mb.invoke_virtual(current, "run", result_type="int")
        mb.return_void()
        pb.finish_method(mb)
        dispatch_methods.append(name)
        methods.append(f"{registry}.{name}")

    # The rare-type guard in front of the payload module.
    mb = pb.method(registry, "audit")
    current = mb.load_field(mb.receiver, "current", root)
    mb.if_instanceof(current, rare, "rare", "common")
    mb.label("rare")
    mb.invoke_static(payload.entry_class, payload.entry_method)
    mb.jump("end", [])
    mb.label("common")
    mb.jump("end", [])
    mb.merge("end", [])
    mb.return_void()
    pb.finish_method(mb)
    methods.append(f"{registry}.audit")

    mb = pb.method(registry, "drive", is_static=True)
    reg = mb.assign_new(registry)
    for name in fill_methods:
        mb.invoke_virtual(reg, name)
    for name in dispatch_methods:
        mb.invoke_virtual(reg, name)
    mb.invoke_virtual(reg, "audit")
    mb.return_void()
    pb.finish_method(mb)
    methods.append(f"{registry}.drive")

    methods.extend(payload.method_names)
    return HierarchyHandle(
        prefix=prefix,
        driver=f"{registry}.drive",
        root_class=root,
        rare_class=rare,
        leaf_classes=leaves,
        class_names=tuple(class_names),
        method_names=tuple(methods),
        payload_entry=payload.entry_qualified_name,
    )


# --------------------------------------------------------------------------- #
# Composed multi-hierarchy modules (interleaved megamorphism)
# --------------------------------------------------------------------------- #
#: Guard patterns rotated across a composed module's cross-guard libraries.
COMPOSED_GUARD_ROTATION = ("instanceof_flag", "boolean_flag",
                           "null_default", "never_returns")

#: Library-module size behind each of a composed module's cross guards.
COMPOSED_GUARD_METHODS = 10


@dataclass(frozen=True)
class ComposedHandle:
    """Handle to a composed multi-hierarchy module."""

    prefix: str
    driver: str
    common_class: str
    router_class: str
    hierarchies: Tuple[HierarchyHandle, ...]
    cross_guard_drivers: Tuple[str, ...]
    method_names: Tuple[str, ...]

    @property
    def hierarchy_count(self) -> int:
        return len(self.hierarchies)

    @property
    def mixed_leaf_count(self) -> int:
        """Width of the router's ``mixed`` field: the union of every leaf set."""
        return sum(handle.leaf_count for handle in self.hierarchies)

    @property
    def method_count(self) -> int:
        return len(self.method_names)


def add_composed_hierarchies_module(
        pb: ProgramBuilder, prefix: str,
        shapes: Sequence[Tuple[int, int, int, int]]) -> ComposedHandle:
    """Add 2–4 wide hierarchies interleaved below one common ancestor.

    ``shapes`` lists one ``(depth, fanout, call_sites, guarded_methods)``
    tuple per hierarchy.  A single wide hierarchy keeps all of its
    megamorphism inside one subtree; real megamorphic workloads mix *several
    unrelated* hierarchies through shared infrastructure.  The composed
    module models that:

    * every hierarchy is rooted under one ``<prefix>Common`` class, so their
      values are type-compatible with shared slots;
    * a ``<prefix>Router`` *absorbs* each hierarchy's registry field into
      its own ``mixed`` field (declared ``Common``), whose type set becomes
      the union of every hierarchy's leaf set — megamorphism no single
      hierarchy produces — and dispatches ``run`` over it from
      ``max(call_sites)`` route methods;
    * the router cross-guards the hierarchies against each other: ``audit_i``
      tests ``mixed instanceof Rare_i`` (hierarchy *i*'s never-allocated
      type) and, inside the guard, calls hierarchy *i+1*'s payload module,
      so discharging each guard requires precision about the *interleaved*
      field, not just about one hierarchy;
    * one conventionally guarded library module per hierarchy rides along,
      rotating through :data:`COMPOSED_GUARD_ROTATION`, so the composed
      specs exercise every guard pattern of Section 2 next to the wide
      flows.

    The exact analysis proves every cross payload and guard module dead
    (no ``Rare`` is ever allocated, the guards never fire); a saturated
    ``mixed`` flow jumps to a top that contains every ``Rare``, so all of
    them re-inflate at once — which is what makes the composed specs the
    interesting half of the policy study.

    Returns a handle whose ``driver`` is the static method the benchmark
    ``main`` must call.
    """
    if not 2 <= len(shapes) <= 4:
        raise ValueError(
            f"a composed module interleaves 2-4 hierarchies, got {len(shapes)}")

    methods: List[str] = []

    common = f"{prefix}Common"
    pb.declare_class(common)
    mb = pb.method(common, "run", return_type="int")
    value = mb.assign_any()
    mb.return_(value)
    pb.finish_method(mb)
    methods.append(f"{common}.run")

    hierarchies: List[HierarchyHandle] = []
    for index, (depth, fanout, call_sites, guarded_methods) in enumerate(shapes):
        handle = add_wide_hierarchy_module(
            pb, f"{prefix}H{index}", depth=depth, fanout=fanout,
            call_sites=call_sites, guarded_methods=guarded_methods,
            superclass=common)
        hierarchies.append(handle)
        methods.extend(handle.method_names)

    router = f"{prefix}Router"
    pb.declare_class(router)
    pb.declare_field(router, "mixed", common)

    # Absorb: pull every hierarchy's (program-wide) registry field into the
    # shared mixed field, interleaving the leaf sets.
    for index, handle in enumerate(hierarchies):
        registry = handle.driver.split(".", 1)[0]
        mb = pb.method(router, f"absorb{index}")
        registry_obj = mb.assign_new(registry)
        current = mb.load_field(registry_obj, "current", handle.root_class)
        mb.store_field(mb.receiver, "mixed", current)
        mb.return_void()
        pb.finish_method(mb)
        methods.append(f"{router}.absorb{index}")

    # Route: megamorphic dispatch over the interleaved field.
    route_sites = max(call_sites for _, _, call_sites, _ in shapes)
    for site in range(route_sites):
        mb = pb.method(router, f"route{site}")
        mixed = mb.load_field(mb.receiver, "mixed", common)
        mb.invoke_virtual(mixed, "run", result_type="int")
        mb.return_void()
        pb.finish_method(mb)
        methods.append(f"{router}.route{site}")

    # Cross audits: hierarchy i's rare type guards hierarchy i+1's payload.
    for index, handle in enumerate(hierarchies):
        payload_entry = hierarchies[(index + 1) % len(hierarchies)].payload_entry
        mb = pb.method(router, f"audit{index}")
        mixed = mb.load_field(mb.receiver, "mixed", common)
        mb.if_instanceof(mixed, handle.rare_class, "rare", "common")
        mb.label("rare")
        mb.invoke_static(*payload_entry.split(".", 1))
        mb.jump("end", [])
        mb.label("common")
        mb.jump("end", [])
        mb.merge("end", [])
        mb.return_void()
        pb.finish_method(mb)
        methods.append(f"{router}.audit{index}")

    # One conventionally guarded library per hierarchy, rotating patterns.
    cross_drivers: List[str] = []
    for index in range(len(hierarchies)):
        pattern = COMPOSED_GUARD_ROTATION[index % len(COMPOSED_GUARD_ROTATION)]
        driver = add_guarded_module(pb, f"{prefix}X{index}",
                                    COMPOSED_GUARD_METHODS, pattern)
        cross_drivers.append(driver)

    mb = pb.method(router, "drive", is_static=True)
    for handle in hierarchies:
        mb.invoke_static(*handle.driver.split(".", 1))
    router_obj = mb.assign_new(router)
    for index in range(len(hierarchies)):
        mb.invoke_virtual(router_obj, f"absorb{index}")
    for site in range(route_sites):
        mb.invoke_virtual(router_obj, f"route{site}")
    for index in range(len(hierarchies)):
        mb.invoke_virtual(router_obj, f"audit{index}")
    for driver in cross_drivers:
        mb.invoke_static(*driver.split(".", 1))
    mb.return_void()
    pb.finish_method(mb)
    methods.append(f"{router}.drive")

    return ComposedHandle(
        prefix=prefix,
        driver=f"{router}.drive",
        common_class=common,
        router_class=router,
        hierarchies=tuple(hierarchies),
        cross_guard_drivers=tuple(cross_drivers),
        method_names=tuple(methods),
    )


#: Guard pattern name -> function adding the guard in front of a module.
GUARD_PATTERNS: Dict[str, Callable[[ProgramBuilder, str, ModuleHandle], str]] = {
    "null_default": _add_null_default_guard,
    "boolean_flag": _add_boolean_flag_guard,
    "instanceof_flag": _add_instanceof_flag_guard,
    "never_returns": _add_never_returns_guard,
}


def add_guarded_module(pb: ProgramBuilder, prefix: str, method_count: int,
                       pattern: str) -> str:
    """Add a library module behind one of the guard patterns.

    Returns the qualified name of the static driver method that the benchmark
    ``main`` must call.  The driver and the guard helper methods are always
    reachable; the module behind the guard is reachable only for analyses that
    cannot evaluate the guard.
    """
    if pattern not in GUARD_PATTERNS:
        raise ValueError(f"unknown guard pattern {pattern!r}; "
                         f"expected one of {sorted(GUARD_PATTERNS)}")
    module = add_library_module(pb, prefix, method_count)
    return GUARD_PATTERNS[pattern](pb, prefix, module)
