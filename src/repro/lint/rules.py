"""The rule registry: nine static invariants the reproduction rests on.

==== ===================== =====================================================
id   name                  protects
==== ===================== =====================================================
R1   no-wall-clock         reproducibility: no host clock outside ``bench/``
R2   seeded-randomness     reproducibility: every stochastic choice draws from a
                           seeded ``util.rng.DeterministicRng`` stream
R4   exception-hygiene     recovery: a broad ``except`` may not swallow
                           ``ClusterError``/``FaultInjected`` (paper §2.6)
R5   deterministic-iter    determinism: no unsorted set iteration into plans,
                           answers, or the scheduler/resource-queue order
R6   obs-passivity         trace=on bit-identity: ``repro.obs`` reads the
                           simulated clock but never charges it, mutates cost
                           state, or forces lazy column vectors
R7   cross-query-isolation serial≡concurrent: module/class-level mutables are
                           written only if ``lint/shared_state.py`` says why
R8   scheduler-determinism the interleaving depends on no ``id()``, dict-view
                           ``min``/``max`` or unkeyed heap entry
R9   rpc-pairing           every DISPATCH site handles COMPLETE and ABORT; a
                           charged iterator left by ``break`` is closed
R10  single-owner          one owner per claim (paper §2–§5): no name that
                           :data:`OWNED` retires, or gives one owner, is
                           spelled in code where its entry forbids it
==== ===================== =====================================================

R3 (cost-conformance) is retired, and its id is not reused: every byte
read or written is checked at run time by
``tests/test_byte_conservation.py``.  Rules are ordinary objects with
``id``/``name``/``description`` and a ``check_file(source, project)``
generator; register new ones by appending to :data:`RULES`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence
from typing import Set, Tuple

from repro.lint.core import Finding, SourceFile


def _in_dir(path: str, *dirnames: str) -> bool:
    parts = path.split("/")
    return any(d in parts for d in dirnames)


def _walk_own(func: ast.AST) -> Iterator[ast.AST]:
    """Walk ``func``'s own body without descending into nested defs.

    ``ast.walk`` visits every descendant, so a ``continue`` on nested
    ``FunctionDef`` nodes skips the def node itself but still scans its
    body as if it belonged to the outer function; this walker prunes the
    whole subtree (nested defs are analyzed on their own)."""
    stack: List[ast.AST] = [func]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


# =========================================================================== R1
class NoWallClockRule:
    """Host-clock reads make simulated figures and chaos schedules
    unreproducible. Only the benchmark harness (which *measures* real
    time on purpose) and the cost model itself may touch them."""

    id = "R1"
    name = "no-wall-clock"
    description = (
        "time.time/perf_counter/monotonic/datetime.now outside bench/ "
        "and simtime/"
    )

    TIME_CLOCKS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )
    DATETIME_CLOCKS = frozenset({"now", "utcnow", "today"})

    def _exempt(self, path: str) -> bool:
        return _in_dir(path, "bench", "tests", "simtime") or path.endswith(
            "simtime.py"
        )

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if self._exempt(source.path):
            return
        time_modules: Set[str] = set()
        datetime_modules: Set[str] = set()
        datetime_classes: Set[str] = set()
        clock_names: Set[str] = set()
        for node in source.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_modules.add(alias.asname or alias.name)
                    elif alias.name == "datetime":
                        datetime_modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.TIME_CLOCKS:
                            clock_names.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_classes.add(alias.asname or alias.name)

        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in clock_names:
                yield source.finding(
                    self.id, node, f"wall-clock call {func.id}() in engine code"
                )
            elif isinstance(func, ast.Attribute):
                value = func.value
                if (
                    isinstance(value, ast.Name)
                    and value.id in time_modules
                    and func.attr in self.TIME_CLOCKS
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"wall-clock call {value.id}.{func.attr}() in engine code",
                    )
                elif func.attr in self.DATETIME_CLOCKS and (
                    (isinstance(value, ast.Name) and value.id in datetime_classes)
                    or (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id in datetime_modules
                        and value.attr in ("datetime", "date")
                    )
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"wall-clock call ...{func.attr}() in engine code",
                    )


# =========================================================================== R2
class SeededRandomnessRule:
    """The module-level ``random`` functions share hidden global state,
    and an argless ``random.Random()`` seeds from the OS — both make
    runs unreproducible.  Every stochastic component must draw from a
    named :class:`repro.util.rng.DeterministicRng` stream."""

    id = "R2"
    name = "seeded-randomness"
    description = (
        "module-level random.* calls or direct random.Random construction "
        "outside util/rng.py"
    )

    def _exempt(self, path: str) -> bool:
        return path.endswith("util/rng.py") or _in_dir(path, "tests")

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if self._exempt(source.path):
            return
        aliases: Set[str] = set()
        for node in source.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                names = ", ".join(a.name for a in node.names)
                yield source.finding(
                    self.id,
                    node,
                    f"from random import {names}: use a seeded "
                    "util.rng.DeterministicRng stream instead",
                )
        for node in source.nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliases
            ):
                continue
            attr = node.func.attr
            if attr in ("Random", "SystemRandom"):
                detail = (
                    "unseeded" if not node.args and not node.keywords else "direct"
                )
                yield source.finding(
                    self.id,
                    node,
                    f"{detail} random.{attr}() construction: derive a "
                    "util.rng.DeterministicRng(seed, *names) stream instead",
                )
            else:
                yield source.finding(
                    self.id,
                    node,
                    f"module-level random.{attr}() uses shared global state: "
                    "use a seeded util.rng.DeterministicRng stream",
                )


# =========================================================================== R4
class ExceptionHygieneRule:
    """A broad ``except`` that does not re-raise can swallow the typed
    ``ClusterError``/``FaultInjected`` exceptions the chaos layer
    injects, so the session's bounded-retry restart loop never sees the
    fault and the paper's restart-over-recover argument breaks."""

    id = "R4"
    name = "exception-hygiene"
    description = (
        "bare/broad except that can swallow ClusterError/FaultInjected "
        "without re-raising"
    )

    #: Exception names whose catch-without-reraise can hide an injected
    #: fault: anything at or above ClusterError in the hierarchy.
    BROAD = frozenset(
        {"Exception", "BaseException", "ReproError", "ClusterError", "FaultInjected"}
    )

    @classmethod
    def _broad_name(cls, expr: Optional[ast.expr]) -> Optional[str]:
        if expr is None:
            return "bare except:"
        if isinstance(expr, ast.Name) and expr.id in cls.BROAD:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in cls.BROAD:
            return expr.attr
        if isinstance(expr, ast.Tuple):
            for element in expr.elts:
                found = cls._broad_name(element)
                if found:
                    return found
        return None

    @staticmethod
    def _reraises(body: Sequence[ast.stmt]) -> bool:
        """True if any execution path through the handler raises.

        Raises inside nested function definitions do not count — they
        run later, if ever."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if _in_dir(source.path, "tests"):
            return
        for node in source.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._broad_name(node.type)
            if caught is None or self._reraises(node.body):
                continue
            yield source.finding(
                self.id,
                node,
                f"broad handler ({caught}) swallows the exception: it would "
                "hide ClusterError/FaultInjected from the query retry loop — "
                "narrow the type or re-raise",
            )


# =========================================================================== R5
class DeterministicIterationRule:
    """Iterating a ``set``/``frozenset`` (or an explicit ``.keys()``
    view) feeds its unordered elements into ordered output: rows, plan
    shapes, hash/dispatch choices.  Wrap the iterable in ``sorted(...)``
    or restructure.  Scope is limited to the code whose output order is
    an external contract: planner, executor, catalog, the columnar
    vector/kernel layer (vector contents and selection vectors flow
    straight into result rows), and the event scheduler and resource
    queues (their iteration order is the concurrent interleaving).  This
    is the one rule for set iteration; R8 keeps the scheduler's other
    hazards."""

    id = "R5"
    name = "deterministic-iteration"
    description = (
        "unsorted set/frozenset/.keys() iteration in planner//executor//"
        "catalog//columnar//scheduler//resqueue"
    )

    SCOPE_DIRS = ("planner", "executor", "catalog", "columnar")
    SCOPE_FILES = ("simtime/scheduler.py", "cluster/resqueue.py")
    SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
    SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )
    DEFAULTED_READS = frozenset({"get", "setdefault", "pop"})
    SET_ANNOTATIONS = frozenset(
        {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
    )
    #: Order-insensitive consumers: iterating a set into these is fine.
    NEUTRAL_CALLS = frozenset(
        {
            "sorted",
            "len",
            "sum",
            "min",
            "max",
            "any",
            "all",
            "set",
            "frozenset",
            "bool",
        }
    )

    # ------------------------------------------------------- set-typed-ness
    def _annotation_is_set(self, annotation: Optional[ast.expr]) -> bool:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in self.SET_ANNOTATIONS
        if isinstance(node, ast.Name):
            return node.id in self.SET_ANNOTATIONS
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.split("[", 1)[0].strip()
            return text.rsplit(".", 1)[-1] in self.SET_ANNOTATIONS
        return False

    def _set_returning_functions(self, source: SourceFile) -> Set[str]:
        out: Set[str] = set()
        for node in source.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._annotation_is_set(node.returns):
                    out.add(node.name)
        return out

    def _is_set_expr(
        self, node: ast.expr, set_names: Set[str], set_funcs: Set[str]
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(
                node.left, set_names, set_funcs
            ) or self._is_set_expr(node.right, set_names, set_funcs)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id in self.SET_CONSTRUCTORS:
                    return True
                if node.func.id in set_funcs:
                    return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in self.SET_METHODS:
                    return self._is_set_expr(node.func.value, set_names, set_funcs)
                # A dict read whose default is a set holds sets.
                if node.func.attr in self.DEFAULTED_READS and len(node.args) > 1:
                    return self._is_set_expr(node.args[1], set_names, set_funcs)
        return False

    def _collect_set_names(
        self, func: ast.AST, walked: List[ast.AST], set_funcs: Set[str]
    ) -> Set[str]:
        """Local names bound to set-typed expressions (fixpoint pass over
        ``walked``, which is ``ast.walk(func)``)."""
        names: Set[str] = set()
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = func.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if self._annotation_is_set(arg.annotation):
                    names.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for node in walked:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not func:
                        continue
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.target is not None:
                    if self._annotation_is_set(node.annotation):
                        if (
                            isinstance(node.target, ast.Name)
                            and node.target.id not in names
                        ):
                            names.add(node.target.id)
                            changed = True
                        continue
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.AugAssign):
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                if self._is_set_expr(value, names, set_funcs):
                    for target in targets:
                        if isinstance(target, ast.Name) and target.id not in names:
                            names.add(target.id)
                            changed = True
        return names

    # ------------------------------------------------------------- detection
    def _iter_functions(self, source: SourceFile) -> Iterator[ast.AST]:
        yield source.tree
        for node in source.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if not (
            _in_dir(source.path, *self.SCOPE_DIRS)
            or any(source.path.endswith(f) for f in self.SCOPE_FILES)
        ):
            return
        set_funcs = self._set_returning_functions(source)
        flagged: Set[int] = set()
        for func in self._iter_functions(source):
            walked = source.nodes if func is source.tree else list(ast.walk(func))
            set_names = self._collect_set_names(func, walked, set_funcs)

            def is_unordered(expr: ast.expr) -> bool:
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "keys"
                    and not expr.args
                ):
                    return True
                return self._is_set_expr(expr, set_names, set_funcs)

            for node in walked:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not func:
                        continue
                iterables: List[ast.expr] = []
                what = ""
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables, what = [node.iter], "a for loop"
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    iterables = [gen.iter for gen in node.generators]
                    what = "a comprehension"
                elif isinstance(node, ast.Call):
                    callee: Optional[str] = None
                    if isinstance(node.func, ast.Name):
                        callee = node.func.id
                    elif isinstance(node.func, ast.Attribute):
                        callee = node.func.attr
                    if callee in ("list", "tuple", "enumerate", "iter", "reversed"):
                        iterables, what = list(node.args[:1]), f"{callee}(...)"
                    elif callee == "join":
                        iterables, what = list(node.args[:1]), "str.join"
                elif isinstance(node, ast.YieldFrom):
                    iterables, what = [node.value], "yield from"
                for iterable in iterables:
                    if not is_unordered(iterable):
                        continue
                    lineno = getattr(iterable, "lineno", getattr(node, "lineno", 1))
                    if lineno in flagged:
                        continue
                    flagged.add(lineno)
                    yield source.finding(
                        self.id,
                        iterable,
                        f"unordered set iteration feeds {what}: wrap the "
                        "iterable in sorted(...) to make the order "
                        "deterministic",
                    )


# =========================================================================== R6
class ObsPassivityRule:
    """Observability must be passive: :mod:`repro.obs` may *read* the
    simulated clock (``acc.seconds`` and friends) but never spend or
    mutate it. A charging call (or a write to a cost-accumulator
    attribute) inside ``obs/`` would make traced runs diverge from
    untraced runs, breaking the trace=on bit-identity contract.

    The same contract covers the vectorized path's laziness: tracing
    must not *force* column vectors — materializing a dictionary column
    (``tolist``/``gather``/``to_rows``/``take``) from a trace hook would
    change what work the traced run performs (and when its cached
    materialized views appear), so those calls are banned in ``obs/``
    alongside the charging API."""

    id = "R6"
    name = "obs-passivity"
    description = (
        "simtime charging call, cost-attribute write, or vector "
        "materialization inside obs/ (observability must never spend "
        "simulated time nor force lazy columns)"
    )

    #: The repro.simtime charging API.
    CHARGING = frozenset(
        {
            "fixed",
            "disk_read",
            "disk_write",
            "cpu_tuples",
            "cpu_bytes",
            "network",
            "scaled",
            "charge_control",
        }
    )
    #: Mutable cost-accumulator state.
    COST_ATTRS = frozenset(
        {"seconds", "disk_read_bytes", "disk_write_bytes", "net_bytes", "tuples"}
    )
    #: Column-vector materialization points: forcing one from a trace
    #: hook would make traced runs do different (cached) work.
    MATERIALIZING = frozenset({"tolist", "gather", "to_rows", "take"})

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if not _in_dir(source.path, "obs"):
            return
        for node in source.nodes:
            if isinstance(node, ast.Call):
                name: Optional[str] = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in self.CHARGING:
                    yield source.finding(
                        self.id,
                        node,
                        f"obs/ calls charging API {name}(): observability "
                        "must record simulated time, never spend it",
                    )
                elif (
                    name in self.MATERIALIZING
                    and isinstance(node.func, ast.Attribute)
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"obs/ calls .{name}(): tracing must never force "
                        "column-vector (dictionary) materialization",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in self.COST_ATTRS
                    ):
                        yield source.finding(
                            self.id,
                            target,
                            f"obs/ writes cost attribute .{target.attr}: "
                            "observability must never mutate accumulator "
                            "state",
                        )


# =========================================================================== R7
class CrossQueryIsolationRule:
    """Writes to module-level or class-level mutable state break the
    serial≡concurrent bit-identity contract unless the sharing is
    deliberate: every module outside ``bench/`` is checked, since any
    of them may run inside a statement.  A write is exempt when its
    ``path::qualname`` key appears in the shared-state registry
    (``repro/lint/shared_state.py`` — parsed from the linted tree, not
    the installed package) with a written reason, or under a per-line
    ``# lint: allow[R7]``."""

    id = "R7"
    name = "cross-query-isolation"
    description = (
        "module/class-level mutable state written by a function outside "
        "bench/ and not in the shared-state registry"
    )

    REGISTRY_SUFFIX = "lint/shared_state.py"
    REGISTRY_NAME = "SHARED_STATE"

    MUTABLE_CONSTRUCTORS = frozenset(
        {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
    )
    MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "add",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "remove",
            "discard",
            "clear",
            "appendleft",
            "extendleft",
        }
    )

    # ------------------------------------------------------ shared analyses
    @classmethod
    def _registry(cls, project) -> Dict[str, str]:
        """Parse SHARED_STATE out of the linted tree's registry module."""
        for source in project.files:
            if not source.path.endswith(cls.REGISTRY_SUFFIX):
                continue
            for node in source.nodes:
                target: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                else:
                    continue
                if (
                    isinstance(target, ast.Name)
                    and target.id == cls.REGISTRY_NAME
                    and node.value is not None
                ):
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        continue
                    if isinstance(value, dict):
                        return {str(k): str(v) for k, v in value.items()}
        return {}

    # --------------------------------------------------------- file indexes
    def _is_mutable_value(self, node: Optional[ast.expr]) -> bool:
        if isinstance(
            node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            return name in self.MUTABLE_CONSTRUCTORS
        return False

    def _module_mutables(self, source: SourceFile) -> Set[str]:
        out: Set[str] = set()
        for node in source.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            if value is not None and self._is_mutable_value(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
        return out

    def _container_instances(self, source: SourceFile) -> Dict[str, List[str]]:
        """Class name -> the module-level names bound to ``Cls(...)``,
        for each class of this file that subclasses a mutable builtin
        (a ``dict`` whose ``__missing__`` fills it, say). A write through
        ``self`` in such a class is a write to each of those names."""
        containers = {
            node.name
            for node in source.tree.body
            if isinstance(node, ast.ClassDef)
            and any(
                (base.id if isinstance(base, ast.Name) else getattr(base, "attr", ""))
                in self.MUTABLE_CONSTRUCTORS
                for base in node.bases
            )
        }
        out: Dict[str, List[str]] = {}
        for node in source.tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in containers
            ):
                out.setdefault(node.value.func.id, []).extend(
                    target.id for target in node.targets if isinstance(target, ast.Name)
                )
        return out

    def _class_mutables(self, source: SourceFile) -> Dict[str, Set[str]]:
        """class qualname -> attrs bound to mutables in the class body
        and never rebound per-instance via ``self.attr = ...``."""
        out: Dict[str, Set[str]] = {}

        def visit(node: ast.AST, qual: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    inner = child.name if not qual else f"{qual}.{child.name}"
                    attrs: Set[str] = set()
                    rebound: Set[str] = set()
                    for stmt in child.body:
                        targets: List[ast.expr] = []
                        value: Optional[ast.expr] = None
                        if isinstance(stmt, ast.Assign):
                            targets, value = stmt.targets, stmt.value
                        elif isinstance(stmt, ast.AnnAssign):
                            targets, value = [stmt.target], stmt.value
                        if value is not None and self._is_mutable_value(value):
                            for target in targets:
                                if isinstance(target, ast.Name):
                                    attrs.add(target.id)
                    for sub in ast.walk(child):
                        if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                            subtargets = (
                                sub.targets
                                if isinstance(sub, ast.Assign)
                                else [sub.target]
                            )
                            for target in subtargets:
                                if (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                ):
                                    rebound.add(target.attr)
                    attrs -= rebound
                    if attrs:
                        out[inner] = attrs
                    visit(child, inner)
                else:
                    visit(child, qual)

        visit(source.tree, "")
        return out

    # ------------------------------------------------------------ detection
    @staticmethod
    def _locals_of(func: ast.AST) -> Set[str]:
        """Names bound locally in ``func`` (excluding ``global`` names)."""
        bound: Set[str] = set()
        globals_: Set[str] = set()
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = func.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                bound.add(arg.arg)
        for node in _walk_own(func):
            if isinstance(node, ast.Global):
                globals_.update(node.names)
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [
                    item.optional_vars
                    for item in node.items
                    if item.optional_vars is not None
                ]
            for target in targets:
                stack = [target]
                while stack:
                    leaf = stack.pop()
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
                    elif isinstance(leaf, (ast.Tuple, ast.List)):
                        stack.extend(leaf.elts)
                    elif isinstance(leaf, ast.Starred):
                        stack.append(leaf.value)
                    # Subscript/Attribute targets bind nothing local.
        return bound - globals_

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if _in_dir(source.path, "bench"):
            return
        registry: Dict[str, str] = project.shared("r7-registry", self._registry)
        containers = self._container_instances(source)
        module_mutables = self._module_mutables(source).union(*containers.values())
        class_mutables = self._class_mutables(source)
        class_quals = set(class_mutables)
        for node in source.nodes:
            if isinstance(node, ast.ClassDef):
                class_quals.add(node.name)  # top-level short form is enough

        functions: List[ast.AST] = [
            node
            for node in source.nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        locals_cache: Dict[int, Set[str]] = {}

        def enclosing_class(scope: str) -> Optional[str]:
            parts = scope.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in class_quals or prefix in class_mutables:
                    return prefix
            return None

        def emit(node: ast.AST, kind: str, registry_key: str) -> Optional[Finding]:
            if registry_key in registry:
                return None
            return source.finding(
                self.id,
                node,
                f"{kind} is shared by every query in the process: "
                f"namespace it per-query/per-engine or "
                f"register '{registry_key}' in "
                f"repro/lint/shared_state.py with a reason",
            )

        for func in functions:
            scope = (
                f"{source.scope_of(func)}.{func.name}"
                if source.scope_of(func) != "<module>"
                else func.name
            )
            shadowed = locals_cache.setdefault(id(func), self._locals_of(func))
            cls_qual = enclosing_class(scope)
            bound = [
                f"{source.path}::{name}" for name in containers.get(cls_qual, [])
            ]

            def through_self(node: ast.AST, owner: ast.expr) -> Optional[Finding]:
                """A write through ``self`` in a container class whose
                instances are bound to module names."""
                if not (isinstance(owner, ast.Name) and owner.id == "self"):
                    return None
                for key in bound:
                    found = emit(
                        node,
                        f"module-level mutable '{key.split('::', 1)[1]}' "
                        f"(through self in {cls_qual})",
                        key,
                    )
                    if found is not None:
                        return found
                return None

            def through_class(node: ast.AST, owner: ast.expr) -> Optional[Finding]:
                """A write into ``self.attr`` / ``cls.attr`` where the
                class body binds ``attr`` to a mutable, or into a class's
                attribute named through the class."""
                if not (
                    isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                ):
                    return None
                base = owner.value.id
                if base in ("self", "cls") and cls_qual:
                    if owner.attr in class_mutables.get(cls_qual, set()):
                        return emit(
                            node,
                            f"class-body mutable '{cls_qual}.{owner.attr}'",
                            f"{source.path}::{cls_qual}.{owner.attr}",
                        )
                elif base in class_quals:
                    return emit(
                        node,
                        f"class attribute '{base}.{owner.attr}'",
                        f"{source.path}::{base}.{owner.attr}",
                    )
                return None

            for node in _walk_own(func):
                finding: Optional[Finding] = None
                # -- writes through a module-level mutable --------------
                target_expr: Optional[ast.expr] = None
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                    candidates = (
                        node.targets
                        if isinstance(node, (ast.Assign, ast.Delete))
                        else [node.target]
                    )
                    for target in candidates:
                        if isinstance(target, ast.Subscript):
                            target_expr = target.value
                        elif isinstance(target, ast.Name) and isinstance(
                            node, ast.AugAssign
                        ):
                            target_expr = target
                        if (
                            isinstance(target_expr, ast.Name)
                            and target_expr.id in module_mutables
                            and target_expr.id not in shadowed
                        ):
                            finding = emit(
                                node,
                                f"module-level mutable '{target_expr.id}'",
                                f"{source.path}::{target_expr.id}",
                            )
                        elif bound and isinstance(target, ast.Subscript):
                            finding = through_self(node, target_expr)
                        elif isinstance(target, ast.Subscript):
                            finding = through_class(node, target_expr)
                        # -- class attribute assignment ------------------
                        if isinstance(target, ast.Attribute):
                            owner = target.value
                            owner_cls: Optional[str] = None
                            if isinstance(owner, ast.Name):
                                if owner.id == "cls" and cls_qual:
                                    owner_cls = cls_qual
                                elif owner.id in class_quals:
                                    owner_cls = owner.id
                            elif (
                                isinstance(owner, ast.Call)
                                and isinstance(owner.func, ast.Name)
                                and owner.func.id == "type"
                            ):
                                owner_cls = cls_qual or "<class>"
                            if owner_cls is not None:
                                finding = emit(
                                    node,
                                    f"class attribute '{owner_cls}.{target.attr}'",
                                    f"{source.path}::{owner_cls}.{target.attr}",
                                )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in self.MUTATORS:
                        owner = node.func.value
                        if (
                            isinstance(owner, ast.Name)
                            and owner.id in module_mutables
                            and owner.id not in shadowed
                        ):
                            finding = emit(
                                node,
                                f"module-level mutable '{owner.id}'",
                                f"{source.path}::{owner.id}",
                            )
                        elif bound and isinstance(owner, ast.Name):
                            finding = through_self(node, owner)
                        else:
                            finding = through_class(node, owner)
                if finding is not None:
                    yield finding


# =========================================================================== R8
class SchedulerDeterminismRule:
    """The concurrent interleaving must be a pure function of
    ``(ready_time, key)`` — never of memory layout.  In the scheduler,
    the concurrent composer, and the resource-queue manager this
    forbids: ``id()``-based keys (CPython addresses vary run to run),
    ``min``/``max`` over raw dict views (ties resolve by insertion
    accident, not by a total key), and heap pushes whose entry is not a
    tuple literal (an unkeyed entry falls back to object comparison —
    or worse, address order).  Unsorted set iteration in these files is
    R5's, which covers all of them."""

    id = "R8"
    name = "scheduler-determinism"
    description = (
        "id()-keys, dict-view min/max, or unkeyed heap pushes in "
        "scheduler/concurrent/resqueue code"
    )

    SCOPE_FILES = (
        "simtime/scheduler.py",
        "executor/concurrent.py",
        "executor/runner.py",
        "executor/batch_ops.py",
        "cluster/resqueue.py",
    )

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if not any(source.path.endswith(f) for f in self.SCOPE_FILES):
            return
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "id" and node.args:
                yield source.finding(
                    self.id,
                    node,
                    "id()-based key: CPython object addresses vary run to "
                    "run, making the interleaving depend on memory layout — "
                    "key on stable identifiers like (query_id, slice, segment)",
                )
                continue
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name == "heappush" and len(node.args) >= 2:
                if not isinstance(node.args[1], ast.Tuple):
                    yield source.finding(
                        self.id,
                        node,
                        "unkeyed heap push: push an explicit "
                        "(time, rank, seq, key) tuple so pops are "
                        "total-ordered",
                    )
            elif name in ("min", "max") and node.args:
                first = node.args[0]
                if (
                    isinstance(first, ast.Call)
                    and isinstance(first.func, ast.Attribute)
                    and first.func.attr in ("values", "items")
                    and not first.args
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"{name}() over a raw dict .{first.func.attr}() view: "
                        "ties resolve by insertion accident — sort with an "
                        "explicit total key instead",
                    )


# =========================================================================== R9
class RpcPairingRule:
    """Two lexical pairing contracts keep the RPC protocol and the cost
    ledger honest under aborts:

    * every module that builds a DISPATCH message must also handle (or
      emit) COMPLETE **and** ABORT — a dispatch site with no abort path
      leaks in-flight tasks when a query dies;
    * a ``for`` loop that abandons a *charged* iterator (one that was
      handed a cost accumulator) via ``break`` must own the iterator and
      close it in ``try/finally`` (or ``contextlib.closing``), otherwise
      the generator's own ``finally`` charges — which keep abandoned
      scans honest — fire at GC time, i.e. whenever memory pressure
      says, not when the query says."""

    id = "R9"
    name = "rpc-pairing"
    description = (
        "DISPATCH construction without COMPLETE/ABORT handling, or a "
        "charged iterator abandoned by break without an owned close"
    )

    SCOPE_DIRS = ("executor", "cluster", "interconnect")

    # ------------------------------------------------------- charged calls
    @staticmethod
    def _is_charged_call(node: ast.expr) -> bool:
        """A call that threads a cost accumulator (``acc``) through."""
        if not isinstance(node, ast.Call):
            return False
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            if isinstance(value, ast.Name) and value.id == "acc":
                return True
            if isinstance(value, ast.Attribute) and value.attr == "acc":
                return True
        return False

    @staticmethod
    def _has_direct_break(loop: ast.AST) -> bool:
        """True if the loop body breaks out of *this* loop."""
        stack: List[ast.AST] = list(loop.body) + list(
            getattr(loop, "orelse", []) or []
        )
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Break):
                return True
            if isinstance(
                node,
                (ast.For, ast.AsyncFor, ast.While, ast.FunctionDef,
                 ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue  # break inside belongs to the inner construct
            stack.extend(ast.iter_child_nodes(node))
        return False

    # ----------------------------------------------------- dispatch pairing
    def _check_dispatch(self, source: SourceFile) -> Iterator[Finding]:
        mentioned: Set[str] = set()
        for node in source.nodes:
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                mentioned.update(a.asname or a.name for a in node.names)
        for node in source.nodes:
            if not (
                isinstance(node, ast.Call)
                and (
                    (isinstance(node.func, ast.Name) and node.func.id == "RpcMessage")
                    or (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "RpcMessage"
                    )
                )
            ):
                continue
            kind: Optional[str] = None
            for keyword in node.keywords:
                if keyword.arg != "kind":
                    continue
                value = keyword.value
                if isinstance(value, ast.Name):
                    kind = value.id
                elif isinstance(value, ast.Attribute):
                    kind = value.attr
                elif isinstance(value, ast.Constant):
                    kind = str(value.value).upper()
            if kind != "DISPATCH":
                continue
            missing = [
                partner
                for partner in ("COMPLETE", "ABORT")
                if partner not in mentioned
            ]
            if missing:
                yield source.finding(
                    self.id,
                    node,
                    "DISPATCH constructed here but this module never "
                    f"references {'/'.join(missing)}: every dispatch site "
                    "must be lexically paired with completion AND abort "
                    "handling",
                )

    # --------------------------------------------------- iterator discipline
    def _check_iterators(self, source: SourceFile) -> Iterator[Finding]:
        functions = [
            node
            for node in source.nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in functions:
            charged_names: Set[str] = set()
            closed_names: Set[str] = set()
            for node in _walk_own(func):
                if isinstance(node, ast.Assign) and self._is_charged_call(
                    node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            charged_names.add(target.id)
                # name.close() inside a finally, or closing(name)
                if isinstance(node, ast.Try):
                    for stmt in node.finalbody:
                        for sub in ast.walk(stmt):
                            if not isinstance(sub, ast.Call):
                                continue
                            if (
                                isinstance(sub.func, ast.Attribute)
                                and sub.func.attr == "close"
                                and isinstance(sub.func.value, ast.Name)
                            ):
                                closed_names.add(sub.func.value.id)
                            elif (
                                # the duck-typed form for iterators that
                                # may be plain iter(list):
                                #   close = getattr(it, "close", None)
                                isinstance(sub.func, ast.Name)
                                and sub.func.id == "getattr"
                                and len(sub.args) >= 2
                                and isinstance(sub.args[0], ast.Name)
                                and isinstance(sub.args[1], ast.Constant)
                                and sub.args[1].value == "close"
                            ):
                                closed_names.add(sub.args[0].id)
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "closing"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                ):
                    closed_names.add(node.args[0].id)
            for node in _walk_own(func):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                if not self._has_direct_break(node):
                    continue
                if self._is_charged_call(node.iter):
                    yield source.finding(
                        self.id,
                        node,
                        "break abandons an anonymous charged iterator: bind "
                        "it to a name and close it in try/finally (or "
                        "contextlib.closing) so its finally-charges fire "
                        "now, not at GC time",
                    )
                elif (
                    isinstance(node.iter, ast.Name)
                    and node.iter.id in charged_names
                    and node.iter.id not in closed_names
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"break abandons charged iterator "
                        f"'{node.iter.id}' without closing it: wrap the "
                        "loop in try/finally with "
                        f"{node.iter.id}.close() (or contextlib.closing)",
                    )

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        if not _in_dir(source.path, *self.SCOPE_DIRS):
            return
        yield from self._check_dispatch(source)
        yield from self._check_iterators(source)


# ========================================================================== R10
class Owned(NamedTuple):
    """One R10 entry: ``names`` may not be spelled ``within`` these
    places except inside ``owner``. A place is a path under ``repro/`` (a
    directory if it ends in ``/``, the whole tree if empty), narrowed to
    a class or function by ``::Qual.name``."""

    names: Tuple[str, ...]
    reason: str
    within: Tuple[str, ...] = ("",)
    owner: Tuple[str, ...] = ()


#: What a loop nested in a loop, or a comprehension over two iterables,
#: spells (see :func:`_spelled`).
PAIRS = "<pairs>"

OWNED = (
    Owned(
        ("deepcopy", "pickle"),
        "the DISPATCH message is sized by planner/wire.py's by-value "
        "encoding; a copy or a pickle is a second, identity-dependent path",
    ),
    Owned(
        ("array.array", "is_numpy", "_is_np_array"),
        "a typed vector is a NumPy vector, or the column is a list; another "
        "buffer needs a check of which one it holds in every kernel",
    ),
    Owned(
        ("detsan", "DetSan", "repro.sanitize", "IsolationViolation"),
        "serial = concurrent is checked by the differential and chaos suites "
        "and by R7; a runtime sanitizer is a third witness",
    ),
    Owned(
        ("callgraph", "CallGraph"),
        "tests/test_byte_conservation.py checks that every byte is charged; "
        "a lint call graph is a static witness that missed an uncharged read",
    ),
    Owned(
        ("client.truncate", "client.delete", "file_status",
         "_table_generation", "segment_data_path"),
        "naming, appending, truncating and deleting a table's HDFS files "
        "is storage/table.py's alone",
        within=("engine.py", "storage/hadoop_formats.py"),
    ),
    Owned(
        ("predicted_overhead", "SliceTiming", "TaskTiming", "add_graph", "_composed"),
        "a dispatch is charged once, a wave's DAG composed once, and EXPLAIN "
        "ANALYZE reads the trace; a second timeline needs float-identity by hand",
    ),
    Owned(
        ("batch_scan", "_batch_scan_provider", "catalog_rows", "sysview_rows"),
        "a worker lends its executor one scan, as blocks, for tables and "
        "master-only relations alike; a row-shaped one is a second read path",
    ),
    Owned(
        ("EventScheduler",),
        "replay computes a stand-alone schedule in one slotless pass; an "
        "EventScheduler replaying a settled graph is a second clock",
        within=("simtime/scheduler.py::TaskGraph.replay",),
    ),
    Owned(
        (PAIRS,),
        "a motion is one (senders, consumers, delay) barrier, not a "
        "sender x receiver list of pair edges",
        within=("executor/runner.py::QueryDispatch.settle_wave",),
    ),
    Owned(
        ("runtime.execute", "queue.deliver", "settle_wave"),
        "a statement's waves, its InitPlans' too, are run and settled on the "
        "statement loop; a second driver takes no slot",
        within=("executor/", "cluster/"),
        owner=(
            "executor/concurrent.py::StatementLoop._dispatch_wave",
            "executor/runner.py::QueryDispatch",
            "executor/runner.py::DistributedRuntime.execute",
        ),
    ),
    Owned(
        ("DistributedRuntime", "SegmentWorker"),
        "every statement loop runs on the engine's one QD/QE process group, "
        "built with the engine; a loop that builds a runtime or a worker of "
        "its own is a second process group",
        within=("executor/concurrent.py",),
    ),
    Owned(
        ("repro.network",),
        "RPC messages and motion streams ride the runtime's in-order queue; "
        "the datagram net, which the engine never clocks, is the interconnect's",
        within=("engine.py", "interconnect/exchange.py", "executor/", "cluster/"),
    ),
    Owned(
        ("bind",),
        "SimNetwork has one kind of endpoint",
        within=("network/simnet.py::SimNetwork",),
    ),
    Owned(
        # lint: allow[R10] — the entry names the lock key it gives one owner
        ("lock", "locks.acquire", "security.check", "rel:"),
        "lookup, privilege check, then a lock taken without waiting, decided "
        "once",
        owner=("txn/", "engine.py::Session.access_relation"),
    ),
    Owned(
        ("CATALOG_RELATION_COLUMNS", "SYSTEM_VIEW_COLUMNS"),
        "which relations live on the master alone is master_relations.py's; "
        "everyone else asks is_master_only()",
        owner=("catalog/master_relations.py",),
    ),
    Owned(
        tuple(
            f"def {u}{verb}"
            for verb in (
                "create_table", "create_view", "create_external_table", "drop",
                "truncate", "alter_table", "analyze", "analyze_table",
                "analyze_relation", "schema_from_ast", "apply_storage_options",
                "partition_spec", "create_role", "drop_role", "alter_role", "grant",
            )
            for u in ("", "_")
        )
        + ("class CatalogAdapter", "class _CatalogAdapter"),
        "engine.py is the session facade: DDL and ANALYZE are ddl.py's",
        within=("engine.py",),
    ),
)


def _placed(path: str, scope: str, places: Tuple[str, ...]) -> bool:
    """True if ``path`` (and, for a ``::`` place, ``scope``) is in one
    of ``places``; ``scope=None`` asks about the path alone."""
    path = "/" + path
    for place in places:
        where, _, qual = place.partition("::")
        where = "/repro/" + where
        if (where in path if where.endswith("/") else path.endswith(where)) and (
            scope is None or not qual or scope == qual or scope.startswith(qual + ".")
        ):
            return True
    return False


def _runs(dotted: str) -> Iterator[str]:
    parts = dotted.split(".")
    for start in range(len(parts)):
        for end in range(start + 1, len(parts) + 1):
            yield ".".join(parts[start:end])


def _spelled(node: ast.AST, pairs: bool) -> Iterator[str]:
    """The names ``node`` spells in code: an identifier; each trailing
    run of an attribute chain (``security.check`` in
    ``self.engine.security.check``); each run of an imported module path;
    ``def f``/``class C`` beside a definition's own name; a string's
    ``key:`` prefix; and, if ``pairs``, :data:`PAIRS`."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        parts = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
        for cut in range(1, len(parts) + 1):
            yield ".".join(reversed(parts[:cut]))
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
        yield ("class " if isinstance(node, ast.ClassDef) else "def ") + node.name
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        module = getattr(node, "module", None)
        for alias in node.names:
            yield from _runs(f"{module}.{alias.name}" if module else alias.name)
    elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
        yield node.arg
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        head, colon, _ = node.value.partition(":")
        if colon and head.isidentifier():
            yield head + colon
    if pairs and (
        isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
        and len(node.generators) > 1
        or isinstance(node, ast.For)
        and any(isinstance(inner, ast.For) for inner in ast.walk(node) if inner is not node)
    ):
        yield PAIRS


class SingleOwnerRule:
    """Whole-program ownership claims (paper §2–§5), one table of them
    (:data:`OWNED`): a path the engine retired stays retired, and what
    one module or function owns is spelled nowhere else. A comment or
    docstring that mentions a name is not a finding."""

    id = "R10"
    name = "single-owner"
    description = "a name OWNED retires, or gives one owner, spelled where it may not be"

    def check_file(self, source: SourceFile, project) -> Iterator[Finding]:
        index: Dict[str, List[Owned]] = {}
        for entry in OWNED:
            if _placed(source.path, None, entry.within):
                for name in entry.names:
                    index.setdefault(name, []).append(entry)
        pairs = PAIRS in index
        reported: Set[tuple] = set()
        for node in source.nodes:
            for name in _spelled(node, pairs):
                for entry in index.get(name, ()):
                    scope = source.scope_of(node)
                    if (
                        (node.lineno, entry) not in reported
                        and _placed(source.path, scope, entry.within)
                        and not _placed(source.path, scope, entry.owner)
                    ):
                        reported.add((node.lineno, entry))
                        yield source.finding(self.id, node, f"{name}: {entry.reason}")


RULES = [
    NoWallClockRule(),
    SeededRandomnessRule(),
    ExceptionHygieneRule(),
    DeterministicIterationRule(),
    ObsPassivityRule(),
    CrossQueryIsolationRule(),
    SchedulerDeterminismRule(),
    RpcPairingRule(),
    SingleOwnerRule(),
]


def get_rules(select: Optional[Iterable[str]] = None) -> List[object]:
    """Return registered rules, optionally filtered by id or name."""
    if select is None:
        return list(RULES)
    wanted = {s.strip() for s in select}
    chosen = [r for r in RULES if r.id in wanted or r.name in wanted]
    unknown = wanted - {r.id for r in chosen} - {r.name for r in chosen}
    if unknown:
        known = ", ".join(f"{r.id}/{r.name}" for r in RULES)
        raise ValueError(f"unknown rule(s) {sorted(unknown)}; known: {known}")
    return chosen
