"""Import-resolved interprocedural call graph for rules R3 and R7.

Two consumers with opposite precision needs share this graph:

* **R3 cost-conformance** asks "can this byte-moving function execute
  inside a charging context?"  Over-approximation errs toward silence
  (more edges → more coverage → fewer findings), which is the right
  polarity for that rule, so its :meth:`CallGraph.coverage` closure
  walks the *resolved* edges **plus** the name-based fuzzy fallback.
* **R7 cross-query-isolation** asks "is this shared-state write
  reachable from the concurrent entry points?"  There over-approximation
  errs toward *noise* (a fuzzy edge through a common method name like
  ``run`` or ``send`` would drag half the repo into the reachable set),
  so its :meth:`CallGraph.reachable_from` closure walks resolved edges
  only.

Resolution (the PR-8 upgrade — the old graph matched bare function
names project-wide, which both missed aliased imports and conflated
same-named methods of unrelated classes):

* modules are qualified: ``src/repro/executor/batch.py`` is
  ``repro.executor.batch``; every file's import table maps local
  aliases to fully-qualified targets (``from x import y as z``,
  ``import x.y as z``, relative imports);
* ``f(...)`` resolves through the lexical scope chain — enclosing
  function qualnames, then module-level defs, then the import table;
* ``x.m(...)`` resolves the receiver: module aliases, ``self``/``cls``
  (the enclosing class and its resolved bases), names whose class is
  known from a parameter/variable annotation or a ``x = Cls(...)``
  constructor assignment, and instance attributes whose type was
  inferred from ``self.attr = <typed thing>`` assignments or dataclass
  field annotations;
* ``Cls(...)`` adds an edge to ``Cls.__init__`` and types the result;
* a module-level ``NAME = Cls(...)`` types ``NAME`` wherever it is
  referenced, and a reference adds edges to ``Cls``'s dunder methods
  (``__missing__``, ``__getitem__``, ...), which Python calls implicitly;
* bare references (callbacks) resolve like calls;
* anything else falls back to the fuzzy name-match edge set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Attribute names of the :class:`repro.simtime.CostAccumulator` charging
#: API. A call to any of these (on any receiver) marks the function as a
#: charger.
CHARGE_METHODS = frozenset(
    {"disk_read", "disk_write", "network", "cpu_bytes", "cpu_tuples", "fixed"}
)

#: Functions that charge simulated time through a mechanism the
#: attribute-name heuristic cannot see. ``SimNetwork.send`` bills every
#: datagram's serialization delay (size / bandwidth) plus latency on the
#: event clock itself.
EXTRA_CHARGERS = frozenset({"src/repro/network/simnet.py::SimNetwork.send"})


def module_name(path: str) -> str:
    """``src/repro/executor/batch.py`` → ``repro.executor.batch``."""
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        last = parts[-1][:-3]
        parts = parts[:-1] if last == "__init__" else parts[:-1] + [last]
    return ".".join(parts)


@dataclass
class FunctionNode:
    """One function definition in the project."""

    key: str  # "<path>::<qualname>"
    path: str
    qualname: str  # e.g. "Hdfs.check_replication"
    name: str  # last path segment, the resolution name
    lineno: int
    charges: bool = False
    #: Bare names this function's body mentions (fuzzy-edge fallback).
    mentions: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class definition: its methods and resolved base classes."""

    key: str  # "<path>::<qualname>"
    path: str
    qualname: str
    #: method name -> function key
    methods: Dict[str, str] = field(default_factory=dict)
    #: base-class expressions, resolved lazily to ClassInfo keys
    base_exprs: List[ast.expr] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)
    #: instance/class attribute name -> class key (inferred types)
    attr_types: Dict[str, str] = field(default_factory=dict)


class _Scope:
    """Lexical context while walking one file's AST."""

    def __init__(self, source, graph: "CallGraph"):
        self.source = source
        self.graph = graph
        #: enclosing function-qualname chain, innermost last
        self.func_chain: List[str] = []
        #: enclosing class-qualname chain, innermost last
        self.class_chain: List[str] = []
        #: local-name -> class key, per enclosing function (innermost last)
        self.local_types: List[Dict[str, str]] = []

    @property
    def owner_key(self) -> Optional[str]:
        if not self.func_chain:
            return None
        return f"{self.source.path}::{self.func_chain[-1]}"

    @property
    def class_key(self) -> Optional[str]:
        if not self.class_chain:
            return None
        return f"{self.source.path}::{self.class_chain[-1]}"


class CallGraph:
    """Project-wide call graph with resolved and fuzzy edge sets."""

    def __init__(self) -> None:
        self.nodes: Dict[str, FunctionNode] = {}
        self.by_name: Dict[str, List[str]] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: import tables: path -> {local alias: fully-qualified target}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: module name -> path (for resolving qualified targets)
        self.modules: Dict[str, str] = {}
        #: resolved call/reference edges
        self.resolved: Dict[str, Set[str]] = {}
        #: fuzzy fallback edges (bare-name matching, R3 only)
        self.fuzzy: Dict[str, Set[str]] = {}
        #: module-level instances: "<path>::<name>" -> class key
        self.instances: Dict[str, str] = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, project) -> "CallGraph":
        graph = cls()
        for source in project.files:
            graph.modules[module_name(source.path)] = source.path
        for source in project.files:
            graph._collect_defs(source)
            graph._collect_imports(source)
        graph._resolve_bases()
        for source in project.files:
            graph._collect_instances(source)
            graph._infer_attr_types(source)
        for source in project.files:
            graph._collect_edges(source)
        return graph

    # ----------------------------------------------------------- definitions
    def _collect_defs(self, source) -> None:
        def visit(node: ast.AST, qual: str, cls: Optional[ClassInfo]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name if not qual else f"{qual}.{child.name}"
                    key = f"{source.path}::{inner}"
                    fn = FunctionNode(
                        key=key,
                        path=source.path,
                        qualname=inner,
                        name=child.name,
                        lineno=child.lineno,
                    )
                    self.nodes[key] = fn
                    self.resolved[key] = set()
                    self.fuzzy[key] = set()
                    self.by_name.setdefault(child.name, []).append(key)
                    if cls is not None and qual == cls.qualname:
                        cls.methods[child.name] = key
                    visit(child, inner, None)
                elif isinstance(child, ast.ClassDef):
                    inner = child.name if not qual else f"{qual}.{child.name}"
                    info = ClassInfo(
                        key=f"{source.path}::{inner}",
                        path=source.path,
                        qualname=inner,
                        base_exprs=list(child.bases),
                    )
                    self.classes[info.key] = info
                    visit(child, inner, info)
                else:
                    visit(child, qual, cls)

        visit(source.tree, "", None)

    # --------------------------------------------------------------- imports
    def _collect_imports(self, source) -> None:
        table: Dict[str, str] = {}
        package = module_name(source.path).rsplit(".", 1)[0]
        if source.path.endswith("__init__.py"):
            package = module_name(source.path)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = package.split(".")
                    if node.level > 1:
                        parts = parts[: len(parts) - (node.level - 1)]
                    base = ".".join(parts)
                    mod = f"{base}.{node.module}" if node.module else base
                else:
                    mod = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = f"{mod}.{alias.name}"
        self.imports[source.path] = table

    def _lookup_qualified(self, target: str) -> Optional[str]:
        """Resolve a fully-qualified name to a function or class key.

        ``repro.storage.registry.get_format`` → its node key;
        ``repro.cluster.rpc.RpcBus`` → its class key. Handles one level
        of re-export through a package ``__init__``.
        """
        for split in range(target.count(".") + 1, 0, -1):
            parts = target.split(".")
            mod, rest = ".".join(parts[:split]), parts[split:]
            path = self.modules.get(mod)
            if path is None:
                continue
            if not rest:
                return None  # a module itself, not a def
            qual = ".".join(rest)
            key = f"{path}::{qual}"
            if key in self.nodes or key in self.classes or key in self.instances:
                return key
            # Re-export: from repro.lint import load_project resolves
            # through the package __init__'s own import table.
            inner = self.imports.get(path, {}).get(rest[0])
            if inner is not None:
                return self._lookup_qualified(".".join([inner] + rest[1:]))
            return None
        return None

    # ----------------------------------------------------------------- bases
    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for base in info.base_exprs:
                resolved = self._resolve_class_expr(base, info.path)
                if resolved is not None:
                    info.bases.append(resolved)

    def _resolve_class_expr(self, node: ast.expr, path: str) -> Optional[str]:
        """Resolve an expression naming a class to its ClassInfo key."""
        if isinstance(node, ast.Subscript):  # Generic[...] bases
            node = node.value
        dotted = self._dotted_name(node)
        if dotted is None:
            return None
        return self._resolve_dotted_class(dotted, path)

    @staticmethod
    def _dotted_name(node: ast.expr) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def _resolve_dotted_class(self, dotted: str, path: str) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        # Same-module class (including nested via its qualname)?
        key = f"{path}::{dotted}"
        if key in self.classes:
            return key
        target = self.imports.get(path, {}).get(head)
        if target is not None:
            full = f"{target}.{rest}" if rest else target
            resolved = self._lookup_qualified(full)
            if resolved in self.classes:
                return resolved
        return None

    # ------------------------------------------------------------- instances
    def _collect_instances(self, source) -> None:
        """Module-level ``NAME = Cls(...)`` bindings of project classes."""
        for node in source.tree.body:
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                cls_key = self._constructed_class(node.value, source.path)
                if cls_key is not None:
                    self.instances[f"{source.path}::{target.id}"] = cls_key

    def _implicit_methods(self, cls_key: str) -> List[str]:
        """Function keys of the dunder methods Python may call on an
        instance of ``cls_key`` without naming them (construction aside),
        the class's own first, then its first base's, and so on."""
        out: List[str] = []
        seen: Set[str] = set()
        info = self.classes.get(cls_key)
        while info is not None and info.key not in seen:
            seen.add(info.key)
            out.extend(
                key
                for name, key in info.methods.items()
                if name.startswith("__")
                and name.endswith("__")
                and name not in ("__init__", "__new__")
            )
            info = self.classes.get(info.bases[0]) if info.bases else None
        return out

    # ------------------------------------------------------- attribute types
    def _infer_attr_types(self, source) -> None:
        """Fill each class's ``attr_types`` from dataclass-style field
        annotations and ``self.attr = <typed>`` assignments."""

        def class_of_annotation(annotation: Optional[ast.expr]) -> Optional[str]:
            if annotation is None:
                return None
            node = annotation
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    node = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
            if isinstance(node, ast.Subscript):
                # Optional[T] / List[T]: too ambiguous, skip.
                return None
            return self._resolve_class_expr(node, source.path)

        def visit_class(cdef: ast.ClassDef, qual: str) -> None:
            info = self.classes[f"{source.path}::{qual}"]
            for stmt in cdef.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    cls_key = class_of_annotation(stmt.annotation)
                    if cls_key is not None:
                        info.attr_types[stmt.target.id] = cls_key
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = {}
                    args = stmt.args
                    for arg in (
                        list(args.posonlyargs)
                        + list(args.args)
                        + list(args.kwonlyargs)
                    ):
                        cls_key = class_of_annotation(arg.annotation)
                        if cls_key is not None:
                            params[arg.arg] = cls_key
                    for node in ast.walk(stmt):
                        value_cls: Optional[str] = None
                        target: Optional[ast.expr] = None
                        if isinstance(node, ast.Assign) and len(node.targets) == 1:
                            target, value = node.targets[0], node.value
                            if isinstance(value, ast.Name):
                                value_cls = params.get(value.id)
                            elif isinstance(value, ast.Call):
                                value_cls = self._constructed_class(
                                    value, source.path
                                )
                        elif isinstance(node, ast.AnnAssign):
                            target = node.target
                            value_cls = class_of_annotation(node.annotation)
                        if (
                            value_cls is not None
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_types.setdefault(target.attr, value_cls)

        def walk(node: ast.AST, qual: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    inner = child.name if not qual else f"{qual}.{child.name}"
                    visit_class(child, inner)
                    walk(child, inner)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, qual + "." + child.name if qual else child.name)
                else:
                    walk(child, qual)

        walk(source.tree, "")

    def _constructed_class(self, call: ast.Call, path: str) -> Optional[str]:
        dotted = self._dotted_name(call.func)
        if dotted is None:
            return None
        return self._resolve_dotted_class(dotted, path)

    # ----------------------------------------------------------------- edges
    def _collect_edges(self, source) -> None:
        scope = _Scope(source, self)

        def add_resolved(owner: Optional[str], target: Optional[str]) -> None:
            if owner is None or target is None:
                return
            if target in self.instances:
                for method in self._implicit_methods(self.instances[target]):
                    add_resolved(owner, method)
                return
            if target in self.classes:
                init = self.classes[target].methods.get("__init__")
                target = init
                if target is None:
                    return
            if target in self.nodes and target != owner:
                self.resolved[owner].add(target)

        def resolve_bare(name: str) -> Optional[str]:
            # Lexical chain: nested defs of this function and enclosing
            # ones (a closure returned/called by name resolves here).
            for qual in reversed(scope.func_chain):
                key = f"{source.path}::{qual}.{name}"
                if key in self.nodes:
                    return key
            # Module level def, class or instance.
            key = f"{source.path}::{name}"
            if key in self.nodes or key in self.classes or key in self.instances:
                return key
            target = self.imports[source.path].get(name)
            if target is not None:
                return self._lookup_qualified(target)
            return None

        def method_on(cls_key: Optional[str], name: str) -> Optional[str]:
            seen = set()
            while cls_key is not None and cls_key not in seen:
                seen.add(cls_key)
                info = self.classes.get(cls_key)
                if info is None:
                    return None
                if name in info.methods:
                    return info.methods[name]
                cls_key = info.bases[0] if info.bases else None
            return None

        def receiver_class(node: ast.expr) -> Optional[str]:
            """Class key of the value ``node`` evaluates to, if known."""
            if isinstance(node, ast.Name):
                if node.id in ("self", "cls") and scope.class_chain:
                    return scope.class_key
                for frame in reversed(scope.local_types):
                    if node.id in frame:
                        return frame[node.id]
                resolved = resolve_bare(node.id)
                if resolved in self.classes:
                    return resolved  # ClassName.method(...) static-style
                return self.instances.get(resolved)
            if isinstance(node, ast.Attribute):
                # self.attr → the enclosing class's inferred field type.
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                    and scope.class_key is not None
                ):
                    info = self.classes.get(scope.class_key)
                    seen = set()
                    while info is not None and info.key not in seen:
                        seen.add(info.key)
                        if node.attr in info.attr_types:
                            return info.attr_types[node.attr]
                        info = (
                            self.classes.get(info.bases[0])
                            if info.bases
                            else None
                        )
                    return None
                # x.attr where x is a known local of a known class.
                base = receiver_class(node.value)
                if base is not None:
                    info = self.classes.get(base)
                    if info is not None and node.attr in info.attr_types:
                        return info.attr_types[node.attr]
            if isinstance(node, ast.Call):
                return self._constructed_class(node, source.path)
            return None

        def resolve_attribute(node: ast.Attribute) -> Optional[str]:
            """Resolve ``<expr>.name`` to a function key, or None."""
            dotted = self._dotted_name(node)
            if dotted is not None:
                head = dotted.split(".", 1)[0]
                target = self.imports[source.path].get(head)
                if target is not None and head not in (
                    "self",
                    "cls",
                ):
                    full = dotted.replace(head, target, 1)
                    found = self._lookup_qualified(full)
                    if found is not None:
                        return found
            if isinstance(node.value, ast.Name) and node.value.id in (
                "self",
                "cls",
            ):
                found = method_on(scope.class_key, node.attr)
                if found is not None:
                    return found
            cls_key = receiver_class(node.value)
            if cls_key is not None:
                return method_on(cls_key, node.attr)
            return None

        def note_local_type(node: ast.AST) -> None:
            if not scope.local_types:
                return
            frame = scope.local_types[-1]
            target: Optional[ast.expr] = None
            value_cls: Optional[str] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(node.value, ast.Call):
                    value_cls = self._constructed_class(node.value, source.path)
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                ann = node.annotation
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    try:
                        ann = ast.parse(ann.value, mode="eval").body
                    except SyntaxError:
                        ann = None
                if ann is not None and not isinstance(ann, ast.Subscript):
                    value_cls = self._resolve_class_expr(ann, source.path)
            if (
                value_cls is not None
                and isinstance(target, ast.Name)
            ):
                frame[target.id] = value_cls

        def annotate_params(fdef) -> Dict[str, str]:
            frame: Dict[str, str] = {}
            args = fdef.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if arg.annotation is None:
                    continue
                ann = arg.annotation
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    try:
                        ann = ast.parse(ann.value, mode="eval").body
                    except SyntaxError:
                        continue
                if isinstance(ann, ast.Subscript):
                    continue
                cls_key = self._resolve_class_expr(ann, source.path)
                if cls_key is not None:
                    frame[arg.arg] = cls_key
            return frame

        def scan_body(node: ast.AST) -> None:
            owner = scope.owner_key
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = child.name
                    qual = (
                        f"{scope.func_chain[-1]}.{name}"
                        if scope.func_chain
                        else (
                            f"{scope.class_chain[-1]}.{name}"
                            if scope.class_chain
                            else name
                        )
                    )
                    scope.func_chain.append(qual)
                    scope.local_types.append(annotate_params(child))
                    scan_body(child)
                    scope.local_types.pop()
                    scope.func_chain.pop()
                    continue
                if isinstance(child, ast.ClassDef):
                    inner = (
                        f"{scope.class_chain[-1]}.{child.name}"
                        if scope.class_chain
                        else child.name
                    )
                    scope.class_chain.append(inner)
                    scan_body(child)
                    scope.class_chain.pop()
                    continue
                if owner is not None:
                    note_local_type(child)
                    if isinstance(child, ast.Call):
                        fnode = self.nodes[owner]
                        func = child.func
                        if (
                            isinstance(func, ast.Attribute)
                            and func.attr in CHARGE_METHODS
                        ):
                            fnode.charges = True
                        if isinstance(func, ast.Name):
                            add_resolved(owner, resolve_bare(func.id))
                        elif isinstance(func, ast.Attribute):
                            found = resolve_attribute(func)
                            if found is not None:
                                add_resolved(owner, found)
                            else:
                                fnode.mentions.add(func.attr)
                    elif isinstance(child, ast.Attribute):
                        found = resolve_attribute(child)
                        if found is not None:
                            add_resolved(owner, found)
                        else:
                            self.nodes[owner].mentions.add(child.attr)
                    elif isinstance(child, ast.Name):
                        found = resolve_bare(child.id)
                        if found is not None:
                            add_resolved(owner, found)
                        else:
                            self.nodes[owner].mentions.add(child.id)
                scan_body(child)

        scan_body(source.tree)
        # Fuzzy fallback: unresolved mentions match every same-named def.
        for key, fnode in self.nodes.items():
            if fnode.path != source.path:
                continue
            for name in fnode.mentions:
                for target in self.by_name.get(name, ()):
                    if target != key:
                        self.fuzzy[key].add(target)

    # ------------------------------------------------------------- traversal
    def callees(self, key: str, include_fuzzy: bool = True) -> Set[str]:
        out = set(self.resolved.get(key, ()))
        if include_fuzzy:
            out |= self.fuzzy.get(key, ())
        return out

    def reachable_from(
        self, roots: Set[str], include_fuzzy: bool = False
    ) -> Set[str]:
        """Forward closure from ``roots`` (resolved edges by default)."""
        seen = set(k for k in roots if k in self.nodes)
        stack = list(seen)
        while stack:
            current = stack.pop()
            for nxt in self.callees(current, include_fuzzy=include_fuzzy):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def functions_in(self, *path_suffixes: str) -> Set[str]:
        """Keys of every function defined in files matching a suffix."""
        return {
            key
            for key, node in self.nodes.items()
            if any(node.path.endswith(sfx) for sfx in path_suffixes)
        }

    # --------------------------------------------------------------- coverage
    def coverage(self) -> Set[str]:
        """Keys of all functions covered by a charging context (R3).

        * ``CHARGERS`` — functions whose own body calls the charging API,
          plus configured self-charging primitives.
        * ``UP``   — functions from which some charger is reachable along
          call edges (they charge at-or-below their own frame).
        * ``DOWN`` — functions reachable from ``CHARGERS | UP`` (they
          execute inside the dynamic extent of a frame that charges).
        * ``COVERED = CHARGERS | UP | DOWN``.

        Uses resolved **and** fuzzy edges: over-approximation errs
        toward silence, the right polarity for cost-conformance.
        """
        chargers = {
            key
            for key, node in self.nodes.items()
            if node.charges or key in EXTRA_CHARGERS
        }
        forward: Dict[str, Set[str]] = {
            key: self.callees(key) for key in self.nodes
        }
        reverse: Dict[str, Set[str]] = {key: set() for key in self.nodes}
        for src, dsts in forward.items():
            for dst in dsts:
                reverse[dst].add(src)

        def closure(seed: Set[str], adj: Dict[str, Set[str]]) -> Set[str]:
            seen = set(seed)
            stack = list(seed)
            while stack:
                current = stack.pop()
                for nxt in adj.get(current, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        up = closure(chargers, reverse)  # callers that reach a charger
        down = closure(up, forward)  # everything a charging extent runs
        return up | down
