"""Project-wide analysis core: symbol table, call graph, reaching defs.

The per-file rules (:meth:`Rule.check_module`) see one AST at a time;
the cross-file rules need to answer questions like "what class does this
local variable hold?", "which attributes does ``SessionManager.__init__``
assign, and which of them are locks?", or "is ``tables.highest_mb`` a
float64 array?". The engine builds one :class:`ProjectContext` (a
``Sequence[SourceModule]``) per cross-file rule, over the modules that
rule's ``project_scope`` selects, and hands it to the rule's
``finalize``.

Three layers, each deliberately *conservative* — when inference cannot
prove a type it answers ``UNKNOWN`` and rules stay silent, because a
lint that guesses produces noise, not safety:

- :class:`SymbolTable` — per-module classes (``__init__``-assigned
  attribute types included), module-level functions, import aliases;
- :class:`CallGraph` — best-effort ``caller -> callee`` edges, resolved
  through aliases, ``self.method`` dispatch and constructor-typed
  locals;
- :class:`ReachingDefs` — intraprocedural definitions of each local
  name, used as an alias/type oracle (``managed = self._get(sid)`` plus
  ``_get``'s return annotation tells the lock rule that ``managed`` is a
  ``_ManagedSession``).

Everything here is stdlib-only and pure: no imports of the analyzed
code, no execution.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.analysis.engine import SourceModule

__all__ = [
    "UNKNOWN",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ModuleSymbols",
    "ProjectContext",
    "ReachingDefs",
    "SymbolTable",
    "TypeInfo",
    "dotted_name",
    "import_aliases",
    "resolve_alias",
]

FuncNode = ast.FunctionDef | ast.AsyncFunctionDef


# -- tiny type lattice -------------------------------------------------------
@dataclass(frozen=True)
class TypeInfo:
    """What inference knows about an expression's value.

    ``kind`` is one of:

    - ``"instance"`` — an instance of a project class; ``detail`` is the
      class name (resolvable via :meth:`SymbolTable.find_class`);
    - ``"call"`` — the result of a call to a non-project callable;
      ``detail`` is the resolved dotted name (``"threading.Lock"``);
    - ``"array"`` — a numpy array; ``detail`` is the dtype name
      (``"int8"``, ``"float64"``, ``"bool"``, or ``""`` when unknown);
    - ``"scalar"`` — a python scalar; ``detail`` is ``"int"``/
      ``"float"``/``"bool"``/``"str"``;
    - ``"container"`` — a mutable builtin container; ``detail`` is
      ``"dict"``/``"list"``/``"set"``/``"deque"``/``"counter"``;
    - ``"unknown"`` — inference gave up (the safe default).
    """

    kind: str
    detail: str = ""

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


UNKNOWN = TypeInfo("unknown")

#: numpy array constructors whose dtype we can read off the call.
_NP_ARRAY_FACTORIES = frozenset(
    {"zeros", "ones", "empty", "full", "array", "asarray", "arange",
     "zeros_like", "ones_like", "empty_like", "full_like"}
)
#: factories that default to float64 when no dtype keyword is given.
_NP_FLOAT_DEFAULT = frozenset({"zeros", "ones", "empty"})

_CONTAINER_CALLS = {
    "dict": "dict", "list": "list", "set": "set",
    "collections.deque": "deque", "deque": "deque",
    "collections.Counter": "counter", "itertools.count": "counter",
}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local binding name -> fully-qualified dotted origin."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def resolve_alias(dotted: str, aliases: dict[str, str]) -> str:
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def _dtype_name(node: ast.expr) -> str:
    """The dtype named by a ``dtype=``-style expression (best effort)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return node.id  # dtype=int / dtype=float / dtype=bool
    dotted = dotted_name(node)
    if dotted is not None:
        return dotted.rsplit(".", maxsplit=1)[-1]  # np.int8 -> int8
    return ""


# -- symbols -----------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method: its AST plus resolved annotations."""

    name: str
    qualname: str  # "display::Class.method" or "display::func"
    node: FuncNode
    owner: str | None  # class name for methods, None for functions

    @property
    def return_annotation(self) -> str | None:
        """The return annotation as source text (``None`` if absent)."""
        if self.node.returns is None:
            return None
        return ast.unparse(self.node.returns)


@dataclass
class ClassInfo:
    """One class: bases, methods, and attribute types inferred from the
    ``self.X = ...`` assignments in its method bodies (``__init__``
    first; a conflicting re-assignment elsewhere degrades the attribute
    to ``UNKNOWN`` — except ``None``, which is ignored as the idiomatic
    "not yet" placeholder)."""

    name: str
    module: str  # display path of the defining module
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, TypeInfo] = field(default_factory=dict)
    #: attributes assigned anywhere in ``__init__`` (the shared-state
    #: candidates for the concurrency rules), in assignment order.
    init_attrs: tuple[str, ...] = ()


@dataclass
class ModuleSymbols:
    """One module's top-level symbols."""

    display: str
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)


class SymbolTable:
    """Classes, functions and aliases of every module in the run."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: dict[str, ModuleSymbols] = {}
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        for module in modules:
            syms = self._scan_module(module)
            self.modules[module.display] = syms
            for cls in syms.classes.values():
                self._classes_by_name.setdefault(cls.name, []).append(cls)

    def module(self, display: str) -> ModuleSymbols | None:
        return self.modules.get(display)

    def find_class(
        self, name: str, prefer_module: str | None = None
    ) -> ClassInfo | None:
        """The class called ``name``; when several modules define one,
        prefer ``prefer_module``'s, else the first scanned (ambiguity is
        acceptable for a lint oracle — fixture trees are small)."""
        candidates = self._classes_by_name.get(name)
        if not candidates:
            return None
        if prefer_module is not None:
            for cls in candidates:
                if cls.module == prefer_module:
                    return cls
        return candidates[0]

    def iter_classes(self) -> Iterator[ClassInfo]:
        for syms in self.modules.values():
            yield from syms.classes.values()

    # -- construction --------------------------------------------------------
    def _scan_module(self, module: SourceModule) -> ModuleSymbols:
        syms = ModuleSymbols(
            display=module.display, aliases=import_aliases(module.tree)
        )
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                syms.functions[node.name] = FunctionInfo(
                    name=node.name,
                    qualname=f"{module.display}::{node.name}",
                    node=node,
                    owner=None,
                )
            elif isinstance(node, ast.ClassDef):
                syms.classes[node.name] = self._scan_class(module, node, syms)
        return syms

    def _scan_class(
        self, module: SourceModule, node: ast.ClassDef, syms: ModuleSymbols
    ) -> ClassInfo:
        info = ClassInfo(
            name=node.name,
            module=module.display,
            node=node,
            bases=tuple(
                filter(None, (dotted_name(base) for base in node.bases))
            ),
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = FunctionInfo(
                    name=item.name,
                    qualname=f"{module.display}::{node.name}.{item.name}",
                    node=item,
                    owner=node.name,
                )
        self._scan_attrs(info, syms)
        return info

    def _scan_attrs(self, info: ClassInfo, syms: ModuleSymbols) -> None:
        init_order: list[str] = []
        for method in info.methods.values():
            in_init = method.name == "__init__"
            param_types = _param_annotation_types(method.node)
            for stmt in ast.walk(method.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    target, value = stmt.target, stmt.value
                if (
                    target is None
                    or value is None
                    or not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                attr = target.attr
                if in_init and attr not in init_order:
                    init_order.append(attr)
                inferred = _infer_shallow(
                    value, syms, param_types, self_attrs=info.attr_types
                )
                if isinstance(stmt, ast.AnnAssign) and inferred.is_unknown:
                    inferred = _annotation_type(stmt.annotation)
                if inferred.is_unknown or (
                    isinstance(value, ast.Constant) and value.value is None
                ):
                    continue
                previous = info.attr_types.get(attr)
                if previous is None:
                    info.attr_types[attr] = inferred
                elif previous != inferred:
                    info.attr_types[attr] = UNKNOWN
        info.init_attrs = tuple(init_order)


def _param_annotation_types(node: FuncNode) -> dict[str, TypeInfo]:
    """Parameter name -> type, from annotations (best effort)."""
    out: dict[str, TypeInfo] = {}
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            inferred = _annotation_type(arg.annotation)
            if not inferred.is_unknown:
                out[arg.arg] = inferred
    return out


def _annotation_type(annotation: ast.expr) -> TypeInfo:
    """A :class:`TypeInfo` for an annotation expression. ``X | None``
    and string annotations resolve to ``X``; subscripted generics keep
    their base."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return UNKNOWN
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_type(annotation.left)
        if not left.is_unknown:
            return left
        return _annotation_type(annotation.right)
    if isinstance(annotation, ast.Subscript):
        return _annotation_type(annotation.value)
    dotted = dotted_name(annotation)
    if dotted is None:
        return UNKNOWN
    tail = dotted.rsplit(".", maxsplit=1)[-1]
    if tail in ("int", "float", "bool", "str"):
        return TypeInfo("scalar", tail)
    if tail == "ndarray":
        return TypeInfo("array", "")
    if tail in ("None", "Any", "object", "Optional"):
        return UNKNOWN
    return TypeInfo("instance", tail)


def _infer_shallow(
    value: ast.expr,
    syms: ModuleSymbols,
    param_types: dict[str, TypeInfo],
    self_attrs: dict[str, TypeInfo] | None = None,
) -> TypeInfo:
    """Single-expression inference with no reaching-defs environment —
    what the symbol-table scan can afford per ``self.X = value``.
    ``self_attrs`` lets ``self.X = self.Y[...]`` chains resolve against
    the attributes already scanned earlier in the same class."""
    if isinstance(value, ast.Subscript):
        # Array indexing/slicing preserves dtype.
        base = _infer_shallow(value.value, syms, param_types, self_attrs)
        return base if base.kind == "array" else UNKNOWN
    if (
        self_attrs is not None
        and isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return self_attrs.get(value.attr, UNKNOWN)
    if isinstance(value, ast.Constant):
        v = value.value
        if isinstance(v, bool):
            return TypeInfo("scalar", "bool")
        if isinstance(v, int):
            return TypeInfo("scalar", "int")
        if isinstance(v, float):
            return TypeInfo("scalar", "float")
        if isinstance(v, str):
            return TypeInfo("scalar", "str")
        return UNKNOWN
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return TypeInfo("container", "dict")
    if isinstance(value, (ast.List, ast.ListComp)):
        return TypeInfo("container", "list")
    if isinstance(value, (ast.Set, ast.SetComp)):
        return TypeInfo("container", "set")
    if isinstance(value, ast.Name):
        return param_types.get(value.id, UNKNOWN)
    if isinstance(value, ast.Call):
        return _infer_call(value, syms)
    return UNKNOWN


def _infer_call(call: ast.Call, syms: ModuleSymbols) -> TypeInfo:
    """Type of a call expression: constructor, numpy factory, astype,
    builtin container, or an opaque dotted callable."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "astype":
        if call.args:
            return TypeInfo("array", _dtype_name(call.args[0]))
        return TypeInfo("array", "")
    dotted = dotted_name(func)
    if dotted is None:
        return UNKNOWN
    resolved = resolve_alias(dotted, syms.aliases)
    tail = resolved.rsplit(".", maxsplit=1)[-1]
    if tail in syms.classes or resolved in syms.classes:
        return TypeInfo("instance", tail if tail in syms.classes else resolved)
    if resolved.startswith("numpy.") and tail in _NP_ARRAY_FACTORIES:
        for kw in call.keywords:
            if kw.arg == "dtype":
                return TypeInfo("array", _dtype_name(kw.value))
        if tail in _NP_FLOAT_DEFAULT:
            return TypeInfo("array", "float64")
        return TypeInfo("array", "")
    if resolved in _CONTAINER_CALLS:
        return TypeInfo("container", _CONTAINER_CALLS[resolved])
    if tail in ("int", "float", "bool", "str") and resolved == tail:
        return TypeInfo("scalar", tail)
    return TypeInfo("call", resolved)


# -- reaching definitions ----------------------------------------------------
class ReachingDefs:
    """Intraprocedural definitions of each local name in one function.

    A deliberately flow-insensitive approximation: every textual
    assignment to a name is a candidate definition, and a name has a
    known type only when *all* of its definitions agree (``None``
    placeholders excepted). That is exactly the conservatism a lint
    oracle wants — a variable rebound to two different things answers
    ``UNKNOWN`` and no rule fires on it.
    """

    def __init__(self, node: FuncNode, symbols: SymbolTable, module: str):
        self.node = node
        self._symbols = symbols
        self._module = module
        self._syms = symbols.module(module) or ModuleSymbols(display=module)
        self._param_types = _param_annotation_types(node)
        self._defs: dict[str, list[ast.expr]] = {}
        self._owner_class = self._find_owner()
        self._collect()
        self._cache: dict[str, TypeInfo] = {}

    def _find_owner(self) -> ClassInfo | None:
        for cls in self._symbols.iter_classes():
            if cls.module != self._module:
                continue
            if self.node.name in cls.methods and (
                cls.methods[self.node.name].node is self.node
            ):
                return cls
        return None

    def _collect(self) -> None:
        for stmt in ast.walk(self.node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                targets, value = [stmt.target], None
            elif isinstance(stmt, ast.withitem) and stmt.optional_vars:
                targets, value = [stmt.optional_vars], stmt.context_expr
            if value is None:
                # Loop targets et al define the name with unknown type;
                # record the binding so agreement checks see it.
                for target in targets:
                    for name in _target_names(target):
                        self._defs.setdefault(name, []).append(
                            ast.Constant(value=Ellipsis)
                        )
                continue
            for target in targets:
                for name in _target_names(target):
                    self._defs.setdefault(name, []).append(value)

    def definitions(self, name: str) -> list[ast.expr]:
        """Every expression assigned to ``name`` in this function."""
        return list(self._defs.get(name, ()))

    def type_of(self, name: str) -> TypeInfo:
        """The agreed type of local ``name`` (``UNKNOWN`` on conflict)."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        self._cache[name] = UNKNOWN  # cycle guard for x = f(x)
        result = self._type_of_uncached(name)
        self._cache[name] = result
        return result

    def _type_of_uncached(self, name: str) -> TypeInfo:
        if name == "self" and self._owner_class is not None:
            return TypeInfo("instance", self._owner_class.name)
        defs = self._defs.get(name)
        if not defs:
            return self._param_types.get(name, UNKNOWN)
        agreed: TypeInfo | None = None
        for expr in defs:
            if isinstance(expr, ast.Constant) and expr.value is None:
                continue  # "not yet" placeholder
            inferred = self.type_of_expr(expr)
            if isinstance(expr, ast.Constant) and expr.value is Ellipsis:
                inferred = UNKNOWN  # untyped binding (loop target, with-as)
            if agreed is None:
                agreed = inferred
            elif agreed != inferred:
                return UNKNOWN
        return agreed if agreed is not None else UNKNOWN

    def type_of_expr(self, expr: ast.expr) -> TypeInfo:
        """Infer an arbitrary expression in this function's scope."""
        if isinstance(expr, ast.Name):
            return self.type_of(expr.id)
        if isinstance(expr, ast.Subscript):
            # Array indexing/slicing preserves dtype; container lookup
            # yields the (unknown) element type.
            base = self.type_of_expr(expr.value)
            return base if base.kind == "array" else UNKNOWN
        if isinstance(expr, ast.Compare):
            return TypeInfo("array", "bool")
        if isinstance(expr, ast.Attribute):
            cls = self._class_of(self.type_of_expr(expr.value))
            if cls is not None:
                return cls.attr_types.get(expr.attr, UNKNOWN)
            return UNKNOWN
        if isinstance(expr, ast.Call):
            inferred = self._infer_call_deep(expr)
            return inferred
        shallow = _infer_shallow(expr, self._syms, self._param_types)
        return shallow

    def _class_of(self, info: TypeInfo) -> ClassInfo | None:
        """The project class behind ``info``, for ``instance`` types and
        for ``call`` types whose callable is a project-class constructor
        (a binding typed ``call:pkg.mod.Cls`` *is* an instance of
        ``Cls`` when ``Cls`` is a class we scanned)."""
        if info.kind not in ("instance", "call"):
            return None
        name = info.detail.rsplit(".", maxsplit=1)[-1]
        return self._symbols.find_class(name, prefer_module=self._module)

    def _infer_call_deep(self, call: ast.Call) -> TypeInfo:
        # self.method(...) / obj.method(...): use the method's return
        # annotation when the receiver's class is known.
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr != "astype":
            cls = self._class_of(self.type_of_expr(func.value))
            if cls is not None and func.attr in cls.methods:
                ret = cls.methods[func.attr].node.returns
                if ret is not None:
                    return _annotation_type(ret)
                return UNKNOWN
        return _infer_call(call, self._syms)


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


# -- call graph --------------------------------------------------------------
class CallGraph:
    """Best-effort static call edges, keyed by qualname
    (``display::Class.method`` / ``display::function``)."""

    def __init__(self, modules: Sequence[SourceModule], symbols: SymbolTable):
        self.edges: dict[str, set[str]] = {}
        self._reverse: dict[str, set[str]] = {}
        for module in modules:
            syms = symbols.module(module.display)
            if syms is None:
                continue
            functions = list(syms.functions.values())
            for cls in syms.classes.values():
                functions.extend(cls.methods.values())
            for fn in functions:
                defs = ReachingDefs(fn.node, symbols, module.display)
                callees = self._callees(fn, defs, syms, symbols, module)
                self.edges[fn.qualname] = callees
                for callee in callees:
                    self._reverse.setdefault(callee, set()).add(fn.qualname)

    def callees(self, qualname: str) -> set[str]:
        return set(self.edges.get(qualname, ()))

    def callers(self, qualname: str) -> set[str]:
        return set(self._reverse.get(qualname, ()))

    def _callees(
        self,
        fn: FunctionInfo,
        defs: ReachingDefs,
        syms: ModuleSymbols,
        symbols: SymbolTable,
        module: SourceModule,
    ) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                if name in syms.functions:
                    out.add(syms.functions[name].qualname)
                elif name in syms.classes:  # constructor edge
                    cls = syms.classes[name]
                    init = cls.methods.get("__init__")
                    if init is not None:
                        out.add(init.qualname)
                    else:
                        out.add(f"{cls.module}::{cls.name}")
            elif isinstance(func, ast.Attribute):
                receiver = defs.type_of_expr(func.value)
                if receiver.kind != "instance":
                    continue
                cls_info = symbols.find_class(
                    receiver.detail, prefer_module=module.display
                )
                if cls_info is not None and func.attr in cls_info.methods:
                    out.add(cls_info.methods[func.attr].qualname)
        return out


# -- the context handed to finalize() ---------------------------------------
class ProjectContext(Sequence[SourceModule]):
    """One rule's modules plus the lazily-built analysis layers.

    Acts as a ``Sequence[SourceModule]`` of the parsed modules the
    rule's ``project_scope`` selects; rules read :attr:`symbols`,
    :attr:`call_graph` and :meth:`reaching` for cross-file questions.
    """

    def __init__(self, modules: Sequence[SourceModule]):
        self._modules = list(modules)
        self._symbols: SymbolTable | None = None
        self._call_graph: CallGraph | None = None
        self._reaching: dict[int, ReachingDefs] = {}

    # Sequence protocol -- len/getitem give iteration + indexing.
    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> SourceModule:  # type: ignore[override]
        return self._modules[index]

    @property
    def modules(self) -> list[SourceModule]:
        return list(self._modules)

    @property
    def symbols(self) -> SymbolTable:
        if self._symbols is None:
            self._symbols = SymbolTable(self._modules)
        return self._symbols

    @property
    def call_graph(self) -> CallGraph:
        if self._call_graph is None:
            self._call_graph = CallGraph(self._modules, self.symbols)
        return self._call_graph

    def reaching(self, node: FuncNode, module: SourceModule) -> ReachingDefs:
        """The (cached) reaching-defs oracle for one function."""
        key = id(node)
        cached = self._reaching.get(key)
        if cached is None:
            cached = ReachingDefs(node, self.symbols, module.display)
            self._reaching[key] = cached
        return cached
