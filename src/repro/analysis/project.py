"""Whole-program index shared by the cross-module analysis rules.

The per-file rules (R001–R005) see one :class:`ast.Module` at a time,
which is exactly right for lexical invariants but blind to the
contracts the serving layer stakes correctness on: which attributes a
lock guards, what a publish sink receives after three calls of
indirection, whether a callback registered in another module inserts
into a cache it must only purge.  :class:`ProjectIndex` parses every
module **once** and exposes the cross-module facts the concurrency
rules (R006–R009) need:

* per class: the ``self.*`` attribute inventory, which attributes hold
  ``threading.Lock``/``RLock`` objects, the ``guarded-by`` contract
  declarations, frozen-dataclass / NamedTuple status, and every method
  body;
* per module: the top-level def inventory (the call-graph nodes), the
  names bound to imported modules, and the suppression index (so
  project-level findings honour the same directives per-file findings
  do);
* globally: name-based function/class resolution for the conservative
  call-graph walks in :mod:`repro.analysis.dataflow`, and the declared
  global lock order.

Contract directives (all ``# repro-lint:`` comments, parsed lexically
like suppressions):

``guarded-by=<lock>``
    trailing on a ``self.attr = ...`` line inside a method: declares
    that *attr* may only be read or written while holding
    ``self.<lock>`` (R006).
``publish``
    trailing on (or standalone directly above) a ``def`` line: the
    function's return values are publish sinks and must be transitively
    immutable (R007).
``lock-order=A._x,B._y``
    standalone comment line: declares the single global acquisition
    order for qualified ``Class.attr`` locks (R006's nesting check).

The index is deliberately cheap to build (one ``ast.parse`` per file)
and picklable, so ``repro lint --index-cache PATH`` can persist it
between invocations and skip re-parsing an unchanged tree.
"""

from __future__ import annotations

import ast
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.suppressions import SuppressionIndex, parse_suppressions

#: Bump when the index layout changes; stale pickles are rebuilt.
INDEX_VERSION = 1

#: Call names that construct lock objects (``threading.Lock()`` etc.).
_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock"})

_GUARDED_BY = re.compile(
    r"#\s*repro-lint:\s*guarded-by\s*=\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)"
)
_PUBLISH = re.compile(r"#\s*repro-lint:\s*publish(?![-\w])")
_LOCK_ORDER = re.compile(
    r"#\s*repro-lint:\s*lock-order\s*=\s*"
    r"(?P<locks>[A-Za-z0-9_.]+(?:\s*,\s*[A-Za-z0-9_.]+)*)"
)

#: Any function/async-function definition node.
FunctionNode = ast.FunctionDef


@dataclass
class ClassInfo:
    """Everything the concurrency rules know about one class."""

    name: str
    module: str  # logical path of the defining module
    lineno: int
    node: ast.ClassDef
    #: method name -> def node (includes dunders; async defs excluded —
    #: the tree has none and the lock analysis is synchronous anyway).
    methods: Dict[str, FunctionNode] = field(default_factory=dict)
    #: every ``self.X`` ever assigned, mapping to its assigned values.
    attr_values: Dict[str, List[ast.expr]] = field(default_factory=dict)
    #: attrs assigned a ``Lock()`` / ``RLock()`` call.
    lock_attrs: FrozenSet[str] = frozenset()
    #: guarded attr -> lock attr, from ``guarded-by`` directives.
    guarded: Dict[str, str] = field(default_factory=dict)
    #: attr -> bare class name, for ``self.x = SomeClass(...)`` inits.
    attr_classes: Dict[str, str] = field(default_factory=dict)
    is_frozen_dataclass: bool = False
    is_namedtuple: bool = False

    @property
    def is_immutable_carrier(self) -> bool:
        """True for frozen dataclasses and NamedTuples (R007/R009 ok)."""
        return self.is_frozen_dataclass or self.is_namedtuple


@dataclass
class ModuleInfo:
    """One parsed module plus the lexical facts rules consult."""

    logical_path: str
    display_path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    #: top-level defs only — the nodes of the module call graph.
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: names bound to modules by ``import x`` / ``import x.y as z``.
    imported_modules: FrozenSet[str] = frozenset()
    #: linenos of ``def`` statements marked as publish sinks.
    publish_lines: FrozenSet[int] = frozenset()
    #: lock-order declarations found in this module.
    lock_orders: Tuple[Tuple[str, ...], ...] = ()


@dataclass
class ProjectIndex:
    """The shared whole-program index (built once per lint invocation)."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: bare class name -> defining infos (collisions preserved in order).
    classes_by_name: Dict[str, List[ClassInfo]] = field(default_factory=dict)
    #: bare function name -> top-level defs with that name, project-wide.
    functions_by_name: Dict[str, List[Tuple[ModuleInfo, FunctionNode]]] = field(
        default_factory=dict
    )

    def add(self, module: ModuleInfo) -> None:
        """Register *module* and fold it into the name tables."""
        self.modules[module.logical_path] = module
        for cls in module.classes.values():
            self.classes_by_name.setdefault(cls.name, []).append(cls)
        for name, node in module.functions.items():
            self.functions_by_name.setdefault(name, []).append((module, node))

    def resolve_class(self, name: str) -> Optional[ClassInfo]:
        """The unique class called *name*, or ``None`` if absent/ambiguous."""
        candidates = self.classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def resolve_function(
        self, module: ModuleInfo, name: str
    ) -> Optional[Tuple[ModuleInfo, FunctionNode]]:
        """Resolve a bare called name: same module first, then unique global."""
        local = module.functions.get(name)
        if local is not None:
            return module, local
        candidates = self.functions_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def declared_lock_orders(self) -> List[Tuple[str, Tuple[str, ...], ModuleInfo]]:
        """Every lock-order declaration as (joined, locks, module)."""
        found: List[Tuple[str, Tuple[str, ...], ModuleInfo]] = []
        for module in sorted(self.modules.values(), key=lambda m: m.logical_path):
            for order in module.lock_orders:
                found.append((",".join(order), order, module))
        return found


def _self_attr(node: ast.expr) -> Optional[str]:
    """The attribute name for a ``self.X`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _call_name(node: ast.expr) -> Optional[str]:
    """Bare (last-component) name of a call target, else ``None``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.attr
            if isinstance(target, ast.Attribute)
            else target.id if isinstance(target, ast.Name) else None
        )
        if name != "dataclass":
            continue
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    value = keyword.value
                    return isinstance(value, ast.Constant) and value.value is True
        return False
    return False


def _is_namedtuple(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = (
            base.attr
            if isinstance(base, ast.Attribute)
            else base.id if isinstance(base, ast.Name) else None
        )
        if name == "NamedTuple":
            return True
    return False


def _directive_lines(source: str) -> Tuple[Dict[int, str], FrozenSet[int], List[Tuple[str, ...]]]:
    """Scan *source* for contract directives.

    Returns ``(guarded_by_line, publish_lines, lock_orders)`` where
    ``guarded_by_line`` maps a physical line to the declared lock name
    and ``publish_lines`` holds every line carrying a publish marker
    (standalone markers also cover the line below, mirroring the
    suppression convention).
    """
    guarded: Dict[int, str] = {}
    publish: set[int] = set()
    orders: List[Tuple[str, ...]] = []
    for line_number, line in enumerate(source.splitlines(), start=1):
        match = _GUARDED_BY.search(line)
        if match is not None:
            guarded[line_number] = match.group("lock")
        if _PUBLISH.search(line) is not None:
            publish.add(line_number)
            if line.strip().startswith("#"):
                publish.add(line_number + 1)
        order_match = _LOCK_ORDER.search(line)
        if order_match is not None and line.strip().startswith("#"):
            orders.append(
                tuple(
                    token.strip()
                    for token in order_match.group("locks").split(",")
                    if token.strip()
                )
            )
    return guarded, frozenset(publish), orders


def _parameter_classes(function: ast.FunctionDef) -> Dict[str, str]:
    """Parameter name -> bare class name, for class-annotated parameters.

    Lets ``self.x = param`` bind ``x`` to the annotated class, the way
    ``self.x = SomeClass(...)`` does.
    """
    classes: Dict[str, str] = {}
    for arg in (*function.args.args, *function.args.kwonlyargs):
        annotation = arg.annotation
        if isinstance(annotation, ast.Name):
            classes[arg.arg] = annotation.id
        elif isinstance(annotation, ast.Attribute):
            classes[arg.arg] = annotation.attr
        elif isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ) and annotation.value.isidentifier():
            classes[arg.arg] = annotation.value
    return classes


def _collect_class(
    node: ast.ClassDef, logical_path: str, guarded_lines: Dict[int, str]
) -> ClassInfo:
    """Build the :class:`ClassInfo` for one class body."""
    info = ClassInfo(
        name=node.name,
        module=logical_path,
        lineno=node.lineno,
        node=node,
        is_frozen_dataclass=_is_frozen_dataclass(node),
        is_namedtuple=_is_namedtuple(node),
    )
    lock_attrs: set[str] = set()
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef):
            info.methods[statement.name] = statement
            parameters = _parameter_classes(statement)
            for inner in ast.walk(statement):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(inner, ast.Assign):
                    targets, value = inner.targets, inner.value
                elif isinstance(inner, ast.AnnAssign) and inner.value is not None:
                    targets, value = [inner.target], inner.value
                if value is None:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    info.attr_values.setdefault(attr, []).append(value)
                    called = _call_name(value)
                    if called in _LOCK_CONSTRUCTORS:
                        lock_attrs.add(attr)
                    elif isinstance(value, ast.Call) and called is not None:
                        info.attr_classes.setdefault(attr, called)
                    elif isinstance(value, ast.Name) and value.id in parameters:
                        info.attr_classes.setdefault(attr, parameters[value.id])
                    lock = guarded_lines.get(inner.lineno)
                    if lock is not None:
                        info.guarded[attr] = lock
    info.lock_attrs = frozenset(lock_attrs)
    return info


def index_module(
    logical_path: str,
    display_path: str,
    source: str,
    tree: Optional[ast.Module] = None,
) -> Optional[ModuleInfo]:
    """Index one module; ``None`` when the source does not parse.

    Unparsable files are already reported as ``E001`` by the runner, so
    the index simply omits them (every cross-module conclusion drawn
    from the rest of the tree stays conservative).
    """
    if tree is None:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return None
    guarded_lines, publish_lines, lock_orders = _directive_lines(source)
    module = ModuleInfo(
        logical_path=logical_path,
        display_path=display_path,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
        publish_lines=publish_lines,
        lock_orders=tuple(lock_orders),
    )
    imported: set[str] = set()
    for statement in tree.body:
        if isinstance(statement, ast.FunctionDef):
            module.functions[statement.name] = statement
        elif isinstance(statement, ast.ClassDef):
            module.classes[statement.name] = _collect_class(
                statement, logical_path, guarded_lines
            )
        elif isinstance(statement, ast.Import):
            for alias in statement.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    module.imported_modules = frozenset(imported)
    return module


def build_index(
    entries: Sequence[Tuple[str, str, str]],
) -> ProjectIndex:
    """Build the index from ``(logical_path, display_path, source)`` rows."""
    index = ProjectIndex()
    for logical_path, display_path, source in entries:
        module = index_module(logical_path, display_path, source)
        if module is not None:
            index.add(module)
    return index


# ----------------------------------------------------------------------
# On-disk cache (``repro lint --index-cache PATH``)
# ----------------------------------------------------------------------
def _stamp_of(files: Sequence[Path]) -> Tuple[Tuple[str, int, int], ...]:
    """Freshness stamp: (path, size, mtime_ns) per file, sorted."""
    rows: List[Tuple[str, int, int]] = []
    for path in files:
        stat = path.stat()
        rows.append((str(path), stat.st_size, stat.st_mtime_ns))
    return tuple(sorted(rows))


def load_cached_index(
    cache_path: Path, files: Sequence[Path]
) -> Optional[ProjectIndex]:
    """The cached index when it matches *files* exactly, else ``None``."""
    try:
        with cache_path.open("rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != INDEX_VERSION:
        return None
    if payload.get("stamp") != _stamp_of(files):
        return None
    index = payload.get("index")
    return index if isinstance(index, ProjectIndex) else None


def store_cached_index(
    cache_path: Path, files: Sequence[Path], index: ProjectIndex
) -> None:
    """Persist *index* with its freshness stamp (best effort)."""
    payload = {
        "version": INDEX_VERSION,
        "stamp": _stamp_of(files),
        "index": index,
    }
    try:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        with cache_path.open("wb") as handle:
            pickle.dump(payload, handle)
    except OSError:  # pragma: no cover - unwritable cache dir is non-fatal
        pass
