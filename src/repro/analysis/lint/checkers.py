"""The project-specific rules ``repro lint`` enforces.

Each checker compiles one convention this codebase relies on into an
``ast``-level rule. They are deliberately narrow: every rule names the
invariant it guards and the idiom that satisfies it, so a finding reads
as a prescription, not a style nit. Deliberate exceptions are waived in
place with ``# lint: allow(<rule>) -- reason``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import (
    Finding,
    ModuleInfo,
    call_name,
    dotted_name,
    is_constant,
    keyword_arg,
    register,
)

# ----------------------------------------------------------------------
# 1. no-pickle: serialization must stay pickle-free
# ----------------------------------------------------------------------
_PICKLE_MODULES = {"pickle", "cPickle", "_pickle", "marshal", "shelve", "dill"}


@register(
    "no-pickle",
    "pickle/marshal are banned: artifacts, stores and wire frames are "
    "JSON + npz so loading them can never execute code",
)
def check_no_pickle(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _PICKLE_MODULES:
                    yield module.finding(
                        "no-pickle",
                        node,
                        f"import of {alias.name!r}: this codebase serializes "
                        "via JSON + npz (repro.serialize), never pickle",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _PICKLE_MODULES:
                yield module.finding(
                    "no-pickle",
                    node,
                    f"import from {node.module!r}: this codebase serializes "
                    "via JSON + npz (repro.serialize), never pickle",
                )
        elif isinstance(node, ast.Call):
            flag = keyword_arg(node, "allow_pickle")
            if flag is not None and not is_constant(flag, False):
                yield module.finding(
                    "no-pickle",
                    node,
                    "allow_pickle must be literally False: object arrays "
                    "round-trip through pickle, which turns model loading "
                    "into code execution",
                )


# ----------------------------------------------------------------------
# 2. strict-json: everything serve/ emits must be RFC 8259 JSON
# ----------------------------------------------------------------------
def _in_serve(module: ModuleInfo) -> bool:
    return "/serve/" in module.path or module.path.startswith("serve/")


@register(
    "strict-json",
    "serve/ must emit strict JSON: raw json.dumps writes bare NaN/Infinity "
    "tokens that strict parsers reject — use dumps_strict/json_safe, or "
    "allow_nan=False where the payload is provably finite",
)
def check_strict_json(module: ModuleInfo) -> Iterator[Finding]:
    if not _in_serve(module):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node) or ""
        if not (name.endswith("json.dumps") or name.endswith("json.dump")):
            continue
        if is_constant(keyword_arg(node, "allow_nan"), False):
            continue  # explicitly strict at the call site
        yield module.finding(
            "strict-json",
            node,
            f"raw {name}() in serve/: a NaN anywhere in the payload emits "
            "invalid bare 'NaN'; route responses and control-socket state "
            "through dumps_strict/json_safe (or pass allow_nan=False)",
        )


# ----------------------------------------------------------------------
# 3. fingerprint-determinism: canonical-hash payloads must be stable
# ----------------------------------------------------------------------
_NONDETERMINISTIC_CALLS: Dict[str, str] = {
    "id": "id() values change every process",
    "hash": "hash() is salted per process (PYTHONHASHSEED)",
    "os.urandom": "os.urandom is random by definition",
}
_NONDETERMINISTIC_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("time.", "wall-clock values differ across runs"),
    ("random.", "random values differ across runs"),
    ("uuid.", "uuids differ across runs"),
    ("np.random.", "random values differ across runs"),
    ("numpy.random.", "random values differ across runs"),
)


def _is_fingerprint_function(fn: ast.FunctionDef) -> bool:
    if "fingerprint" in fn.name.lower():
        return True
    has_hash = has_dumps = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = call_name(node) or ""
            if name.startswith("hashlib."):
                has_hash = True
            elif name.endswith("json.dumps"):
                has_dumps = True
    return has_hash and has_dumps


@register(
    "fingerprint-determinism",
    "run_key/prep_key/store fingerprints must be pure functions of their "
    "configuration: no clocks, randomness, process ids or unsorted JSON "
    "inside canonical-hash derivations",
)
def check_fingerprint_determinism(module: ModuleInfo) -> Iterator[Finding]:
    for fn in ast.walk(module.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_fingerprint_function(fn):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node) or ""
            if name in _NONDETERMINISTIC_CALLS:
                yield module.finding(
                    "fingerprint-determinism",
                    node,
                    f"{name}() inside fingerprint derivation "
                    f"{fn.name!r}: {_NONDETERMINISTIC_CALLS[name]}, so the "
                    "fingerprint would stop being deterministic",
                )
                continue
            for prefix, why in _NONDETERMINISTIC_PREFIXES:
                if name.startswith(prefix):
                    yield module.finding(
                        "fingerprint-determinism",
                        node,
                        f"{name}() inside fingerprint derivation "
                        f"{fn.name!r}: {why}, so the fingerprint would stop "
                        "being deterministic",
                    )
                    break
            else:
                if name.endswith("json.dumps") and not is_constant(
                    keyword_arg(node, "sort_keys"), True
                ):
                    yield module.finding(
                        "fingerprint-determinism",
                        node,
                        f"json.dumps without sort_keys=True in fingerprint "
                        f"derivation {fn.name!r}: dict order is insertion "
                        "order, so equal configurations could hash unequal",
                    )


# ----------------------------------------------------------------------
# 4. crash-safe-write: published metadata uses tmp + fsync + rename
# ----------------------------------------------------------------------
_DURABLE_PATH_HINT = re.compile(
    r"manifest|registry|index|artifact|baseline", re.IGNORECASE
)
_WRITE_OPENERS = {"open", "os.fdopen"}


def _write_mode(call: ast.Call) -> bool:
    mode: Optional[ast.expr] = keyword_arg(call, "mode")
    if mode is None and len(call.args) >= 2:
        mode = call.args[1]
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and mode.value.startswith("w")
    )


def _call_names_in(fn: ast.AST) -> Set[str]:
    return {
        call_name(node) or ""
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }


@register(
    "crash-safe-write",
    "manifests/registries/artifacts must publish via tmp-write -> fsync -> "
    "os.replace: a rename without fsync can publish a truncated file after "
    "a crash, and a plain overwrite is torn by definition",
)
def check_crash_safe_write(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if (call_name(node) or "") not in _WRITE_OPENERS or not _write_mode(node):
            continue
        scope = module.enclosing_function(node) or module.tree
        names = _call_names_in(scope)
        has_replace = "os.replace" in names or "os.rename" in names
        has_fsync = "os.fsync" in names
        if has_replace and not has_fsync:
            yield module.finding(
                "crash-safe-write",
                node,
                "tmp-write + rename without os.fsync: a crash between "
                "kernel buffering and writeback can publish a truncated "
                "file under the final name — fsync the temp file before "
                "os.replace (see repro.durable.crash_safe_write)",
            )
            continue
        if node.args:
            target_src = ast.get_source_segment(module.source, node.args[0]) or ""
            if _DURABLE_PATH_HINT.search(target_src) and not has_replace:
                yield module.finding(
                    "crash-safe-write",
                    node,
                    f"direct overwrite of durable metadata ({target_src!r}): "
                    "write to a temp file, fsync it, then os.replace so "
                    "readers only ever see a complete document",
                )


# ----------------------------------------------------------------------
# 5. fork-safety: no import-time threads/locks without a re-arm hook
# ----------------------------------------------------------------------
_THREADING_PRIMITIVES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "threading.Barrier",
    "threading.Thread",
}


@register(
    "fork-safety",
    "modules forked by parallel.py/fleet.py/distributed.py must not create "
    "locks or threads at import time unless they re-arm them via "
    "os.register_at_fork — a child can inherit a lock some coordinator "
    "thread held mid-operation and deadlock forever",
)
def check_fork_safety(module: ModuleInfo) -> Iterator[Finding]:
    has_rearm = any(
        (call_name(node) or "").endswith("register_at_fork")
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call)
    )
    if has_rearm:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node) or ""
        if name in _THREADING_PRIMITIVES and module.at_module_level(node):
            yield module.finding(
                "fork-safety",
                node,
                f"{name}() at import time without an os.register_at_fork "
                "re-arm: every executor/fleet worker forks this module's "
                "state, and an inherited held lock deadlocks the child",
            )


# ----------------------------------------------------------------------
# 6. guarded-by: declared lock discipline on shared attributes
# ----------------------------------------------------------------------
_GUARDED_ATTR_RE = re.compile(
    r"self\.(\w+)\s*[:=].*#\s*guarded-by:\s*(\w+)"
)
_GUARDED_DEF_RE = re.compile(r"\bdef\s+(\w+)\s*\(.*#\s*guarded-by:\s*(\w+)")
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "sort", "reverse", "add", "discard", "update", "setdefault", "fill",
    "appendleft", "popleft",
}


def _self_attr(node: ast.AST) -> Optional[str]:
    """The ``X`` in ``self.X``, ``self.X[...]`` — else ``None``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _flatten_targets(target: ast.AST) -> Iterator[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


def _holds_lock(module: ModuleInfo, node: ast.AST, lock: str) -> bool:
    for ancestor in module.ancestors(node):
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            name = dotted_name(item.context_expr)
            if name == f"self.{lock}" or name == lock:
                return True
    return False


def _guarded_mutations(
    fn: ast.AST,
) -> Iterator[Tuple[ast.AST, str]]:
    """(node, attr) pairs for every ``self.<attr>`` mutation in ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for leaf in _flatten_targets(target):
                    attr = _self_attr(leaf)
                    if attr is not None:
                        yield node, attr
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    yield node, attr
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                attr = _self_attr(func.value)
                if attr is not None:
                    yield node, attr


@register(
    "guarded-by",
    "attributes declared '# guarded-by: <lock>' may only be mutated inside "
    "'with self.<lock>:' (or in methods annotated as running with the lock "
    "held by their caller) — the lock annotation is the concurrency "
    "contract the fleet/batching/monitor state depends on",
)
def check_guarded_by(module: ModuleInfo) -> Iterator[Finding]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        end = cls.end_lineno or cls.lineno
        guarded: Dict[str, str] = {}
        caller_held: Dict[str, str] = {}
        declaration_lines: Set[int] = set()
        for lineno in range(cls.lineno, end + 1):
            text = module.line_text(lineno)
            attr_match = _GUARDED_ATTR_RE.search(text)
            if attr_match:
                guarded[attr_match.group(1)] = attr_match.group(2)
                declaration_lines.add(lineno)
            def_match = _GUARDED_DEF_RE.search(text)
            if def_match:
                caller_held[def_match.group(1)] = def_match.group(2)
        if not guarded:
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in ("__init__", "__new__"):
                continue  # construction precedes sharing
            held_here = caller_held.get(fn.name)
            for node, attr in _guarded_mutations(fn):
                lock = guarded.get(attr)
                if lock is None or lock == held_here:
                    continue
                if getattr(node, "lineno", 0) in declaration_lines:
                    continue  # the annotated declaration site itself
                if _holds_lock(module, node, lock):
                    continue
                yield module.finding(
                    "guarded-by",
                    node,
                    f"self.{attr} is declared '# guarded-by: {lock}' but is "
                    f"mutated in {cls.name}.{fn.name} outside 'with "
                    f"self.{lock}:' (annotate the def with "
                    f"'# guarded-by: {lock}' if the caller holds it)",
                )


# ----------------------------------------------------------------------
# 7. silent-except: no exception vanishes without a trace
# ----------------------------------------------------------------------
@register(
    "silent-except",
    "an except body of bare 'pass' neither re-raises, counts a telemetry "
    "metric, nor logs through the rate-limited sink — failures must stay "
    "observable; use contextlib.suppress for genuinely ignorable cleanup "
    "or waive with the reason the error is safe to drop",
)
def check_silent_except(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        meaningful = [
            stmt
            for stmt in node.body
            if not isinstance(stmt, (ast.Pass, ast.Continue))
            and not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
        ]
        if meaningful:
            continue
        if node.type is None:
            caught = "everything"
        else:
            caught = dotted_name(node.type) or ast.unparse(node.type)
        yield module.finding(
            "silent-except",
            node,
            f"except {caught}: pass swallows the failure invisibly — "
            "re-raise, count a telemetry metric, log via the rate-limited "
            "sink, or waive with the reason this error is safe to drop",
        )


# ----------------------------------------------------------------------
# 8. wire-compat: frame/manifest shapes are versioned, by name
# ----------------------------------------------------------------------
_VERSION_KEYS = {
    "version",
    "manifest_version",
    "protocol",
    "protocol_version",
    "format_version",
}


@register(
    "wire-compat",
    "code touching send_frame/recv_frame must reference PROTOCOL_VERSION, "
    "and version fields in manifests must come from named *_VERSION "
    "constants — shape changes then force a visible version decision "
    "instead of silently breaking old peers and stores",
)
def check_wire_compat(module: ModuleInfo) -> Iterator[Finding]:
    references_protocol = any(
        "PROTOCOL_VERSION" in (dotted_name(node) or "")
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )
    flagged_frames = False
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and not flagged_frames:
            name = call_name(node) or ""
            if (
                name.split(".")[-1] in ("send_frame", "recv_frame")
                and not references_protocol
            ):
                flagged_frames = True
                yield module.finding(
                    "wire-compat",
                    node,
                    f"{name}() used but PROTOCOL_VERSION is never referenced "
                    "in this module: wire-frame changes must be tied to an "
                    "explicit protocol version check",
                )
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value in _VERSION_KEYS
                    and isinstance(value, ast.Constant)
                ):
                    yield module.finding(
                        "wire-compat",
                        value,
                        f"literal {key.value!r}: {value.value!r} in a "
                        "manifest/frame dict: version fields must reference "
                        "a named *_VERSION constant so readers and writers "
                        "can never drift apart silently",
                    )


# ----------------------------------------------------------------------
# 9. no-print: library code logs through telemetry, not stdout
# ----------------------------------------------------------------------
_PRINT_EXEMPT_FILES = ("cli.py", "__main__.py")


@register(
    "no-print",
    "library modules must log via telemetry.log_line (single-syscall, "
    "quiet-aware, fork-interleaving-safe) — print() from forked workers "
    "tears lines and ignores --quiet; the CLI layer is exempt",
)
def check_no_print(module: ModuleInfo) -> Iterator[Finding]:
    basename = module.path.rsplit("/", 1)[-1]
    if basename in _PRINT_EXEMPT_FILES:
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield module.finding(
                "no-print",
                node,
                "print() in library code: use telemetry.log_line (one "
                "syscall per line, honors --quiet, safe under fork "
                "interleaving) or a RateLimitedLog for error paths",
            )


CHECKER_NAMES: List[str] = [
    "no-pickle",
    "strict-json",
    "fingerprint-determinism",
    "crash-safe-write",
    "fork-safety",
    "guarded-by",
    "silent-except",
    "wire-compat",
    "no-print",
]
