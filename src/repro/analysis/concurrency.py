"""Concurrency escape analysis and shared-memory lifecycle typestate.

Three project-wide rules built on the :mod:`repro.analysis.flow` graph,
grown to gate the zero-copy pool transport (:mod:`repro.parallel.shm`):

* **RL015** (escape) — every object reaching a pool submission boundary
  must be *copied* (locals pickled per item), *provably immutable*
  (a module global nothing in the owning module mutates — the same
  immutability facts RL010 rests on), or a *registered shared-memory
  buffer* (a module global bound to a ``SharedMemory`` segment or an
  exported handle, classified by the flow graph's resource pass).
  Mutable state escaping by reference is how fork-shared pages silently
  diverge between parent and workers.

* **RL016** (shm-lifecycle) — a path-sensitive typestate checker for
  the ``SharedMemory`` protocol, run over the AST of every module that
  touches it: each ``create`` is matched by exactly one ``unlink`` on
  every path, each attach by a ``close``, and no segment is referenced
  after close/unlink.  Ownership transfers (the segment is returned,
  stored into a container/attribute, or handed to another function)
  end the local obligation — the registry that received it is then
  responsible, which is exactly how :mod:`repro.parallel.shm` is
  structured.  The dynamic twin is the ``shm`` sanitizer (RS005).

* **RL017** (guard) — state reachable from both parent and workers
  (module globals classified as shared-memory resources) may only be
  mutated under the registered guard, ``repro.parallel.shm.shm_guard``.

Module-level segment bindings are deliberately out of RL016's scope:
binding a segment to a module global *is* an ownership transfer (the
module registry owns it for the process lifetime) and is patrolled by
RL015/RL017 through the resource classification instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ProjectRule

__all__ = [
    "EscapeAnalysisRule",
    "ShmLifecycleRule",
    "SharedGuardRule",
]

#: Path explosion bound for the RL016 interpreter: beyond this many
#: simultaneous abstract paths a function is too branchy to enumerate
#: and the extra paths are dropped (soundness over completeness — the
#: runtime sanitizer still covers what the static pass skips).
_MAX_PATHS = 128


class EscapeAnalysisRule(ProjectRule):
    """RL015 — objects escaping to pool workers need an escape proof.

    At every ``parallel_map``/``parallel_imap`` submission site (the
    same detection RL009 uses), each non-worker positional argument is classified:

    * a **local** (or parameter, or computed expression) is pickled per
      dispatch — the worker gets a copy, mutation cannot alias;
    * a **module global no function of the owning module mutates** is
      provably immutable — sharing it by reference is safe;
    * a **registered shared-memory buffer** (module global classified
      as resource kind ``"shm"``) is sanctioned shared state — its
      lifecycle is RL016's job and its mutations RL017's;
    * anything else — a mutable module global escaping by reference —
      is flagged: the forked worker sees a copy-on-write alias whose
      divergence from the parent is silent.
    """

    id = "RL015"
    tag = "escape"
    description = "mutable object escapes to pool workers without copy/immutability/shm proof"
    scope = "project-wide (flow)"
    doc = (
        "Escape analysis at the pool boundary: every object passed into a "
        "`parallel_map`/`parallel_imap` submission must be copied (locals "
        "are pickled per "
        "item), provably immutable (a module global nothing in the owning "
        "module mutates), or a registered shared-memory buffer "
        "(`SharedMemory` / `repro.parallel.shm` bindings, resource kind "
        "`shm`).  A mutable module global escaping by reference diverges "
        "silently between parent and forked workers; dispatch a copy, stop "
        "mutating it, or move it into the shm transport."
    )

    #: Pool entry points whose first positional argument is the worker.
    _SUBMITTERS = frozenset({"parallel_map", "parallel_imap"})

    #: Dotted-module prefixes exempt from the boundary check (the pool's
    #: own plumbing and the analysis/observability layers, as in RL009).
    _EXEMPT_MODULES = ("repro.parallel.pool", "repro.obs", "repro.analysis")

    def _is_submission(self, graph, summary, site) -> bool:
        resolved = graph.resolve_call(summary, site.raw)
        last = site.raw.rsplit(".", 1)[-1]
        return last in self._SUBMITTERS and (
            resolved is None
            or resolved.startswith("repro.parallel.pool:")
            or resolved.rpartition(":")[2] in self._SUBMITTERS
        )

    def _mutation_site(self, graph, module: str, name: str) -> Optional[int]:
        """First line where any function of ``module`` mutates ``name``."""
        info = graph.modules.get(module)
        if info is None:
            return None
        lines = [
            summary.global_writes[name]
            for summary in info.functions.values()
            if name in summary.global_writes
        ]
        return min(lines) if lines else None

    def check_project(self, graph) -> Iterator[Finding]:
        """Classify every argument reaching a submission boundary."""
        for summary in graph.functions.values():
            if not summary.module.startswith("repro"):
                continue
            if summary.module.startswith(self._EXEMPT_MODULES):
                continue
            info = graph.modules.get(summary.module)
            if info is None:
                continue
            for site in summary.calls:
                if not self._is_submission(graph, summary, site):
                    continue
                for desc in site.args[1:]:
                    if desc is None:
                        continue  # computed expression: pickled, a copy
                    base = desc.split(".", 1)[0]
                    if base in summary.local_names or base not in info.module_globals:
                        continue  # local/parameter: pickled, a copy
                    resource = info.resources.get(base)
                    if resource is not None and resource[0] == "shm":
                        continue  # registered shared-memory buffer
                    mutated_at = self._mutation_site(graph, summary.module, base)
                    if mutated_at is None:
                        continue  # provably immutable within its module
                    yield Finding(
                        path=graph.file_of(summary.key),
                        line=site.lineno,
                        col=site.col,
                        rule_id=self.id,
                        message=(
                            f"mutable module global {base!r} escapes to pool "
                            f"workers by reference (mutated at "
                            f"{summary.module} line {mutated_at}); it is "
                            "neither copied, provably immutable, nor a "
                            "registered shared-memory buffer — dispatch a "
                            "copy, stop mutating it, or register it via "
                            "repro.parallel.shm"
                        ),
                    )


@dataclass(frozen=True)
class _SegState:
    """Abstract lifecycle state of one tracked resource binding.

    Covers ``SharedMemory`` segments (origins ``"created"`` /
    ``"attached"``) and columnar run writers
    (:class:`repro.hypersparse.spill.ColumnarWriter`, origin
    ``"opened"`` — discharged by ``close()`` or ``abort()``; the
    ``with`` form manages itself and is deliberately untracked).
    """

    origin: str  #: ``"created"``, ``"attached"``, ``"opened"``, or an
    #: extension origin registered in :data:`_ORIGIN_NOUNS` (the engine
    #: checker in :mod:`repro.analysis.service` adds ``"engine"`` and
    #: ``"acquired"``)
    line: int  #: binding site (for messages)
    closed: bool = False
    unlinked: bool = False

    @property
    def noun(self) -> str:
        """What to call this resource in findings."""
        return _ORIGIN_NOUNS.get(self.origin, "segment")


#: Finding noun per lifecycle origin (default: "segment").
_ORIGIN_NOUNS = {
    "opened": "writer",
    "engine": "engine",
    "acquired": "snapshot lease",
}


#: One abstract path: local variable name -> lifecycle state.
_Env = Dict[str, _SegState]

#: A path paired with how it left the current block: ``None`` (falls
#: through), ``"function"`` (return/raise — unwinds every enclosing
#: ``finally`` before the end-of-function obligations are checked) or
#: ``"loop"`` (break/continue — absorbed by the nearest loop).
_Path = Tuple[_Env, Optional[str]]


class _FunctionChecker:
    """Path-sensitive interpreter for one function body (RL016 core).

    Executes the statement list over a set of abstract environments —
    one per feasible branch combination — tracking every local bound
    directly from a ``SharedMemory(...)`` call.  Escapes (the variable
    is returned, aliased, stored into a container/attribute, or passed
    to another callable) transfer ownership and end the obligation.
    """

    def __init__(self, func: ast.AST, var_prefix: str) -> None:
        self.func = func
        self.var_prefix = var_prefix  # qualname, for messages
        #: (line, message) pairs, deduplicated across paths.
        self.findings: Dict[Tuple[int, str], None] = {}

    # -- event helpers ---------------------------------------------------

    def _report(self, line: int, message: str) -> None:
        self.findings[(line, message)] = None

    def _classify_ctor(self, call: ast.Call) -> Optional[str]:
        """Lifecycle origin of a tracked-resource constructor call."""
        callee = call.func
        name = callee.attr if isinstance(callee, ast.Attribute) else (
            callee.id if isinstance(callee, ast.Name) else None
        )
        if name == "ColumnarWriter":
            return "opened"
        if name != "SharedMemory":
            return None
        for kw in call.keywords:
            if kw.arg == "create":
                if isinstance(kw.value, ast.Constant):
                    return "created" if kw.value.value else "attached"
                return None  # data-dependent create flag: not tracked
        if len(call.args) >= 2:  # positional create flag
            arg = call.args[1]
            if isinstance(arg, ast.Constant):
                return "created" if arg.value else "attached"
            return None
        return "attached"

    def _scan_uses(self, node: Optional[ast.AST], env: _Env) -> None:
        """Flag loads of dead segments; untrack variables that escape.

        ``x.close()`` / ``x.unlink()`` receivers are handled by the
        statement walker before this runs, so every remaining load of a
        closed/unlinked segment is a genuine use-after-free.  A tracked
        name passed bare into a call, stored, or aliased is an
        ownership transfer: the obligation moves with it.
        """
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                state = env.get(sub.id)
                if state is None:
                    continue
                if state.closed or state.unlinked:
                    self._report(
                        sub.lineno,
                        f"{state.noun} {sub.id!r} ({state.origin} at line "
                        f"{state.line}) referenced after close/unlink "
                        "(use after free)",
                    )
            if isinstance(sub, ast.Call):
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in env:
                        env.pop(arg.id)  # ownership handed to the callee

    def _finish_path(self, env: _Env) -> None:
        """End-of-path obligations for every still-tracked variable."""
        for var, state in env.items():
            if state.origin == "created" and not state.unlinked:
                self._report(
                    state.line,
                    f"segment {var!r} created at line {state.line} is not "
                    "unlinked on every path (leak); match each create with "
                    "exactly one unlink",
                )
            elif state.origin == "attached" and not state.closed:
                self._report(
                    state.line,
                    f"segment {var!r} attached at line {state.line} is not "
                    "closed on every path; every attach needs a close",
                )
            elif state.origin == "opened" and not state.closed:
                self._report(
                    state.line,
                    f"writer {var!r} opened at line {state.line} is not "
                    "closed or aborted on every path (leaked temporaries); "
                    "use the context-manager form or add close()/abort()",
                )

    # -- statement execution ---------------------------------------------

    def _lifecycle_call(self, stmt: ast.stmt) -> Optional[Tuple[str, str, int]]:
        """``(var, method, line)`` for a bare lifecycle-method statement."""
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return None
        call = stmt.value
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.attr in ("close", "unlink", "abort")
        ):
            return call.func.value.id, call.func.attr, stmt.lineno
        return None

    def _apply_lifecycle(self, env: _Env, var: str, method: str, line: int) -> None:
        state = env.get(var)
        if state is None:
            return
        if method in ("close", "abort"):
            env[var] = replace(state, closed=True)
            return
        if state.origin == "opened":
            return  # unlink is not part of the writer protocol; ignore
        if state.origin == "attached":
            self._report(
                line,
                f"attach-side unlink of segment {var!r} (attached at line "
                f"{state.line}); only the creator unlinks — the attach "
                "side closes",
            )
            env.pop(var)
            return
        if state.unlinked:
            self._report(
                line,
                f"segment {var!r} unlinked more than once on some path "
                f"(first created at line {state.line})",
            )
            return
        env[var] = replace(state, unlinked=True)

    def _exec_stmt(self, stmt: ast.stmt, env: _Env) -> List[_Path]:
        lifecycle = self._lifecycle_call(stmt)
        if lifecycle is not None:
            self._apply_lifecycle(env, *lifecycle)
            return [(env, None)]

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(target, ast.Name):
                if isinstance(value, ast.Call):
                    origin = self._classify_ctor(value)
                    self._scan_uses(value, env)
                    if origin is not None:
                        env[target.id] = _SegState(origin, stmt.lineno)
                    else:
                        env.pop(target.id, None)  # rebound to something else
                    return [(env, None)]
                if isinstance(value, ast.Name) and value.id in env:
                    # Alias: two names, one obligation — stand down.
                    env.pop(value.id)
                    env.pop(target.id, None)
                    return [(env, None)]
                self._scan_uses(value, env)
                env.pop(target.id, None)
                return [(env, None)]
            # Store into a subscript/attribute: publishing a tracked
            # value transfers ownership to the receiving structure.
            if isinstance(value, ast.Name) and value.id in env:
                env.pop(value.id)
                return [(env, None)]
            self._scan_uses(value, env)
            self._scan_uses(target, env)
            return [(env, None)]

        if isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
                env.pop(stmt.value.id, None)  # ownership follows the return
            self._scan_uses(
                stmt.value if isinstance(stmt, ast.Return) else stmt.exc, env
            )
            # Obligations are NOT checked here: enclosing ``finally``
            # blocks still run on the way out and may discharge them.
            return [(env, "function")]

        if isinstance(stmt, (ast.Break, ast.Continue)):
            return [(env, "loop")]

        if isinstance(stmt, ast.If):
            self._scan_uses(stmt.test, env)
            return self._exec_block(stmt.body, dict(env)) + self._exec_block(
                stmt.orelse, dict(env)
            )

        if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self._scan_uses(stmt.test, env)
            else:
                self._scan_uses(stmt.iter, env)
            # Zero or one abstract iteration covers the lifecycle
            # obligations without enumerating loop counts; break/continue
            # exits resume after the loop.
            once = self._exec_block(list(stmt.body) + list(stmt.orelse), dict(env))
            skip = self._exec_block(stmt.orelse, dict(env))
            return [
                (e, None if kind == "loop" else kind) for e, kind in once + skip
            ]

        if isinstance(stmt, ast.Try):
            after_body = self._exec_block(
                list(stmt.body) + list(stmt.orelse), dict(env)
            )
            # Handler paths start from the pre-state: the exception may
            # have fired before any body statement completed.
            handler_paths: List[_Path] = []
            for handler in stmt.handlers:
                handler_paths.extend(self._exec_block(handler.body, dict(env)))
            # Every exit — fall-through, return/raise, break — unwinds
            # through ``finally`` first; the exit kind survives it.
            merged: List[_Path] = []
            for path_env, kind in after_body + handler_paths:
                for out_env, out_kind in self._exec_block(stmt.finalbody, path_env):
                    merged.append((out_env, out_kind or kind))
            return merged

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_uses(item.context_expr, env)
            return self._exec_block(stmt.body, env)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [(env, None)]  # nested scopes are checked separately

        self._scan_uses(stmt, env)
        return [(env, None)]

    def _exec_block(self, stmts: List[ast.stmt], env: _Env) -> List[_Path]:
        paths: List[_Path] = [(env, None)]
        for stmt in stmts:
            nxt: List[_Path] = []
            for e, kind in paths:
                if kind is not None:
                    nxt.append((e, kind))  # already left this block
                else:
                    nxt.extend(self._exec_stmt(stmt, e))
            paths = nxt[:_MAX_PATHS]
        return paths

    def run(self) -> List[Tuple[int, str]]:
        """Execute the function; returns (line, message) findings."""
        body = getattr(self.func, "body", [])
        for env, _ in self._exec_block(list(body), {}):
            self._finish_path(env)
        return sorted(self.findings)


class ShmLifecycleRule(ProjectRule):
    """RL016 — SharedMemory create/attach obligations hold on all paths.

    Modules whose call sites mention ``SharedMemory`` are re-parsed and
    every function body is run through :class:`_FunctionChecker`, a
    path-sensitive abstract interpreter over the lifecycle typestate
    ``created -> unlinked`` / ``attached -> closed``.  Branches, loops
    (zero-or-one abstract iterations), ``try``/``finally`` and early
    returns are enumerated path by path; a violation on *any* feasible
    path is reported.  The files re-parsed here are the linted files
    themselves, so the incremental cache's flow fingerprint already
    covers this rule's inputs.
    """

    id = "RL016"
    tag = "shm-lifecycle"
    description = "SharedMemory create/attach not matched by unlink/close on every path"
    scope = "project-wide (flow + AST paths)"
    doc = (
        "Shared-memory lifecycle typestate: on every path through a "
        "function, a `SharedMemory(create=True)` must be unlinked exactly "
        "once, an attach must be closed, and no segment may be referenced "
        "after close/unlink (use after free).  Transferring ownership — "
        "returning the segment, storing it into a registry, or passing it "
        "to another function — moves the obligation with it.  The runtime "
        "twin is the `shm` sanitizer (RS005, see "
        "[CONCURRENCY.md](CONCURRENCY.md))."
    )

    def _mentions_shm(self, info) -> bool:
        for summary in info.functions.values():
            for site in summary.calls:
                if site.raw.rsplit(".", 1)[-1] in ("SharedMemory", "ColumnarWriter"):
                    return True
        return False

    def check_project(self, graph) -> Iterator[Finding]:
        """Typestate-check every module that touches SharedMemory."""
        for info in sorted(graph.modules.values(), key=lambda m: m.name):
            if not info.name.startswith("repro"):
                continue
            if not self._mentions_shm(info):
                continue
            try:
                tree = ast.parse(Path(info.file).read_text(encoding="utf-8"))
            except (OSError, SyntaxError):  # pragma: no cover - parsed once already
                continue
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                checker = _FunctionChecker(node, node.name)
                for line, message in checker.run():
                    yield Finding(
                        path=info.file,
                        line=line,
                        col=1,
                        rule_id=self.id,
                        message=f"in {node.name}: {message}",
                    )


class SharedGuardRule(ProjectRule):
    """RL017 — shm-backed shared state is only mutated under the guard.

    A module global classified as a shared-memory resource (kind
    ``"shm"``) is visible to parent *and* workers; mutating it without
    serialization races the other side.  The transport registers one
    guard — :func:`repro.parallel.shm.shm_guard` — and this rule
    demands that any function mutating such a global takes it (the
    call may wrap the mutation or the whole function body; statement
    granularity is the sanitizer's job, not the linter's).
    """

    id = "RL017"
    tag = "guard"
    description = "mutation of parent/worker-shared shm state outside the registered guard"
    scope = "project-wide (flow)"
    doc = (
        "Registered-guard discipline: any mutation of state reachable from "
        "both parent and workers — module globals holding `SharedMemory` "
        "segments or exported shm handles — must happen in a function that "
        "takes the registered guard (`with shm_guard():` from "
        "`repro.parallel.shm`).  Unguarded writes race the other side of "
        "the dispatch; the `shm` sanitizer (RS005) cross-checks segment "
        "content at runtime."
    )

    _GUARDS = frozenset({"shm_guard"})

    def _takes_guard(self, summary) -> bool:
        return any(
            site.raw.rsplit(".", 1)[-1] in self._GUARDS for site in summary.calls
        )

    def check_project(self, graph) -> Iterator[Finding]:
        """Flag unguarded mutations of shm-resource module globals."""
        for summary in graph.functions.values():
            if not summary.module.startswith("repro"):
                continue
            info = graph.modules.get(summary.module)
            if info is None or not info.resources:
                continue
            shm_globals: Set[str] = {
                name for name, (kind, _) in info.resources.items() if kind == "shm"
            }
            if not shm_globals:
                continue
            if self._takes_guard(summary):
                continue
            seen: Set[str] = set()
            for mut in summary.mutations:
                base = mut.target.split(".", 1)[0]
                if base not in shm_globals or base in summary.local_names:
                    continue
                if base in seen:
                    continue
                seen.add(base)
                yield Finding(
                    path=graph.file_of(summary.key),
                    line=mut.lineno,
                    col=mut.col,
                    rule_id=self.id,
                    message=(
                        f"mutation of shared-memory-backed module global "
                        f"{base!r} outside the registered guard; wrap the "
                        "write in `with shm_guard():` "
                        "(repro.parallel.shm) so parent and workers "
                        "serialize their access"
                    ),
                )
