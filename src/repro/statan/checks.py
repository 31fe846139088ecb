"""The initial statan rule set.

Each rule targets a failure mode this codebase has actually had to
engineer around (see DESIGN.md §6 and the obs-layer seed tests):

========  ========================================================
DET001    unseeded / global / hidden-fallback randomness
DET002    wall-clock reads instead of the virtual simulation clock
DET003    iteration over unordered collections / filesystem listings
BUG001    mutable default arguments
ML001     float equality comparisons in numeric code
OBS001    ``obs.configure()`` without ``obs.reset()`` in the module
========  ========================================================

All checks are syntactic: they resolve dotted names through the import
alias table (``import numpy as np`` → ``numpy.random...``) but do no
type inference beyond single-scope assignment tracking for DET003.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .engine import ModuleContext, matches_tail
from .findings import SEVERITY_WARNING, Finding
from .rules import Rule, register

__all__ = [
    "UnseededRandomness",
    "WallClock",
    "UnorderedIteration",
    "MutableDefault",
    "FloatEquality",
    "ObsConfigureWithoutReset",
]

#: Packages whose modules may read wall-clock time (observability
#: measures real durations; the analyzer itself never needs time).
_WALL_CLOCK_EXEMPT_PACKAGES = frozenset({"obs", "statan"})

#: Packages where float-equality comparisons are checked (ML001).
_FLOAT_EQ_PACKAGES = frozenset({"ml", "statstests", "analysis"})

#: numpy.random names that are *plumbing*, not global-state draws.
_NUMPY_RNG_PLUMBING = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
    }
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Monotonic duration clocks.  These don't leak wall-clock time into
#: outputs, but ``repro.obs`` owns duration measurement (``obs.timer``)
#: so instrumentation stays centralised and mockable; reading them
#: anywhere else is a DET002 finding too.
_DURATION_CLOCK_CALLS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)

#: gzip writers that stamp ``time.time()`` into header bytes 4-7 unless
#: the call passes ``mtime=`` (same records, different bytes per run).
_GZIP_MTIME_CALLS = frozenset({"gzip.compress", "gzip.GzipFile"})


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class UnseededRandomness(Rule):
    """DET001: randomness that bypasses the injected, seeded Generator.

    Flags stdlib ``random`` module calls (process-global state), numpy
    module-level draws (``np.random.random()``, ``np.random.seed()``,
    legacy ``RandomState``), ``default_rng()`` with *no* seed (OS
    entropy), and the hidden-fallback idiom ``rng or default_rng(c)`` /
    ``if rng is None: rng = default_rng(c)`` which silently correlates
    every instance constructed without an explicit Generator.
    """

    id = "DET001"
    summary = "unseeded, global, or hidden-fallback randomness"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for call in _calls(ctx.tree):
            resolved = ctx.resolve(call.func)
            if resolved is None:
                continue
            if resolved == "random" or resolved.startswith("random."):
                if resolved == "random.Random":
                    # Instantiating a (possibly seeded) private Random is
                    # plumbing; everything else touches global state.
                    continue
                yield self.finding(
                    ctx, call,
                    f"stdlib '{resolved}' uses process-global RNG state; "
                    "draw from the injected numpy Generator instead",
                )
            elif resolved.startswith("numpy.random."):
                tail = resolved[len("numpy.random."):]
                if tail == "default_rng" and not call.args and not call.keywords:
                    yield self.finding(
                        ctx, call,
                        "default_rng() without a seed draws OS entropy; "
                        "pass a seed derived from the study config",
                    )
                elif tail.split(".")[0] not in _NUMPY_RNG_PLUMBING:
                    yield self.finding(
                        ctx, call,
                        f"'{resolved}' uses numpy's module-level global RNG; "
                        "use an injected numpy.random.Generator",
                    )
        yield from self._fallback_rngs(ctx)

    def _fallback_rngs(self, ctx: ModuleContext) -> Iterator[Finding]:
        def is_default_rng(node: ast.AST) -> bool:
            return isinstance(node, ast.Call) and matches_tail(
                ctx.resolve(node.func), "numpy.random.default_rng"
            )

        message = (
            "hidden fallback RNG: constructing a default Generator when the "
            "caller passes none silently correlates instances; require an "
            "injected rng"
        )
        for node in ast.walk(ctx.tree):
            # `rng = rng or np.random.default_rng(0)`
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                for value in node.values[1:]:
                    if is_default_rng(value):
                        yield self.finding(ctx, value, message)
            # `if rng is None: rng = np.random.default_rng(0)`
            elif isinstance(node, ast.If):
                test = node.test
                if not (
                    isinstance(test, ast.Compare)
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Is)
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None
                ):
                    continue
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and is_default_rng(stmt.value):
                        yield self.finding(ctx, stmt.value, message)
            # `def f(..., rng=np.random.default_rng(0))`
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if is_default_rng(default):
                        yield self.finding(ctx, default, message)


@register
class WallClock(Rule):
    """DET002: wall-clock reads in deterministic code.

    Simulation, analysis, ML and experiment code must take time from
    ``simulation/clock.py`` (or an explicit timestamp argument); a
    single ``time.time()`` makes seeded runs non-reproducible.
    ``time.perf_counter``/``monotonic`` are duration clocks, not wall
    clocks, but ``repro.obs`` owns duration measurement: time a block
    with ``obs.timer(histogram)`` instead of reading the clock directly.
    ``gzip.compress``/``gzip.GzipFile`` without an ``mtime=`` keyword
    read the wall clock implicitly (into the gzip header).
    The ``obs`` package (and the analyzer itself) is exempt.
    """

    id = "DET002"
    summary = "wall-clock read bypassing the virtual simulation clock"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.in_package(_WALL_CLOCK_EXEMPT_PACKAGES):
            return
        for call in _calls(ctx.tree):
            resolved = ctx.resolve(call.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, call,
                    f"'{resolved}' reads the wall clock; use the virtual "
                    "clock (repro.simulation.clock) or take the timestamp "
                    "as an argument",
                )
            elif resolved in _DURATION_CLOCK_CALLS:
                yield self.finding(
                    ctx, call,
                    f"'{resolved}' measures a duration outside repro.obs; "
                    "wrap the block in 'with obs.timer(histogram):' so "
                    "instrumentation stays centralised",
                )
            elif resolved in _GZIP_MTIME_CALLS and not any(
                keyword.arg == "mtime" for keyword in call.keywords
            ):
                yield self.finding(
                    ctx, call,
                    f"'{resolved}' without mtime= stamps the wall clock into "
                    "the gzip header; pass mtime=0 so equal input gives "
                    "equal bytes",
                )


class _ScopeSets(ast.NodeVisitor):
    """Collect names that only ever hold unordered values in one scope.

    Tracks plain names (``seen = set()``) and, when ``track_self`` is
    on, instance attributes (``self._tracked: set[str] = set()``) under
    the key ``self.<attr>``.
    """

    def __init__(self, track_self: bool = False) -> None:
        self.candidates: dict[str, bool] = {}
        self._track_self = track_self

    # Nested scopes are analysed separately.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:  # noqa: N802
        for target in node.targets:
            key = self._target_key(target)
            if key:
                self._record(key, node.value, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:  # noqa: N802
        key = self._target_key(node.target)
        if key and node.value is not None:
            self._record(key, node.value, node.annotation)
        self.generic_visit(node)

    def _target_key(self, target: ast.AST) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if (
            self._track_self
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None

    def _record(self, name: str, value: ast.AST, annotation) -> None:
        unordered = _is_unordered_value(value, None) or _is_set_annotation(annotation)
        seen = self.candidates.get(name)
        # A name must hold unordered values on *every* assignment to
        # count; a single ordered rebind clears it (conservative).
        self.candidates[name] = unordered if seen is None else (seen and unordered)


def _is_set_annotation(annotation) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in {"set", "frozenset"}
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in {"Set", "FrozenSet", "AbstractSet", "MutableSet"}
    return False


_FS_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_FS_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_unordered_value(
    node: ast.AST, ctx: ModuleContext | None, names: dict[str, bool] | None = None
) -> bool:
    """True when ``node`` evaluates to a set or a filesystem listing."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and names is not None:
        return names.get(node.id, False)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and names is not None
    ):
        return names.get(f"self.{node.attr}", False)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered_value(node.left, ctx, names) or _is_unordered_value(
            node.right, ctx, names
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _FS_LISTING_METHODS:
                return True
            if func.attr in _SET_RETURNING_METHODS and _is_unordered_value(
                func.value, ctx, names
            ):
                return True
        if ctx is not None:
            resolved = ctx.resolve(func)
            if resolved in _FS_LISTING_CALLS:
                return True
    return False


@register
class UnorderedIteration(Rule):
    """DET003: iteration order taken from sets or filesystem listings.

    Set iteration order varies with hash seeding across platforms and
    ``os.listdir``/``glob`` order varies with the filesystem; anything
    serialized, hashed, or accumulated from such an iteration must go
    through ``sorted(...)`` first.  Order-insensitive sinks (``len``,
    ``sum``, ``min``/``max``, ``any``/``all``, membership, set algebra,
    building another set) are not flagged.
    """

    id = "DET003"
    summary = "iteration over an unordered set / filesystem listing"

    _LIST_SINKS = frozenset({"tuple", "list", "enumerate", "reversed"})

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        class_attrs = self._collect_class_attrs(ctx.tree)
        scopes: list[ast.AST] = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._check_scope(ctx, scope, class_attrs.get(scope, {}))

    def _collect_class_attrs(self, tree: ast.AST) -> dict[ast.AST, dict[str, bool]]:
        """``self.<attr>`` unordered-ness per method, pooled per class:
        an attribute counts only if *every* assignment to it anywhere in
        the class is unordered."""
        method_attrs: dict[ast.AST, dict[str, bool]] = {}
        for klass in ast.walk(tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            collector = _ScopeSets(track_self=True)
            methods = [
                node
                for node in ast.walk(klass)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for method in methods:
                for stmt in method.body:
                    collector.visit(stmt)
            pooled = {
                key: value
                for key, value in collector.candidates.items()
                if key.startswith("self.")
            }
            for method in methods:
                method_attrs[method] = pooled
        return method_attrs

    def _check_scope(
        self, ctx: ModuleContext, scope: ast.AST, inherited: dict[str, bool]
    ) -> Iterator[Finding]:
        collector = _ScopeSets()
        for stmt in scope.body:
            collector.visit(stmt)
        names = dict(inherited)
        names.update(collector.candidates)

        for node in self._scope_walk(scope):
            if isinstance(node, ast.For):
                if self._unordered(node.iter, ctx, names):
                    yield self._flag(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if self._unordered(gen.iter, ctx, names):
                        yield self._flag(ctx, gen.iter)
            elif isinstance(node, ast.Call):
                func = node.func
                is_sink = (
                    isinstance(func, ast.Name) and func.id in self._LIST_SINKS
                ) or (isinstance(func, ast.Attribute) and func.attr == "join")
                if is_sink:
                    for arg in node.args:
                        if self._unordered(arg, ctx, names):
                            yield self._flag(ctx, arg)

    def _scope_walk(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function scopes."""
        stack = list(
            scope.body if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else [scope]
        )
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                    continue
                stack.append(child)

    def _unordered(self, node: ast.AST, ctx: ModuleContext, names) -> bool:
        return _is_unordered_value(node, ctx, names)

    def _flag(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx, node,
            "iteration order comes from an unordered set or filesystem "
            "listing; wrap it in sorted(...) before it feeds serialized "
            "or accumulated output",
        )


@register
class MutableDefault(Rule):
    """BUG001: mutable default argument values shared across calls."""

    id = "BUG001"
    summary = "mutable default argument"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
    _MUTABLE_TAILS = (
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, ctx):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument is shared across calls; "
                        "default to None and create it in the body",
                    )

    def _is_mutable(self, node: ast.AST, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self._MUTABLE_CALLS:
                return True
            resolved = ctx.resolve(func)
            return any(matches_tail(resolved, tail) for tail in self._MUTABLE_TAILS)
        return False


@register
class FloatEquality(Rule):
    """ML001: ``==``/``!=`` against float literals in numeric packages.

    Exact float comparison is occasionally correct (guarding an exact
    zero produced by subtraction of equal values) but usually a latent
    bug; genuine guards get a line suppression or a baseline entry.
    """

    id = "ML001"
    severity = SEVERITY_WARNING
    summary = "float equality comparison in numeric code"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package(_FLOAT_EQ_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                for operand in operands
            ):
                yield self.finding(
                    ctx, node,
                    "float equality comparison; prefer a tolerance "
                    "(math.isclose / np.isclose) or suppress if the exact "
                    "comparison is intended",
                )


@register
class ObsConfigureWithoutReset(Rule):
    """OBS001: ``obs.configure()`` enabled but never reset.

    CLI entry points that turn on metrics/tracing must restore the
    no-op default (``obs.reset()``) so an embedding process is not left
    with a hot registry — PR 1's observability contract.
    """

    id = "OBS001"
    severity = SEVERITY_WARNING
    summary = "obs.configure() without obs.reset() in the same module"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        configure_calls = [
            call
            for call in _calls(ctx.tree)
            if matches_tail(ctx.resolve(call.func), "obs.configure")
        ]
        if not configure_calls:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and matches_tail(
                ctx.resolve(node), "obs.reset"
            ):
                return
        for call in configure_calls:
            yield self.finding(
                ctx, call,
                "obs.configure() enables observability but this module never "
                "calls obs.reset(); restore the no-op default on exit",
            )
