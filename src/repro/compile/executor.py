"""Plan-compiler driver: cache, codegen faults, and mixed execution.

:class:`PlanCompiler` is the engine-facing entry point.  For each MAL
program it normalizes the plan shape (cache key + parameter vector),
consults the :class:`~repro.compile.cache.KernelCache`, generates fused
kernels on a miss (under the ``compile.codegen`` fault site and tracer
span), then executes the plan as an alternation of generated fragments
and interpreted instruction runs.  Any failure — unsupported shape,
injected codegen fault, or an unexpected runtime error inside a kernel
— returns ``None`` so the caller transparently falls back to the plain
interpreter; compiled execution is an optimization, never a
correctness dependency.
"""

import numpy as np

from repro.compile import runtime as rt
from repro.compile.cache import KernelCache
from repro.compile.codegen import (CompileUnsupported, FragmentSpec,
                                   InterpSegment, MIN_FRAGMENT_OPS,
                                   compile_program)
from repro.compile.shapes import normalize
from repro.core.atoms import OID, STR
from repro.core.bat import BAT
from repro.faults.injector import CrashError, TransientFault
from repro.governance.context import CHECK_FRAGMENT
from repro.governance.errors import GovernanceError
from repro.observability import NO_TRACE


class _Fallback(Exception):
    """Internal: abandon compiled execution, rerun interpreted."""


class PlanCompiler:
    """Compiles and runs MAL plans against one Database's catalog."""

    def __init__(self, database, min_fragment_ops=MIN_FRAGMENT_OPS):
        self.database = database
        self.min_fragment_ops = min_fragment_ops
        self.cache = KernelCache()
        self._rejected = set()      # shape keys known not to compile
        self.stats = {
            "compiled_runs": 0,
            "interpreted_fallbacks": 0,
            "codegen_faults": 0,
            "unsupported_plans": 0,
            "fragments_run": 0,
            "fused_instructions": 0,
        }

    def bump_schema(self):
        """Schema changed: orphan every kernel *and* forget negative
        verdicts — a recreated table can turn an unsupported shape
        (string arithmetic, say) into a compilable one."""
        self.cache.bump_schema()
        self._rejected.clear()

    # -- cache identity ------------------------------------------------------

    def _layout_token(self, shape):
        """Cracker-presence fingerprint of the columns this shape reads.

        A kernel compiled while a column was uncracked calls the plain
        scan path; once a cracker index exists (or disappears after a
        vacuum), the plan the SQL optimizer emits changes shape anyway —
        but the *same* shape can also flip between layouts across
        tables, so the token forces respecialization rather than trust.
        """
        token = []
        for table, column in shape.cracked + shape.binds:
            try:
                cracked = column in self.database.catalog.get(
                    table)._crackers
            except Exception:
                cracked = None
            token.append((table, column, cracked))
        return tuple(token)

    # -- compilation ---------------------------------------------------------

    def _shape_of(self, program):
        shape = getattr(program, "_compile_shape", None)
        if shape is None:
            shape = normalize(program)
            program._compile_shape = shape
        return shape

    def compile(self, program, tracer=None):
        """Return a cached or fresh :class:`CompiledPlan`, or ``None``.

        ``None`` means "use the interpreter": either the shape is
        unsupported (negative-cached) or an injected codegen fault fired
        (not negative-cached — the next query retries compilation).
        """
        tracer = tracer if tracer is not None else NO_TRACE
        shape = self._shape_of(program)
        if shape.key in self._rejected:
            self.stats["unsupported_plans"] += 1
            return None, shape
        token = self._layout_token(shape)
        plan = self.cache.lookup(shape.key, token)
        if plan is not None:
            return plan, shape
        try:
            with tracer.span("compile.codegen", kind="compile") as span:
                self.database.faults.inject("compile.codegen")
                plan = compile_program(
                    program, self.database.catalog,
                    min_fragment_ops=self.min_fragment_ops)
                if span is not None:
                    span.add("fragments", sum(
                        1 for s in plan.segments
                        if isinstance(s, FragmentSpec)))
                    span.add("fused_instructions", plan.n_fused)
        except (CrashError, TransientFault):
            # Injected fault: fall back now, retry compiling next time.
            self.stats["codegen_faults"] += 1
            return None, shape
        except CompileUnsupported:
            self._rejected.add(shape.key)
            self.stats["unsupported_plans"] += 1
            return None, shape
        except Exception:
            # Codegen bug on an exotic shape: never trust it, never
            # retry it — the interpreter owns this plan from now on.
            self._rejected.add(shape.key)
            self.stats["unsupported_plans"] += 1
            return None, shape
        self.cache.store(shape.key, token, plan)
        return plan, shape

    # -- execution -----------------------------------------------------------

    def try_run(self, program, view, interpreter, tracer=None,
                hierarchy=None):
        """Run ``program`` compiled against ``view``.

        Returns ``{return var: value}`` like ``Interpreter.run``, or
        ``None`` when the caller should run the interpreter instead.
        ``view`` is the catalog the query reads (base catalog or a
        transaction snapshot); ``interpreter`` executes the
        non-compiled segments with its usual recycler/tracing.
        """
        plan, shape = self.compile(program, tracer=tracer)
        if plan is None:
            return None
        try:
            env = self._run_plan(plan, shape, program, view, interpreter,
                                 tracer, hierarchy)
        except _Fallback:
            self.stats["interpreted_fallbacks"] += 1
            return None
        except GovernanceError:
            # A deadline/cancel/budget kill is the statement's verdict,
            # not a kernel defect: falling back here would resurrect a
            # query its context already killed.
            raise
        except Exception:
            # A kernel raised where the interpreter would not have (or
            # would have raised identically — rerunning reproduces it).
            self.stats["interpreted_fallbacks"] += 1
            return None
        self.stats["compiled_runs"] += 1
        return {name: env[name] for name in program.returns}

    @staticmethod
    def _var_names(program):
        """Dense shape id -> this program's variable name.

        A cached plan identifies variables by dense id so it can serve
        every same-shape program; the mapping back to *this* program's
        names is memoized alongside the shape.
        """
        names = getattr(program, "_compile_var_names", None)
        if names is None:
            ids = {}
            for instr in program.instructions:
                for name in instr.results:
                    if name not in ids:
                        ids[name] = len(ids)
            names = [None] * len(ids)
            for name, dense in ids.items():
                names[dense] = name
            program._compile_var_names = names
        return names

    def _run_plan(self, plan, shape, program, view, interpreter, tracer,
                  hierarchy):
        tracer = tracer if tracer is not None else NO_TRACE
        ctx = rt.FragmentContext(view, hierarchy)
        P = shape.params
        names = self._var_names(program)
        env = {}
        gov = interpreter.governance
        for segment in plan.segments:
            if isinstance(segment, InterpSegment):
                # Always this program's instructions: a cached plan must
                # not leak the compiling program's literal constants.
                for instr in program.instructions[segment.lo:segment.hi]:
                    interpreter._execute(instr, env)
                continue
            if gov.active:
                # A fused fragment is one cancellation region: the
                # checkpoint fires before it runs, never mid-kernel.
                gov.checkpoint(CHECK_FRAGMENT)
            with tracer.span("compile.exec", kind="fragment",
                             fragment=segment.name) as span:
                args = [ctx, P]
                for dense, vt in segment.live_in:
                    args.extend(_pack_live_in(env[names[dense]], vt))
                # Zero divisors warn nowhere, as in algebra.calc.
                with np.errstate(divide="ignore", invalid="ignore"):
                    results = plan.functions[segment.name](*args)
                tuples = _unpack_live_out(segment.live_out, results,
                                          names, env)
                live_out = [env[names[dense]]
                            for dense, _ in segment.live_out]
                ctx.charge_outputs(live_out)
                if gov.active:
                    nbytes = sum(v.tail_nbytes for v in live_out
                                 if isinstance(v, BAT))
                    if nbytes:
                        gov.charge(nbytes, CHECK_FRAGMENT)
                if span is not None:
                    span.add("fused_instructions", segment.n_ops)
                    span.add("tuples_out", tuples)
            self.stats["fragments_run"] += 1
            self.stats["fused_instructions"] += segment.n_ops
        return env

    def counters(self):
        merged = dict(self.stats)
        merged.update(self.cache.counters())
        return merged


def _pack_live_in(value, vt):
    """Engine value -> generated-function arguments.

    Raw-array kinds require a dense void-headed BAT at hseqbase 0 —
    everything the engine's bind/tid paths produce.  Anything else
    (a sliced view from an interpreted segment, say) aborts compiled
    execution rather than mis-indexing.
    """
    if vt.kind == "batref":
        if not isinstance(value, BAT):
            raise _Fallback("expected BAT live-in")
        return (value,)
    if vt.kind == "scalar":
        if isinstance(value, BAT):
            raise _Fallback("expected scalar live-in")
        return (value,)
    if isinstance(value, BAT):
        if value.hseqbase:
            raise _Fallback("non-dense live-in")
        if vt.kind == "str":
            return (value.tail, value.heap)
        return (value.tail,)
    if vt.kind == "str":
        raise _Fallback("string live-in without heap")
    return (value,)


def _unpack_live_out(live_out, results, names, env):
    """Generated-function returns -> wrapped engine values in ``env``."""
    tuples = 0
    i = 0
    for dense, vt in live_out:
        name = names[dense]
        if vt.kind == "batref":
            env[name] = results[i]
            i += 1
        elif vt.kind == "str":
            env[name] = rt.wrap_output("str", STR, results[i],
                                       heap=results[i + 1])
            i += 2
        elif vt.kind == "scalar":
            env[name] = results[i]
            i += 1
        else:
            atom = vt.atom if vt.atom is not None else OID
            env[name] = rt.wrap_output(vt.kind, atom, results[i])
            i += 1
        if isinstance(env[name], BAT):
            tuples += len(env[name])
    return tuples
