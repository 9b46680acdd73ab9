"""Plan-compiler driver: kernel store, codegen faults, mixed execution.

:class:`PlanCompiler` is the engine-facing entry point.  Each MAL
program comes with its :class:`~repro.compile.shapes.PlanShape` — the
statement cache files one with every plan it keeps — or is normalized
here.  The shape key looks up the kernel store; a miss generates fused
kernels (under the ``compile.codegen`` fault site and tracer span).
The plan then runs as an alternation of generated fragments and
interpreted instruction runs, fed the shape's parameter vector.  A hit
reads no catalog state: codegen's only catalog input is each bound
column's type, which changes only with the schema, and a schema change
empties the store.  Any failure — unsupported shape, injected codegen
fault, or an unexpected runtime error inside a kernel — returns
``None`` so the caller transparently falls back to the plain
interpreter; compiled execution is an optimization, never a
correctness dependency.
"""

import weakref

import numpy as np

from repro.compile import runtime as rt
from repro.compile.codegen import (FragmentSpec, InterpSegment,
                                   MIN_FRAGMENT_OPS, compile_program)
from repro.compile.shapes import normalize
from repro.core.atoms import OID, STR
from repro.core.bat import BAT
from repro.faults.injector import CrashError, TransientFault
from repro.governance.context import CHECK_FRAGMENT
from repro.governance.errors import GovernanceError
from repro.observability import NO_TRACE


class _Fallback(Exception):
    """Internal: abandon compiled execution, rerun interpreted."""


#: The kernel store's verdict on a shape codegen refused or failed on:
#: the interpreter owns it until the next schema change.
REJECTED = "rejected"


class PlanCompiler:
    """Compiles and runs MAL plans against one Database's catalog.

    ``kernels`` is the store: a bounded map from a shape key to its
    :class:`~repro.compile.codegen.CompiledPlan` or :data:`REJECTED`.
    The database owns it and empties it at every schema change; the
    compiler holds the database weakly, so a dropped database is freed
    without the cycle collector."""

    def __init__(self, database, kernels, min_fragment_ops=MIN_FRAGMENT_OPS):
        self.database = weakref.proxy(database)
        self.kernels = kernels
        self.min_fragment_ops = min_fragment_ops
        self.stats = {
            "compiled_runs": 0,
            "interpreted_fallbacks": 0,
            "codegen_faults": 0,
            "unsupported_plans": 0,
            "fragments_run": 0,
            "fused_instructions": 0,
            "kernel_cache_hits": 0,
            "kernel_cache_misses": 0,
        }

    def compile(self, program, shape=None, tracer=None):
        """``(plan, shape)``: a cached or fresh :class:`CompiledPlan`
        (None: use the interpreter) and the program's identity.

        ``shape`` is the program's :class:`~repro.compile.shapes.PlanShape`
        when its planner already knows it; else the program is
        normalized here.  A plan is None when the shape is rejected, or
        when an injected codegen fault fired (not remembered: the next
        query retries compilation).
        """
        if shape is None:
            shape = normalize(program)
        plan = self.kernels.get(shape.key)
        if plan is REJECTED:
            self.stats["unsupported_plans"] += 1
            return None, shape
        if plan is not None:
            self.stats["kernel_cache_hits"] += 1
            return plan, shape
        self.stats["kernel_cache_misses"] += 1
        tracer = tracer if tracer is not None else NO_TRACE
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
        except Exception:
            # CompileUnsupported, or a codegen bug on an exotic shape:
            # never trust it, never retry it until the schema changes.
            self.kernels.put(shape.key, REJECTED)
            self.stats["unsupported_plans"] += 1
            return None, shape
        self.kernels.put(shape.key, plan)
        return plan, shape

    # -- execution -----------------------------------------------------------

    def try_run(self, program, view, interpreter, shape=None, tracer=None,
                hierarchy=None):
        """Run ``program`` compiled against ``view``.

        Returns ``{return var: value}`` like ``Interpreter.run``, or
        ``None`` when the caller should run the interpreter instead.
        ``view`` is the catalog the query reads (base catalog or a
        transaction snapshot); ``interpreter`` executes the
        non-compiled segments with its usual recycler/tracing;
        ``shape`` is as for :meth:`compile`.
        """
        plan, shape = self.compile(program, shape, tracer=tracer)
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

    def _run_plan(self, plan, shape, program, view, interpreter, tracer,
                  hierarchy):
        tracer = tracer if tracer is not None else NO_TRACE
        ctx = rt.FragmentContext(view, hierarchy)
        P = shape.params
        names = shape.names
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
        merged["kernel_cache_entries"] = sum(
            1 for plan in self.kernels.values() if plan is not REJECTED)
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
