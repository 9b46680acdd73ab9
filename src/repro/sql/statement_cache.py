"""The per-engine statement cache: each literal-free statement shape is
parsed once and planned once; executions rebind their literals.

Plan-for-reuse (§2) reuses *parameterized* plans.  :func:`parse_sql
<repro.sql.parser.parse_sql>` fills the parse half (``shapes``,
``templates``) and stamps each SELECT/DELETE/UPDATE with
:class:`~repro.sql.ast.Params`; the engine files its optimized plans
here under ``(role, params.key)`` — the role tells a SELECT from the
WHERE candidates of a DELETE/UPDATE and from UPDATE's row projection.

A plan is compiled from a statement whose literals carry slots, so its
constants do too (:class:`~repro.mal.ast.Const` ``slot``).  Each plan
is filed with its kernel identity, a
:class:`~repro.compile.shapes.PlanShape` (shape key, parameter vector,
dense variable names) normalized once, plus the map from literal slots
to the parameter vector.  Rebinding replaces exactly the slotted
constants and parameters with the new literal vector — no compile,
optimize or normalize.  An exact repeat (same key, same values) gets
the very program and shape it got before.

Parameter-sensitive plans ("Query Optimization in the Wild") stay
right:

* the conjunct order ``selectivity_order`` picks from the literal
  values is recomputed for the new values, and each order has its own
  plan;
* a plan holding a ``DERIVED`` constant (folded from a literal, or
  merged with one by CSE) is kept only for the literal values it was
  built from.

The engine's compiled kernels live here too (``kernels``: shape key ->
kernel or rejected verdict, filled by
:class:`~repro.compile.PlanCompiler`).  Every map is a bounded LRU;
``Database._schema_changed`` clears them all.
"""

import dataclasses
from collections import OrderedDict

from repro.compile.shapes import normalize, param_slots
from repro.mal.ast import DERIVED, Const, MALInstruction, MALProgram
from repro.sql.compiler import selectivity_order

#: Entries each of the cache's maps keeps.
CAPACITY = 256


class _LRU(OrderedDict):
    """A bounded map that forgets its least recently used key."""

    def get(self, key):
        value = OrderedDict.get(self, key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key, value):
        self[key] = value
        self.move_to_end(key)
        if len(self) > CAPACITY:
            self.popitem(last=False)


class _Plan:
    """An optimized program and its shape, whose slotted constants and
    parameters take each execution's literal values."""

    def __init__(self, program, names, sites):
        self.program = program
        self.names = names
        self.sites = sites      # [(instruction index, ((arg, slot), ...))]
        self.shape = normalize(program)
        index = param_slots(program)
        self.params = [(index[(i, position)], slot)  # (param, slot)
                       for i, slots in sites for position, slot in slots]

    def bind(self, values):
        """``(program, names, shape)`` for one literal vector."""
        template = self.program
        if not self.sites:
            return template, self.names, self.shape
        instructions = list(template.instructions)
        for index, slots in self.sites:
            instr = instructions[index]
            args = list(instr.args)
            for position, slot in slots:
                args[position] = Const(values[slot], slot)
            instructions[index] = MALInstruction(instr.results, instr.op,
                                                 args, instr.recycle)
        params = list(self.shape.params)
        for param, slot in self.params:
            params[param] = values[slot]
        return (MALProgram(instructions, template.returns, template.name),
                self.names,
                dataclasses.replace(self.shape, params=tuple(params)))


class _Entry:
    """The plans of one ``(role, key)``, one per conjunct order."""

    def __init__(self, orders):
        # Each ordering decision's inputs: (table, column, op, slot,
        # value) per sargable conjunct, the slot's value winning.
        self.inputs = [conjuncts for conjuncts, _ in orders]
        self.plans = {}

    def decide(self, catalog, values):
        return tuple(
            selectivity_order(catalog, [
                (table, column, op, value if slot is None else values[slot])
                for table, column, op, slot, value in conjuncts])
            for conjuncts in self.inputs)


def _slot_sites(program):
    """Where ``program``'s slotted constants sit, or None when one is
    ``DERIVED`` (the plan then holds for its own literal values only)."""
    sites = []
    for index, instr in enumerate(program.instructions):
        slots = tuple((position, arg.slot)
                      for position, arg in enumerate(instr.args)
                      if isinstance(arg, Const) and arg.slot is not None)
        if slots:
            if any(slot == DERIVED for _, slot in slots):
                return None
            sites.append((index, slots))
    return sites


class StatementCache:
    """Parsed shapes and optimized plans of one engine."""

    def __init__(self):
        self.shapes = _LRU()     # shape -> structural slots
        self.templates = _LRU()  # (shape, their values) -> binder,
        #                          and INSERT shape -> (table, columns)
        self._entries = _LRU()   # (role, key) -> _Entry
        self._bound = _LRU()     # (role, key, values) -> plan
        self.kernels = _LRU()    # shape key -> compiled kernel or verdict

    def __len__(self):
        """Plans cached (each exact literal vector's program counts)."""
        return len(self._bound)

    def clear(self):
        for part in (self.shapes, self.templates, self._entries,
                     self._bound, self.kernels):
            part.clear()

    def plan(self, role, params, catalog):
        """``(program, output names, shape)`` cached for a statement, or
        None.

        ``catalog`` answers the selectivity samples when the plan's
        conjunct order depends on the literal values.
        """
        exact = (role, params.key, params.values)
        found = self._bound.get(exact)
        if found is None:
            entry = self._entries.get((role, params.key))
            plan = None
            if entry is not None:
                plan = entry.plans.get(entry.decide(catalog, params.values))
            if plan is None:
                return None
            found = plan.bind(params.values)
            self._bound.put(exact, found)
        return found

    def store(self, role, params, program, names, orders):
        """File a freshly optimized plan; returns it as :meth:`plan`
        does.  ``orders`` is what the compiler reported of its conjunct
        ordering decisions."""
        sites = _slot_sites(program)
        if sites is None:
            found = (program, names, normalize(program))
        else:
            plan = _Plan(program, names, sites)
            found = (program, names, plan.shape)
            key = (role, params.key)
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(orders)
                self._entries.put(key, entry)
            entry.plans[tuple(order for _, order in orders)] = plan
        self._bound.put((role, params.key, params.values), found)
        return found
