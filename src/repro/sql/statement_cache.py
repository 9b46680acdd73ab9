"""The per-engine statement cache: each literal-free statement shape is
parsed once and planned once; executions rebind their literals.

Plan-for-reuse (§2) reuses *parameterized* plans.  :func:`parse_sql
<repro.sql.parser.parse_sql>` fills the parse half (``shapes``,
``templates``) and stamps each SELECT/DELETE/UPDATE with
:class:`~repro.sql.ast.Params`; the engine files its optimized plans
here under ``(role, params.key)`` — the role tells a SELECT from the
WHERE candidates of a DELETE/UPDATE and from UPDATE's row projection.

A plan is compiled from a statement whose literals carry slots, so its
constants do too (:class:`~repro.mal.ast.Const` ``slot``).  Rebinding
replaces exactly those constants with the new literal vector — no
compile, optimize or normalize — and derives the kernel cache's
:class:`~repro.compile.shapes.PlanShape` from the template's.  An exact
repeat (same key, same values) gets the very program it got before.

Parameter-sensitive plans ("Query Optimization in the Wild") stay
right:

* the conjunct order ``selectivity_order`` picks from the literal
  values is recomputed for the new values, and each order has its own
  plan;
* a plan holding a ``DERIVED`` constant (folded from a literal, or
  merged with one by CSE) is kept only for the literal values it was
  built from.

Every map is a bounded LRU.  ``Database._schema_changed`` clears the
whole cache together with the compiled-kernel epoch.
"""

import dataclasses
from collections import OrderedDict

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
    """An optimized program whose slotted constants take each
    execution's literal values."""

    def __init__(self, program, names, sites):
        self.program = program
        self.names = names
        self.sites = sites      # [(instruction index, ((arg, slot), ...))]
        self._params = None     # [(PlanShape param index, slot)]

    def bind(self, values):
        template = self.program
        if not self.sites:
            return template, self.names
        instructions = list(template.instructions)
        for index, slots in self.sites:
            instr = instructions[index]
            args = list(instr.args)
            for position, slot in slots:
                args[position] = Const(values[slot], slot)
            instructions[index] = MALInstruction(instr.results, instr.op,
                                                 args, instr.recycle)
        program = MALProgram(instructions, template.returns, template.name)
        shape = getattr(template, "_compile_shape", None)
        if shape is not None:
            # The plan compiler normalized the template: reuse its shape
            # with these values instead of normalizing again.
            program._compile_shape = self._shape(shape, values)
            names = getattr(template, "_compile_var_names", None)
            if names is not None:
                program._compile_var_names = names
        return program, self.names

    def _shape(self, shape, values):
        if self._params is None:
            from repro.compile.shapes import param_slots
            index = param_slots(self.program)
            self._params = [(index[(i, position)], slot)
                            for i, slots in self.sites
                            for position, slot in slots]
        params = list(shape.params)
        for param, slot in self._params:
            params[param] = values[slot]
        return dataclasses.replace(shape, params=tuple(params))


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
        self.templates = _LRU()  # (shape, their values) -> binder
        self._entries = _LRU()   # (role, key) -> _Entry
        self._bound = _LRU()     # (role, key, values) -> plan

    def __len__(self):
        """Plans cached (each exact literal vector's program counts)."""
        return len(self._bound)

    def clear(self):
        for part in (self.shapes, self.templates, self._entries,
                     self._bound):
            part.clear()

    def plan(self, role, params, catalog):
        """``(program, output names)`` cached for a statement, or None.

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
        """File a freshly optimized plan.  ``orders`` is what the
        compiler reported of its conjunct ordering decisions."""
        self._bound.put((role, params.key, params.values), (program, names))
        sites = _slot_sites(program)
        if sites is None:
            return
        key = (role, params.key)
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(orders)
            self._entries.put(key, entry)
        entry.plans[tuple(order for _, order in orders)] = \
            _Plan(program, names, sites)
