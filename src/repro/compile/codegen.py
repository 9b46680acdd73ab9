"""MAL-fragment codegen: fused kernels as generated Python functions.

The compiler walks an optimized MAL program, statically types every
variable (possible because the SQL front-end emits a closed op
vocabulary over catalog columns whose atoms are known), and partitions
the program into *fragments*: maximal runs of fusible instructions.
Each fragment becomes one generated Python function over raw numpy
arrays — the whole scan→filter→project→aggregate pipeline runs in a
single call with zero intermediate BAT materialization, the
plan-to-template idea of raco's ``clang.py`` applied to Python source
(SNIPPETS.md snippet 3).  Instructions outside any fragment stay with
the operator-at-a-time interpreter; values crossing a boundary are
(un)wrapped by the executor, so a partially-supported plan transparently
mixes both engines.

Literal constants are **never** embedded in generated source — they
arrive through the parameter vector ``P`` (see
:mod:`repro.compile.shapes`), so one kernel serves every same-shape
query.  Structural constants (catalog names, type names, bools, None)
are compile-time and appear inline.
"""

from dataclasses import dataclass, field

from repro.core.atoms import BIT, DBL, FLT, LNG, OID, STR
from repro.compile.shapes import param_slots
from repro.mal.ast import Const, Var


class CompileUnsupported(Exception):
    """The plan has no fusible fragment worth compiling."""


#: Minimum fused instructions per fragment; shorter runs stay
#: interpreted (wrap/unwrap would cost more than dispatch saves).
MIN_FRAGMENT_OPS = 3

_NP_DTYPE = {
    "bit": "np.bool_", "bte": "np.int8", "sht": "np.int16",
    "int": "np.int32", "lng": "np.int64", "oid": "np.int64",
    "flt": "np.float32", "dbl": "np.float64", "str": "np.int64",
}

_ARITH = frozenset("+-*/%")
_COMPARE = frozenset(("==", "!=", "<", "<=", ">", ">="))
_LOGIC = frozenset(("and", "or"))


@dataclass
class VT:
    """Static type of one MAL variable inside generated code.

    kind:
      ``pos``    int64 candidate/position array
      ``num``    fixed-width value array of ``atom``
      ``str``    offset array + heap
      ``scalar`` python scalar (``atom`` approximates its domain)
      ``batref`` a bound BAT object (``sql.bind`` / ``sql.joinindex``)
    ``tid_pure`` marks position arrays provably sorted-unique subsets of
    a table's positions (``sql.tid`` lineage) — they unlock the
    full-length dense fast path in the select helpers.  ``tid_of``
    names the table of a ``sql.tid`` result itself: a select over it
    is passed the table's visibility mask.
    """

    kind: str
    atom: object = None
    tid_pure: bool = False
    tid_of: str = None


@dataclass
class FragmentSpec:
    """Metadata the executor needs to call one generated function.

    Variables are identified by their *dense shape id* (first-definition
    order), never by name: a cached plan serves every same-shape
    program, whose variable names differ — the executor maps ids back
    to the calling program's names at run time.
    """

    name: str
    live_in: list       # [(dense var id, VT)]
    live_out: list      # [(dense var id, VT)]
    n_ops: int = 0


@dataclass
class InterpSegment:
    """Instruction index range [lo, hi) left to the interpreter.

    Only the range is cached; the instructions executed are always the
    *calling* program's — a same-shape cache hit must run with its own
    literal constants, not the compiling program's.
    """

    lo: int
    hi: int


@dataclass
class CompiledPlan:
    """One compiled program: alternating fragments and interpreter runs."""

    segments: list = field(default_factory=list)
    source: str = ""
    functions: dict = field(default_factory=dict)
    n_fused: int = 0
    n_interpreted: int = 0


def _var_ids(program):
    ids = {}
    for instr in program.instructions:
        for name in instr.results:
            if name not in ids:
                ids[name] = len(ids)
    return ids


def _const_vt(value):
    if isinstance(value, bool):
        return VT("scalar", BIT)
    if isinstance(value, int):
        return VT("scalar", LNG)
    if isinstance(value, float):
        return VT("scalar", DBL)
    if isinstance(value, str):
        return VT("scalar", STR)
    return VT("scalar", None)


def _is_float(vt):
    return vt is not None and vt.atom in (DBL, FLT)


def _values_of(vt):
    """Kinds usable as a raw value array."""
    return vt is not None and vt.kind in ("pos", "num", "str", "batref")


# ---------------------------------------------------------------------------
# static typing + fusibility
# ---------------------------------------------------------------------------

def _infer(instr, argvts, consts, schema):
    """(result VTs, fusible) for one instruction.

    ``argvts`` has a VT per argument (consts typed via
    :func:`_const_vt`); ``consts`` has the argument's literal value
    where constant, a sentinel otherwise.  ``schema`` resolves
    ``table.atom(column)`` for bind typing.
    """
    op = instr.op

    def arr_ok(vt):
        return _values_of(vt)

    if op == "sql.tid":
        return [VT("pos", OID, tid_pure=True, tid_of=consts[0])], True
    if op == "sql.bind":
        table, column = consts[0], consts[1]
        try:
            atom = schema.get(table).atom(column)
        except Exception:
            return [None], False
        return [VT("batref", atom)], True
    if op == "sql.count":
        return [VT("scalar", LNG)], True
    if op == "sql.crackedselect":
        return [VT("pos", OID, tid_pure=True)], True
    if op == "sql.joinindex":
        return [VT("batref", OID)], True
    if op == "language.pass":
        vt = argvts[0]
        return [vt], vt is not None
    if op == "algebra.select":
        col, cand = argvts[0], argvts[2]
        ok = col is not None and col.kind == "batref" and arr_ok(cand)
        return [VT("pos", OID,
                   tid_pure=cand.tid_pure if cand else False)], ok
    if op == "algebra.selectrange":
        col, cand = argvts[0], argvts[5]
        ok = col is not None and col.kind == "batref" and arr_ok(cand)
        return [VT("pos", OID,
                   tid_pure=cand.tid_pure if cand else False)], ok
    if op == "algebra.selectmask":
        return [VT("pos", OID)], arr_ok(argvts[0]) and arr_ok(argvts[1])
    if op in ("algebra.leftfetchjoin", "algebra.project"):
        cand, src = argvts[0], argvts[1]
        if not (arr_ok(cand) and src is not None
                and src.kind in ("num", "pos", "str", "batref")):
            return [None], False
        if src.atom is STR:
            return [VT("str", STR)], True
        if src.kind == "batref":
            return [VT("num", src.atom)], True
        return [VT(src.kind, src.atom)], True
    if op == "sql.constcolumn":
        from repro.core.atoms import atom_by_name
        atom = atom_by_name(consts[2])
        kind = "str" if atom.varsized else "num"
        return [VT(kind, atom)], arr_ok(argvts[0])
    if op == "candidates.filter":
        cand = argvts[0]
        ok = arr_ok(cand) and arr_ok(argvts[1])
        return [VT("pos", OID,
                   tid_pure=cand.tid_pure if cand else False)], ok
    if op == "candidates.compose":
        return [VT("pos", OID)], arr_ok(argvts[0]) and arr_ok(argvts[1])
    if op == "candidates.sort":
        return [VT("pos", OID)], arr_ok(argvts[0])
    if op == "algebra.unique":
        vt = argvts[0]
        return [VT("pos", OID)], arr_ok(vt) and vt.kind != "batref"
    if op == "group.group":
        ok = all(arr_ok(vt) and vt.kind != "batref" for vt in argvts)
        return [VT("pos", OID), VT("pos", OID), VT("num", LNG)], ok
    if op == "bat.count":
        return [VT("scalar", LNG)], arr_ok(argvts[0]) and \
            argvts[0].kind != "batref"
    if op == "bat.slice":
        vt = argvts[0]
        if not _values_of(vt) or vt.kind == "batref":
            return [None], False
        return [VT(vt.kind, vt.atom)], True
    if op.startswith("batcalc."):
        return _infer_batcalc(op[len("batcalc."):], argvts)
    if op.startswith("calc."):
        return _infer_calc(op[len("calc."):], argvts)
    if op.startswith("aggr.grouped_"):
        return _infer_grouped(op[len("aggr.grouped_"):], argvts)
    if op.startswith("aggr."):
        return _infer_aggr(op[len("aggr."):], argvts)
    return _infer_interpreted(op, argvts)


def _infer_batcalc(op, argvts):
    if op == "not":
        vt = argvts[0]
        return [VT("num", BIT)], _values_of(vt) and vt.atom is not STR
    if op == "isnil":
        vt = argvts[0]
        return [VT("num", BIT)], _values_of(vt) and vt.kind != "batref"
    if op not in _ARITH and op not in _COMPARE and op not in _LOGIC:
        return [None], False
    left, right = argvts[0], argvts[1]
    if left is None or right is None:
        return [None], False
    for vt in (left, right):
        if vt.kind == "scalar" and vt.atom is None:
            return [None], False
    if op in _COMPARE or op in _LOGIC:
        return [VT("num", BIT)], True
    # Arithmetic: numpy promotes to float64 exactly when the operator
    # is a true division or either side is float (calc() then wraps DBL
    # rather than LNG).
    if (left.atom is STR and left.kind != "scalar") or \
            (right.atom is STR and right.kind != "scalar"):
        return [None], False  # string arithmetic: not a fusible shape
    atom = DBL if op == "/" or _is_float(left) or _is_float(right) else LNG
    return [VT("num", atom)], True


def _infer_calc(op, argvts):
    if any(vt is None for vt in argvts):
        return [None], False
    if op in ("not", "isnil") or op in _COMPARE or op in _LOGIC:
        return [VT("scalar", BIT)], True
    if op in _ARITH:
        left, right = argvts[0], argvts[1]
        if left.atom is None or right.atom is None:
            return [VT("scalar", None)], True
        atom = DBL if op == "/" or _is_float(left) or _is_float(right) \
            else LNG
        return [VT("scalar", atom)], True
    return [None], False


def _infer_aggr(name, argvts):
    vt = argvts[0]
    if not _values_of(vt):
        return [None], False
    if name == "count":
        return [VT("scalar", LNG)], True
    if name == "avg":
        return [VT("scalar", DBL)], True
    if name in ("sum", "min", "max"):
        if name == "sum":
            atom = DBL if _is_float(vt) else LNG
        else:
            atom = vt.atom
        return [VT("scalar", atom)], True
    return [None], False


def _infer_grouped(name, argvts):
    vt = argvts[0]
    if name == "count":
        ok = _values_of(vt) and _values_of(argvts[1]) and \
            argvts[2] is not None
        return [VT("num", LNG)], ok
    if not _values_of(vt) or vt.atom is STR:
        return [None], False
    ok = _values_of(argvts[1]) and argvts[2] is not None
    if name == "sum":
        return [VT("num", DBL if _is_float(vt) else LNG)], ok
    if name == "avg":
        return [VT("num", DBL)], ok
    if name in ("min", "max"):
        atom = DBL if _is_float(vt) else vt.atom
        return [VT("num", atom)], ok
    return [None], False


def _infer_interpreted(op, argvts):
    """Types for ops that always stay with the interpreter, so that
    downstream instructions can still fuse."""
    if op == "algebra.join":
        return [VT("pos", OID), VT("pos", OID)], False
    if op in ("algebra.semijoin", "algebra.antijoin",
              "algebra.sortmulti", "algebra.order",
              "candidates.intersect", "candidates.union",
              "candidates.diff"):
        return [VT("pos", OID)], False
    if op == "algebra.sort":
        vt = argvts[0]
        out = VT(vt.kind, vt.atom) if vt is not None else None
        return [out, VT("pos", OID)], False
    if op == "batcalc.ifthenelse":
        vt = argvts[1] if argvts[1] is not None else argvts[2]
        out = VT(vt.kind, vt.atom) if vt is not None and \
            _values_of(vt) else None
        return [out], False
    n = 1
    return [None] * n, False


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class _Emitter:
    """Emits the body of one fragment function."""

    def __init__(self, var_ids, slots, types):
        self.var_ids = var_ids
        self.slots = slots
        self.types = types
        self.lines = []

    def vname(self, var):
        return "v{0}".format(self.var_ids[var])

    def hname(self, var):
        return "h{0}".format(self.var_ids[var])

    def bname(self, var):
        return "b{0}".format(self.var_ids[var])

    def ln(self, text, *args):
        self.lines.append("    " + text.format(*args))

    # -- operand rendering --------------------------------------------------

    def const_expr(self, instr_index, position, value):
        slot = self.slots.get((instr_index, position))
        if slot is None:
            return repr(value)
        return "P[{0}]".format(slot)

    def value_expr(self, instr_index, position, arg):
        """The raw value of an argument (offsets for strings)."""
        if isinstance(arg, Const):
            return self.const_expr(instr_index, position, arg.value)
        vt = self.types[arg.name]
        if vt.kind == "batref":
            return "{0}.tail".format(self.bname(arg.name))
        return self.vname(arg.name)

    def calc_expr(self, instr_index, position, arg):
        """An argument as batcalc sees it (strings decoded, mirroring
        ``algebra._operand_array``)."""
        if isinstance(arg, Const):
            return self.const_expr(instr_index, position, arg.value)
        vt = self.types[arg.name]
        if vt.kind == "batref":
            if vt.atom is STR:
                return "rt.decode({0}.tail, {0}.heap)".format(
                    self.bname(arg.name))
            return "{0}.tail".format(self.bname(arg.name))
        if vt.kind == "str":
            return "rt.decode({0}, {1})".format(
                self.vname(arg.name), self.hname(arg.name))
        return self.vname(arg.name)

    def heap_expr(self, arg):
        vt = self.types[arg.name]
        if vt.kind == "batref":
            return "{0}.heap".format(self.bname(arg.name))
        return self.hname(arg.name)

    def dense_args(self, cand_arg):
        """A select helper's dense-path arguments for its candidate."""
        cand = self.types[cand_arg.name]
        out = ", dense_ok={0}".format(cand.tid_pure)
        if cand.tid_of is not None:
            out += ", visible=ctx.visible({0!r})".format(cand.tid_of)
        return out

    # -- instruction emission -----------------------------------------------

    def emit(self, index, instr):
        op = instr.op
        out = instr.results[0]
        a = instr.args
        if op == "sql.tid":
            self.ln("{0} = ctx.tid({1})", self.vname(out),
                    repr(a[0].value))
        elif op == "sql.bind":
            self.ln("{0} = ctx.bind({1}, {2})", self.bname(out),
                    repr(a[0].value), repr(a[1].value))
        elif op == "sql.count":
            self.ln("{0} = ctx.count({1})", self.vname(out),
                    repr(a[0].value))
        elif op == "sql.crackedselect":
            self.ln("{0} = ctx.cracked_select({1}, {2}, {3}, {4}, "
                    "{5}, {6})", self.vname(out),
                    repr(a[0].value), repr(a[1].value),
                    self.value_expr(index, 2, a[2]),
                    self.value_expr(index, 3, a[3]),
                    repr(a[4].value), repr(a[5].value))
        elif op == "sql.joinindex":
            self.ln("{0} = ctx.join_index({1}, {2}, {3}, {4})",
                    self.bname(out), repr(a[0].value), repr(a[1].value),
                    repr(a[2].value), repr(a[3].value))
        elif op == "language.pass":
            self._emit_alias(index, instr)
        elif op == "algebra.select":
            self.ln("{0} = rt.select_eq({1}, {2}, {3}{4})",
                    self.vname(out), self.bname(a[0].name),
                    self.value_expr(index, 1, a[1]),
                    self.vname(a[2].name), self.dense_args(a[2]))
        elif op == "algebra.selectrange":
            self.ln("{0} = rt.select_range({1}, {2}, {3}, {4}, {5}, "
                    "{6}{7})",
                    self.vname(out), self.bname(a[0].name),
                    self.value_expr(index, 1, a[1]),
                    self.value_expr(index, 2, a[2]),
                    repr(a[3].value), repr(a[4].value),
                    self.vname(a[5].name), self.dense_args(a[5]))
        elif op == "algebra.selectmask":
            src = self.types[a[0].name]
            expr = "np.flatnonzero(np.asarray({0}, dtype=bool))".format(
                self.value_expr(index, 1, a[1]))
            if src.kind == "batref":
                expr = "rt.oids({0}, {1})".format(self.bname(a[0].name),
                                                  expr)
            self.ln("{0} = {1}", self.vname(out), expr)
        elif op in ("algebra.leftfetchjoin", "algebra.project"):
            self._emit_project(index, instr)
        elif op == "sql.constcolumn":
            self._emit_constcolumn(index, instr)
        elif op == "candidates.filter":
            self.ln("{0} = {1}[np.asarray({2}, dtype=bool)]",
                    self.vname(out), self.vname(a[0].name),
                    self.value_expr(index, 1, a[1]))
        elif op == "candidates.compose":
            self.ln("{0} = {1}[{2}]", self.vname(out),
                    self.vname(a[0].name), self.value_expr(index, 1, a[1]))
        elif op == "candidates.sort":
            self.ln("{0} = np.sort({1})", self.vname(out),
                    self.vname(a[0].name))
        elif op == "algebra.unique":
            self.ln("{0} = rt.unique_positions({1})", self.vname(out),
                    self.value_expr(index, 0, a[0]))
        elif op == "group.group":
            gids, extents, hist = instr.results
            call = "rt.group({0})".format(self.value_expr(index, 0, a[0])) \
                if len(a) == 1 else "rt.group({0}, {1})".format(
                    self.value_expr(index, 0, a[0]),
                    self.value_expr(index, 1, a[1]))
            self.ln("{0}, {1}, {2} = {3}", self.vname(gids),
                    self.vname(extents), self.vname(hist), call)
        elif op == "bat.count":
            self.ln("{0} = len({1})", self.vname(out),
                    self.value_expr(index, 0, a[0]))
        elif op == "bat.slice":
            self.ln("{0} = {1}[int({2}):int({3})]", self.vname(out),
                    self.vname(a[0].name),
                    self.value_expr(index, 1, a[1]),
                    self.value_expr(index, 2, a[2]))
            if self.types[out].kind == "str":
                self.ln("{0} = {1}", self.hname(out), self.heap_expr(a[0]))
        elif op.startswith("batcalc."):
            self._emit_batcalc(index, instr)
        elif op.startswith("calc."):
            self._emit_calc(index, instr)
        elif op.startswith("aggr.grouped_"):
            self._emit_grouped(index, instr)
        elif op.startswith("aggr."):
            self._emit_aggr(index, instr)
        else:  # pragma: no cover - fragmenting admits only the above
            raise CompileUnsupported(op)

    def _emit_alias(self, index, instr):
        out = instr.results[0]
        arg = instr.args[0]
        vt = self.types[out]
        if vt is not None and vt.kind == "batref":
            self.ln("{0} = {1}", self.bname(out), self.bname(arg.name))
            return
        self.ln("{0} = {1}", self.vname(out),
                self.value_expr(index, 0, arg))
        if vt is not None and vt.kind == "str" and isinstance(arg, Var):
            self.ln("{0} = {1}", self.hname(out), self.heap_expr(arg))

    def _emit_project(self, index, instr):
        out = instr.results[0]
        cand, src = instr.args
        src_vt = self.types[src.name]
        if src_vt.kind == "batref":
            self.ln("{0} = {1}.tail[rt.positions({1}, {2})]",
                    self.vname(out), self.bname(src.name),
                    self.vname(cand.name))
        else:
            self.ln("{0} = {1}[{2}]", self.vname(out),
                    self.vname(src.name), self.vname(cand.name))
        if self.types[out].kind == "str":
            self.ln("{0} = {1}", self.hname(out), self.heap_expr(src))

    def _emit_constcolumn(self, index, instr):
        out = instr.results[0]
        cand, value, _ = instr.args
        vt = self.types[out]
        n = "len({0})".format(self.vname(cand.name))
        if vt.kind == "str":
            self.ln("{0}, {1} = rt.const_str({2}, {3})", self.vname(out),
                    self.hname(out), n, self.value_expr(index, 1, value))
        else:
            self.ln("{0} = np.full({1}, {2}, dtype={3})", self.vname(out),
                    n, self.value_expr(index, 1, value),
                    _NP_DTYPE[vt.atom.name])

    def _emit_batcalc(self, index, instr):
        """``batcalc.*``: a call into the interpreter's array-level
        operator (nil propagation, string comparisons)."""
        op = instr.op[len("batcalc."):]
        out = instr.results[0]
        a = instr.args
        if op == "not":
            self.ln("{0} = rt.calc_not({1})", self.vname(out),
                    self.calc_expr(index, 0, a[0]))
        elif op == "isnil":
            self.ln("{0} = rt.calc_isnil({1}, {2})", self.vname(out),
                    self.value_expr(index, 0, a[0]),
                    self._atom_ref(self.types[a[0].name]))
        else:
            self.ln("{0} = rt.calc({1!r}, {2}, {3})", self.vname(out), op,
                    self.calc_expr(index, 0, a[0]),
                    self.calc_expr(index, 1, a[1]))

    def _emit_calc(self, index, instr):
        """Scalar ``calc.*``: a call into the shared scalar operator
        table (NULL propagation, zero divisors), as the interpreter's
        kernel makes it."""
        op = instr.op[len("calc."):]
        args = [self.value_expr(index, i, arg)
                for i, arg in enumerate(instr.args)]
        self.ln("{0} = rt.SCALAR_OPS[{1!r}]({2})",
                self.vname(instr.results[0]), op, ", ".join(args))

    def _atom_ref(self, vt):
        return "rt.ATOMS[{0!r}]".format(vt.atom.name)

    def _agg_operand(self, arg):
        vt = self.types[arg.name]
        values = "{0}.tail".format(self.bname(arg.name)) \
            if vt.kind == "batref" else self.vname(arg.name)
        if vt.atom is STR:
            return values, self._atom_ref(vt), self.heap_expr(arg)
        return values, self._atom_ref(vt), None

    def _emit_aggr(self, index, instr):
        name = instr.op[len("aggr."):]
        out = instr.results[0]
        values, atom, heap = self._agg_operand(instr.args[0])
        if heap is None:
            self.ln("{0} = rt.agg_{1}({2}, {3})", self.vname(out), name,
                    values, atom)
        else:
            self.ln("{0} = rt.agg_{1}({2}, {3}, {4})", self.vname(out),
                    name, values, atom, heap)

    def _emit_grouped(self, index, instr):
        name = instr.op[len("aggr.grouped_"):]
        out = instr.results[0]
        a = instr.args
        gids = self.value_expr(index, 1, a[1])
        ngroups = self.value_expr(index, 2, a[2])
        values = self.value_expr(index, 0, a[0])
        if name != "count":
            self.ln("{0} = rt.grouped_{1}({2}, {3}, {4})", self.vname(out),
                    name, values, gids, ngroups)
        elif a[0] == a[1]:
            # count(*) counts the group ids themselves: every row.
            self.ln("{0} = rt.grouped_count({1}, {2})", self.vname(out),
                    gids, ngroups)
        elif self.types[a[0].name].atom is STR:
            self.ln("{0} = rt.grouped_count({1}, {2}, {3}, {4})",
                    self.vname(out), gids, ngroups, values,
                    self.heap_expr(a[0]))
        else:
            self.ln("{0} = rt.grouped_count({1}, {2}, {3})",
                    self.vname(out), gids, ngroups, values)


# ---------------------------------------------------------------------------
# fragment partitioning + module assembly
# ---------------------------------------------------------------------------

def _signature_vars(emitter, var, vt):
    """Python parameter/return names carrying one MAL var across the
    fragment boundary."""
    if vt.kind == "batref":
        return [emitter.bname(var)]
    if vt.kind == "str":
        return [emitter.vname(var), emitter.hname(var)]
    return [emitter.vname(var)]


def compile_program(program, schema, min_fragment_ops=MIN_FRAGMENT_OPS):
    """Compile a MAL program into a :class:`CompiledPlan`.

    Raises :class:`CompileUnsupported` when no fragment of at least
    ``min_fragment_ops`` fusible instructions exists — the caller then
    leaves the whole plan to the interpreter.
    """
    instructions = program.instructions
    var_ids = _var_ids(program)
    slots = param_slots(program)

    # Pass 1: static types and per-instruction fusibility.
    types = {}
    fusible = []
    for instr in instructions:
        argvts = []
        consts = []
        for arg in instr.args:
            if isinstance(arg, Const):
                argvts.append(_const_vt(arg.value))
                consts.append(arg.value)
            else:
                argvts.append(types.get(arg.name))
                consts.append(_NO_CONST)
        result_vts, ok = _infer(instr, argvts, consts, schema)
        for name, vt in zip(instr.results, result_vts):
            types[name] = vt
        fusible.append(ok and all(vt is not None for vt in result_vts))

    # Pass 2: maximal fusible runs of sufficient length become fragments.
    runs = []
    start = None
    for i, ok in enumerate(fusible):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(instructions)))
    runs = [(lo, hi) for lo, hi in runs if hi - lo >= min_fragment_ops]
    if not runs:
        raise CompileUnsupported(
            "no fusible fragment of >= {0} instructions".format(
                min_fragment_ops))

    # Pass 3: liveness across fragment boundaries.
    defined_at = {}
    for i, instr in enumerate(instructions):
        for name in instr.results:
            defined_at[name] = i
    used_after = {}
    for i, instr in enumerate(instructions):
        for name in instr.arg_vars:
            used_after[name] = i
    for name in program.returns:
        used_after[name] = len(instructions)

    plan = CompiledPlan()
    source_lines = [
        "# generated by repro.compile (one function per fused fragment)",
        "import numpy as np",
        "from repro.compile import runtime as rt",
    ]
    cursor = 0
    for frag_index, (lo, hi) in enumerate(runs):
        if cursor < lo:
            plan.segments.append(InterpSegment(cursor, lo))
            plan.n_interpreted += lo - cursor
        emitter = _Emitter(var_ids, slots, types)
        live_in = []
        seen_in = set()
        frag_defs = set()
        for i in range(lo, hi):
            for name in instructions[i].arg_vars:
                if name not in frag_defs and name not in seen_in and \
                        defined_at[name] < lo:
                    seen_in.add(name)
                    live_in.append((name, types[name]))
            for name in instructions[i].results:
                frag_defs.add(name)
        live_out = [(name, types[name])
                    for i in range(lo, hi)
                    for name in instructions[i].results
                    if used_after.get(name, -1) >= hi]
        if not live_out:
            raise CompileUnsupported("fragment with no live output")
        for i in range(lo, hi):
            emitter.emit(i, instructions[i])
        fn_name = "fragment_{0}".format(frag_index)
        args = ["ctx", "P"]
        for name, vt in live_in:
            args.extend(_signature_vars(emitter, name, vt))
        rets = []
        for name, vt in live_out:
            rets.extend(_signature_vars(emitter, name, vt))
        live_in = [(var_ids[name], vt) for name, vt in live_in]
        live_out = [(var_ids[name], vt) for name, vt in live_out]
        source_lines.append("")
        source_lines.append("")
        source_lines.append("def {0}({1}):".format(fn_name,
                                                   ", ".join(args)))
        source_lines.extend(emitter.lines)
        source_lines.append("    return ({0},)".format(", ".join(rets)))
        plan.segments.append(FragmentSpec(
            name=fn_name, live_in=live_in, live_out=live_out,
            n_ops=hi - lo))
        plan.n_fused += hi - lo
        cursor = hi
    if cursor < len(instructions):
        plan.segments.append(InterpSegment(cursor, len(instructions)))
        plan.n_interpreted += len(instructions) - cursor

    plan.source = "\n".join(source_lines) + "\n"
    namespace = {}
    exec(compile(plan.source, "<repro.compile kernel>", "exec"),  # noqa: S102
         namespace)
    plan.functions = {spec.name: namespace[spec.name]
                      for spec in plan.segments
                      if isinstance(spec, FragmentSpec)}
    return plan


class _NoConst:
    def __repr__(self):
        return "<no-const>"


_NO_CONST = _NoConst()
