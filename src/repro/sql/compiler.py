"""SQL-to-MAL compiler.

Produces straight-line MAL over the BAT Algebra: candidate lists flow
through selections and joins; value columns are projected onto the
current candidate set only when an expression needs them (late tuple
reconstruction, Section 4.3); grouping and aggregation use the grouped
kernel primitives.

The compiler is *heuristic*, per Section 3.1: sargable conjuncts
(column-vs-literal comparisons) are pushed into ``algebra.select`` /
``algebra.selectrange`` refinements; everything else is evaluated as a
batcalc mask over the surviving candidates.
"""

from dataclasses import dataclass, field

from repro.sql.ast import (
    BinOp, Column, FuncCall, IsNull, Literal, Select, Star, UnaryOp,
    contains_aggregate, expand_items, split_conjuncts,
)
from repro.sql.partials import output_position
from repro.mal.ast import Const, MALProgram, Var

_CMP_TO_CALC = {"=": "==", "<>": "!=", "<": "<", "<=": "<=",
                ">": ">", ">=": ">="}


class SQLCompileError(ValueError):
    """Raised when a statement cannot be compiled."""


@dataclass
class _Binding:
    """One table occurrence in scope: alias -> (table, candidate var)."""

    alias: str
    table: str
    columns: list
    cand_var: str


@dataclass
class _Context:
    program: MALProgram
    bindings: list = field(default_factory=list)
    counter: int = 0
    bound_columns: dict = field(default_factory=dict)

    def fresh(self, hint="v"):
        self.counter += 1
        return "{0}_{1}".format(hint, self.counter)

    def emit(self, hint, op, args):
        name = self.fresh(hint)
        self.program.append((name,), op, args)
        return name

    def emit_multi(self, hints, op, args):
        names = tuple(self.fresh(h) for h in hints)
        self.program.append(names, op, args)
        return names

    def bind_column(self, table, column):
        """sql.bind, deduplicated per (table, column)."""
        key = (table, column)
        if key not in self.bound_columns:
            self.bound_columns[key] = self.emit(
                "col", "sql.bind", (Const(table), Const(column)))
        return self.bound_columns[key]

    def resolve(self, column_ref):
        """Find the binding a column reference belongs to."""
        if column_ref.table is not None:
            for binding in self.bindings:
                if binding.alias == column_ref.table:
                    if column_ref.name not in binding.columns:
                        raise SQLCompileError(
                            "no column {0!r} in {1!r}".format(
                                column_ref.name, binding.alias))
                    return binding
            raise SQLCompileError("unknown table alias {0!r}".format(
                column_ref.table))
        matches = [b for b in self.bindings if column_ref.name in b.columns]
        if not matches:
            raise SQLCompileError("unknown column {0!r}".format(
                column_ref.name))
        if len(matches) > 1:
            raise SQLCompileError("ambiguous column {0!r}".format(
                column_ref.name))
        return matches[0]


def _sargable(expr, ctx):
    """(binding, column, op, Literal) for column-vs-literal comparisons."""
    if not isinstance(expr, BinOp) or expr.op not in _CMP_TO_CALC:
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(right, Column) and isinstance(left, Literal):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left, right = right, left
        op = flip.get(op, op)
    if isinstance(left, Column) and isinstance(right, Literal):
        return (ctx.resolve(left), left.name, op, right)
    return None


def _const(literal):
    """A Literal as a MAL constant, keeping its statement-cache slot."""
    return Const(literal.value, literal.slot)


def selectivity_order(catalog, conjuncts):
    """Positions of sargable ``(table, column, op, value)`` conjuncts,
    most selective first.

    Section 3.1's sampling heuristic applied at plan time: evaluate the
    conjunct expected to survive fewest tuples first, so the later
    refinements work on small candidate lists.  Ties, and conjuncts that
    cannot be sampled, keep their textual order.
    """
    from repro.core.algebra import estimate_selectivity
    scored = []
    for order, (table, column, op, value) in enumerate(conjuncts):
        bounds = None
        if op == "=":
            bounds = (value, value, True, True)
        elif op in (">", ">="):
            bounds = (value, None, op == ">=", False)
        elif op in ("<", "<="):
            bounds = (None, value, True, op == "<=")
        score = 1.0
        if bounds is not None:
            try:
                score = estimate_selectivity(
                    catalog.get(table).bind(column), *bounds)
            except (KeyError, TypeError):
                pass
        scored.append((score, order))
    scored.sort()
    return tuple(order for _, order in scored)


class _SelectCompiler:
    """Compiles one SELECT into a MALProgram plus output column names.

    ``orders``, when a list, receives each conjunct-order decision the
    compiler takes from literal values: ``(conjuncts, order)`` with
    ``(table, column, op, slot, value)`` per sargable conjunct and the
    :func:`selectivity_order` outcome — what a plan cache needs to tell
    when a plan is right for other values.
    """

    def __init__(self, catalog, select, orders=None):
        self.catalog = catalog
        self.select = select
        self.orders = orders
        self.ctx = _Context(MALProgram(name="sql.select"))

    # -- top level -------------------------------------------------------------

    def compile(self):
        select = self.select
        if select.table is not None:
            self._open_table(select.table)
            for join in select.joins:
                self._compile_join(join)
            if select.where is not None:
                self._compile_where(select.where)
        elif select.joins or select.where or select.group_by:
            raise SQLCompileError("FROM-less SELECT supports only "
                                  "constant expressions")
        has_aggregates = any(
            contains_aggregate(item.expr) for item in select.items) or \
            select.group_by
        if select.group_by:
            names, columns = self._compile_grouped()
        elif has_aggregates:
            names, columns = self._compile_scalar_aggregates()
        else:
            names, columns = self._compile_plain_projection()
        if select.distinct:
            columns = self._compile_distinct(columns)
        if select.order_by:
            columns = self._compile_order_by(columns)
        if select.limit is not None:
            columns = [self.ctx.emit("lim", "bat.slice",
                                     (Var(c), Const(0), Const(select.limit)))
                       if not c.startswith("scalar!") else c
                       for c in columns]
        self.ctx.program.returns = tuple(
            c[len("scalar!"):] if c.startswith("scalar!") else c
            for c in columns)
        return self.ctx.program.validate(), names

    # -- FROM / JOIN -----------------------------------------------------------

    def _open_table(self, table_ref):
        table = self.catalog.get(table_ref.name)
        cand = self.ctx.emit("tid", "sql.tid", (Const(table_ref.name),))
        self.ctx.bindings.append(_Binding(
            table_ref.binding, table_ref.name,
            list(table.column_names), cand))

    def _compile_join(self, join):
        """Left-deep equi-join; residual ON conjuncts become filters."""
        ctx = self.ctx
        self._open_table(join.table)
        new_binding = ctx.bindings[-1]
        equi = None
        residual = []
        for conjunct in split_conjuncts(join.condition):
            pair = self._equi_pair(conjunct, new_binding)
            if pair is not None and equi is None:
                equi = pair
            else:
                residual.append(conjunct)
        if equi is None:
            raise SQLCompileError(
                "JOIN ... ON must contain an equality between a column of "
                "{0!r} and one of the earlier tables".format(
                    new_binding.alias))
        left_col, right_col = equi
        if self._try_join_index(left_col, right_col, new_binding):
            for conjunct in residual:
                self._filter_by_mask(conjunct)
            return
        lval = self._project_column(left_col)
        rval = self._project_column(right_col)
        lpos, rpos = ctx.emit_multi(
            ("jl", "jr"), "algebra.join", (Var(lval), Var(rval)))
        # Join positions index the aligned candidate row-set; compose them
        # into every binding's candidate list.
        for binding in ctx.bindings[:-1]:
            binding.cand_var = ctx.emit(
                "cand", "candidates.compose",
                (Var(binding.cand_var), Var(lpos)))
        new_binding.cand_var = ctx.emit(
            "cand", "candidates.compose",
            (Var(new_binding.cand_var), Var(rpos)))
        for conjunct in residual:
            self._filter_by_mask(conjunct)

    def _try_join_index(self, left_col, right_col, new_binding):
        """Catalogued N:1 join path: equi-join becomes a positional
        fetch through the join-index BAT (§3.1, §3.2).

        Applies when the new (right) side is the primary-key end of a
        declared index.  Returns True when the rewrite was emitted.
        """
        ctx = self.ctx
        has_index = getattr(self.catalog, "has_join_index", None)
        if has_index is None:
            return False
        fk_binding = ctx.resolve(left_col)
        if not has_index(fk_binding.table, left_col.name,
                         new_binding.table, right_col.name):
            return False
        mapping = ctx.emit(
            "jix", "sql.joinindex",
            (Const(fk_binding.table), Const(left_col.name),
             Const(new_binding.table), Const(right_col.name)))
        fk_targets = ctx.emit("jt", "algebra.leftfetchjoin",
                              (Var(fk_binding.cand_var), Var(mapping)))
        mask = ctx.emit("jm", "batcalc.!=", (Var(fk_targets), Const(-1)))
        keep = ctx.emit("jk", "algebra.selectmask",
                        (Var(fk_targets), Var(mask)))
        for binding in ctx.bindings[:-1]:
            binding.cand_var = ctx.emit(
                "cand", "candidates.compose",
                (Var(binding.cand_var), Var(keep)))
        new_binding.cand_var = ctx.emit(
            "cand", "algebra.leftfetchjoin",
            (Var(keep), Var(fk_targets)))
        return True

    def _equi_pair(self, expr, new_binding):
        """(old-side Column, new-side Column) for a usable equi-condition."""
        if not (isinstance(expr, BinOp) and expr.op == "="
                and isinstance(expr.left, Column)
                and isinstance(expr.right, Column)):
            return None
        try:
            lb = self.ctx.resolve(expr.left)
            rb = self.ctx.resolve(expr.right)
        except SQLCompileError:
            return None
        if lb is new_binding and rb is not new_binding:
            return (expr.right, expr.left)
        if rb is new_binding and lb is not new_binding:
            return (expr.left, expr.right)
        return None

    # -- WHERE -------------------------------------------------------------------

    def _compile_where(self, where):
        conjuncts = split_conjuncts(where)
        sargables = []
        residual = []
        for conjunct in conjuncts:
            sarg = _sargable(conjunct, self.ctx)
            if sarg is not None and len(self.ctx.bindings) == 1:
                sargables.append(sarg)
            else:
                residual.append(conjunct)
        for sarg in self._order_by_selectivity(sargables):
            self._refine_with_select(*sarg)
        for conjunct in residual:
            self._filter_by_mask(conjunct)

    def _order_by_selectivity(self, sargables):
        """Most selective conjunct first (:func:`selectivity_order`)."""
        if len(sargables) < 2:
            return sargables
        order = selectivity_order(self.catalog, [
            (binding.table, column, op, literal.value)
            for binding, column, op, literal in sargables])
        if self.orders is not None:
            self.orders.append(([
                (binding.table, column, op, literal.slot, literal.value)
                for binding, column, op, literal in sargables], order))
        return [sargables[i] for i in order]

    def _refine_with_select(self, binding, column, op, literal):
        """Sargable fast path: refine candidates via algebra.select*."""
        ctx = self.ctx
        col = ctx.bind_column(binding.table, column)
        if op == "=":
            binding.cand_var = ctx.emit(
                "cand", "algebra.select",
                (Var(col), _const(literal), Var(binding.cand_var)))
            return
        if op == "<>":
            self._filter_by_mask(BinOp("<>", Column(column, binding.alias),
                                       literal))
            return
        lo = hi = Const(None)
        lo_incl = hi_incl = False
        if op in (">", ">="):
            lo, lo_incl = _const(literal), op == ">="
        else:
            hi, hi_incl = _const(literal), op == "<="
        binding.cand_var = ctx.emit(
            "cand", "algebra.selectrange",
            (Var(col), lo, hi, Const(lo_incl), Const(hi_incl),
             Var(binding.cand_var)))

    def _filter_by_mask(self, expr):
        """General predicate: batcalc mask over the row-set, then filter."""
        mask = self._compile_expr(expr)
        if isinstance(mask, Const):
            raise SQLCompileError("constant WHERE clauses are not supported")
        for binding in self.ctx.bindings:
            binding.cand_var = self.ctx.emit(
                "cand", "candidates.filter",
                (Var(binding.cand_var), Var(mask.name)))

    # -- expressions ------------------------------------------------------------------

    def _project_column(self, column_ref):
        """Column values aligned with the current row-set (a var name)."""
        binding = self.ctx.resolve(column_ref)
        col = self.ctx.bind_column(binding.table, column_ref.name)
        return self.ctx.emit("val", "algebra.leftfetchjoin",
                             (Var(binding.cand_var), Var(col)))

    def _compile_expr(self, expr):
        """Expression -> Var (aligned BAT) or Const (scalar)."""
        ctx = self.ctx
        if isinstance(expr, Literal):
            return _const(expr)
        if isinstance(expr, Column):
            return Var(self._project_column(expr))
        if isinstance(expr, UnaryOp):
            operand = self._compile_expr(expr.operand)
            if expr.op == "not":
                op = "calc.not" if isinstance(operand, Const) \
                    else "batcalc.not"
                return Var(ctx.emit("m", op, (operand,)))
            if expr.op == "-":
                if isinstance(operand, Const):
                    return Var(ctx.emit("m", "calc.-",
                                        (Const(0), operand)))
                return Var(ctx.emit("m", "batcalc.-", (Const(0), operand)))
            raise SQLCompileError("unsupported unary {0!r}".format(expr.op))
        if isinstance(expr, BinOp):
            op = _CMP_TO_CALC.get(expr.op, expr.op)
            left = self._compile_expr(expr.left)
            right = self._compile_expr(expr.right)
            family = "calc." if (isinstance(left, Const)
                                 and isinstance(right, Const)) else "batcalc."
            return Var(ctx.emit("m", family + op, (left, right)))
        if isinstance(expr, IsNull):
            operand = self._compile_expr(expr.operand)
            if isinstance(operand, Const):
                return Var(ctx.emit("m", "calc.isnil", (operand,)))
            return Var(ctx.emit("m", "batcalc.isnil", (operand,)))
        if isinstance(expr, FuncCall):
            raise SQLCompileError(
                "aggregate {0!r} is only allowed in the select list or "
                "HAVING".format(expr.name))
        raise SQLCompileError("unsupported expression {0!r}".format(expr))

    # -- plain projection ---------------------------------------------------------------

    def _expand_items(self):
        try:
            return expand_items(self.select.items,
                                [(b.alias, b.columns)
                                 for b in self.ctx.bindings])
        except LookupError as exc:
            raise SQLCompileError(exc.args[0]) from None

    def _compile_plain_projection(self):
        names = []
        columns = []
        for name, expr in self._expand_items():
            value = self._compile_expr(expr)
            if isinstance(value, Const):
                # Constant select item: replicate over the row-set if any.
                if self.ctx.bindings:
                    cand = self.ctx.bindings[0].cand_var
                    atom = _const_atom_name(value.value)
                    var = self.ctx.emit(
                        "out", "sql.constcolumn",
                        (Var(cand), value, Const(atom)))
                    columns.append(var)
                else:
                    var = self.ctx.emit("out", "language.pass", (value,))
                    columns.append("scalar!" + var)
            else:
                columns.append(value.name)
            names.append(name)
        return names, columns

    # -- aggregation ----------------------------------------------------------------------

    def _compile_scalar_aggregates(self):
        names = []
        columns = []
        for name, expr in self._expand_items():
            var = self._compile_scalar_agg_expr(expr)
            names.append(name)
            columns.append("scalar!" + var)
        return names, columns

    def _compile_scalar_agg_expr(self, expr):
        """Aggregate-bearing expression at top (non-grouped) level."""
        ctx = self.ctx
        if isinstance(expr, FuncCall) and expr.name in FuncCall.AGGREGATES:
            return ctx.emit("agg", "aggr." + expr.name,
                            (Var(self._aggregate_input(expr)),))
        if isinstance(expr, BinOp):
            left = Var(self._compile_scalar_agg_expr(expr.left)) \
                if contains_aggregate(expr.left) \
                else self._compile_expr(expr.left)
            right = Var(self._compile_scalar_agg_expr(expr.right)) \
                if contains_aggregate(expr.right) \
                else self._compile_expr(expr.right)
            op = _CMP_TO_CALC.get(expr.op, expr.op)
            return ctx.emit("agg", "calc." + op, (left, right))
        if isinstance(expr, Literal):
            return ctx.emit("agg", "language.pass", (_const(expr),))
        raise SQLCompileError(
            "select list mixes aggregates and row expressions")

    def _aggregate_input(self, call):
        """The value BAT an aggregate consumes."""
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            if call.name != "count":
                raise SQLCompileError("* only valid in count(*)")
            binding = self.ctx.bindings[0]
            return self.ctx.emit("val", "language.pass",
                                 (Var(binding.cand_var),))
        if len(call.args) != 1:
            raise SQLCompileError("aggregates take exactly one argument")
        value = self._compile_expr(call.args[0])
        if isinstance(value, Const):
            raise SQLCompileError("aggregating a constant is not supported")
        var = value.name
        if call.distinct:
            uniq = self.ctx.emit("uq", "algebra.unique", (Var(var),))
            var = self.ctx.emit("val", "algebra.leftfetchjoin",
                                (Var(uniq), Var(var)))
        return var

    def _compile_grouped(self):
        ctx = self.ctx
        select = self.select
        group_values = [self._compile_expr(g) for g in select.group_by]
        if any(isinstance(v, Const) for v in group_values):
            raise SQLCompileError("GROUP BY constant is not supported")
        gids = None
        for value in group_values:
            args = (value, Var(gids)) if gids is not None else (value,)
            gids, extents, hist = ctx.emit_multi(
                ("gid", "ext", "hist"), "group.group", args)
        ngroups = ctx.emit("ng", "bat.count", (Var(hist),))
        group_keys = {_expr_key(g): (value, i)
                      for i, (g, value) in enumerate(zip(select.group_by,
                                                         group_values))}
        names = []
        columns = []
        for name, expr in self._expand_items():
            names.append(name)
            columns.append(self._compile_group_expr(
                expr, group_keys, gids, extents, ngroups))
        if select.having is not None:
            mask = self._compile_group_expr(
                select.having, group_keys, gids, extents, ngroups)
            first = columns[0]
            keep = ctx.emit("keep", "algebra.selectmask",
                            (Var(first), Var(mask)))
            columns = [ctx.emit("out", "algebra.leftfetchjoin",
                                (Var(keep), Var(c))) for c in columns]
        return names, columns

    def _compile_group_expr(self, expr, group_keys, gids, extents, ngroups):
        """Expression in group context -> var of a group-aligned BAT."""
        ctx = self.ctx
        key = _expr_key(expr)
        if key in group_keys:
            value, _ = group_keys[key]
            return ctx.emit("out", "algebra.leftfetchjoin",
                            (Var(extents), value))
        if isinstance(expr, FuncCall) and expr.name in FuncCall.AGGREGATES:
            if len(expr.args) == 1 and isinstance(expr.args[0], Star):
                if expr.name != "count":
                    raise SQLCompileError("* only valid in count(*)")
                return ctx.emit("agg", "aggr.grouped_count",
                                (Var(gids), Var(gids), Var(ngroups)))
            value = self._compile_expr(expr.args[0])
            if isinstance(value, Const):
                raise SQLCompileError("aggregating a constant "
                                      "is not supported")
            return ctx.emit("agg", "aggr.grouped_" + expr.name,
                            (value, Var(gids), Var(ngroups)))
        if isinstance(expr, BinOp):
            left = Var(self._compile_group_expr(expr.left, group_keys,
                                                gids, extents, ngroups))
            right = Var(self._compile_group_expr(expr.right, group_keys,
                                                 gids, extents, ngroups))
            op = _CMP_TO_CALC.get(expr.op, expr.op)
            return ctx.emit("m", "batcalc." + op, (left, right))
        if isinstance(expr, UnaryOp) and expr.op == "not":
            operand = self._compile_group_expr(expr.operand, group_keys,
                                               gids, extents, ngroups)
            return ctx.emit("m", "batcalc.not", (Var(operand),))
        if isinstance(expr, Literal):
            return ctx.emit("m", "sql.constcolumn",
                            (Var(extents), _const(expr),
                             Const(_const_atom_name(expr.value))))
        raise SQLCompileError(
            "{0!r} must appear in GROUP BY or inside an aggregate".format(
                expr))

    # -- DISTINCT / ORDER BY ----------------------------------------------------------------

    def _compile_distinct(self, columns):
        ctx = self.ctx
        if any(c.startswith("scalar!") for c in columns):
            return columns
        gids = None
        for column in columns:
            args = (Var(column), Var(gids)) if gids is not None \
                else (Var(column),)
            gids, extents, hist = ctx.emit_multi(
                ("dgid", "dext", "dhist"), "group.group", args)
        positions = ctx.emit("dpos", "candidates.sort", (Var(extents),))
        return [ctx.emit("out", "algebra.leftfetchjoin",
                         (Var(positions), Var(c))) for c in columns]

    def _compile_order_by(self, columns):
        ctx = self.ctx
        if any(c.startswith("scalar!") for c in columns):
            return columns
        args = []
        for item in self.select.order_by:
            key_var = self._order_key(item.expr, columns)
            args.append(Var(key_var))
            args.append(Const(item.ascending))
        perm = ctx.emit("perm", "algebra.sortmulti", tuple(args))
        return [ctx.emit("out", "algebra.leftfetchjoin",
                         (Var(perm), Var(c))) for c in columns]

    def _order_key(self, expr, columns):
        # An output column (by alias or identical expression) is reused;
        # any other key is only possible when outputs align with the
        # row-set (no grouping) and DISTINCT did not merge rows.
        position = output_position(expr, self._expand_items())
        if position is not None:
            return columns[position]
        if self.select.group_by or any(
                contains_aggregate(i.expr) for i in self.select.items):
            raise SQLCompileError(
                "ORDER BY on grouped queries must name an output column")
        if self.select.distinct:
            raise SQLCompileError(
                "ORDER BY of a DISTINCT query must name an output column")
        value = self._compile_expr(expr)
        if isinstance(value, Const):
            raise SQLCompileError("cannot ORDER BY a constant")
        return value.name


def _expr_key(expr):
    return repr(expr)


def _const_atom_name(value):
    if isinstance(value, bool):
        return "bit"
    if isinstance(value, int):
        return "lng"
    if isinstance(value, float):
        return "dbl"
    if isinstance(value, str):
        return "str"
    return "str"


def compile_select(catalog, select, orders=None):
    """Compile a SELECT AST against a catalog.

    Returns ``(program, output_names)``; the program's return variables
    hold one value column per output name (or a scalar for aggregate-only
    queries).  A Literal's slot becomes its constant's slot; ``orders``
    collects the conjunct-order decisions (see :class:`_SelectCompiler`).
    """
    if not isinstance(select, Select):
        raise TypeError("expected a Select AST node")
    return _SelectCompiler(catalog, select, orders).compile()


def compile_where_candidates(catalog, table_name, where, orders=None):
    """Candidates of ``table_name`` matching ``where`` (DML helper).

    Returns a program whose single return variable is the candidate list
    of visible oids matching the predicate (all visible rows when
    ``where`` is None).  ``orders`` as for :func:`compile_select`.
    """
    from repro.sql.ast import SelectItem, TableRef
    select = Select(items=[SelectItem(Star())],
                    table=TableRef(table_name), where=where)
    compiler = _SelectCompiler(catalog, select, orders)
    compiler._open_table(select.table)
    if where is not None:
        compiler._compile_where(where)
    program = compiler.ctx.program
    program.returns = (compiler.ctx.bindings[0].cand_var,)
    return program.validate()
