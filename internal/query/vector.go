// Vectorized leaf execution: predicates run directly on the encoded
// column vectors that ScanBatch hands over from the read cache. A
// conjunct that reads one flat column is decided in code space — once
// per dictionary entry for DICT columns, once per run for RLE — and
// survivors are tracked in a selection vector; values materialize only
// for residual conjuncts and for output (late materialization).
package query

import (
	"sync"

	"vortex/internal/client"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/wire"
)

// vecConjunct is one AND-conjunct of a WHERE clause. fieldIdx >= 0
// when the conjunct reads exactly one flat top-level column, making it
// eligible for code-space evaluation.
type vecConjunct struct {
	expr     sql.Expr
	fieldIdx int
}

// VecPredicate is a WHERE clause compiled for columnar evaluation.
type VecPredicate struct {
	conjuncts []vecConjunct
}

// CompileVecPredicate splits where into AND-conjuncts and classifies
// each. The split is sound under three-valued logic: `a AND b` is
// truthy exactly when both operands are, so filtering conjunct by
// conjunct keeps the same rows the row path keeps.
func CompileVecPredicate(where sql.Expr) *VecPredicate {
	p := &VecPredicate{}
	var split func(e sql.Expr)
	split = func(e sql.Expr) {
		if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
			split(b.L)
			split(b.R)
			return
		}
		p.conjuncts = append(p.conjuncts, vecConjunct{expr: e, fieldIdx: soleFlatColumn(e)})
	}
	if where != nil {
		split(where)
	}
	return p
}

// soleFlatColumn returns the top-level field index when every column
// reference in e is the same flat (non-nested) column, else -1.
func soleFlatColumn(e sql.Expr) int {
	idx := -1
	ok := true
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.ColumnRef:
			if len(x.Indexes) != 1 || (idx >= 0 && idx != x.Indexes[0]) {
				ok = false
				return
			}
			idx = x.Indexes[0]
		case *sql.Binary:
			walk(x.L)
			walk(x.R)
		case *sql.Not:
			walk(x.E)
		case *sql.IsNull:
			walk(x.E)
		case *sql.DateOf:
			walk(x.E)
		case *sql.Aggregate:
			ok = false // aggregates cannot run per row
		}
	}
	walk(e)
	if !ok || idx < 0 {
		return -1
	}
	return idx
}

// Apply filters a columnar batch, narrowing its selection vector.
// Single-column conjuncts evaluate on the encoded vector (code-space
// skips); residual conjuncts evaluate row-at-a-time over the
// survivors via a reused scratch row.
func (p *VecPredicate) Apply(b *client.ColBatch) (wire.Selection, wire.FilterStats, error) {
	sel := b.Sel
	var fs wire.FilterStats
	if p == nil || len(p.conjuncts) == 0 {
		return sel, fs, nil
	}
	byField := make(map[int]*wire.Vector, len(b.Cols))
	for k := range b.Cols {
		byField[b.ColIdx[k]] = &b.Cols[k]
	}
	scratch := make([]schema.Value, b.Arity)
	for i := range scratch {
		scratch[i] = schema.Null()
	}
	row := schema.Row{Values: scratch}

	var residual []vecConjunct
	for _, c := range p.conjuncts {
		if c.fieldIdx >= 0 {
			if vec, ok := byField[c.fieldIdx]; ok {
				expr, fi := c.expr, c.fieldIdx
				nsel, st, err := vec.Filter(sel, func(v schema.Value) (bool, error) {
					scratch[fi] = v
					ev, err := sql.Eval(expr, row)
					if err != nil {
						return false, err
					}
					return sql.Truthy(ev), nil
				})
				if err != nil {
					return nil, fs, err
				}
				sel = nsel
				fs.PrunedByCode += st.PrunedByCode
				fs.Evaluated += st.Evaluated
				continue
			}
		}
		residual = append(residual, c)
	}
	if len(residual) == 0 {
		return sel, fs, nil
	}

	keep := func(i int32) (bool, error) {
		for k := range b.Cols {
			scratch[b.ColIdx[k]] = b.Cols[k].ValueAt(int(i))
		}
		fs.Evaluated++
		for _, c := range residual {
			ev, err := sql.Eval(c.expr, row)
			if err != nil {
				return false, err
			}
			if !sql.Truthy(ev) {
				return false, nil
			}
		}
		return true, nil
	}
	var out wire.Selection
	if sel == nil {
		out = make(wire.Selection, 0, b.NumRows)
		for i := 0; i < b.NumRows; i++ {
			ok, err := keep(int32(i))
			if err != nil {
				return nil, fs, err
			}
			if ok {
				out = append(out, int32(i))
			}
		}
	} else {
		out = make(wire.Selection, 0, len(sel))
		for _, i := range sel {
			ok, err := keep(i)
			if err != nil {
				return nil, fs, err
			}
			if ok {
				out = append(out, i)
			}
		}
	}
	return out, fs, nil
}

// filteredBatch is one batch flowing through the SELECT stages:
// either a columnar leaf batch with its surviving selection, or rows
// in row form (WOS and live-tail leaf rows, change-resolved rows,
// joined rows). Row-form rows are owned by the pipeline, so the filter
// stage compacts them in place.
type filteredBatch struct {
	b    *client.ColBatch
	sel  wire.Selection
	rows []schema.Row
}

func (f *filteredBatch) count() int {
	if f.b == nil {
		return len(f.rows)
	}
	if f.sel == nil {
		return f.b.NumRows
	}
	return len(f.sel)
}

// materialize appends the surviving rows in full-arity row form.
func (f *filteredBatch) materialize(dst []schema.Row) []schema.Row {
	if f.b == nil {
		return append(dst, f.rows...)
	}
	b := f.b
	emit := func(i int32) {
		vals := make([]schema.Value, b.Arity)
		for k := range vals {
			vals[k] = schema.Null()
		}
		for k := range b.Cols {
			vals[b.ColIdx[k]] = b.Cols[k].ValueAt(int(i))
		}
		dst = append(dst, schema.Row{Values: vals, Change: schema.ChangeType(b.Changes[i])})
	}
	if f.sel == nil {
		for i := 0; i < b.NumRows; i++ {
			emit(int32(i))
		}
	} else {
		for _, i := range f.sel {
			emit(i)
		}
	}
	return dst
}

// leafInput turns a keyless table's leaf batches into pipeline input:
// columnar batches pass through untouched, row-form batches hand over
// their (already decoded) rows.
func leafInput(batches []*client.ColBatch, stats *ExecStats) []filteredBatch {
	in := make([]filteredBatch, 0, len(batches))
	for _, b := range batches {
		if b.Columnar() {
			in = append(in, filteredBatch{b: b})
			continue
		}
		stats.RowsDecoded += int64(len(b.Rows))
		rows := make([]schema.Row, len(b.Rows))
		for i, pr := range b.Rows {
			rows[i] = pr.Stamped.Row
		}
		in = append(in, filteredBatch{rows: rows})
	}
	return in
}

// rowChunks splits row-form input into cfg.Shards batches, so partial
// aggregation stays parallel over rows that left the columnar form.
func (e *Engine) rowChunks(rows []schema.Row) []filteredBatch {
	chunk := (len(rows) + e.cfg.Shards - 1) / e.cfg.Shards
	var in []filteredBatch
	for lo := 0; lo < len(rows); lo += chunk {
		hi := min(lo+chunk, len(rows))
		in = append(in, filteredBatch{rows: rows[lo:hi:hi]})
	}
	return in
}

// selectStages is the one pipeline every SELECT runs above its leaf —
// keyless, keyed and joined alike. The predicate narrows columnar
// selection vectors in code space and filters row-form batches row at
// a time; survivors then feed partial/final aggregation, stream
// straight out as record batches (flat projections), or go through
// the row projection stage (ORDER BY, computed items).
func (e *Engine) selectStages(st *sql.SelectStmt, sc *schema.Schema, in []filteredBatch, res *Result) (*Result, error) {
	pred := CompileVecPredicate(st.Where)
	for i := range in {
		f := &in[i]
		if f.b != nil {
			sel, fs, err := pred.Apply(f.b)
			if err != nil {
				return nil, err
			}
			res.Stats.RowsCodeSkipped += fs.PrunedByCode
			res.Stats.RowsDecoded += int64(f.b.NumVisible()) - fs.PrunedByCode
			f.sel = sel
			continue
		}
		if st.Where == nil {
			continue
		}
		kept := f.rows[:0]
		for _, row := range f.rows {
			v, err := sql.Eval(st.Where, row)
			if err != nil {
				return nil, err
			}
			if sql.Truthy(v) {
				kept = append(kept, row)
			}
		}
		f.rows = kept
	}

	hasAgg := len(st.GroupBy) > 0
	for _, it := range st.Items {
		if _, ok := it.Expr.(*sql.Aggregate); ok {
			hasAgg = true
		}
	}
	if hasAgg {
		return e.aggregateVec(st, in, res)
	}
	if len(st.OrderBy) == 0 && directEmitOK(st) {
		return emitDirect(st, sc, in, res)
	}
	var rows []schema.Row
	for i := range in {
		rows = in[i].materialize(rows)
	}
	return e.project(st, sc, rows, res)
}

// aggregateVec builds one partial group map per batch in parallel and
// merges them — aggregation consuming batches per shard.
func (e *Engine) aggregateVec(st *sql.SelectStmt, filtered []filteredBatch, res *Result) (*Result, error) {
	aggItems := collectAggItems(st)
	partials := make([]map[string]*groupState, len(filtered))
	errs := make([]error, len(filtered))
	sem := make(chan struct{}, e.cfg.Shards)
	var wg sync.WaitGroup
	for i := range filtered {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f := &filtered[i]
			groups := make(map[string]*groupState)
			if f.b != nil {
				b := f.b
				scratch := make([]schema.Value, b.Arity)
				for k := range scratch {
					scratch[k] = schema.Null()
				}
				row := schema.Row{Values: scratch}
				accum := func(ri int32) error {
					for k := range b.Cols {
						scratch[b.ColIdx[k]] = b.Cols[k].ValueAt(int(ri))
					}
					row.Change = schema.ChangeType(b.Changes[ri])
					return accumRow(st, aggItems, groups, row)
				}
				if f.sel == nil {
					for ri := 0; ri < b.NumRows; ri++ {
						if errs[i] = accum(int32(ri)); errs[i] != nil {
							return
						}
					}
				} else {
					for _, ri := range f.sel {
						if errs[i] = accum(ri); errs[i] != nil {
							return
						}
					}
				}
			} else {
				for _, row := range f.rows {
					if errs[i] = accumRow(st, aggItems, groups, row); errs[i] != nil {
						return
					}
				}
			}
			partials[i] = groups
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return finalizeAgg(st, aggItems, partials, res)
}

// directEmitOK reports whether the select list can stream straight
// from column vectors: star, or flat column references only.
func directEmitOK(st *sql.SelectStmt) bool {
	if st.Star {
		return true
	}
	for _, it := range st.Items {
		ref, ok := it.Expr.(*sql.ColumnRef)
		if !ok || len(ref.Indexes) != 1 {
			return false
		}
	}
	return true
}

// emitDirect streams the surviving rows out as record batches, one per
// non-empty leaf batch, gathering each output column through the
// selection vector — late materialization's last step.
func emitDirect(st *sql.SelectStmt, sc *schema.Schema, filtered []filteredBatch, res *Result) (*Result, error) {
	type outCol struct {
		name string
		idx  int // top-level field index
		ref  *sql.ColumnRef
	}
	var outs []outCol
	if st.Star {
		for fi, f := range sc.Fields {
			outs = append(outs, outCol{name: f.Name, idx: fi})
		}
	} else {
		for _, it := range st.Items {
			ref := it.Expr.(*sql.ColumnRef)
			outs = append(outs, outCol{name: itemName(it), idx: ref.Indexes[0], ref: ref})
		}
	}
	for _, o := range outs {
		res.Columns = append(res.Columns, o.name)
	}

	remaining := int64(-1)
	if st.Limit >= 0 {
		remaining = st.Limit
	}
	for i := range filtered {
		if remaining == 0 {
			break
		}
		f := &filtered[i]
		n := f.count()
		if n == 0 {
			continue
		}
		if remaining >= 0 && int64(n) > remaining {
			n = int(remaining)
		}
		rb := &wire.RecordBatch{NumRows: n}
		if f.b != nil {
			b := f.b
			sel := f.sel
			if int(selLenFor(b, sel)) > n {
				if sel == nil {
					sel = wire.SelectAll(b.NumRows)
				}
				sel = sel[:n]
			}
			byField := make(map[int]*wire.Vector, len(b.Cols))
			for k := range b.Cols {
				byField[b.ColIdx[k]] = &b.Cols[k]
			}
			for _, o := range outs {
				vec := byField[o.idx]
				var vals []schema.Value
				if vec == nil {
					vals = make([]schema.Value, n)
					for k := range vals {
						vals[k] = schema.Null()
					}
				} else {
					vals = vec.Gather(sel)
				}
				rb.Cols = append(rb.Cols, wire.BatchColumn{Name: o.name, Values: vals})
			}
		} else {
			for _, o := range outs {
				vals := make([]schema.Value, 0, n)
				for _, row := range f.rows[:n] {
					if o.ref != nil {
						vals = append(vals, o.ref.FieldValue(row))
					} else if o.idx < len(row.Values) {
						vals = append(vals, row.Values[o.idx])
					} else {
						vals = append(vals, schema.Null())
					}
				}
				rb.Cols = append(rb.Cols, wire.BatchColumn{Name: o.name, Values: vals})
			}
		}
		res.batches = append(res.batches, rb)
		if remaining >= 0 {
			remaining -= int64(n)
		}
	}
	if res.batches == nil {
		res.batches = []*wire.RecordBatch{}
	}
	return res, nil
}

func selLenFor(b *client.ColBatch, sel wire.Selection) int {
	if sel == nil {
		return b.NumRows
	}
	return len(sel)
}
