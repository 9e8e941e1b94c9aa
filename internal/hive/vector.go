package hive

import (
	"dualtable/internal/datum"
	"dualtable/internal/mapred"
	"dualtable/internal/sqlparser"
)

// This file holds the vectorized scan support: WHERE evaluation into
// selection vectors and direct column reads for bare column
// references, so batch mappers materialize rows only where an
// expression genuinely needs one.

// scanFilter is a scan mapper's compiled WHERE clause. The vectorized
// form is one vexpr boolean program whose TRUE rows become the
// selection vector. When the clause does not compile, the batch is
// made of rows, or the program meets a column whose runtime kind
// contradicts its static kind, fn decides row by row. Both forms
// follow SQL three-valued logic (NULL never passes), so they select
// exactly the same rows.
//
// fn and prog are shared across map tasks; st and sel are per-mapper
// state, so every mapper must own its copy of the struct.
type scanFilter struct {
	fn   evalFn     // nil = no WHERE clause
	prog *vexprProg // nil = fn only
	st   *vexprState
	sel  []int32
}

// newScanFilter pairs a compiled WHERE evalFn with its vector program,
// when the clause compiles to one with a boolean result.
func newScanFilter(where sqlparser.Expr, fn evalFn, sc *scope) scanFilter {
	f := scanFilter{fn: fn}
	if where != nil && fn != nil {
		if prog, ok := compileVexpr(where, sc); ok && prog.kinds[prog.out] == datum.KindBool {
			f.prog = prog
		}
	}
	return f
}

// selectRows returns the indexes of the batch rows that pass the
// filter, in order. The slice is reused by the next call.
func (f *scanFilter) selectRows(b *mapred.RecordBatch, br *batchRow) ([]int32, error) {
	f.sel = f.sel[:0]
	if f.fn == nil {
		for i := 0; i < b.Len; i++ {
			f.sel = append(f.sel, int32(i))
		}
		return f.sel, nil
	}
	if f.prog != nil && b.Cols != nil {
		if v := f.prog.evalBatch(&f.st, b); v != nil {
			for i := 0; i < b.Len; i++ {
				if !v.Nulls[i] && v.Bools[i] {
					f.sel = append(f.sel, int32(i))
				}
			}
			return f.sel, nil
		}
	}
	for i := 0; i < b.Len; i++ {
		ok, err := f.fn(br.row(b, i))
		if err != nil {
			return nil, err
		}
		if ok.Truthy() {
			f.sel = append(f.sel, int32(i))
		}
	}
	return f.sel, nil
}

// colRefIndex reports the scope index of a bare column reference, the
// expressions a batch consumer can read straight off a vector.
func colRefIndex(expr sqlparser.Expr, sc *scope) (int, bool) {
	ref, ok := expr.(*sqlparser.ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := sc.resolve(ref)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// vecExpr evaluates one select/group/aggregate-argument expression
// against a batch, fastest path first: a direct vector read (bare
// column ref), a compiled vector program (arithmetic, CASE,
// comparisons — see vexpr.go), or the row-at-a-time evalFn over a
// lazily materialized row.
//
// col, fn and prog are immutable and shared across map tasks; st and
// res are per-mapper evaluation state, so mappers that run batches in
// parallel must each own their vecExpr slice (clone it per mapper).
type vecExpr struct {
	col  int // vector index when direct
	fn   evalFn
	prog *vexprProg

	st  *vexprState         // per-mapper program scratch
	res *datum.ColumnVector // prog result for the current batch
}

// compileVecExprs pairs each expression with its fastest path.
func compileVecExprs(exprs []sqlparser.Expr, fns []evalFn, sc *scope) []vecExpr {
	out := make([]vecExpr, len(fns))
	for i := range fns {
		out[i] = vecExpr{col: -1, fn: fns[i]}
		if i < len(exprs) && exprs[i] != nil {
			if idx, ok := colRefIndex(exprs[i], sc); ok {
				out[i].col = idx
			} else if prog, ok := compileVexpr(exprs[i], sc); ok {
				out[i].prog = prog
			}
		}
	}
	return out
}

// beginBatch runs the compiled program (if any) once for the batch, so
// per-row eval calls read the result vector instead of re-deriving
// each value. res stays nil on a runtime kind mismatch and eval falls
// back to the row path for this batch.
func (x *vecExpr) beginBatch(b *mapred.RecordBatch) {
	x.res = nil
	if x.prog != nil && b.Cols != nil {
		x.res = x.prog.evalBatch(&x.st, b)
	}
}

// beginBatchAll resolves every expression's vector for the batch.
func beginBatchAll(xs []vecExpr, b *mapred.RecordBatch) {
	for i := range xs {
		xs[i].beginBatch(b)
	}
}

// batchRow lazily materializes one batch row for evalFn fallbacks: the
// buffer is filled at most once per (batch, index).
type batchRow struct {
	buf    datum.Row
	filled int // index the buffer currently holds, -1 = none
}

func (br *batchRow) row(b *mapred.RecordBatch, i int) datum.Row {
	if b.Rows != nil {
		return b.Rows[i]
	}
	if br.filled == i && br.buf != nil {
		return br.buf
	}
	br.buf = b.RowInto(br.buf, i)
	br.filled = i
	return br.buf
}

// vec returns the batch vector backing this expression, if any: the
// aliased batch column for a bare ref, or the program's result for
// this batch. Callers use it for typed whole-vector folds.
func (x *vecExpr) vec(b *mapred.RecordBatch) *datum.ColumnVector {
	if b.Cols == nil {
		return nil
	}
	if x.col >= 0 {
		return &b.Cols[x.col]
	}
	return x.res
}

// eval evaluates one vecExpr for batch row i.
func (x *vecExpr) eval(b *mapred.RecordBatch, i int, br *batchRow) (datum.Datum, error) {
	if b.Cols != nil {
		if x.col >= 0 {
			return b.Cols[x.col].Datum(i), nil
		}
		if x.res != nil {
			return x.res.Datum(i), nil
		}
	}
	return x.fn(br.row(b, i))
}
