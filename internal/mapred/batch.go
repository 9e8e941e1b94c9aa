package mapred

import (
	"dualtable/internal/datum"
)

// RecordBatch carries a batch of input records through the map phase
// in one of two representations:
//
//   - Columnar: Cols holds one typed vector per column (all of length
//     Len) and record IDs are BaseID + row index. This is the fast
//     path storage readers produce for untouched data.
//   - Row: Rows holds materialized rows (len Len) and IDs, when
//     non-nil, holds each row's record ID (BaseID + index otherwise).
//     Readers produce this shape when their source is row-shaped (the
//     key-value store, in-memory slices) or when per-row work was
//     already necessary (e.g. a UNION READ merge that dropped deleted
//     rows).
//
// Exactly one of Cols/Rows is non-nil. Batches and everything they
// reference are reused by the reader between NextBatch calls; mappers
// must not retain them.
type RecordBatch struct {
	Len    int
	Cols   []datum.ColumnVector
	Rows   []datum.Row
	BaseID uint64
	IDs    []uint64

	rowBuf datum.Row // EachRow's materialization buffer, reused across batches
}

// Meta returns row i's record metadata.
func (b *RecordBatch) Meta(i int) RecordMeta {
	if b.IDs != nil {
		return RecordMeta{RecordID: b.IDs[i]}
	}
	return RecordMeta{RecordID: b.BaseID + uint64(i)}
}

// RowInto materializes row i into buf (reusing its backing when wide
// enough) for row-at-a-time consumers of columnar batches.
func (b *RecordBatch) RowInto(buf datum.Row, i int) datum.Row {
	if b.Rows != nil {
		return b.Rows[i]
	}
	if cap(buf) < len(b.Cols) {
		buf = make(datum.Row, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for c := range b.Cols {
		buf[c] = b.Cols[c].Datum(i)
	}
	return buf
}

// EachRow is the row walk every row-at-a-time mapper shares: it calls
// fn on each record of the batch in order. Row batches hand out their
// rows as they are; columnar rows are materialized into one buffer the
// batch keeps across NextBatch calls, so the walk allocates nothing
// per row.
func (b *RecordBatch) EachRow(emit Emitter, fn MapFunc) error {
	for i := 0; i < b.Len; i++ {
		var row datum.Row
		if b.Rows != nil {
			row = b.Rows[i]
		} else {
			b.rowBuf = b.RowInto(b.rowBuf, i)
			row = b.rowBuf
		}
		if err := fn(row, b.Meta(i), emit); err != nil {
			return err
		}
	}
	return nil
}

// runBatchLoop drives a map task: every batch goes to the mapper's
// MapBatch. Cancellation is checked before the first batch and then
// whenever the record count crosses a multiple of 128 — once per batch
// for batches of 128 records or more.
func runBatchLoop(ctx ctxDone, rr RecordReader, mapper Mapper, emit Emitter, inRecords *int64) error {
	var batch RecordBatch
	checked := int64(-1)
	for {
		if n := *inRecords >> 7; n != checked {
			checked = n
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := rr.NextBatch(&batch); err != nil {
			if isEOF(err) {
				return nil
			}
			return err
		}
		*inRecords += int64(batch.Len)
		if err := mapper.MapBatch(&batch, emit); err != nil {
			return err
		}
	}
}

// ctxDone is the slice of context.Context the batch loop needs (kept
// narrow for tests).
type ctxDone interface{ Err() error }
