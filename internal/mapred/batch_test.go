package mapred

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sim"
)

// vecSplit serves rows as columnar batches of at most batch rows, for
// checking the row walk over vectors against Rows batches.
type vecSplit struct {
	rows  []datum.Row
	base  uint64
	batch int
}

func (s *vecSplit) Open(*sim.Meter) (RecordReader, error) {
	return &vecReader{s: s}, nil
}

func (s *vecSplit) Length() int64 { return int64(len(s.rows)) }

type vecReader struct {
	s    *vecSplit
	off  int
	cols []datum.ColumnVector
}

func (r *vecReader) NextBatch(b *RecordBatch) error {
	if r.off >= len(r.s.rows) {
		return EOF
	}
	n := min(r.s.batch, len(r.s.rows)-r.off)
	width := len(r.s.rows[0])
	if r.cols == nil {
		r.cols = make([]datum.ColumnVector, width)
	}
	for c := range r.cols {
		r.cols[c].Reset(datum.KindNull, n)
		for i := 0; i < n; i++ {
			if !r.cols[c].SetDatum(i, r.s.rows[r.off+i][c]) {
				return fmt.Errorf("column %d holds mixed kinds", c)
			}
		}
	}
	b.Len, b.Cols, b.Rows, b.BaseID, b.IDs = n, r.cols, nil, r.s.base+uint64(r.off), nil
	r.off += n
	return nil
}

func (r *vecReader) Close() error { return nil }

// idSplit serves rows as Rows batches of at most batch rows that carry
// explicit record IDs (base + 3·index), the shape a UNION READ merge
// produces after dropping deleted rows.
type idSplit struct {
	rows  []datum.Row
	base  uint64
	batch int
}

func (s *idSplit) Open(*sim.Meter) (RecordReader, error) { return &idReader{s: s}, nil }
func (s *idSplit) Length() int64                         { return int64(len(s.rows)) }

type idReader struct {
	s   *idSplit
	off int
	ids []uint64
}

func (r *idReader) NextBatch(b *RecordBatch) error {
	if r.off >= len(r.s.rows) {
		return EOF
	}
	n := min(r.s.batch, len(r.s.rows)-r.off)
	r.ids = r.ids[:0]
	for i := 0; i < n; i++ {
		r.ids = append(r.ids, r.s.base+3*uint64(r.off+i))
	}
	b.Len, b.Cols, b.Rows, b.BaseID, b.IDs = n, nil, r.s.rows[r.off:r.off+n], 0, r.ids
	r.off += n
	return nil
}

func (r *idReader) Close() error { return nil }

// withIDMapper consumes batches directly, emitting each row with its
// record ID appended.
type withIDMapper struct{ buf datum.Row }

func (m *withIDMapper) MapBatch(b *RecordBatch, emit Emitter) error {
	for i := 0; i < b.Len; i++ {
		m.buf = b.RowInto(m.buf, i)
		out := append(m.buf.Clone(), datum.Int(int64(b.Meta(i).RecordID)))
		if err := emit(nil, out); err != nil {
			return err
		}
	}
	return nil
}

func (m *withIDMapper) Flush(Emitter) error { return nil }

// TestMapperShapesAgreeOnEveryReader runs a row mapper (MapFunc)
// and a batch mapper over every batch shape: Rows batches with base
// IDs (slice splits), Rows batches with explicit IDs, and columnar
// batches. Rows, record IDs and Counters must match the input rows and
// their IDs everywhere.
func TestMapperShapesAgreeOnEveryReader(t *testing.T) {
	var rows []datum.Row
	for i := 0; i < 300; i++ {
		r := datum.Row{datum.Int(int64(i)), datum.String_(fmt.Sprint("w", i%7))}
		if i%11 == 0 {
			r[1] = datum.Null
		}
		rows = append(rows, r)
	}
	// Every reader keys row i of split k at bases[k] + stride·i.
	bases := []uint64{1 << 32, 2 << 32}
	parts := [][]datum.Row{rows[:170], rows[170:]}
	splits := map[string]func() []InputSplit{
		"slice": func() []InputSplit {
			return []InputSplit{&SliceSplit{Rows: parts[0], BaseID: bases[0]}, &SliceSplit{Rows: parts[1], BaseID: bases[1]}}
		},
		"rows-with-ids": func() []InputSplit {
			return []InputSplit{&idSplit{rows: parts[0], base: bases[0], batch: 16}, &idSplit{rows: parts[1], base: bases[1], batch: 16}}
		},
		"vectorized": func() []InputSplit {
			return []InputSplit{&vecSplit{rows: parts[0], base: bases[0], batch: 64}, &vecSplit{rows: parts[1], base: bases[1], batch: 64}}
		},
	}
	stride := map[string]uint64{"slice": 1, "rows-with-ids": 3, "vectorized": 1}
	mappers := map[string]func() Mapper{
		"MapFunc": func() Mapper {
			return MapFunc(func(row datum.Row, meta RecordMeta, emit Emitter) error {
				return emit(nil, append(row.Clone(), datum.Int(int64(meta.RecordID))))
			})
		},
		"batch": func() Mapper { return &withIDMapper{} },
	}
	wantCnt := Counters{MapInputRecords: 300, MapOutputRecords: 300, OutputRecords: 300}
	for _, sname := range []string{"slice", "rows-with-ids", "vectorized"} {
		var want []datum.Row
		for k, part := range parts {
			for i, r := range part {
				want = append(want, append(r.Clone(), datum.Int(int64(bases[k]+stride[sname]*uint64(i)))))
			}
		}
		for _, mname := range []string{"MapFunc", "batch"} {
			res, err := testCluster().Run(&Job{Splits: splits[sname](), NewMapper: mappers[mname]})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s reader, %s mapper", sname, mname)
			if got, w := fmt.Sprint(res.Rows), fmt.Sprint(want); got != w {
				t.Errorf("%s: rows differ:\n%s\nwant\n%s", label, got, w)
			}
			if res.Counters != wantCnt {
				t.Errorf("%s: counters %+v, want %+v", label, res.Counters, wantCnt)
			}
		}
	}
}

// endlessSplit is a source of one-row Rows batches that never ends; it
// counts the records handed out.
type endlessSplit struct {
	reads int64
	row   [1]datum.Row
}

func (s *endlessSplit) Open(*sim.Meter) (RecordReader, error) { return s, nil }
func (s *endlessSplit) Length() int64                         { return 1 }
func (s *endlessSplit) Close() error                          { return nil }

func (s *endlessSplit) NextBatch(b *RecordBatch) error {
	s.reads++
	s.row[0] = datum.Row{datum.Int(s.reads)}
	b.Len, b.Cols, b.Rows, b.BaseID, b.IDs = 1, nil, s.row[:], uint64(s.reads), nil
	return nil
}

// TestCancelStopsRowOnlySource cancels a job mid-task: the map loop
// must notice within 128 records of a source that delivers one row
// per batch.
func TestCancelStopsRowOnlySource(t *testing.T) {
	src := &endlessSplit{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 1000
	job := &Job{
		Splits: []InputSplit{src},
		NewMapper: func() Mapper {
			return MapFunc(func(row datum.Row, _ RecordMeta, emit Emitter) error {
				if row[0].I == cancelAt {
					cancel()
				}
				return nil
			})
		},
	}
	_, err := testCluster().RunContext(ctx, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.reads < cancelAt || src.reads > cancelAt+128 {
		t.Errorf("%d records read after a cancel at %d, want at most 128 more", src.reads, cancelAt)
	}
}

// closeErrSplit ends its stream at once and reports a late error from
// Close, as a storage scanner that kept its error until Close does.
type closeErrSplit struct{}

var errLateScan = errors.New("late scan error")

func (closeErrSplit) Open(*sim.Meter) (RecordReader, error) { return closeErrSplit{}, nil }
func (closeErrSplit) Length() int64                         { return 1 }
func (closeErrSplit) NextBatch(*RecordBatch) error          { return EOF }
func (closeErrSplit) Close() error                          { return errLateScan }

// TestCloseErrorFailsTask checks that a reader's Close error fails the
// job instead of passing for a short, clean stream.
func TestCloseErrorFailsTask(t *testing.T) {
	job := &Job{
		Splits:    []InputSplit{closeErrSplit{}},
		NewMapper: func() Mapper { return MapFunc(func(datum.Row, RecordMeta, Emitter) error { return nil }) },
	}
	if _, err := testCluster().Run(job); !errors.Is(err, errLateScan) {
		t.Fatalf("err = %v, want the reader's Close error", err)
	}
}
