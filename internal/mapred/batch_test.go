package mapred

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sim"
)

// vecSplit serves rows as columnar batches of at most batch rows (and
// row at a time through Next), for checking the row walk over
// vectors against the one-row adapter.
type vecSplit struct {
	rows  []datum.Row
	base  uint64
	batch int
}

func (s *vecSplit) Open(*sim.Meter) (RecordReader, error) {
	return &vecReader{s: s, inner: sliceReader{rows: s.rows, base: s.base}}, nil
}

func (s *vecSplit) Length() int64 { return int64(len(s.rows)) }

type vecReader struct {
	s     *vecSplit
	inner sliceReader
	off   int
	cols  []datum.ColumnVector
}

func (r *vecReader) Next() (datum.Row, RecordMeta, error) { return r.inner.Next() }

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
// and a batch mapper over a row-only reader and a vectorized reader,
// with batch scans on and off: rows, record IDs and Counters must be
// identical everywhere.
func TestMapperShapesAgreeOnEveryReader(t *testing.T) {
	var rows []datum.Row
	for i := 0; i < 300; i++ {
		r := datum.Row{datum.Int(int64(i)), datum.String_(fmt.Sprint("w", i%7))}
		if i%11 == 0 {
			r[1] = datum.Null
		}
		rows = append(rows, r)
	}
	splits := map[string]func() []InputSplit{
		"row-only": func() []InputSplit {
			return []InputSplit{&SliceSplit{Rows: rows[:170], BaseID: 1 << 32}, &SliceSplit{Rows: rows[170:], BaseID: 2 << 32}}
		},
		"vectorized": func() []InputSplit {
			return []InputSplit{&vecSplit{rows: rows[:170], base: 1 << 32, batch: 64}, &vecSplit{rows: rows[170:], base: 2 << 32, batch: 64}}
		},
	}
	mappers := map[string]func() Mapper{
		"MapFunc": func() Mapper {
			return MapFunc(func(row datum.Row, meta RecordMeta, emit Emitter) error {
				return emit(nil, append(row.Clone(), datum.Int(int64(meta.RecordID))))
			})
		},
		"batch": func() Mapper { return &withIDMapper{} },
	}
	var want string
	var wantCnt Counters
	first := true
	for _, sname := range []string{"row-only", "vectorized"} {
		for _, mname := range []string{"MapFunc", "batch"} {
			for _, disable := range []bool{false, true} {
				c := testCluster()
				c.DisableBatchScan = disable
				res, err := c.Run(&Job{Splits: splits[sname](), NewMapper: mappers[mname]})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprint(res.Rows)
				label := fmt.Sprintf("%s reader, %s mapper, DisableBatchScan=%v", sname, mname, disable)
				if first {
					want, wantCnt, first = got, res.Counters, false
					if len(res.Rows) != len(rows) {
						t.Fatalf("%s: %d rows, want %d", label, len(res.Rows), len(rows))
					}
					continue
				}
				if got != want {
					t.Errorf("%s: rows differ:\n%s\nwant\n%s", label, got, want)
				}
				if res.Counters != wantCnt {
					t.Errorf("%s: counters %+v, want %+v", label, res.Counters, wantCnt)
				}
			}
		}
	}
}

// endlessSplit is a row-only source that never ends; it counts the
// records handed out.
type endlessSplit struct{ reads int64 }

func (s *endlessSplit) Open(*sim.Meter) (RecordReader, error) { return s, nil }
func (s *endlessSplit) Length() int64                         { return 1 }
func (s *endlessSplit) Close() error                          { return nil }

func (s *endlessSplit) Next() (datum.Row, RecordMeta, error) {
	s.reads++
	return datum.Row{datum.Int(s.reads)}, RecordMeta{RecordID: uint64(s.reads)}, nil
}

// TestCancelStopsRowOnlySource cancels a job mid-task: the map loop
// must notice within 128 records of a row-only source, under both
// scan modes.
func TestCancelStopsRowOnlySource(t *testing.T) {
	for _, disable := range []bool{false, true} {
		src := &endlessSplit{}
		ctx, cancel := context.WithCancel(context.Background())
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
		c := testCluster()
		c.DisableBatchScan = disable
		_, err := c.RunContext(ctx, job)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DisableBatchScan=%v: err = %v, want context.Canceled", disable, err)
		}
		if src.reads < cancelAt || src.reads > cancelAt+128 {
			t.Errorf("DisableBatchScan=%v: %d records read after a cancel at %d, want at most 128 more", disable, src.reads, cancelAt)
		}
	}
}
