package orcfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dualtable/internal/datum"
)

// genRows builds a mixed-kind table with NULLs, runs, deltas, and both
// string encodings (low-cardinality column → dictionary, unique
// column → direct).
func genRows(tb testing.TB, n int, seed int64) (datum.Schema, []datum.Row) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := datum.Schema{
		{Name: "id", Kind: datum.KindInt},       // delta runs
		{Name: "grp", Kind: datum.KindInt},      // repeats + nulls
		{Name: "v", Kind: datum.KindFloat},      // nulls
		{Name: "flag", Kind: datum.KindBool},    // nulls
		{Name: "tag", Kind: datum.KindString},   // dictionary
		{Name: "note", Kind: datum.KindString},  // direct
		{Name: "empty", Kind: datum.KindString}, // all NULL
	}
	rows := make([]datum.Row, n)
	tags := []string{"a", "bb", "ccc", ""}
	for i := range rows {
		row := datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i / 7)),
			datum.Float(rng.Float64() * 100),
			datum.Bool(i%3 == 0),
			datum.String_(tags[i%len(tags)]),
			datum.String_(string(rune('a'+i%26)) + string(rune('0'+i%10)) + "x"),
			datum.Null,
		}
		if i%11 == 0 {
			row[1] = datum.Null
		}
		if i%5 == 0 {
			row[2] = datum.Null
		}
		if i%13 == 0 {
			row[3] = datum.Null
		}
		if i%17 == 0 {
			row[4] = datum.Null
		}
		rows[i] = row
	}
	return schema, rows
}

func writeBatchFile(t *testing.T, schema datum.Schema, rows []datum.Row, opts WriterOptions) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// projectRows is what a scan with projection proj must return for
// rows: the projected columns as written, every other column NULL.
func projectRows(rows []datum.Row, proj []int) []datum.Row {
	if proj == nil {
		return rows
	}
	out := make([]datum.Row, len(rows))
	for i, r := range rows {
		out[i] = make(datum.Row, len(r))
		for c := range out[i] {
			out[i][c] = datum.Null
		}
		for _, c := range proj {
			out[i][c] = r[c]
		}
	}
	return out
}

// assertRows compares scanned rows and ordinals with the rows handed
// to the writer (want) and their ordinals (from firstOrd on): values,
// kinds and NULLs must match exactly.
func assertRows(t *testing.T, label string, got []datum.Row, ords []int64, want []datum.Row, firstOrd int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if ords[i] != firstOrd+int64(i) {
			t.Fatalf("%s: row %d ordinal %d, want %d", label, i, ords[i], firstOrd+int64(i))
		}
		for c := range want[i] {
			if g, w := got[i][c], want[i][c]; datum.Compare(g, w) != 0 || g.K != w.K {
				t.Fatalf("%s: row %d col %d: %v, want %v", label, i, c, g, w)
			}
		}
	}
}

// TestBatchRowEquivalence checks that the batch reader returns exactly
// the rows handed to the writer — values, NULLs, ordinals — across
// compression, stripe sizes, batch sizes and projections.
func TestBatchRowEquivalence(t *testing.T) {
	schema, rows := genRows(t, 3777, 1)
	cases := []struct {
		name string
		opts WriterOptions
	}{
		{"plain", WriterOptions{StripeRows: 1000}},
		{"flate", WriterOptions{StripeRows: 1000, Compression: true}},
		{"one-stripe", WriterOptions{StripeRows: 100000}},
		{"tiny-stripes", WriterOptions{StripeRows: 17, Compression: true}},
	}
	projections := [][]int{nil, {0, 2}, {4, 5}, {1}}
	batchSizes := []int{0, 1, 7, 1000, 5000}
	for _, tc := range cases {
		rd := writeBatchFile(t, schema, rows, tc.opts)
		for _, proj := range projections {
			want := projectRows(rows, proj)
			for _, bs := range batchSizes {
				got, ords, err := scanAll(rd, RowReaderOptions{Columns: proj}, bs)
				label := fmt.Sprintf("%s proj=%v bs=%d", tc.name, proj, bs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertRows(t, label, got, ords, want, 0)
			}
		}
	}
}

// TestBatchReaderPruning checks that pruned stripes still advance the
// ordinals: the surviving rows carry their file row numbers.
func TestBatchReaderPruning(t *testing.T) {
	schema, rows := genRows(t, 3000, 2)
	rd := writeBatchFile(t, schema, rows, WriterOptions{StripeRows: 500})
	sarg := &SearchArg{Predicates: []Predicate{{Column: 0, Op: OpGE, Value: datum.Int(2200)}}}
	got, ords, err := scanAll(rd, RowReaderOptions{SearchArg: sarg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stripes hold ids [500k, 500k+499]; id >= 2200 keeps stripes 4 and 5.
	assertRows(t, "pruned", got, ords, rows[2000:], 2000)
}
