package orcfile

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dualtable/internal/datum"
)

// fuzzSeedFile writes rows with the writer, failing the fuzz setup on
// any error.
func fuzzSeedFile(f *testing.F, schema datum.Schema, rows []datum.Row, opts WriterOptions) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// hugeDictionarySeed is a valid one-column file whose dictionary count
// is rewritten in place to 1<<62, keeping every stream length intact.
func hugeDictionarySeed(f *testing.F) []byte {
	f.Helper()
	schema := datum.Schema{{Name: "s", Kind: datum.KindString}}
	var rows []datum.Row
	for _, s := range []string{"aaaa", "bbbb", "aaaa", "bbbb"} {
		rows = append(rows, datum.Row{datum.String_(s)})
	}
	data := fuzzSeedFile(f, schema, rows, WriterOptions{})
	// Stream layout: uvarint(1) presence-length, one presence byte,
	// 0x01 dictionary mode, uvarint(2) count, then 04 "aaaa" 04 "bbbb".
	count := binary.AppendUvarint(nil, 1<<62)
	if data[0] != 1 || data[2] != 0x01 || data[3] != 2 || len(count) != 9 {
		f.Fatalf("unexpected dictionary stream layout % x", data[:12])
	}
	copy(data[3:], count)
	return data
}

// FuzzBatchReader feeds arbitrary bytes to Open and drains the file
// through a batch reader: decoding may fail, but must never panic, and
// every batch fills each column vector to the batch length.
func FuzzBatchReader(f *testing.F) {
	schema, rows := genRows(f, 300, 7) // dictionary and direct strings, NULLs
	for _, compress := range []bool{false, true} {
		f.Add(fuzzSeedFile(f, schema, rows, WriterOptions{StripeRows: 128, Compression: compress}))
		f.Add(fuzzSeedFile(f, testSchema(), makeRows(50, 3), WriterOptions{StripeRows: 20, Compression: compress}))
	}
	f.Add(fuzzSeedFile(f, testSchema(), nil, WriterOptions{}))
	f.Add(hugeDictionarySeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		br := rd.NewBatchReader(RowReaderOptions{})
		cols := make([]datum.ColumnVector, len(rd.Schema()))
		// A schema without columns decodes no bytes per row, so a
		// footer's row count alone could keep the scan going; cap it.
		for i := 0; i < 1<<12; i++ {
			n, _, err := br.NextBatch(cols, 0)
			if err != nil {
				return
			}
			for c := range cols {
				if cols[c].Len() != n {
					t.Fatalf("column %d holds %d rows in a batch of %d", c, cols[c].Len(), n)
				}
			}
		}
	})
}
