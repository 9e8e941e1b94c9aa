package hive

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// kvHandler stores tables entirely in the key-value store — the
// Hive(HBase) baseline of the paper's Figures 11 and 12. Each row
// gets a monotonically assigned 8-byte row key; each column is one
// cell (family "d", qualifier = column index). Scans stream whole
// regions through the MapReduce engine; point DML uses native puts
// and tombstones (the paper implements this baseline's EDIT-like
// plans with user defined functions, §VI-B).
type kvHandler struct {
	e *Engine
}

const kvFamily = "d"

func kvTableName(desc *metastore.TableDesc) string {
	if n := desc.Properties["kv.table"]; n != "" {
		return n
	}
	return "hive_" + desc.Name
}

func (h *kvHandler) Create(desc *metastore.TableDesc) error {
	_, err := h.e.KV.CreateTable(kvTableName(desc))
	return err
}

func (h *kvHandler) Drop(desc *metastore.TableDesc) error {
	if h.e.KV.HasTable(kvTableName(desc)) {
		return h.e.KV.DropTable(kvTableName(desc))
	}
	return nil
}

func (h *kvHandler) table(desc *metastore.TableDesc) (*kvstore.Table, error) {
	return h.e.KV.Table(kvTableName(desc))
}

func (h *kvHandler) Splits(desc *metastore.TableDesc, opts ScanOptions) ([]mapred.InputSplit, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return nil, err
	}
	var splits []mapred.InputSplit
	for _, reg := range tbl.Regions() {
		splits = append(splits, &kvSplit{
			tbl:    tbl,
			start:  reg.Start(),
			end:    reg.End(),
			schema: desc.Schema,
			size:   tbl.Size() / int64(tbl.RegionCount()),
		})
	}
	return splits, nil
}

func (h *kvHandler) RowCount(desc *metastore.TableDesc) (int64, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, err
	}
	// Entry count over column count approximates the row count.
	n := tbl.EntryCount() / int64(len(desc.Schema))
	return n, nil
}

func (h *kvHandler) DataSize(desc *metastore.TableDesc) (int64, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, err
	}
	return tbl.Size(), nil
}

func (h *kvHandler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return nil, nil, err
	}
	return &kvOutputFactory{h: h, tbl: tbl, schema: desc.Schema}, nopCommitter{}, nil
}

func (h *kvHandler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, Committer, error) {
	// Truncate then append; commit is trivial (no staging for the KV
	// baseline — Hive-on-HBase overwrite behaves the same way).
	if err := h.e.KV.TruncateTable(kvTableName(desc)); err != nil {
		return nil, nil, err
	}
	tbl, err := h.table(desc)
	if err != nil {
		return nil, nil, err
	}
	return &kvOutputFactory{h: h, tbl: tbl, schema: desc.Schema}, nopCommitter{}, nil
}

// rowKey builds the 8-byte big-endian key for a row id.
func rowKey(id uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], id)
	return k[:]
}

// kvOutputFactory writes rows as cells.
type kvOutputFactory struct {
	h      *kvHandler
	tbl    *kvstore.Table
	schema datum.Schema
	mu     sync.Mutex
}

func (f *kvOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &kvCollector{f: f, meter: m}, nil
}

type kvCollector struct {
	f     *kvOutputFactory
	meter *sim.Meter
	batch []*kvstore.Cell
}

func (c *kvCollector) Collect(row datum.Row) error {
	id := c.f.h.e.KV.NextTs()
	key := rowKey(id)
	for i, d := range row {
		if d.IsNull() {
			continue
		}
		c.batch = append(c.batch, &kvstore.Cell{
			Row:       key,
			Family:    kvFamily,
			Qualifier: []byte(strconv.Itoa(i)),
			Type:      kvstore.TypePut,
			Value:     datum.AppendDatum(nil, d),
		})
	}
	if len(c.batch) >= 512 {
		return c.flush()
	}
	return nil
}

func (c *kvCollector) flush() error {
	if len(c.batch) == 0 {
		return nil
	}
	err := c.f.tbl.Put(c.batch, c.meter)
	c.batch = c.batch[:0]
	return err
}

func (c *kvCollector) Close() error { return c.flush() }

// kvSplit scans one region range.
type kvSplit struct {
	tbl    *kvstore.Table
	start  []byte
	end    []byte
	schema datum.Schema
	size   int64
}

func (s *kvSplit) Length() int64 { return s.size }

func (s *kvSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	rs := s.tbl.NewRowScanner(kvstore.Scan{Start: s.start, End: s.end, Meter: m})
	return &kvRecordReader{rs: rs, schema: s.schema}, nil
}

// kvRecordReader serves a region range as Rows batches. It reads the
// scanner one row at a time, so the scan is metered exactly as a
// row-at-a-time reader would meter it; the batch's rows live in an
// arena reused across batches.
type kvRecordReader struct {
	rs     *kvstore.RowScanner
	schema datum.Schema
	arena  datum.Row
	rows   []datum.Row
	ids    []uint64
}

func (r *kvRecordReader) NextBatch(b *mapred.RecordBatch) error {
	width := len(r.schema)
	r.arena, r.rows, r.ids = r.arena[:0], r.rows[:0], r.ids[:0]
	for len(r.rows) < mapred.RowBatchRows {
		res, ok := r.rs.Next()
		if !ok {
			if err := r.rs.Err(); err != nil {
				return fmt.Errorf("hive: kv scan: %w", err)
			}
			break
		}
		off := len(r.arena)
		for i := 0; i < width; i++ {
			r.arena = append(r.arena, datum.Null)
		}
		row := r.arena[off : off+width : off+width]
		for _, cell := range res.Cells {
			idx, err := strconv.Atoi(string(cell.Qualifier))
			if err != nil || idx < 0 || idx >= width {
				continue
			}
			d, _, err := datum.DecodeDatum(cell.Value)
			if err != nil {
				return fmt.Errorf("hive: kv cell decode: %w", err)
			}
			row[idx] = d
		}
		r.rows = append(r.rows, row)
		r.ids = append(r.ids, binary.BigEndian.Uint64(res.Row))
	}
	if len(r.rows) == 0 {
		return mapred.EOF
	}
	b.Len, b.Cols, b.Rows, b.BaseID, b.IDs = len(r.rows), nil, r.rows, 0, r.ids
	return nil
}

func (r *kvRecordReader) Close() error { return r.rs.Close() }

// ---- Native DML (the UDF-based EDIT plans of the paper's HBase
// baseline) ----

// ExecUpdate puts the changed cells of matching rows in place; a NULL
// value deletes its cell.
func (h *kvHandler) ExecUpdate(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, m *sim.Meter) (int64, string, error) {
	return h.runDML(ec, e, desc, stmt, "kv-update", m, func(batch []*kvstore.Cell, _ datum.Row, rid uint64, vals []SetValue) []*kvstore.Cell {
		key := rowKey(rid)
		for _, v := range vals {
			cell := &kvstore.Cell{Row: key, Family: kvFamily, Qualifier: []byte(strconv.Itoa(v.Col)), Type: kvstore.TypeDeleteColumn}
			if !v.Val.IsNull() {
				cell.Type, cell.Value = kvstore.TypePut, datum.AppendDatum(nil, v.Val)
			}
			batch = append(batch, cell)
		}
		return batch
	})
}

// ExecDelete writes a row tombstone per matching row.
func (h *kvHandler) ExecDelete(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, m *sim.Meter) (int64, string, error) {
	return h.runDML(ec, e, desc, stmt, "kv-delete", m, func(batch []*kvstore.Cell, _ datum.Row, rid uint64, _ []SetValue) []*kvstore.Cell {
		return append(batch, &kvstore.Cell{Row: rowKey(rid), Type: kvstore.TypeDeleteRow})
	})
}

// runDML runs a native UPDATE/DELETE over every region; each map task
// puts its cells once, at task end.
func (h *kvHandler) runDML(ec *ExecContext, e *Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, name string, m *sim.Meter,
	cells func([]*kvstore.Cell, datum.Row, uint64, []SetValue) []*kvstore.Cell) (int64, string, error) {
	tbl, err := h.table(desc)
	if err != nil {
		return 0, "", err
	}
	splits, err := h.Splits(desc, ScanOptions{})
	if err != nil {
		return 0, "", err
	}
	n, err := e.RunDML(ec, desc, stmt, name, splits, func() DMLSink { return &CellSink{Table: tbl, Cells: cells} }, m)
	if err != nil {
		return 0, "", err
	}
	return n, "EDIT-UDF", nil
}
