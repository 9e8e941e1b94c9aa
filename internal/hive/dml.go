package hive

import (
	"fmt"
	"slices"

	"dualtable/internal/datum"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

// execInsert runs INSERT INTO / INSERT OVERWRITE.
func (e *Engine) execInsert(ec *ExecContext, s *sqlparser.InsertStmt) (*ResultSet, error) {
	// INSERT OVERWRITE destroys the target's current contents; under a
	// session-wide read.epoch pin its source SELECT would silently read
	// historical data, so it is refused like UPDATE/DELETE. An explicit
	// AS OF EPOCH clause in the source is still allowed — that is the
	// intentional "roll the table back to epoch n" idiom. Plain INSERT
	// INTO stays legal: appending historical rows (e.g. into a backup
	// table) is additive and a primary use of time travel.
	if s.Overwrite {
		if err := rejectDMLUnderReadEpoch(ec, "INSERT OVERWRITE"); err != nil {
			return nil, err
		}
	}
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	meter := sim.NewMeter(&e.MR.Params)

	var rows []datum.Row
	if s.Select != nil {
		rs, err := e.runSelect(ec, s.Select, meter)
		if err != nil {
			return nil, err
		}
		if len(rs.Columns) != len(desc.Schema) {
			return nil, fmt.Errorf("hive: INSERT into %s: query returns %d columns, table has %d",
				s.Table, len(rs.Columns), len(desc.Schema))
		}
		rows = rs.Rows
	} else {
		emptySc := &scope{}
		for _, exprRow := range s.Rows {
			if len(exprRow) != len(desc.Schema) {
				return nil, fmt.Errorf("hive: INSERT into %s: VALUES row has %d columns, table has %d",
					s.Table, len(exprRow), len(desc.Schema))
			}
			row := make(datum.Row, len(exprRow))
			for i, x := range exprRow {
				fn, err := e.compileExpr(ec, x, emptySc)
				if err != nil {
					return nil, err
				}
				row[i], err = fn(nil)
				if err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
		}
	}
	// Coerce to the target schema.
	for _, r := range rows {
		if err := desc.Schema.CoerceRow(r); err != nil {
			return nil, fmt.Errorf("hive: INSERT into %s: %w", s.Table, err)
		}
	}

	if s.Overwrite {
		of, committer, err := h.Overwrite(desc)
		if err != nil {
			return nil, err
		}
		if err := e.writeRows(ec, rows, of, meter); err != nil {
			committer.Abort()
			return nil, err
		}
		if err := committer.Commit(); err != nil {
			return nil, err
		}
	} else {
		of, committer, err := h.Append(desc)
		if err != nil {
			return nil, err
		}
		if err := e.writeRows(ec, rows, of, meter); err != nil {
			committer.Abort()
			return nil, err
		}
		if err := committer.Commit(); err != nil {
			return nil, err
		}
	}
	return &ResultSet{Affected: int64(len(rows)), SimSeconds: meter.Seconds(), Plan: "INSERT"}, nil
}

// execUpdate routes UPDATE: handlers with native DML (KV, DualTable,
// ACID) run their own plan; ORC/Text tables get the Hive-classic
// INSERT OVERWRITE rewrite (the paper's Listing 2).
func (e *Engine) execUpdate(ec *ExecContext, s *sqlparser.UpdateStmt) (*ResultSet, error) {
	if err := rejectDMLUnderReadEpoch(ec, "UPDATE"); err != nil {
		return nil, err
	}
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	// Validate SET targets.
	for _, set := range s.Sets {
		if desc.Schema.ColumnIndex(set.Column) < 0 {
			return nil, fmt.Errorf("hive: UPDATE %s: unknown column %q", s.Table, set.Column)
		}
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	if dml, ok := h.(DMLHandler); ok {
		meter := sim.NewMeter(&e.MR.Params)
		n, plan, err := dml.ExecUpdate(ec, e, desc, s, meter)
		if err != nil {
			return nil, err
		}
		return &ResultSet{Affected: n, SimSeconds: meter.Seconds(), Plan: plan}, nil
	}
	ins, err := RewriteUpdateToOverwrite(s, desc)
	if err != nil {
		return nil, err
	}
	rs, err := e.execInsert(ec, ins)
	if err != nil {
		return nil, err
	}
	rs.Plan = "OVERWRITE-REWRITE"
	return rs, nil
}

// execDelete routes DELETE like execUpdate.
func (e *Engine) execDelete(ec *ExecContext, s *sqlparser.DeleteStmt) (*ResultSet, error) {
	if err := rejectDMLUnderReadEpoch(ec, "DELETE"); err != nil {
		return nil, err
	}
	desc, err := e.MS.Get(s.Table)
	if err != nil {
		return nil, err
	}
	h, err := e.Handler(desc.Storage)
	if err != nil {
		return nil, err
	}
	if dml, ok := h.(DMLHandler); ok {
		meter := sim.NewMeter(&e.MR.Params)
		n, plan, err := dml.ExecDelete(ec, e, desc, s, meter)
		if err != nil {
			return nil, err
		}
		return &ResultSet{Affected: n, SimSeconds: meter.Seconds(), Plan: plan}, nil
	}
	ins, err := RewriteDeleteToOverwrite(s, desc)
	if err != nil {
		return nil, err
	}
	rs, err := e.execInsert(ec, ins)
	if err != nil {
		return nil, err
	}
	rs.Plan = "OVERWRITE-REWRITE"
	return rs, nil
}

// SetValue is one evaluated SET clause of a native UPDATE: the target
// column's schema index and its new value, coerced to the column's
// kind.
type SetValue struct {
	Col int
	Val datum.Datum
}

// DMLSink writes one map task's share of a native UPDATE or DELETE.
// RunDML builds one per task, so a sink may keep state.
type DMLSink interface {
	// Apply handles one row the WHERE selected: row is the record as
	// scanned, rid its record ID and vals the statement's SET values
	// (none for DELETE), both valid only during the call. It reports
	// whether the row counts as affected.
	Apply(m *sim.Meter, row datum.Row, rid uint64, vals []SetValue) (bool, error)
	// Flush runs once after the task's last batch.
	Flush(m *sim.Meter) error
}

// RunDML is the one map-only job behind every native UPDATE/DELETE
// plan (the KV baseline's UDFs, DualTable's EDIT UDTFs and ACID's
// delta writes). It compiles the statement's WHERE like a scan does,
// so a batch's rows are selected by the vector program where it
// compiles and only selected rows are materialized; each selected
// row's SETs are evaluated and coerced and handed to the task's sink.
// The job emits one record per affected row, so the returned count is
// its output record count. The job's simulated seconds go to m.
func (e *Engine) RunDML(ec *ExecContext, desc *metastore.TableDesc, stmt sqlparser.Statement, name string,
	splits []mapred.InputSplit, newSink func() DMLSink, m *sim.Meter) (int64, error) {
	var table, alias string
	var where sqlparser.Expr
	var sets []sqlparser.SetClause
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		table, alias, where, sets = s.Table, s.Alias, s.Where, s.Sets
	case *sqlparser.DeleteStmt:
		table, alias, where = s.Table, s.Alias, s.Where
	default:
		return 0, fmt.Errorf("hive: native DML runs UPDATE or DELETE, not %T", stmt)
	}
	sc := dmlScope(table, alias, desc.Schema)
	var whereFn evalFn
	if where != nil {
		var err error
		if whereFn, err = e.compileExpr(ec, where, sc); err != nil {
			return 0, err
		}
	}
	filter := newScanFilter(where, whereFn, sc)
	setFns := make([]evalFn, len(sets))
	vals := make([]SetValue, len(sets))
	for i, s := range sets {
		vals[i].Col = desc.Schema.ColumnIndex(s.Column)
		fn, err := e.compileExpr(ec, s.Value, sc)
		if err != nil {
			return 0, err
		}
		setFns[i] = fn
	}
	res, err := e.MR.RunContext(ec.Context(), &mapred.Job{
		Name:   name,
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return &dmlMapper{where: filter, sets: setFns, schema: desc.Schema, vals: slices.Clone(vals), sink: newSink()}
		},
	})
	if err != nil {
		return 0, err
	}
	m.AddSeconds(res.SimSeconds)
	return res.Counters.OutputRecords, nil
}

// dmlScope resolves a DML statement's column references: unqualified,
// or qualified by the alias (the table name when there is none).
func dmlScope(table, alias string, schema datum.Schema) *scope {
	if alias == "" {
		alias = table
	}
	return newScope(alias, schema)
}

// affectedRow is the record RunDML emits per affected row. Map-only
// output is collected in memory and never mutated, so one row serves
// every emit.
var affectedRow = datum.Row{datum.Int(1)}

// dmlMapper is RunDML's map task. It is MeterAware: the sink's writes
// are charged to the task meter, so they parallelize across map slots
// in the simulated makespan.
type dmlMapper struct {
	where  scanFilter
	sets   []evalFn
	schema datum.Schema
	vals   []SetValue
	sink   DMLSink
	meter  *sim.Meter
	brow   batchRow
}

func (d *dmlMapper) SetMeter(m *sim.Meter) { d.meter = m }

func (d *dmlMapper) MapBatch(b *mapred.RecordBatch, emit mapred.Emitter) error {
	d.brow.filled = -1
	sel, err := d.where.selectRows(b, &d.brow)
	if err != nil {
		return err
	}
	for _, i := range sel {
		row := d.brow.row(b, int(i))
		for k, fn := range d.sets {
			v, err := fn(row)
			if err != nil {
				return err
			}
			if d.vals[k].Val, err = datum.Coerce(v, d.schema[d.vals[k].Col].Kind); err != nil {
				return err
			}
		}
		affected, err := d.sink.Apply(d.meter, row, b.Meta(int(i)).RecordID, d.vals)
		if err != nil {
			return err
		}
		if affected {
			if err := emit(nil, affectedRow); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *dmlMapper) Flush(mapred.Emitter) error { return d.sink.Flush(d.meter) }

// CellSink is the DMLSink of plans that write key-value cells (the KV
// baseline's UDFs, DualTable's EDIT UDTFs). Cells appends one selected
// row's cells to the task's batch; a row that appends none is not
// affected. The batch is put whenever it reaches Limit cells (0 = no
// limit) and at task end.
type CellSink struct {
	Table *kvstore.Table
	Limit int
	Cells func(batch []*kvstore.Cell, row datum.Row, rid uint64, vals []SetValue) []*kvstore.Cell
	batch []*kvstore.Cell
}

func (s *CellSink) Apply(m *sim.Meter, row datum.Row, rid uint64, vals []SetValue) (bool, error) {
	n := len(s.batch)
	s.batch = s.Cells(s.batch, row, rid, vals)
	if len(s.batch) == n {
		return false, nil
	}
	if s.Limit > 0 && len(s.batch) >= s.Limit {
		return true, s.Flush(m)
	}
	return true, nil
}

func (s *CellSink) Flush(m *sim.Meter) error {
	if len(s.batch) == 0 {
		return nil
	}
	err := s.Table.Put(s.batch, m)
	s.batch = s.batch[:0]
	return err
}

// RewriteUpdateToOverwrite translates
//
//	UPDATE t SET c1 = v1, ... WHERE p
//
// into the equivalent full-table rewrite Hive requires (paper
// Listing 2):
//
//	INSERT OVERWRITE TABLE t
//	SELECT ..., IF(p, v1, c1) AS c1, ... FROM t [alias]
//
// Every row and every column is read and written back — the I/O
// amplification the paper's cost model charges the OVERWRITE plan
// for.
func RewriteUpdateToOverwrite(s *sqlparser.UpdateStmt, desc *metastore.TableDesc) (*sqlparser.InsertStmt, error) {
	setFor := map[int]sqlparser.Expr{}
	for _, set := range s.Sets {
		idx := desc.Schema.ColumnIndex(set.Column)
		if idx < 0 {
			return nil, fmt.Errorf("hive: unknown column %q in UPDATE", set.Column)
		}
		if _, dup := setFor[idx]; dup {
			return nil, fmt.Errorf("hive: column %q assigned twice", set.Column)
		}
		setFor[idx] = set.Value
	}
	sel := &sqlparser.SelectStmt{Limit: -1}
	qual := s.Alias
	if qual == "" {
		qual = s.Table
	}
	for i, col := range desc.Schema {
		ref := &sqlparser.ColumnRef{Table: qual, Name: col.Name}
		var item sqlparser.Expr = ref
		if v, ok := setFor[i]; ok {
			if s.Where != nil {
				item = &sqlparser.FuncCall{Name: "IF", Args: []sqlparser.Expr{s.Where, v, ref}}
			} else {
				item = v
			}
		}
		sel.Items = append(sel.Items, sqlparser.SelectItem{Expr: item, Alias: col.Name})
	}
	sel.From = &sqlparser.TableName{Name: s.Table, Alias: s.Alias}
	return &sqlparser.InsertStmt{Overwrite: true, Table: s.Table, Select: sel}, nil
}

// RewriteDeleteToOverwrite translates
//
//	DELETE FROM t WHERE p
//
// into
//
//	INSERT OVERWRITE TABLE t SELECT * FROM t WHERE NOT (p surely true)
//
// Rows where p is NULL (unknown) are kept, matching SQL DELETE
// semantics.
func RewriteDeleteToOverwrite(s *sqlparser.DeleteStmt, desc *metastore.TableDesc) (*sqlparser.InsertStmt, error) {
	sel := &sqlparser.SelectStmt{Limit: -1}
	qual := s.Alias
	if qual == "" {
		qual = s.Table
	}
	for _, col := range desc.Schema {
		sel.Items = append(sel.Items, sqlparser.SelectItem{
			Expr:  &sqlparser.ColumnRef{Table: qual, Name: col.Name},
			Alias: col.Name,
		})
	}
	sel.From = &sqlparser.TableName{Name: s.Table, Alias: s.Alias}
	if s.Where != nil {
		// Keep rows where the predicate is not definitely true:
		// NOT(p) OR p IS NULL.
		sel.Where = &sqlparser.BinaryExpr{
			Op: "OR",
			L:  &sqlparser.UnaryExpr{Op: "NOT", X: s.Where},
			R:  &sqlparser.IsNullExpr{X: s.Where},
		}
	} else {
		// DELETE without WHERE: truncate.
		sel.Where = &sqlparser.Literal{Value: datum.Bool(false)}
	}
	return &sqlparser.InsertStmt{Overwrite: true, Table: s.Table, Select: sel}, nil
}
