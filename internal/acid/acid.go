// Package acid implements a Hive-ACID-style storage handler (the
// HIVE-5317 design the paper compares against conceptually in §V-C):
// base ORC files plus one delta file per transaction, all on the
// distributed file system. The differences from DualTable that the
// paper calls out are faithfully reproduced:
//
//   - the whole updated record goes into the delta, "even if only one
//     cell is changed";
//   - each transaction creates a new delta, so readers merge-sort the
//     base with a growing pile of deltas — sequential scans, no random
//     access;
//   - there is no run-time plan selection: DML always writes deltas.
//
// Minor compaction merges all deltas into one; major compaction folds
// them into a new base. Registered as STORED AS ACID so the ablation
// benchmarks can compare it with DualTable on the same workloads.
package acid

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dualtable/internal/datum"
	"dualtable/internal/dfs"
	"dualtable/internal/hive"
	"dualtable/internal/mapred"
	"dualtable/internal/metastore"
	"dualtable/internal/orcfile"
	"dualtable/internal/sim"
	"dualtable/internal/sqlparser"
)

const (
	fileIDMetaKey = "acid.fileid"
	opUpsert      = int64(0)
	opDelete      = int64(1)
)

// Handler implements hive.StorageHandler + DMLHandler + Compactor.
type Handler struct {
	e *hive.Engine

	mu      sync.Mutex
	nextTxn map[string]int // per-table transaction counter
	nextFid map[string]uint32
}

// Register installs the handler for metastore.StorageAcid.
func Register(e *hive.Engine) (*Handler, error) {
	h := &Handler{e: e, nextTxn: map[string]int{}, nextFid: map[string]uint32{}}
	e.RegisterHandler(metastore.StorageAcid, h)
	return h, nil
}

func baseDir(desc *metastore.TableDesc) string  { return path.Join(desc.Location, "base") }
func deltaDir(desc *metastore.TableDesc) string { return path.Join(desc.Location, "deltas") }

// deltaSchema prefixes the table schema with (rid, op).
func deltaSchema(desc *metastore.TableDesc) datum.Schema {
	s := datum.Schema{{Name: "__rid", Kind: datum.KindInt}, {Name: "__op", Kind: datum.KindInt}}
	return append(s, desc.Schema...)
}

// Create provisions base and delta directories.
func (h *Handler) Create(desc *metastore.TableDesc) error {
	if err := h.e.FS.MkdirAll(baseDir(desc)); err != nil {
		return err
	}
	return h.e.FS.MkdirAll(deltaDir(desc))
}

// Drop removes everything.
func (h *Handler) Drop(desc *metastore.TableDesc) error {
	if h.e.FS.Exists(desc.Location) {
		return h.e.FS.Delete(desc.Location, true)
	}
	return nil
}

func (h *Handler) allocFid(desc *metastore.TableDesc) uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := strings.ToLower(desc.Name)
	h.nextFid[key]++
	return h.nextFid[key]
}

func (h *Handler) allocTxn(desc *metastore.TableDesc) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := strings.ToLower(desc.Name)
	h.nextTxn[key]++
	return h.nextTxn[key]
}

// baseFiles opens the base file footers.
type baseFile struct {
	path   string
	size   int64
	fileID uint32
	rows   int64
}

func (h *Handler) baseFiles(desc *metastore.TableDesc) ([]baseFile, error) {
	infos, err := h.e.FS.ListFiles(baseDir(desc))
	if err != nil {
		return nil, err
	}
	var out []baseFile
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, ".") {
			continue
		}
		fr, err := h.e.FS.Open(fi.Path)
		if err != nil {
			return nil, err
		}
		rd, err := orcfile.Open(fr, fr.Size())
		if err != nil {
			fr.Close()
			return nil, err
		}
		var fid uint64
		fmt.Sscanf(rd.UserMeta()[fileIDMetaKey], "%d", &fid)
		fr.Close()
		out = append(out, baseFile{path: fi.Path, size: fi.Size, fileID: uint32(fid), rows: rd.NumRows()})
	}
	return out, nil
}

// deltaEntry is one modification record in memory.
type deltaEntry struct {
	rid uint64
	op  int64
	row datum.Row
	seq int // delta ordinal: later transactions win
}

// loadDeltas reads the given delta files, in transaction order (the
// merge-on-read cost Hive ACID pays), charging the meter.
func (h *Handler) loadDeltas(infos []dfs.FileInfo, m *sim.Meter) ([]deltaEntry, error) {
	var out []deltaEntry
	for seq, fi := range infos {
		fr, err := h.e.FS.OpenMeter(fi.Path, m)
		if err != nil {
			return nil, err
		}
		rd, err := orcfile.Open(fr, fr.Size())
		if err != nil {
			fr.Close()
			return nil, err
		}
		br := rd.NewBatchReader(orcfile.RowReaderOptions{})
		cols := make([]datum.ColumnVector, len(rd.Schema()))
		width := len(cols) - 2
		for {
			n, _, err := br.NextBatch(cols, 0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				fr.Close()
				return nil, fmt.Errorf("acid: read delta %s: %w", fi.Name, err)
			}
			// One allocation holds every entry row of the batch.
			arena := make(datum.Row, n*width)
			for i := 0; i < n; i++ {
				row := arena[i*width : (i+1)*width : (i+1)*width]
				for c := range row {
					row[c] = cols[c+2].Datum(i)
				}
				out = append(out, deltaEntry{
					rid: uint64(cols[0].Datum(i).I),
					op:  cols[1].Datum(i).I,
					row: row,
					seq: seq,
				})
			}
		}
		fr.Close()
	}
	// Sort by rid; later transactions after earlier ones.
	sort.Slice(out, func(i, j int) bool {
		if out[i].rid != out[j].rid {
			return out[i].rid < out[j].rid
		}
		return out[i].seq < out[j].seq
	})
	return out, nil
}

// DeltaFileCount reports the number of delta files (observability).
func (h *Handler) DeltaFileCount(desc *metastore.TableDesc) (int, error) {
	infos, err := h.e.FS.ListFiles(deltaDir(desc))
	if err != nil {
		return 0, err
	}
	return len(infos), nil
}

// Splits returns one merge-on-read split per base file. Every split
// re-reads all deltas — exactly the amplification §V-C describes. The
// delta set is the one committed when the scan is planned: a DML job
// never reads the deltas its own tasks are writing.
func (h *Handler) Splits(desc *metastore.TableDesc, opts hive.ScanOptions) ([]mapred.InputSplit, error) {
	files, err := h.baseFiles(desc)
	if err != nil {
		return nil, err
	}
	deltas, err := h.e.FS.ListFiles(deltaDir(desc))
	if err != nil {
		return nil, err
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	var splits []mapred.InputSplit
	for _, f := range files {
		splits = append(splits, &acidSplit{h: h, file: f, deltas: deltas, opts: opts})
	}
	return splits, nil
}

// RowCount sums base-file rows.
func (h *Handler) RowCount(desc *metastore.TableDesc) (int64, error) {
	files, err := h.baseFiles(desc)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		n += f.rows
	}
	return n, nil
}

// DataSize reports the base + delta byte size.
func (h *Handler) DataSize(desc *metastore.TableDesc) (int64, error) {
	return h.e.FS.Du(desc.Location)
}

// Append writes new base files.
func (h *Handler) Append(desc *metastore.TableDesc) (mapred.OutputFactory, hive.Committer, error) {
	return &baseOutputFactory{h: h, desc: desc, dir: baseDir(desc)}, nopCommitter{}, nil
}

// Overwrite replaces base and clears deltas on commit.
func (h *Handler) Overwrite(desc *metastore.TableDesc) (mapred.OutputFactory, hive.Committer, error) {
	staging := path.Join(desc.Location, ".staging")
	if h.e.FS.Exists(staging) {
		if err := h.e.FS.Delete(staging, true); err != nil {
			return nil, nil, err
		}
	}
	if err := h.e.FS.MkdirAll(staging); err != nil {
		return nil, nil, err
	}
	return &baseOutputFactory{h: h, desc: desc, dir: staging},
		&overwriteCommitter{h: h, desc: desc, staging: staging}, nil
}

type nopCommitter struct{}

func (nopCommitter) Commit() error { return nil }
func (nopCommitter) Abort() error  { return nil }

type overwriteCommitter struct {
	h       *Handler
	desc    *metastore.TableDesc
	staging string
}

func (c *overwriteCommitter) Commit() error {
	fs := c.h.e.FS
	dir := baseDir(c.desc)
	infos, err := fs.ListFiles(dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if err := fs.Delete(fi.Path, false); err != nil {
			return err
		}
	}
	staged, err := fs.ListFiles(c.staging)
	if err != nil {
		return err
	}
	for _, fi := range staged {
		if err := fs.Rename(fi.Path, path.Join(dir, fi.Name)); err != nil {
			return err
		}
	}
	if err := fs.Delete(c.staging, true); err != nil {
		return err
	}
	if err := fs.Delete(deltaDir(c.desc), true); err != nil {
		return err
	}
	return fs.MkdirAll(deltaDir(c.desc))
}

func (c *overwriteCommitter) Abort() error {
	if c.h.e.FS.Exists(c.staging) {
		return c.h.e.FS.Delete(c.staging, true)
	}
	return nil
}

// baseOutputFactory writes ORC base files with file IDs.
type baseOutputFactory struct {
	h    *Handler
	desc *metastore.TableDesc
	dir  string
}

func (f *baseOutputFactory) NewCollector(taskID int, m *sim.Meter) (mapred.Collector, error) {
	return &baseCollector{f: f, meter: m}, nil
}

type baseCollector struct {
	f     *baseOutputFactory
	meter *sim.Meter
	fw    *dfs.FileWriter
	w     *orcfile.Writer
}

func (c *baseCollector) Collect(row datum.Row) error {
	if c.w == nil {
		fid := c.f.h.allocFid(c.f.desc)
		fw, err := c.f.h.e.FS.CreateMeter(path.Join(c.f.dir, fmt.Sprintf("base-%08d.orc", fid)), c.meter)
		if err != nil {
			return err
		}
		w, err := orcfile.NewWriter(fw, c.f.desc.Schema, orcfile.WriterOptions{
			Compression: true,
			UserMeta:    map[string]string{fileIDMetaKey: fmt.Sprintf("%d", fid)},
		})
		if err != nil {
			return err
		}
		c.fw, c.w = fw, w
	}
	return c.w.WriteRow(row)
}

func (c *baseCollector) Close() error {
	if c.w == nil {
		return nil
	}
	if err := c.w.Close(); err != nil {
		return err
	}
	return c.fw.Close()
}

// acidSplit merges one base file with all delta entries in its rid
// range.
type acidSplit struct {
	h      *Handler
	file   baseFile
	deltas []dfs.FileInfo
	opts   hive.ScanOptions
}

func (s *acidSplit) Length() int64 { return s.file.size }

func (s *acidSplit) Open(m *sim.Meter) (mapred.RecordReader, error) {
	fr, err := s.h.e.FS.OpenMeter(s.file.path, m)
	if err != nil {
		return nil, err
	}
	rd, err := orcfile.Open(fr, fr.Size())
	if err != nil {
		fr.Close()
		return nil, err
	}
	// Merge-on-read: every split scans every delta file (no random
	// access, no bloom filters — the §V-C contrast with DualTable).
	deltas, err := s.h.loadDeltas(s.deltas, m)
	if err != nil {
		fr.Close()
		return nil, err
	}
	lo := uint64(s.file.fileID) << 32
	hi := (uint64(s.file.fileID) + 1) << 32
	start := sort.Search(len(deltas), func(i int) bool { return deltas[i].rid >= lo })
	end := sort.Search(len(deltas), func(i int) bool { return deltas[i].rid >= hi })
	return &acidReader{
		fr:     fr,
		batch:  rd.NewBatchReader(orcfile.RowReaderOptions{Columns: s.opts.Projection}),
		cols:   make([]datum.ColumnVector, len(rd.Schema())),
		deltas: deltas[start:end],
		fileID: s.file.fileID,
	}, nil
}

// acidReader merges the base file's batches with the split's deltas.
// A batch whose record ID range holds no delta passes through as
// column vectors; any other batch is materialized as rows.
type acidReader struct {
	fr     *dfs.FileReader
	batch  *orcfile.BatchReader
	cols   []datum.ColumnVector
	deltas []deltaEntry
	fileID uint32
	di     int

	// reusable buffers for materialized batches.
	arena datum.Row
	rows  []datum.Row
	ids   []uint64
}

func (r *acidReader) NextBatch(b *mapred.RecordBatch) error {
	n, base, err := r.batch.NextBatch(r.cols, 0)
	if errors.Is(err, io.EOF) {
		return mapred.EOF
	}
	if err != nil {
		// A corrupt base stripe fails the scan; it must not end it
		// early with fewer rows.
		return fmt.Errorf("acid: read base file %d: %w", r.fileID, err)
	}
	baseRid := uint64(r.fileID)<<32 | uint64(base)
	for r.di < len(r.deltas) && r.deltas[r.di].rid < baseRid {
		r.di++
	}
	lo := r.di
	for r.di < len(r.deltas) && r.deltas[r.di].rid < baseRid+uint64(n) {
		r.di++
	}
	b.Len, b.Cols, b.Rows, b.BaseID, b.IDs = n, r.cols, nil, baseRid, nil
	if lo == r.di {
		return nil
	}
	r.materialize(b, baseRid, r.deltas[lo:r.di])
	return nil
}

// materialize rebuilds batch b as rows: every record's deltas apply in
// transaction order, so the last one wins, and deleted records drop.
func (r *acidReader) materialize(b *mapred.RecordBatch, baseRid uint64, deltas []deltaEntry) {
	ncols := len(r.cols)
	r.arena, r.rows, r.ids = r.arena[:0], r.rows[:0], r.ids[:0]
	k := 0
	for i := 0; i < b.Len; i++ {
		rid := baseRid + uint64(i)
		var final datum.Row
		deleted := false
		for ; k < len(deltas) && deltas[k].rid == rid; k++ {
			deleted = deltas[k].op == opDelete
			final = deltas[k].row
		}
		if deleted {
			continue
		}
		if final == nil {
			off := len(r.arena)
			for c := range r.cols {
				r.arena = append(r.arena, r.cols[c].Datum(i))
			}
			final = r.arena[off : off+ncols : off+ncols]
		}
		r.rows = append(r.rows, final)
		r.ids = append(r.ids, rid)
	}
	b.Len, b.Cols, b.Rows, b.IDs = len(r.rows), nil, r.rows, r.ids
}

func (r *acidReader) Close() error { return r.fr.Close() }

// ---- DML: always delta (no cost model — §V-C: "Hive always updates
// the delta tables. It could not make better decisions at runtime.")

// ExecUpdate writes full updated records into a fresh delta.
func (h *Handler) ExecUpdate(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.UpdateStmt, m *sim.Meter) (int64, string, error) {
	return h.runDelta(ec, e, desc, stmt, opUpsert, m)
}

// ExecDelete writes delete records into a fresh delta.
func (h *Handler) ExecDelete(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt *sqlparser.DeleteStmt, m *sim.Meter) (int64, string, error) {
	return h.runDelta(ec, e, desc, stmt, opDelete, m)
}

// runDelta scans the table (merge-on-read) and streams matching
// records into one new delta file per map task, under one transaction.
func (h *Handler) runDelta(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, stmt sqlparser.Statement, op int64, m *sim.Meter) (int64, string, error) {
	splits, err := h.Splits(desc, hive.ScanOptions{})
	if err != nil {
		return 0, "", err
	}
	txn := h.allocTxn(desc)
	var tasks atomic.Int64
	n, err := e.RunDML(ec, desc, stmt, "acid-delta", splits, func() hive.DMLSink {
		return &deltaSink{h: h, desc: desc, op: op, name: func() string {
			return fmt.Sprintf("delta-%06d-%04d.orc", txn, tasks.Add(1))
		}}
	}, m)
	if err != nil {
		return 0, "", err
	}
	return n, "DELTA", nil
}

// deltaSink writes one map task's delta records: (rid, op) and the
// whole record, "even if only one cell is changed" (all NULL for a
// delete). The task's delta file is created on its first record, so
// tasks that match nothing leave no file behind.
type deltaSink struct {
	h    *Handler
	desc *metastore.TableDesc
	op   int64
	name func() string
	fw   *dfs.FileWriter
	w    *orcfile.Writer
	out  datum.Row
}

func (s *deltaSink) Apply(m *sim.Meter, row datum.Row, rid uint64, vals []hive.SetValue) (bool, error) {
	if s.w == nil {
		var err error
		if s.fw, err = s.h.e.FS.CreateMeter(path.Join(deltaDir(s.desc), s.name()), m); err != nil {
			return false, err
		}
		if s.w, err = orcfile.NewWriter(s.fw, deltaSchema(s.desc), orcfile.WriterOptions{Compression: true}); err != nil {
			return false, err
		}
	}
	s.out = append(s.out[:0], datum.Int(int64(rid)), datum.Int(s.op))
	if s.op == opDelete {
		for range s.desc.Schema {
			s.out = append(s.out, datum.Null)
		}
	} else {
		s.out = append(s.out, row...)
		for _, v := range vals {
			s.out[2+v.Col] = v.Val
		}
	}
	return true, s.w.WriteRow(s.out)
}

func (s *deltaSink) Flush(*sim.Meter) error {
	if s.w == nil {
		return nil
	}
	if err := s.w.Close(); err != nil {
		return err
	}
	return s.fw.Close()
}

// Compact implements COMPACT TABLE for ACID tables: a major
// compaction folding all deltas into a new base, cancellable between
// records via the execution context.
func (h *Handler) Compact(ec *hive.ExecContext, e *hive.Engine, desc *metastore.TableDesc, m *sim.Meter) error {
	if err := ec.Err(); err != nil {
		return err
	}
	splits, err := h.Splits(desc, hive.ScanOptions{})
	if err != nil {
		return err
	}
	factory, committer, err := h.Overwrite(desc)
	if err != nil {
		return err
	}
	job := &mapred.Job{
		Name:   "acid-major-compact",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				return emit(nil, row)
			})
		},
		Output: factory,
	}
	res, err := e.MR.RunContext(ec.Context(), job)
	if err != nil {
		committer.Abort()
		return err
	}
	m.AddSeconds(res.SimSeconds)
	return committer.Commit()
}
