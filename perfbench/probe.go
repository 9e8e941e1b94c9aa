package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"dualtable"
	"dualtable/internal/core"
	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/kvstore"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/wire"
)

// storageTotals accumulates the storage-layer probes over tables.
type storageTotals struct {
	opens                   int
	openNS                  int64
	entries, bytes, regions int64
	cells, scanNS           int64
	rows                    int64 // master rows (Handler.RowCount)
	unionRows, unionNS      int64
	shuffleRows, shuffleNS  int64
	decodeBytes, decodeRows int64
	decodeNS                int64
}

// perSecond is n per elapsed ns, 0 when nothing was timed.
func perSecond(n float64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return n / (float64(ns) / 1e9)
}

// probeStorage measures the core, kvstore, orcfile and mapred layers
// from outside, through their public APIs, over the given DualTable
// tables. The metric names get suffix appended.
func probeStorage(db *dualtable.DB, tables []string, tr *tracer, suffix string, m metricSet) error {
	var t storageTotals
	root := tr.begin("probe.storage", 0, -1)
	defer tr.end(root)
	for _, name := range tables {
		if err := t.probeTable(db, name, tr, root); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
	}
	if t.opens > 0 {
		m.set("core.snapshot_open_us"+suffix, float64(t.openNS)/float64(t.opens)/1e3)
	}
	if t.rows > 0 {
		m.set("core.delta_ratio"+suffix, float64(t.entries)/float64(t.rows))
	}
	m.set("core.unionread_rows_per_s"+suffix, perSecond(float64(t.unionRows), t.unionNS))
	m.set("kvstore.attached_entries"+suffix, float64(t.entries))
	m.set("kvstore.attached_bytes"+suffix, float64(t.bytes))
	m.set("kvstore.regions"+suffix, float64(t.regions))
	m.set("kvstore.scan_cells_per_s"+suffix, perSecond(float64(t.cells), t.scanNS))
	m.set("orcfile.decode_mb_per_s"+suffix, perSecond(float64(t.decodeBytes)/1e6, t.decodeNS))
	m.set("orcfile.decode_rows_per_s"+suffix, perSecond(float64(t.decodeRows), t.decodeNS))
	m.set("mapred.shuffle_rows_per_s"+suffix, perSecond(float64(t.shuffleRows), t.shuffleNS))
	return nil
}

func (t *storageTotals) probeTable(db *dualtable.DB, name string, tr *tracer, root int) error {
	desc, err := db.Engine.MS.Get(name)
	if err != nil {
		return err
	}

	start := time.Now()
	sp := tr.begin("core.OpenSnapshot", root, -1)
	snap, err := db.Handler.OpenSnapshot(desc)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core.Snapshot.Release", root, -1)
	snap.Release()
	tr.end(sp)
	t.openNS += time.Since(start).Nanoseconds()
	t.opens++

	rows, err := db.Handler.RowCount(desc)
	if err != nil {
		return err
	}
	t.rows += rows
	att, err := attachedTable(db, name)
	if err != nil {
		return err
	}
	t.entries += att.EntryCount()
	t.bytes += att.Size()
	t.regions += int64(att.RegionCount())
	start = time.Now()
	sp = tr.begin("kvstore.Scanner", root, -1)
	sc := att.NewScanner(kvstore.Scan{MaxVersions: math.MaxInt32})
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
		t.cells++
	}
	err = sc.Close()
	tr.end(sp)
	t.scanNS += time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}

	snap, err = db.Handler.OpenSnapshot(desc)
	if err != nil {
		return err
	}
	defer snap.Release()
	return t.probeSnapshot(db, snap, tr, root)
}

// attachedTable finds a DualTable table's attached KV table by its
// name prefix; the suffix is the table incarnation's tag.
func attachedTable(db *dualtable.DB, table string) (*kvstore.Table, error) {
	prefix := "dt_" + strings.ToLower(table) + "_attached"
	for _, n := range db.KV.TableNames() {
		if n == prefix || strings.HasPrefix(n, prefix+"_") {
			return db.KV.Table(n)
		}
	}
	return nil, fmt.Errorf("no attached table for %s", table)
}

// probeSnapshot runs a counting map-only job and a keyed group-by job
// over the snapshot's UNION READ splits, and decodes its master files
// directly with orcfile.
func (t *storageTotals) probeSnapshot(db *dualtable.DB, snap *core.Snapshot, tr *tracer, root int) error {
	count := &mapred.Job{
		Name:   "perfbench-unionread",
		Splits: snap.Splits(hive.ScanOptions{}),
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(datum.Row, mapred.RecordMeta, mapred.Emitter) error { return nil })
		},
	}
	start := time.Now()
	sp := tr.begin("mapred.Run.unionread", root, -1)
	res, err := db.MR.Run(count)
	tr.end(sp)
	if err != nil {
		return err
	}
	t.unionNS += time.Since(start).Nanoseconds()
	t.unionRows += res.Counters.MapInputRecords

	sum := func() mapred.Reducer {
		return mapred.ReduceFunc(func(key []byte, rows []datum.Row, emit mapred.Emitter) error {
			var n int64
			for _, r := range rows {
				n += r[0].I
			}
			return emit(key, datum.Row{datum.Int(n)})
		})
	}
	group := &mapred.Job{
		Name:   "perfbench-groupby",
		Splits: snap.Splits(hive.ScanOptions{}),
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, _ mapred.RecordMeta, emit mapred.Emitter) error {
				var key [8]byte
				binary.BigEndian.PutUint64(key[:], row[0].Hash()%64)
				return emit(key[:], datum.Row{datum.Int(1)})
			})
		},
		NewCombiner: sum,
		NewReducer:  sum,
	}
	start = time.Now()
	sp = tr.begin("mapred.Run.groupby", root, -1)
	res, err = db.MR.Run(group)
	tr.end(sp)
	if err != nil {
		return err
	}
	t.shuffleNS += time.Since(start).Nanoseconds()
	t.shuffleRows += res.Counters.MapOutputRecords

	for _, path := range snap.Files() {
		start = time.Now()
		sp = tr.begin("orcfile.Decode", root, -1)
		size, rows, err := decodeFile(db, path)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
		t.decodeNS += time.Since(start).Nanoseconds()
		t.decodeBytes += size
		t.decodeRows += rows
	}
	return nil
}

// decodeFile reads one ORC master file with the batch reader and
// returns its size and row count.
func decodeFile(db *dualtable.DB, path string) (int64, int64, error) {
	f, err := db.FS.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	rd, err := orcfile.Open(f, f.Size())
	if err != nil {
		return 0, 0, err
	}
	br := rd.NewBatchReader(orcfile.RowReaderOptions{})
	cols := make([]datum.ColumnVector, len(rd.Schema()))
	var rows int64
	for {
		n, _, err := br.NextBatch(cols, 0)
		if errors.Is(err, io.EOF) {
			return f.Size(), rows, nil
		}
		if err != nil {
			return 0, 0, err
		}
		rows += int64(n)
	}
}

// wireCodecBytes is how many encoded bytes the wire codec probe
// processes in each direction.
const wireCodecBytes = 32 << 20

// probeWireCodec encodes and decodes the captured result rows as
// RowBatch frames of the server's default 256 rows.
func probeWireCodec(rows []datum.Row, tr *tracer, m metricSet) error {
	if len(rows) == 0 {
		return nil
	}
	var frames []*wire.RowBatch
	for i := 0; i < len(rows); i += 256 {
		frames = append(frames, &wire.RowBatch{OpID: 1, Rows: rows[i:min(i+256, len(rows))]})
	}
	var encoded [][]byte
	var total int64
	sp := tr.begin("wire.RowBatch.Encode", 0, -1)
	start := time.Now()
	for total < wireCodecBytes {
		for _, f := range frames {
			b := f.Encode()
			total += int64(len(b))
			if len(encoded) < len(frames) {
				encoded = append(encoded, b)
			}
		}
	}
	encNS := time.Since(start).Nanoseconds()
	tr.end(sp)
	m.set("wire.encode_mb_per_s", perSecond(float64(total)/1e6, encNS))

	total = 0
	sp = tr.begin("wire.RowBatch.Decode", 0, -1)
	start = time.Now()
	for total < wireCodecBytes {
		for _, b := range encoded {
			var f wire.RowBatch
			if err := f.Decode(b); err != nil {
				return fmt.Errorf("decode RowBatch: %w", err)
			}
			total += int64(len(b))
		}
	}
	decNS := time.Since(start).Nanoseconds()
	tr.end(sp)
	m.set("wire.decode_mb_per_s", perSecond(float64(total)/1e6, decNS))
	return nil
}
