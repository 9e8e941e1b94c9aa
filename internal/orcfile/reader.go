package orcfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dualtable/internal/datum"
)

// ErrCorrupt reports a file whose structure contradicts itself: a
// length, count or offset that points past the bytes present.
var ErrCorrupt = errors.New("orcfile: corrupt file")

// Reader reads an ORC-like file from any io.ReaderAt.
type Reader struct {
	r          io.ReaderAt
	size       int64
	schema     datum.Schema
	userMeta   map[string]string
	numRows    int64
	stripes    []stripeMeta
	fileStats  []ColumnStats
	compressed bool
}

// Open parses the tail and footer of a file.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	if size < tailSize {
		return nil, fmt.Errorf("orcfile: file too small (%d bytes)", size)
	}
	var tail [tailSize]byte
	if _, err := r.ReadAt(tail[:], size-tailSize); err != nil {
		return nil, fmt.Errorf("orcfile: read tail: %w", err)
	}
	if binary.LittleEndian.Uint64(tail[24:]) != orcMagic {
		return nil, fmt.Errorf("orcfile: bad magic (not an ORC file)")
	}
	footerOff := binary.LittleEndian.Uint64(tail[0:])
	footerLen := binary.LittleEndian.Uint64(tail[8:])
	flags := binary.LittleEndian.Uint64(tail[16:])
	if body := uint64(size - tailSize); footerOff > body || footerLen > body-footerOff {
		return nil, fmt.Errorf("%w: footer out of bounds", ErrCorrupt)
	}
	fb := make([]byte, footerLen)
	if _, err := r.ReadAt(fb, int64(footerOff)); err != nil {
		return nil, fmt.Errorf("orcfile: read footer: %w", err)
	}
	rd := &Reader{r: r, size: size, compressed: flags&flagFlate != 0}
	if rd.compressed {
		dec, err := io.ReadAll(flate.NewReader(bytes.NewReader(fb)))
		if err != nil {
			return nil, fmt.Errorf("orcfile: decompress footer: %w", err)
		}
		fb = dec
	}
	if err := rd.parseFooter(fb); err != nil {
		return nil, err
	}
	return rd, nil
}

func (rd *Reader) parseFooter(fb []byte) error {
	off := 0
	ncols, c := binary.Uvarint(fb)
	if c <= 0 {
		return fmt.Errorf("orcfile: bad footer schema count")
	}
	off += c
	for i := uint64(0); i < ncols; i++ {
		name, n, err := readBytesVal(fb, off)
		if err != nil {
			return err
		}
		off = n
		if off >= len(fb) {
			return fmt.Errorf("orcfile: truncated schema")
		}
		kind := datum.Kind(fb[off])
		off++
		rd.schema = append(rd.schema, datum.Column{Name: name, Kind: kind})
	}
	nmeta, c := binary.Uvarint(fb[off:])
	if c <= 0 {
		return fmt.Errorf("orcfile: bad meta count")
	}
	off += c
	if nmeta > uint64(len(fb)-off) { // every entry takes at least two bytes
		return fmt.Errorf("%w: meta count %d exceeds footer size", ErrCorrupt, nmeta)
	}
	rd.userMeta = make(map[string]string, nmeta)
	for i := uint64(0); i < nmeta; i++ {
		k, n, err := readBytesVal(fb, off)
		if err != nil {
			return err
		}
		off = n
		v, n2, err := readBytesVal(fb, off)
		if err != nil {
			return err
		}
		off = n2
		rd.userMeta[k] = v
	}
	rows, c := binary.Uvarint(fb[off:])
	if c <= 0 {
		return fmt.Errorf("orcfile: bad row count")
	}
	rd.numRows = int64(rows)
	off += c
	nstripes, c := binary.Uvarint(fb[off:])
	if c <= 0 {
		return fmt.Errorf("orcfile: bad stripe count")
	}
	off += c
	for i := uint64(0); i < nstripes; i++ {
		var sm stripeMeta
		vals := make([]uint64, 3)
		for j := range vals {
			v, n := binary.Uvarint(fb[off:])
			if n <= 0 {
				return fmt.Errorf("orcfile: bad stripe header")
			}
			vals[j] = v
			off += n
		}
		sm.offset, sm.length, sm.rows = vals[0], vals[1], int64(vals[2])
		for j := 0; j < len(rd.schema); j++ {
			ro, n := binary.Uvarint(fb[off:])
			if n <= 0 {
				return fmt.Errorf("orcfile: bad stream offset")
			}
			off += n
			sl, n2 := binary.Uvarint(fb[off:])
			if n2 <= 0 {
				return fmt.Errorf("orcfile: bad stream length")
			}
			off += n2
			sm.streams = append(sm.streams, streamMeta{relOff: ro, length: sl})
		}
		for j := 0; j < len(rd.schema); j++ {
			st, n, err := unmarshalStats(fb, off)
			if err != nil {
				return err
			}
			off = n
			sm.stats = append(sm.stats, st)
		}
		rd.stripes = append(rd.stripes, sm)
	}
	for j := 0; j < len(rd.schema); j++ {
		st, n, err := unmarshalStats(fb, off)
		if err != nil {
			return err
		}
		off = n
		rd.fileStats = append(rd.fileStats, st)
	}
	return nil
}

// Schema returns the file schema.
func (rd *Reader) Schema() datum.Schema { return rd.schema }

// NumRows returns the total row count.
func (rd *Reader) NumRows() int64 { return rd.numRows }

// UserMeta returns the footer's user metadata.
func (rd *Reader) UserMeta() map[string]string { return rd.userMeta }

// NumStripes returns the stripe count.
func (rd *Reader) NumStripes() int { return len(rd.stripes) }

// StripeStats returns the per-column statistics of stripe i.
func (rd *Reader) StripeStats(i int) []ColumnStats { return rd.stripes[i].stats }

// FileStats returns the file-level per-column statistics.
func (rd *Reader) FileStats() []ColumnStats { return rd.fileStats }

// StripeRows returns the row count of stripe i.
func (rd *Reader) StripeRows(i int) int64 { return rd.stripes[i].rows }

// RowReaderOptions configures a scan.
type RowReaderOptions struct {
	// Columns projects a subset of columns by index (nil = all). A
	// batch still has one vector per schema column; unprojected
	// columns are all NULL — this keeps column indexes stable for the
	// engine.
	Columns []int
	// SearchArg prunes stripes by statistics.
	SearchArg *SearchArg
}

// columnCursor decodes one column of the current stripe.
type columnCursor struct {
	kind     datum.Kind
	presence *bitReader
	ints     *intDecoder
	floats   *floatDecoder
	bools    *bitReader
	// string state
	dict    []string
	indices *intDecoder
	lens    *intDecoder
	blob    []byte
	blobOff int
}

// openStripeCursors reads and decodes the projected column streams of
// one stripe. Stream extents come from the footer, so they are checked
// against the file size before anything is allocated.
func (rd *Reader) openStripeCursors(sm stripeMeta, project []bool) ([]*columnCursor, error) {
	cols := make([]*columnCursor, len(rd.schema))
	for i := range rd.schema {
		if !project[i] {
			continue
		}
		st := sm.streams[i]
		start := sm.offset + st.relOff
		if start < sm.offset || start > uint64(rd.size) || st.length > uint64(rd.size)-start {
			return nil, fmt.Errorf("%w: column %s stream out of bounds", ErrCorrupt, rd.schema[i].Name)
		}
		buf := make([]byte, st.length)
		if _, err := rd.r.ReadAt(buf, int64(start)); err != nil {
			return nil, fmt.Errorf("orcfile: read stripe stream: %w", err)
		}
		if rd.compressed {
			dec, err := io.ReadAll(flate.NewReader(bytes.NewReader(buf)))
			if err != nil {
				return nil, fmt.Errorf("orcfile: decompress stream: %w", err)
			}
			buf = dec
		}
		cur, err := newColumnCursor(rd.schema[i].Kind, buf)
		if err != nil {
			return nil, err
		}
		cols[i] = cur
	}
	return cols, nil
}

func newColumnCursor(kind datum.Kind, buf []byte) (*columnCursor, error) {
	plen, c := binary.Uvarint(buf)
	if c <= 0 {
		return nil, fmt.Errorf("orcfile: bad presence length")
	}
	off := c
	if plen > uint64(len(buf)-off) {
		return nil, fmt.Errorf("%w: truncated presence bitmap", ErrCorrupt)
	}
	cur := &columnCursor{kind: kind, presence: newBitReader(buf[off : off+int(plen)])}
	data := buf[off+int(plen):]
	switch kind {
	case datum.KindInt:
		cur.ints = newIntDecoder(data)
	case datum.KindFloat:
		cur.floats = newFloatDecoder(data)
	case datum.KindBool:
		cur.bools = newBitReader(data)
	case datum.KindString:
		if len(data) == 0 {
			// Zero non-null strings in this stripe.
			cur.lens = newIntDecoder(nil)
			cur.blob = nil
			break
		}
		mode := data[0]
		data = data[1:]
		if mode == 0x01 { // dictionary
			n, c := binary.Uvarint(data)
			if c <= 0 {
				return nil, fmt.Errorf("orcfile: bad dict size")
			}
			p := c
			if n > uint64(len(data)-p) { // every entry takes at least one byte
				return nil, fmt.Errorf("%w: dictionary count %d exceeds %d stream bytes", ErrCorrupt, n, len(data)-p)
			}
			dict := make([]string, 0, n)
			for i := uint64(0); i < n; i++ {
				s, np, err := readBytesVal(data, p)
				if err != nil {
					return nil, err
				}
				dict = append(dict, s)
				p = np
			}
			il, c2 := binary.Uvarint(data[p:])
			if c2 <= 0 {
				return nil, fmt.Errorf("orcfile: bad dict index length")
			}
			p += c2
			if il > uint64(len(data)-p) {
				return nil, fmt.Errorf("%w: truncated dict indices", ErrCorrupt)
			}
			cur.dict = dict
			cur.indices = newIntDecoder(data[p : p+int(il)])
		} else { // direct
			ll, c := binary.Uvarint(data)
			if c <= 0 {
				return nil, fmt.Errorf("orcfile: bad length-stream size")
			}
			p := c
			if ll > uint64(len(data)-p) {
				return nil, fmt.Errorf("%w: truncated length stream", ErrCorrupt)
			}
			cur.lens = newIntDecoder(data[p : p+int(ll)])
			cur.blob = data[p+int(ll):]
		}
	default:
		return nil, fmt.Errorf("orcfile: unsupported column kind %v", kind)
	}
	return cur, nil
}
