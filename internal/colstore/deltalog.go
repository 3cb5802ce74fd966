package colstore

import (
	"encoding/binary"
	"fmt"
	"os"

	"distcfd/internal/relation"
)

// DeltaLog persists relation.Delta batches next to a fragment file.
// Each record is
//
//	u32 payload length | u64 FNV-1a checksum | payload
//
// with the payload a self-delimiting encoding of the delta (delete
// indices, then inserted tuples). Appends go straight to the file; a
// crash mid-append leaves a torn tail, which Open detects by length or
// checksum and truncates away — the driver's generation watermark then
// reports the site stale and reseeds, exactly as for any other lost
// suffix.
type DeltaLog struct {
	f      logFile
	buf    []byte
	acked  int64 // file length up to the last acknowledged record
	broken error // a failed append could not be rolled back
}

// logFile is *os.File, narrowed so a test can fail the n-th write or sync.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

const deltaRecHeader = 4 + 8

// OpenDeltaLog opens (creating if absent) the delta log at path for a
// fragment of the given arity, replays every intact record, truncates
// any torn tail, and returns the log positioned for appending plus the
// replayed deltas in append order.
func OpenDeltaLog(path string, arity int) (*DeltaLog, []relation.Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("colstore: reading delta log: %w", err)
	}
	var deltas []relation.Delta
	good := 0
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < deltaRecHeader {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(rest))
		sum := binary.LittleEndian.Uint64(rest[4:])
		if len(rest)-deltaRecHeader < n {
			break // torn payload
		}
		payload := rest[deltaRecHeader : deltaRecHeader+n]
		if checksum(payload) != sum {
			break // corrupt or torn record: stop replay here
		}
		d, err := decodeDelta(payload, arity)
		if err != nil {
			return nil, nil, fmt.Errorf("colstore: delta log %s record %d: %w", path, len(deltas), err)
		}
		deltas = append(deltas, d)
		off += deltaRecHeader + n
		good = off
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("colstore: opening delta log: %w", err)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("colstore: truncating torn delta log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &DeltaLog{f: f, acked: int64(good)}, deltas, nil
}

// Append writes one delta record and syncs it to disk before
// returning, so an acknowledged delta survives a crash. A failed append
// is cut back out: torn, it would hide every later record from replay;
// intact, it would replay a delta its caller was told failed (and retries).
func (l *DeltaLog) Append(d relation.Delta) error {
	if l.broken != nil {
		return l.broken
	}
	rec := encodeDelta(append(l.buf[:0], make([]byte, deltaRecHeader)...), d)
	l.buf = rec
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-deltaRecHeader))
	binary.LittleEndian.PutUint64(rec[4:], checksum(rec[deltaRecHeader:]))
	_, err := l.f.Write(rec) // one write: header and payload tear together
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.acked += int64(len(rec))
		return nil
	}
	rerr := l.f.Truncate(l.acked)
	if rerr == nil {
		_, rerr = l.f.Seek(l.acked, 0)
	}
	if rerr != nil {
		l.broken = fmt.Errorf("colstore: delta log refuses appends: rolling back a failed one: %v", rerr)
	}
	return fmt.Errorf("colstore: appending delta: %w", err)
}

// Close closes the log file.
func (l *DeltaLog) Close() error { return l.f.Close() }

// encodeDelta serializes d: uvarint delete count and indices, then
// uvarint insert count and length-prefixed values.
func encodeDelta(b []byte, d relation.Delta) []byte {
	b = binary.AppendUvarint(b, uint64(len(d.Deletes)))
	for _, idx := range d.Deletes {
		b = binary.AppendUvarint(b, uint64(idx))
	}
	b = binary.AppendUvarint(b, uint64(len(d.Inserts)))
	for _, t := range d.Inserts {
		for _, v := range t {
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
	}
	return b
}

func decodeDelta(b []byte, arity int) (relation.Delta, error) {
	var d relation.Delta
	uv := func() (uint64, bool) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 {
			return 0, false
		}
		b = b[sz:]
		return n, true
	}
	ndel, ok := uv()
	if !ok || ndel > uint64(len(b)) {
		return d, fmt.Errorf("truncated delete count")
	}
	if ndel > 0 {
		d.Deletes = make([]int, ndel)
		for i := range d.Deletes {
			idx, ok := uv()
			if !ok {
				return d, fmt.Errorf("truncated delete index")
			}
			d.Deletes[i] = int(idx)
		}
	}
	nins, ok := uv()
	if !ok || nins > uint64(len(b)) {
		return d, fmt.Errorf("truncated insert count")
	}
	if nins > 0 {
		d.Inserts = make([]relation.Tuple, nins)
		for i := range d.Inserts {
			t := make(relation.Tuple, arity)
			for j := range t {
				l, ok := uv()
				if !ok || l > uint64(len(b)) {
					return d, fmt.Errorf("truncated insert value")
				}
				t[j] = string(b[:l])
				b = b[l:]
			}
			d.Inserts[i] = t
		}
	}
	if len(b) != 0 {
		return d, fmt.Errorf("%d trailing bytes in delta record", len(b))
	}
	return d, nil
}
