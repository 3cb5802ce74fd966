package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"distcfd/internal/relation"
)

// failingFile fails the n-th Write — short: half the record lands — or
// the n-th Sync of a delta log, and every Truncate when asked to.
type failingFile struct {
	*os.File
	failWrite, failSync int // 1-based call to fail; 0: none
	failTruncate        bool
	writes, syncs       int
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.writes++; f.writes == f.failWrite {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

func (f *failingFile) Sync() error {
	if f.syncs++; f.syncs == f.failSync {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func (f *failingFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestDeltaLogFailedAppendLeavesNothing: an append that returned an
// error is not in the log — a reopen replays the acknowledged deltas,
// all of them and nothing else — and a log that cannot roll a failed
// append back refuses further ones.
func TestDeltaLogFailedAppendLeavesNothing(t *testing.T) {
	delta := func(v string) relation.Delta { return relation.Delta{Inserts: []relation.Tuple{{v, "1"}}} }
	for name, ff := range map[string]*failingFile{
		"short write":     {failWrite: 2},
		"failed sync":     {failSync: 2},
		"failed rollback": {failSync: 2, failTruncate: true},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), DeltaLogFile)
			l, _, err := OpenDeltaLog(path, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ff.File = l.f.(*os.File)
			l.f = ff
			if err := l.Append(delta("a")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(delta("failed")); err == nil {
				t.Fatal("the injected failure did not surface")
			}
			err = l.Append(delta("b"))
			if ff.failTruncate {
				if err == nil {
					t.Fatal("append accepted behind a record that could not be rolled back")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			l2, replayed, err := OpenDeltaLog(path, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if want := []relation.Delta{delta("a"), delta("b")}; !reflect.DeepEqual(replayed, want) {
				t.Errorf("replayed %+v, want the acknowledged %+v", replayed, want)
			}
		})
	}
}

// noSync skips the fsync: FuzzDeltaLog checks bytes, not durability,
// and spends its ten seconds on executions instead.
type noSync struct{ *os.File }

func (noSync) Sync() error { return nil }

// FuzzDeltaLog hands OpenDeltaLog arbitrary bytes as a delta.log. It
// never panics; it replays exactly the intact prefix — the records whose
// length and checksum hold — and cuts the file to it; a checksummed
// record that does not decode is not a torn tail, so the open fails and
// leaves the file alone; and an Append after the open is the last delta
// of the next one. The seeds are in testdata/fuzz/FuzzDeltaLog.
func FuzzDeltaLog(f *testing.F) {
	const arity = 2
	path := filepath.Join(f.TempDir(), DeltaLogFile) // one file per fuzz process, rewritten per input
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle walks the framing on its own.
		var want []relation.Delta
		intact, undecodable := 0, false
		for len(data)-intact >= deltaRecHeader {
			rest := data[intact:]
			n := int(binary.LittleEndian.Uint32(rest))
			if n > len(rest)-deltaRecHeader {
				break
			}
			payload := rest[deltaRecHeader : deltaRecHeader+n]
			if checksum(payload) != binary.LittleEndian.Uint64(rest[4:]) {
				break
			}
			d, err := decodeDelta(payload, arity)
			if undecodable = err != nil; undecodable {
				break
			}
			want = append(want, d)
			intact += deltaRecHeader + n
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := OpenDeltaLog(path, arity)
		if undecodable {
			if after, _ := os.ReadFile(path); err == nil || !bytes.Equal(after, data) {
				t.Fatalf("a checksummed record that does not decode: open error %v, file changed %v", err, !bytes.Equal(after, data))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := os.Stat(path); !reflect.DeepEqual(got, want) || st.Size() != int64(intact) {
			t.Fatalf("replayed %d deltas into a %d-byte file, want %d into %d", len(got), st.Size(), len(want), intact)
		}
		extra := relation.Delta{Deletes: []int{1}, Inserts: []relation.Tuple{{"x", ""}}}
		l.f = noSync{l.f.(*os.File)}
		if err := l.Append(extra); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2, got, err := OpenDeltaLog(path, arity)
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if len(got) != len(want)+1 || !reflect.DeepEqual(got[len(want)], extra) {
			t.Fatalf("reopen replayed %d deltas, want %d ending in the appended one", len(got), len(want)+1)
		}
	})
}
