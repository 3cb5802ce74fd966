package core

import (
	"runtime"

	"distcfd/internal/relation"
)

// newSiteWith wires a Site around any siteFragment; its checks shard
// rows across this machine's cores.
func newSiteWith(id int, frag siteFragment, pred relation.Predicate) *Site {
	return &Site{
		id:           id,
		frag:         frag,
		pred:         pred,
		intraWorkers: runtime.GOMAXPROCS(0),
		deposits:     make(map[string][]*relation.Relation),
		cancelled:    newFifo[struct{}](cancelledCap),
		nonces:       newFifo[struct{}](nonceCap),
		deltaNonces:  newFifo[DeltaInfo](deltaNonceCap),
		sessions:     make(map[string]*foldSession),
	}
}

// OpenStoreSite opens a site whose fragment lives in a colstore
// directory: the packed fragment file is mapped read-only and served
// chunk by chunk, and the site's delta log is persisted — ApplyDelta
// appends each delta to the directory's WAL before mutating the
// overlay, and reopening the directory replays the WAL over the same
// base file, recovering the exact pre-crash tuple order (so a
// recovered site produces byte-identical detection output).
//
// The recovered generation equals the number of replayed deltas, and
// the in-memory routing log restarts empty at that generation:
// incremental sessions from before the restart see a stale error and
// reseed, exactly as they must (their retained fold states died with
// the process).
//
// The caller owns the returned site's resources: Close it when done.
func OpenStoreSite(id int, dir string, pred relation.Predicate) (*Site, error) {
	f, replayed, err := openStoreFrag(dir)
	if err != nil {
		return nil, err
	}
	s := newSiteWith(id, f, pred)
	s.gen = int64(replayed)
	s.dlogStart = s.gen
	return s, nil
}

// Close releases the fragment's resources — the file mapping and WAL
// handle of a store-backed site. In-memory sites close trivially.
// Close must not run concurrently with detection or ApplyDelta.
func (s *Site) Close() error {
	return s.frag.Close()
}
