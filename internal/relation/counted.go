package relation

import (
	"fmt"
	"math"
)

// A counted relation stores a bag as its distinct rows plus one count
// a row: stored row i stands for counts[i] tuples. Every σ-block a store
// site gathers and ships is packed that way (colstore.Gather.Pack): the
// extract and the incremental seed alike. The coordinator's fresh check
// is set-semantic, so Merge reads the distinct rows and ignores the
// counts; the incremental fold (engine.IncrementalState.FoldRelation)
// weighs each row by its count, so nothing refuses a counted relation.
// Everything that bills the bag — ShippedTuples, DeltaShippedTuples,
// the row and dict+ID prices — reads BagLen and PayloadSizes, which
// weigh each row by its count and so equal what the expanded bag bills.

// counted is the count column SetCounts gave a relation and its sum. A
// relation stored in a counted packed payload reads its payload's
// instead (countedPayload), decoded only if something asks.
type counted struct {
	counts []uint32
	bag    int
}

// MaxBag is the most tuples a counted relation may stand for: a bag is
// at most a fragment, whose rows are named by int32 refs.
const MaxBag = math.MaxInt32

// CheckCounts verifies counts as the count column of rows stored rows —
// one count a row, none zero, their sum at most MaxBag — and returns
// the sum. It is the check every count column a peer sent passes.
func CheckCounts(counts []uint32, rows int) (int, error) {
	if len(counts) != rows {
		return 0, fmt.Errorf("relation: %d counts for %d rows", len(counts), rows)
	}
	sum := 0
	for i, c := range counts {
		if c == 0 {
			return 0, fmt.Errorf("relation: row %d has count 0", i)
		}
		if sum += int(c); sum > MaxBag {
			return 0, fmt.Errorf("relation: counts sum past %d", MaxBag)
		}
	}
	return sum, nil
}

// SetCounts makes r counted, row i standing for counts[i] tuples
// (CheckCounts). r keeps counts, which the caller must not change
// afterwards. A counted relation is not mutated: its mutators panic.
func (r *Relation) SetCounts(counts []uint32) error {
	bag, err := CheckCounts(counts, r.Len())
	if err != nil {
		return err
	}
	r.counted = &counted{counts: counts, bag: bag}
	return nil
}

// Counts returns r's count column, nil for a plain relation. The caller
// must not modify it.
func (r *Relation) Counts() []uint32 {
	if r.counted != nil {
		return r.counted.counts
	}
	if pr := r.countedPayload(); pr != nil {
		return pr.Counts()
	}
	return nil
}

// countedPayload returns the packed payload storing r's rows when it is
// counted, nil otherwise. It stays r's storage after DropPacked, so r
// stays counted.
func (r *Relation) countedPayload() PackedColumnReader {
	if e := r.enc.Load(); e != nil {
		if pr, ok := e.reader.(PackedColumnReader); ok && pr.CountSum() > 0 {
			return pr
		}
	}
	return nil
}

// BagLen returns the tuples r stands for: Σ counts for a counted
// relation, Len for a plain one.
func (r *Relation) BagLen() int {
	if r.counted != nil {
		return r.counted.bag
	}
	if pr := r.countedPayload(); pr != nil {
		return pr.CountSum()
	}
	return r.Len()
}

// PayloadSizes prices r's bag in the row and dict+ID wire forms
// (Encoded.PayloadSizes), each row weighed by its count, so a counted
// relation prices to the same integers as its expanded bag.
func (r *Relation) PayloadSizes() (raw, encoded int64) {
	return r.Encoded().payloadSizes(r.Counts())
}
