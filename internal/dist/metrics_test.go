package dist

import (
	"strings"
	"sync"
	"testing"

	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

func TestMetricsShipAndQuery(t *testing.T) {
	type ship struct {
		from, to, n int
		bytes       int64
	}
	tests := []struct {
		name         string
		sites        int
		ships        []ship
		wantTotal    int64
		wantBytes    int64
		wantReceived []int64
		wantSent     []int64
	}{
		{
			name:         "empty",
			sites:        3,
			wantReceived: []int64{0, 0, 0},
			wantSent:     []int64{0, 0, 0},
		},
		{
			name:         "single shipment",
			sites:        2,
			ships:        []ship{{0, 1, 5, 50}},
			wantTotal:    5,
			wantBytes:    50,
			wantReceived: []int64{0, 5},
			wantSent:     []int64{5, 0},
		},
		{
			name:  "accumulating pairs",
			sites: 3,
			ships: []ship{
				{0, 1, 5, 50}, {0, 1, 3, 30}, {1, 0, 2, 20}, {2, 1, 7, 70},
			},
			wantTotal:    17,
			wantBytes:    170,
			wantReceived: []int64{2, 15, 0},
			wantSent:     []int64{8, 2, 7},
		},
		{
			name:         "zero-tuple shipment still counts bytes",
			sites:        2,
			ships:        []ship{{1, 0, 0, 9}},
			wantTotal:    0,
			wantBytes:    9,
			wantReceived: []int64{0, 0},
			wantSent:     []int64{0, 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewMetrics(tt.sites)
			if got := m.Snapshot().Sites; got != tt.sites {
				t.Fatalf("Sites = %d, want %d", got, tt.sites)
			}
			for _, s := range tt.ships {
				m.ShipTuples(s.from, s.to, s.n, s.bytes)
			}
			if got := m.TotalTuples(); got != tt.wantTotal {
				t.Errorf("TotalTuples = %d, want %d", got, tt.wantTotal)
			}
			if got := m.Snapshot().TotalBytes; got != tt.wantBytes {
				t.Errorf("TotalBytes = %d, want %d", got, tt.wantBytes)
			}
			sent := m.SentBySite()
			var recvSum, sentSum int64
			for i := 0; i < tt.sites; i++ {
				if got := m.ReceivedBy(i); got != tt.wantReceived[i] {
					t.Errorf("ReceivedBy(%d) = %d, want %d", i, got, tt.wantReceived[i])
				}
				if sent[i] != tt.wantSent[i] {
					t.Errorf("SentBySite[%d] = %d, want %d", i, sent[i], tt.wantSent[i])
				}
				recvSum += m.ReceivedBy(i)
				sentSum += sent[i]
			}
			// Conservation: every shipped tuple is sent once and
			// received once.
			if recvSum != m.TotalTuples() || sentSum != m.TotalTuples() {
				t.Errorf("conservation broken: recv %d sent %d total %d",
					recvSum, sentSum, m.TotalTuples())
			}
		})
	}
}

func TestMetricsZeroSites(t *testing.T) {
	m := NewMetrics(0)
	if got := len(m.SentBySite()); got != 0 {
		t.Errorf("SentBySite length = %d", got)
	}
	m.Merge(NewMetrics(0)) // must not panic
	r := m.Snapshot()
	if r.Sites != 0 || r.TotalTuples != 0 || r.TotalBytes != 0 {
		t.Errorf("snapshot of empty metrics: %+v", r)
	}
}

func TestMetricsPanicsOnBadSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range site pair should panic")
		}
	}()
	NewMetrics(2).ShipTuples(0, 2, 1, 1)
}

func TestMetricsControlSeparateFromTuples(t *testing.T) {
	m := NewMetrics(3)
	m.Control(0, 1, 100)
	m.Control(0, 2, 100)
	m.Control(1, 0, 8)
	if m.TotalTuples() != 0 {
		t.Error("control traffic must not count as tuple shipment")
	}
	r := m.Snapshot()
	if r.ControlMessages != 3 {
		t.Errorf("ControlMessages = %d, want 3", r.ControlMessages)
	}
	if r.ControlBytes != 208 {
		t.Errorf("ControlBytes = %d, want 208", r.ControlBytes)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := NewMetrics(2)
	a.ShipTuples(0, 1, 3, 30)
	a.Control(0, 1, 5)
	b := NewMetrics(2)
	b.ShipTuples(0, 1, 4, 40)
	b.ShipTuples(1, 0, 1, 10)
	a.Merge(b)
	a.Merge(nil) // no-op
	if got := a.TotalTuples(); got != 8 {
		t.Errorf("merged TotalTuples = %d, want 8", got)
	}
	if got := a.ReceivedBy(1); got != 7 {
		t.Errorf("merged ReceivedBy(1) = %d, want 7", got)
	}
	if r := a.Snapshot(); r.TotalBytes != 80 || r.ControlMessages != 1 {
		t.Errorf("merged TotalBytes = %d, ControlMessages = %d, want 80 and 1", r.TotalBytes, r.ControlMessages)
	}
	// b is untouched.
	if b.TotalTuples() != 5 {
		t.Error("merge source modified")
	}
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched site counts should panic")
		}
	}()
	a.Merge(NewMetrics(3))
}

func TestSnapshotIsACopy(t *testing.T) {
	m := NewMetrics(2)
	m.ShipTuples(0, 1, 2, 20)
	r := m.Snapshot()
	m.ShipTuples(0, 1, 5, 50)
	if r.Tuples[0][1] != 2 || r.TotalTuples != 2 {
		t.Errorf("snapshot not isolated from later recording: %+v", r)
	}
	out := r.String()
	for _, want := range []string{"S0", "S1", "total: 2 tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsConcurrentRecording drives ShipTuples / Control / readers
// from many goroutines; run with -race this is the regression test for
// the metrics being shared across the parallel site phases and across
// parallel unit workers.
func TestMetricsConcurrentRecording(t *testing.T) {
	const sites, workers, per = 4, 8, 500
	m := NewMetrics(sites)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				from := (w + i) % sites
				to := (from + 1 + i%(sites-1)) % sites
				m.ShipTuples(from, to, 1, 10)
				m.Control(from, to, 8)
				if i%100 == 0 {
					_ = m.TotalTuples()
					_ = m.SentBySite()
					_ = m.Snapshot()
				}
			}
		}(w)
	}
	// Concurrent merging into a separate total.
	total := NewMetrics(sites)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			total.Merge(m)
		}
	}()
	wg.Wait()
	<-done
	if got := m.TotalTuples(); got != workers*per {
		t.Errorf("lost updates: TotalTuples = %d, want %d", got, workers*per)
	}
	if got := m.Snapshot().ControlMessages; got != workers*per {
		t.Errorf("lost control updates: %d, want %d", got, workers*per)
	}
}

func TestRelationBytes(t *testing.T) {
	if RelationBytes(nil) != 0 {
		t.Error("nil relation should weigh 0")
	}
	s := relation.MustSchema("R", []string{"a", "b"})
	r := relation.MustFromRows(s, []string{"xy", "z"}, []string{"", "qqqq"})
	// (2+1)+(1+1) + (0+1)+(4+1) = 11
	if got := RelationBytes(r); got != 11 {
		t.Errorf("RelationBytes = %d, want 11", got)
	}
}

// countingPacked counts the column decodes a consumer asks of a packed
// payload.
type countingPacked struct {
	relation.PackedColumnReader
	reads int
}

func (c *countingPacked) ReadColumn(i, lo int, dst []uint32) error {
	c.reads++
	return c.PackedColumnReader.ReadColumn(i, lo, dst)
}

// TestRelationBytesDoesNotDecodePackedStorage pins the relay's bill: a
// relation whose storage is a packed payload is charged that payload's
// size without one column being decoded; once the payload is detached
// (DropPacked) it is measured — and so decoded — like any other.
func TestRelationBytesDoesNotDecodePackedStorage(t *testing.T) {
	s := relation.MustSchema("R", []string{"a", "b"})
	src := relation.New(s)
	for i := 0; i < 1000; i++ {
		src.MustAppend(relation.Tuple{"a", string(rune('b' + i%3))})
	}
	cols := make([][]uint32, 2)
	dicts := make([]*relation.Dict, 2)
	for j := range cols {
		cols[j], dicts[j] = src.Encoded().Column(j)
	}
	p, err := colstore.PackColumns(dicts, cols, src.Len())
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPacked{PackedColumnReader: p}
	backed, err := relation.FromPackedReader(s, cp)
	if err != nil {
		t.Fatal(err)
	}
	form, n := ChooseWireForm(backed)
	if form != PackedForm || n != p.PackedSize() || RelationBytes(backed) != n {
		t.Errorf("packed storage billed as form %d, %d bytes; want the payload's own %d", form, n, p.PackedSize())
	}
	if cp.reads != 0 {
		t.Errorf("billing a packed payload decoded %d column(s)", cp.reads)
	}
	backed.DropPacked()
	if form, n := ChooseWireForm(backed); form == PackedForm || n != RelationBytes(src) {
		t.Errorf("after DropPacked: form %d, %d bytes; want the tuple-built relation's %d", form, n, RelationBytes(src))
	}
	if cp.reads == 0 {
		t.Error("after DropPacked the columns must be measured, which decodes them")
	}
}

// TestDeltaChannel pins the incremental data plane: ShipDelta
// accumulates apart from the regular matrices, flows through Snapshot
// and Merge, and never leaks into |M|.
func TestDeltaChannel(t *testing.T) {
	m := NewMetrics(3)
	m.ShipTuples(0, 1, 10, 100)
	m.ShipDelta(0, 1, 2, 20)
	m.ShipDelta(2, 1, 3, 30)
	if got := m.TotalTuples(); got != 10 {
		t.Errorf("delta shipments leaked into |M|: %d", got)
	}
	if got := m.DeltaTuples(); got != 5 {
		t.Errorf("DeltaTuples = %d, want 5", got)
	}
	if got := m.DeltaBytes(); got != 50 {
		t.Errorf("DeltaBytes = %d, want 50", got)
	}
	r := m.Snapshot()
	if r.TotalDeltaTuples != 5 || r.TotalDeltaBytes != 50 {
		t.Errorf("report delta totals (%d, %d), want (5, 50)", r.TotalDeltaTuples, r.TotalDeltaBytes)
	}
	if r.DeltaTuples[2][1] != 3 || r.DeltaBytes[0][1] != 20 {
		t.Errorf("report delta matrices wrong: %v %v", r.DeltaTuples, r.DeltaBytes)
	}
	other := NewMetrics(3)
	other.ShipDelta(1, 0, 7, 70)
	m.Merge(other)
	if got := m.DeltaTuples(); got != 12 {
		t.Errorf("merged DeltaTuples = %d, want 12", got)
	}
	if !strings.Contains(m.Snapshot().String(), "delta channel: 12 tuples") {
		t.Errorf("report rendering omits the delta channel:\n%s", m.Snapshot())
	}
}
