// Package dist is the distribution-accounting subsystem: the shipment
// metrics every detection run records (data plane and control plane,
// per site pair) and the response-time cost model cost(D, Σ, M) of
// Section IV-B that turns a shipment plan into the paper's modeled
// response time.
//
// A *Metrics is shared by the parallel phases of the algorithms —
// every site records its shipments from its own goroutine — so all
// recording and reading is internally synchronized and a *Metrics may
// also be merged across concurrently running units of one detection.
package dist

import (
	"fmt"
	"strings"
	"sync"

	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

// channel names one counter vector of a Metrics. The pair channels are
// flat [from*n+to] matrices and come in (count, payload bytes) pairs,
// the count first.
type channel int

const (
	// Fault-tolerance channel (per site, not per pair): retried calls
	// and failed call attempts, kept apart from every shipment matrix. A
	// retried call re-ships nothing the accounting sees — the data and
	// control planes record only what the successful attempt moved — so
	// a faulted run under the Retry policy reports byte-identical
	// shipment figures to a fault-free run, with the turbulence visible
	// only here.
	chRetries channel = iota
	chFaults
	// Control plane (pair channels start here): statistics and
	// mined-pattern broadcasts, which the paper accounts separately from
	// tuple shipment.
	chCtlMsgs
	chCtlBytes
	// Data plane: tuple shipments with their payload sizes.
	chTuples
	chBytes
	// Delta channel: the tuples an incremental run actually put on the
	// wire (delta blocks — inserts plus delete records), kept apart
	// from chTuples, which an incremental run fills with the modeled
	// full-recompute equivalent so ShippedTuples and ModeledTime stay
	// comparable across serving modes. Equivalent *bytes* would require
	// materializing the unshipped blocks, so chBytes stays zero on
	// incremental runs and byte accounting lives on this channel. The
	// ΔD-scaling figures plot this channel.
	chDeltaTuples
	chDeltaBytes
	numChannels
)

// Metrics accumulates the data movement of one detection run over an
// n-site cluster, one counter vector per channel. The zero value is
// unusable; call NewMetrics.
type Metrics struct {
	mu sync.Mutex
	n  int
	ch [numChannels][]int64
}

// NewMetrics creates metrics for an n-site cluster. n may be zero (an
// empty cluster records nothing).
func NewMetrics(n int) *Metrics {
	if n < 0 {
		panic(fmt.Sprintf("dist: NewMetrics with %d sites", n))
	}
	m := &Metrics{n: n}
	for ch := range m.ch {
		size := n * n
		if channel(ch) < chCtlMsgs {
			size = n
		}
		m.ch[ch] = make([]int64, size)
	}
	return m
}

func (m *Metrics) idx(from, to int) int {
	if from < 0 || from >= m.n || to < 0 || to >= m.n {
		panic(fmt.Sprintf("dist: site pair (%d,%d) out of range [0,%d)", from, to, m.n))
	}
	return from*m.n + to
}

// record adds one (count, payload bytes) observation for the site pair
// to the channel pair starting at ch.
func (m *Metrics) record(ch channel, from, to int, count, payloadBytes int64) {
	i := m.idx(from, to)
	m.mu.Lock()
	m.ch[ch][i] += count
	m.ch[ch+1][i] += payloadBytes
	m.mu.Unlock()
}

// ShipTuples records site `from` shipping n tuples totalling
// payloadBytes to site `to` (data plane). Safe for concurrent use.
func (m *Metrics) ShipTuples(from, to, n int, payloadBytes int64) {
	m.record(chTuples, from, to, int64(n), payloadBytes)
}

// Control records one control-plane message of payloadBytes from site
// `from` to site `to` (lstat vectors, mined patterns). Control traffic
// is kept out of the tuple counts: the paper's cost model treats it as
// negligible, but the accounting is reported. Safe for concurrent use.
func (m *Metrics) Control(from, to int, payloadBytes int64) {
	m.record(chCtlMsgs, from, to, 1, payloadBytes)
}

// ShipDelta records site `from` shipping a delta block of n tuples
// (inserts or delete records) totalling payloadBytes to site `to` on
// the incremental data plane. Safe for concurrent use.
func (m *Metrics) ShipDelta(from, to, n int, payloadBytes int64) {
	m.record(chDeltaTuples, from, to, int64(n), payloadBytes)
}

// AddFaultStats charges retried calls and failed call attempts against
// site `site` on the fault-tolerance channel. Safe for concurrent use.
func (m *Metrics) AddFaultStats(site int, retries, faults int64) {
	if site < 0 || site >= m.n {
		panic(fmt.Sprintf("dist: site %d out of range [0,%d)", site, m.n))
	}
	m.mu.Lock()
	m.ch[chRetries][site] += retries
	m.ch[chFaults][site] += faults
	m.mu.Unlock()
}

// total sums one counter vector under the lock.
func (m *Metrics) total(xs []int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sum64(xs)
}

// DeltaTuples returns the total tuples shipped on the delta channel.
func (m *Metrics) DeltaTuples() int64 { return m.total(m.ch[chDeltaTuples]) }

// DeltaBytes returns the total delta-channel payload bytes.
func (m *Metrics) DeltaBytes() int64 { return m.total(m.ch[chDeltaBytes]) }

// TotalTuples returns |M|, the total tuple shipments of the run.
func (m *Metrics) TotalTuples() int64 { return m.total(m.ch[chTuples]) }

// ReceivedBy returns the number of tuples shipped to site i.
func (m *Metrics) ReceivedBy(i int) int64 {
	m.idx(i, i)
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	for from := 0; from < m.n; from++ {
		sum += m.ch[chTuples][from*m.n+i]
	}
	return sum
}

// SentBySite returns the per-site sent-tuple vector (the paper's |Mi|),
// the quantity the response-time model charges transfer time for.
func (m *Metrics) SentBySite() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, m.n)
	for from := range out {
		out[from] = sum64(m.ch[chTuples][from*m.n : (from+1)*m.n])
	}
	return out
}

// Merge adds o's counters into m; a nil o is a no-op. Both metrics
// must cover the same number of sites. o's lock nests inside m's, so o
// may still be recording; merges must not form a cycle.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	if o.n != m.n {
		panic(fmt.Sprintf("dist: merging metrics over %d sites into %d", o.n, m.n))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	for ch := range o.ch {
		for i, v := range o.ch[ch] {
			m.ch[ch][i] += v
		}
	}
}

// Report is a point-in-time copy of a Metrics, safe to read, range
// over, and render without further synchronization (cmd tooling and
// the experiment harness consume this form).
type Report struct {
	// Sites is the cluster size.
	Sites int
	// Tuples[from][to] counts tuples shipped from site from to site to.
	Tuples [][]int64
	// Bytes[from][to] is the matching payload size.
	Bytes [][]int64
	// CtlMsgs and CtlBytes are the control-plane matrices.
	CtlMsgs  [][]int64
	CtlBytes [][]int64
	// DeltaTuples / DeltaBytes are the incremental data plane: what a
	// delta-aware run actually shipped, while Tuples/Bytes report the
	// modeled full-recompute equivalent (zero on one-shot runs, which
	// record everything on the regular channel).
	DeltaTuples [][]int64
	DeltaBytes  [][]int64
	// TotalTuples is |M|; TotalBytes the data-plane payload total.
	TotalTuples int64
	TotalBytes  int64
	// ControlMessages / ControlBytes total the control plane.
	ControlMessages int64
	ControlBytes    int64
	// TotalDeltaTuples / TotalDeltaBytes total the delta channel.
	TotalDeltaTuples int64
	TotalDeltaBytes  int64
	// Retries / Faults are the per-site fault-tolerance channel:
	// retried site calls and failed call attempts. Zero on fault-free
	// runs; every shipment matrix above is unaffected by retries.
	Retries []int64
	Faults  []int64
	// TotalRetries / TotalFaults total the fault-tolerance channel.
	TotalRetries int64
	TotalFaults  int64
}

// Snapshot copies the current counters into a Report.
func (m *Metrics) Snapshot() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Report{
		Sites:            m.n,
		Tuples:           square(m.ch[chTuples], m.n),
		Bytes:            square(m.ch[chBytes], m.n),
		CtlMsgs:          square(m.ch[chCtlMsgs], m.n),
		CtlBytes:         square(m.ch[chCtlBytes], m.n),
		DeltaTuples:      square(m.ch[chDeltaTuples], m.n),
		DeltaBytes:       square(m.ch[chDeltaBytes], m.n),
		TotalTuples:      sum64(m.ch[chTuples]),
		TotalBytes:       sum64(m.ch[chBytes]),
		ControlMessages:  sum64(m.ch[chCtlMsgs]),
		ControlBytes:     sum64(m.ch[chCtlBytes]),
		TotalDeltaTuples: sum64(m.ch[chDeltaTuples]),
		TotalDeltaBytes:  sum64(m.ch[chDeltaBytes]),
		Retries:          append([]int64(nil), m.ch[chRetries]...),
		Faults:           append([]int64(nil), m.ch[chFaults]...),
		TotalRetries:     sum64(m.ch[chRetries]),
		TotalFaults:      sum64(m.ch[chFaults]),
	}
	return r
}

// String renders the shipment matrix plus totals as an aligned table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shipment matrix (tuples, %d sites)\n", r.Sites)
	fmt.Fprintf(&b, "%8s", "from\\to")
	for to := 0; to < r.Sites; to++ {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("S%d", to))
	}
	b.WriteByte('\n')
	for from := 0; from < r.Sites; from++ {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("S%d", from))
		for to := 0; to < r.Sites; to++ {
			fmt.Fprintf(&b, " %8d", r.Tuples[from][to])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total: %d tuples, %d bytes; control: %d messages, %d bytes\n",
		r.TotalTuples, r.TotalBytes, r.ControlMessages, r.ControlBytes)
	if r.TotalDeltaTuples > 0 || r.TotalDeltaBytes > 0 {
		fmt.Fprintf(&b, "delta channel: %d tuples, %d bytes actually shipped\n",
			r.TotalDeltaTuples, r.TotalDeltaBytes)
	}
	if r.TotalRetries > 0 || r.TotalFaults > 0 {
		fmt.Fprintf(&b, "fault channel: %d retried calls, %d failed attempts\n",
			r.TotalRetries, r.TotalFaults)
	}
	return b.String()
}

// WireForm names one of the three encodings a relation can take on the
// wire.
type WireForm int

const (
	// RowForm ships one string slice per tuple: value bytes plus one
	// separator byte per value.
	RowForm WireForm = iota
	// ColumnForm ships per-column dictionaries plus four bytes per cell
	// ID.
	ColumnForm
	// PackedForm ships the colstore payload verbatim: dictionary sections
	// plus bit-packed/RLE chunk bytes plus eight bounds bytes per chunk.
	PackedForm
)

// ChooseWireForm decides how a relation ships and what the shipment is
// billed: the smallest of its wire forms and that form's modeled size.
// remote.ToWire emits the form it names and RelationBytes charges the
// size it returns, in-process and over RPC alike. A payload received
// off the wire ships as it arrived, billed the size of the form it came
// in, read off its sections: the sender priced and chose it, so a relay
// neither decodes nor measures it again, and a peer shipping a larger
// form than the smallest is billed what it shipped. Schema metadata is
// not charged — the task key identifies it.
//
// The row and dict+ID sizes are Relation.PayloadSizes' integers, a
// counted relation's its bag's. A store site's packed extract takes
// them from its payload, priced while packing (PackedColumnReader.
// PayloadSizes); any other relation walks its columns.
func ChooseWireForm(r *relation.Relation) (WireForm, int64) {
	if r == nil {
		return RowForm, 0
	}
	switch p := r.Received().(type) {
	case *colstore.Sections:
		if p.InRows() {
			return RowForm, p.Size()
		}
		return ColumnForm, p.Size()
	case relation.PackedColumnReader:
		return PackedForm, p.PackedSize()
	}
	if pr, _ := r.PackedPayload(); pr != nil {
		if raw, encoded, err := pr.PayloadSizes(); err == nil {
			if form, n := Smallest(raw, encoded); n <= pr.PackedSize() {
				return form, n
			}
			return PackedForm, pr.PackedSize()
		}
	}
	return Smallest(r.PayloadSizes())
}

// Smallest is the row and dict+ID forms compared, ties to the row form:
// the one comparison of them, the sender's (remote.ToWire) included.
func Smallest(raw, encoded int64) (WireForm, int64) {
	if encoded < raw {
		return ColumnForm, encoded
	}
	return RowForm, raw
}

// RelationBytes is the modeled wire payload of shipping r: the size of
// the form ChooseWireForm picks.
func RelationBytes(r *relation.Relation) int64 {
	_, n := ChooseWireForm(r)
	return n
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func square(flat []int64, n int) [][]int64 {
	out := make([][]int64, n)
	for i := 0; i < n; i++ {
		out[i] = append([]int64(nil), flat[i*n:(i+1)*n]...)
	}
	return out
}
