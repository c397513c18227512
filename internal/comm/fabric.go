// Package comm is NeutronStar-Go's message fabric: typed tensor-chunk
// messages between workers, a simulated network with per-node egress and
// ingress capacity (so ring scheduling and overlap have something real to
// optimise against), the ring-based chunk schedule of §4.3, and the
// lock-free parallel message enqueue buffer of §4.3.
//
// Workers live in one process, so "communication" is a delivery time that
// one α–β schedule (wire) computes from a NetworkProfile: egress b/β, then
// latency α, then ingress b/β. One runtime timer per message delivers it
// then; with an unthrottled profile delivery is immediate.
package comm

import (
	"fmt"
	"sync"
	"time"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// MsgKind tags the role of a message in the training protocol.
type MsgKind uint8

const (
	// KindRep carries forward representations (GetFromDepNbr traffic).
	KindRep MsgKind = iota
	// KindGrad carries backward gradients (PostToDepNbr traffic).
	KindGrad
	// KindAllReduce carries parameter gradient blocks.
	KindAllReduce
	// KindSample carries sampled sub-structures (DistDGL baseline).
	KindSample
	// KindBlock carries a whole-partition block (ROC baseline).
	KindBlock
	// KindSlice carries tensor-parallel slice-exchange blocks (DepTP
	// traffic): feature-dimension shards and owner-block row ranges moved by
	// the re-gather/re-scatter collectives. Seq distinguishes the collective
	// phase within a layer (see StageOfMsg).
	KindSlice
)

// String returns the kind's protocol name (used as a metric label).
func (k MsgKind) String() string {
	switch k {
	case KindRep:
		return "rep"
	case KindGrad:
		return "grad"
	case KindAllReduce:
		return "allreduce"
	case KindSample:
		return "sample"
	case KindBlock:
		return "block"
	case KindSlice:
		return "slice"
	default:
		return "unknown"
	}
}

// TraceContext is the causal identity a message carries across the fabric:
// which epoch-level trace it belongs to, which send event it is, which
// sender-side span caused it, and when the logical send happened. It is
// stamped once per logical Send (outside any fault-injection wrapper), rides
// the v2 wire codec, and survives retransmission and duplication unchanged —
// a redelivered copy is causally the same message, which is exactly what
// keeps mailbox dedup and critical-path attribution consistent. The zero
// value means "untraced" and is always legal.
type TraceContext struct {
	// TraceID identifies the causal domain (one training epoch of one
	// recorder); all messages of an epoch share it.
	TraceID uint64
	// SpanID uniquely identifies this send event within the trace. It doubles
	// as the Chrome trace flow-event id.
	SpanID uint64
	// Parent is the sender-side span (stage interval) that caused the send;
	// zero when unknown (e.g. a background send goroutine).
	Parent uint64
	// SentUnixNano is the sender's wall clock at the logical Send.
	SentUnixNano int64
}

// Message is one fabric transfer. Vertices names the global vertex ids the
// tensor rows correspond to (may be nil when both sides share the layout).
type Message struct {
	From, To int
	Kind     MsgKind
	Epoch    int
	Layer    int
	// Seq disambiguates multiple messages with identical routing tags
	// (e.g. all-reduce ring steps).
	Seq      int
	Vertices []int32
	Rows     *tensor.Tensor
	// Trace is the causal trace context (zero when tracing is off).
	Trace TraceContext
	// sentAt is the send time TCPFabric's link writer books the message on
	// the wire schedule from, stamped at Send when a profile throttles or
	// delays; it is process-local and never serialised.
	sentAt time.Time
}

// WireBytes returns the simulated on-wire size of the message.
func (m *Message) WireBytes() int {
	b := 64 // header
	b += 4 * len(m.Vertices)
	if m.Rows != nil {
		b += m.Rows.Bytes()
	}
	return b
}

// NetworkProfile models a cluster fabric. BytesPerSec (β) bounds each node's
// egress and ingress independently (a full-duplex NIC); Latency (α) is added
// per message, in parallel across messages. Zero fields disable their term.
type NetworkProfile struct {
	Name        string
	BytesPerSec float64
	Latency     time.Duration
}

// The two cluster presets of the paper's §2.3 comparison, calibrated so the
// compute:communication ratio at this reproduction's reduced scale matches
// the original clusters' regimes: ECS is the 6 Gb/s Aliyun Ethernet cluster
// (communication-bound), IBV the 100 Gb/s InfiniBand cluster
// (computation-bound).
var (
	ProfileECS = NetworkProfile{Name: "ecs", BytesPerSec: 48e6, Latency: 150 * time.Microsecond}
	ProfileIBV = NetworkProfile{Name: "ibv", BytesPerSec: 1.6e9, Latency: 10 * time.Microsecond}
	// ProfileLocal disables throttling entirely.
	ProfileLocal = NetworkProfile{Name: "local"}
)

// Network is the transport surface engines depend on: tagged message send,
// per-worker mailboxes, teardown. Two implementations share one wire
// schedule: the in-process Fabric and the TCPFabric, which moves the same
// messages over real loopback TCP connections.
type Network interface {
	Send(msg *Message)
	Mailbox(i int) *Mailbox
	NumWorkers() int
	Close()
}

// wire is the α–β schedule both transports share (DESIGN.md §5 "Simulated
// network"). Its state is when each node's egress and ingress are next free,
// so per-link FIFO and contention at either end hold while latency
// pipelines: k messages in flight together pay α once, not k times.
type wire struct {
	p           NetworkProfile
	mu          sync.Mutex
	egressFree  []time.Time
	ingressFree []time.Time
}

// newWire returns the schedule for m workers, or nil when p neither
// throttles nor delays.
func newWire(m int, p NetworkProfile) *wire {
	if p.BytesPerSec <= 0 && p.Latency <= 0 {
		return nil
	}
	return &wire{p: p, egressFree: make([]time.Time, m), ingressFree: make([]time.Time, m)}
}

// due books msg, sent at now, on its sender's egress and its receiver's
// ingress and returns its delivery time.
func (w *wire) due(msg *Message, now time.Time) time.Time {
	var tx time.Duration // b/β
	if w.p.BytesPerSec > 0 {
		tx = time.Duration(float64(msg.WireBytes()) / w.p.BytesPerSec * float64(time.Second))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	t := later(now, w.egressFree[msg.From]).Add(tx)
	w.egressFree[msg.From] = t
	t = later(t.Add(w.p.Latency), w.ingressFree[msg.To]).Add(tx)
	w.ingressFree[msg.To] = t
	return t
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// Fabric connects m workers in one process. It owns no goroutine: a message
// is one runtime timer firing at its due time, so it pays the timer floor
// once, not once per hop. Create with NewFabric, stop with Close.
type Fabric struct {
	m      int
	tracer *obs.Tracer
	wire   *wire // nil: deliver inline
	inbox  []*Mailbox

	// mu orders arrivals against Close: arrive holds it while it stamps and
	// delivers, so nothing is stamped or delivered once Close has held it.
	mu     sync.Mutex
	closed bool
}

// NewFabric builds a fabric for m workers with the given network profile.
// tracer, when non-nil, receives a delivery stamp per arriving message.
func NewFabric(m int, profile NetworkProfile, tracer *obs.Tracer) *Fabric {
	f := &Fabric{m: m, tracer: tracer, wire: newWire(m, profile), inbox: make([]*Mailbox, m)}
	for i := range f.inbox {
		f.inbox[i] = newMailbox()
	}
	return f
}

// NumWorkers returns the number of workers the fabric connects.
func (f *Fabric) NumWorkers() int { return f.m }

// Send schedules msg for delivery and returns without blocking. Self-sends
// bypass the network entirely (local dependency handling is free, as in the
// real system's shared memory). Send panics on a closed fabric, which would
// indicate an engine lifecycle bug.
func (f *Fabric) Send(msg *Message) {
	if msg.To < 0 || msg.To >= f.m || msg.From < 0 || msg.From >= f.m {
		panic(fmt.Sprintf("comm: route %d->%d outside [0,%d)", msg.From, msg.To, f.m))
	}
	if msg.From == msg.To {
		f.inbox[msg.To].deliver(msg)
		return
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		panic("comm: Send on closed fabric")
	}
	recordSend(msg)
	if f.wire == nil {
		f.arrive(msg)
		return
	}
	time.AfterFunc(time.Until(f.wire.due(msg, time.Now())), func() { f.arrive(msg) })
}

// arrive counts and stamps msg as received and hands it to its receiver's
// mailbox, unless the fabric closed while it was on the wire.
func (f *Fabric) arrive(msg *Message) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.tracer.Received(msg.To, int64(msg.WireBytes()))
	recordDelivered(msg.To, msg)
	f.inbox[msg.To].deliver(msg)
}

// Mailbox returns worker i's mailbox.
func (f *Fabric) Mailbox(i int) *Mailbox { return f.inbox[i] }

// Close shuts the fabric down without waiting: messages still on the wire
// are dropped when they arrive.
func (f *Fabric) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	for _, mb := range f.inbox {
		mb.close()
	}
}

// routeKey identifies a logical message slot for matching.
type routeKey struct {
	kind  MsgKind
	epoch int
	layer int
	seq   int
	from  int
}

// Mailbox matches arriving messages to waiting receivers by
// (kind, epoch, layer, seq, from). The training protocol guarantees at most
// one message per key, so each key is a single-assignment cell; a duplicate
// delivery panics, because in a fault-free fabric it indicates a protocol
// bug. Under fault injection (FaultyFabric) duplicates are a deliberately
// injected condition: EnableDedup switches the mailbox to at-least-once
// semantics, where redelivered keys are silently dropped and counted.
type Mailbox struct {
	mu      sync.Mutex
	pending map[routeKey]*Message
	waiting map[routeKey]chan *Message
	closed  bool

	dedup bool
	seen  map[routeKey]struct{}

	// stage, when set, attributes deduplicated deliveries to a flight
	// recorder (see stage.go).
	stage stageRec
}

// dedupSeenMax bounds the delivered-key memory: when the set grows past
// this, keys from other epochs are swept. A duplicate of a swept key is
// redelivered into pending and sits there unmatched (keys are never reused),
// which wastes one message of memory instead of corrupting the protocol.
const dedupSeenMax = 1 << 16

func newMailbox() *Mailbox {
	return &Mailbox{
		pending: make(map[routeKey]*Message),
		waiting: make(map[routeKey]chan *Message),
	}
}

// EnableDedup switches the mailbox to at-least-once delivery: duplicate
// keys are dropped instead of panicking. Enabled by FaultyFabric, which
// injects duplicates and retransmissions on purpose.
func (mb *Mailbox) EnableDedup() {
	mb.mu.Lock()
	if !mb.dedup {
		mb.dedup = true
		mb.seen = make(map[routeKey]struct{})
	}
	mb.mu.Unlock()
}

func (mb *Mailbox) deliver(msg *Message) {
	key := routeKey{kind: msg.Kind, epoch: msg.Epoch, layer: msg.Layer, seq: msg.Seq, from: msg.From}
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	if mb.dedup {
		if _, dup := mb.seen[key]; dup {
			mb.mu.Unlock()
			obsDedupDropped.Inc()
			return
		}
		if len(mb.seen) >= dedupSeenMax {
			for k := range mb.seen {
				if k.epoch != msg.Epoch {
					delete(mb.seen, k)
				}
			}
		}
		mb.seen[key] = struct{}{}
	}
	// Past the dedup gate: this is the message's one counted delivery.
	// Retransmitted or duplicated copies either never reach here (dropped
	// above) or ARE the counted copy when they arrive first.
	mb.recordDelivery(msg)
	if ch, ok := mb.waiting[key]; ok {
		delete(mb.waiting, key)
		mb.mu.Unlock()
		ch <- msg
		return
	}
	if _, dup := mb.pending[key]; dup {
		mb.mu.Unlock()
		panic(fmt.Sprintf("comm: duplicate message for %+v", key))
	}
	mb.pending[key] = msg
	mb.mu.Unlock()
}

// Wait blocks until the message with the given routing tag arrives. When a
// stage recorder is attached, every cross-worker match is also reported as a
// causal wait-match event (who waited, from when to when, for whose send) —
// the message edges of the epoch's event DAG.
func (mb *Mailbox) Wait(kind MsgKind, epoch, layer, seq, from int) *Message {
	key := routeKey{kind: kind, epoch: epoch, layer: layer, seq: seq, from: from}
	sr := mb.stage.p.Load()
	var waitStart time.Time
	if sr != nil && from != sr.worker {
		waitStart = time.Now()
	}
	mb.mu.Lock()
	if msg, ok := mb.pending[key]; ok {
		delete(mb.pending, key)
		mb.mu.Unlock()
		mb.recordWaitMatch(sr, msg, waitStart)
		return msg
	}
	if mb.closed {
		mb.mu.Unlock()
		panic("comm: Wait on closed mailbox")
	}
	ch := make(chan *Message, 1)
	mb.waiting[key] = ch
	mb.mu.Unlock()
	msg := <-ch
	mb.recordWaitMatch(sr, msg, waitStart)
	return msg
}

func (mb *Mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
}

// RingOrder returns the peer sequence worker i uses under the ring schedule:
// the j-th element is (i+j+1) mod m, so at any time slot no two workers
// target the same destination. With ring disabled, engines use NaiveOrder.
func RingOrder(i, m int) []int {
	order := make([]int, 0, m-1)
	for j := 0; j < m-1; j++ {
		order = append(order, (i+j+1)%m)
	}
	return order
}

// NaiveOrder returns peers in ascending id order (0,1,...,m-1 skipping i):
// every worker hits worker 0 first, then worker 1, ... — the congestion
// pattern ring scheduling exists to avoid.
func NaiveOrder(i, m int) []int {
	order := make([]int, 0, m-1)
	for j := 0; j < m; j++ {
		if j != i {
			order = append(order, j)
		}
	}
	return order
}
