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
	// 4 is unused: a kind's value is its wire byte and seeds its fault
	// draws, so no kind is renumbered.
	_
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
	case KindSlice:
		return "slice"
	default:
		return "unknown"
	}
}

// TraceContext is the causal field a message carries across the fabric: when
// its send happened. The fabric's Send stamps it once, when the sender's
// mailbox is bound to a flight recorder with an open epoch; it rides the
// wire codec, and a duplicate carries the original's unchanged — a
// redelivered copy is causally the same message, which is exactly what keeps
// mailbox dedup and critical-path attribution consistent. The zero value
// means "unstamped" and is always legal.
type TraceContext struct {
	// SentUnixNano is the sender's wall clock at Send.
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
	// Packed carries rows in the ReLU-packed format of pack.go instead of
	// Rows: a master–mirror representation (PackRows) or its gradient post
	// (PackGrad). The receiver's plan knows the block's shape.
	Packed []uint32
	// Trace is the send stamp (zero when no recorder epoch was open).
	Trace TraceContext
}

// WireBytes returns the simulated on-wire size of the message.
func (m *Message) WireBytes() int {
	b := 64 // header
	b += 4 * len(m.Vertices)
	if m.Rows != nil {
		b += m.Rows.Bytes()
	}
	return b + 4*len(m.Packed)
}

// NetworkProfile models a cluster fabric. BytesPerSec (β) bounds each node's
// egress and ingress independently (a full-duplex NIC); Latency (α) is added
// per message, in parallel across messages; Fault, when non-nil, loses,
// delays and duplicates messages (see FaultSpec). Zero fields disable their
// term.
type NetworkProfile struct {
	Name        string
	BytesPerSec float64
	Latency     time.Duration
	Fault       *FaultSpec
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

// Profiles lists the cluster presets: the one table every name lookup reads.
func Profiles() []NetworkProfile {
	return []NetworkProfile{ProfileLocal, ProfileECS, ProfileIBV}
}

// ProfileNamed returns the preset whose Name is name.
func ProfileNamed(name string) (NetworkProfile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return NetworkProfile{}, fmt.Errorf("comm: unknown network %q", name)
}

// Network is the transport surface engines depend on: tagged message send,
// per-worker mailboxes, teardown. Two implementations share one Send-time
// decision (endpoints.decide): the in-process Fabric and the TCPFabric,
// which moves the same messages over real loopback TCP connections.
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

// endpoints is what both transports share: the workers' mailboxes, the
// wire schedule and fault spec of their profile, the delivery-stamp sink,
// and the one decision a Send makes about a message.
type endpoints struct {
	m      int
	wire   *wire      // nil: no α–β delay
	fault  *FaultSpec // nil: no faults
	tracer *obs.Tracer
	inbox  []*Mailbox
}

func newEndpoints(m int, p NetworkProfile, tracer *obs.Tracer) endpoints {
	e := endpoints{m: m, wire: newWire(m, p), fault: p.Fault, tracer: tracer, inbox: make([]*Mailbox, m)}
	for i := range e.inbox {
		// Faults duplicate messages on purpose: the mailboxes absorb them.
		e.inbox[i] = newMailbox(p.Fault != nil)
	}
	return e
}

// NumWorkers returns the number of workers the fabric connects.
func (e *endpoints) NumWorkers() int { return e.m }

// Mailbox returns worker i's mailbox.
func (e *endpoints) Mailbox(i int) *Mailbox { return e.inbox[i] }

// local validates msg's route and delivers a self-send, which bypasses the
// network entirely (local dependency handling is free, as in the real
// system's shared memory). It reports whether msg was one.
func (e *endpoints) local(msg *Message) bool {
	if msg.To < 0 || msg.To >= e.m || msg.From < 0 || msg.From >= e.m {
		panic(fmt.Sprintf("comm: route %d->%d outside [0,%d)", msg.From, msg.To, e.m))
	}
	if msg.From != msg.To {
		return false
	}
	e.inbox[msg.To].deliver(msg)
	return true
}

// schedule is what Send decides for one cross-worker message.
type schedule struct {
	bytes int64     // wire size, computed once at Send
	due   time.Time // delivery time; zero: deliver at once
	dup   bool      // a duplicate follows the message
}

// decide is the one place a cross-worker message's fate is decided: it
// counts msg on its sender's side and stamps its trace context (see
// stage.go), draws its fault outcome, and books it on the wire, which puts
// its due time after the lost attempts' backoff and the injected delay.
func (e *endpoints) decide(msg *Message) schedule {
	s := schedule{bytes: int64(msg.WireBytes())}
	obsMsgBytes.Observe(float64(s.bytes))
	e.inbox[msg.From].stampSend(msg, s.bytes)
	var delay time.Duration
	if e.fault != nil {
		ft := e.fault.fate(msg)
		ft.count(msg.Kind)
		delay, s.dup = ft.delay(), ft.dup
		if s.dup {
			obsMsgBytes.Observe(float64(s.bytes))
		}
	}
	switch {
	case e.wire != nil:
		s.due = e.wire.due(msg, time.Now()).Add(delay)
	case delay > 0:
		s.due = time.Now().Add(delay)
	}
	return s
}

// receive stamps and counts msg's arrival at worker to and hands it to the
// worker's mailbox.
func (e *endpoints) receive(to int, msg *Message, bytes int64) {
	e.tracer.Received(to, bytes)
	e.inbox[to].deliver(msg)
}

// Fabric connects m workers in one process. It owns no goroutine: a message
// is one runtime timer firing at its due time, so it pays the timer floor
// once, not once per hop. Create with NewFabric, stop with Close.
type Fabric struct {
	endpoints

	// mu orders arrivals against Close: arrive holds it while it stamps and
	// delivers, so nothing is stamped or delivered once Close has held it.
	mu     sync.Mutex
	closed bool
}

// NewFabric builds a fabric for m workers with the given network profile.
// tracer, when non-nil, receives a delivery stamp per arriving message.
func NewFabric(m int, profile NetworkProfile, tracer *obs.Tracer) *Fabric {
	return &Fabric{endpoints: newEndpoints(m, profile, tracer)}
}

// Send decides msg's fate and returns without blocking: it arrives inline
// when nothing delays it, else when its timer fires. Send panics on a closed
// fabric, which would indicate an engine lifecycle bug.
func (f *Fabric) Send(msg *Message) {
	if f.local(msg) {
		return
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		panic("comm: Send on closed fabric")
	}
	s := f.decide(msg)
	if s.due.IsZero() {
		f.arrive(msg, s)
		return
	}
	time.AfterFunc(time.Until(s.due), func() { f.arrive(msg, s) })
}

// arrive hands msg, and its duplicate if it has one, to the receiver's
// mailbox, unless the fabric closed while it was on the wire. The duplicate
// arrives second, so dedup drops it without reading its payload.
func (f *Fabric) arrive(msg *Message, s schedule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.receive(msg.To, msg, s.bytes)
	if s.dup {
		f.receive(msg.To, msg, s.bytes)
	}
}

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
// bug. A fabric whose profile injects faults builds its mailboxes with
// at-least-once semantics (dedup), where redelivered keys are silently
// dropped and counted.
type Mailbox struct {
	mu      sync.Mutex
	pending map[routeKey]*Message
	waiting map[routeKey]chan *Message
	closed  bool

	dedup bool
	seen  map[routeKey]struct{}

	// stage, when set, attributes this worker's sends and deduplicated
	// deliveries to a flight recorder (see stage.go).
	stage stageRec
}

// dedupSeenMax bounds the delivered-key memory: when the set grows past
// this, keys from other epochs are swept. A duplicate of a swept key is
// redelivered into pending and sits there unmatched (keys are never reused),
// which wastes one message of memory instead of corrupting the protocol.
const dedupSeenMax = 1 << 16

func newMailbox(dedup bool) *Mailbox {
	return &Mailbox{
		pending: make(map[routeKey]*Message),
		waiting: make(map[routeKey]chan *Message),
		dedup:   dedup,
		seen:    make(map[routeKey]struct{}),
	}
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
// stage recorder is attached, every cross-worker match is also logged as a
// wait-match (who waited, from when to when, for whose send) — the message
// edges of the epoch's event DAG.
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
