package comm

import (
	"strconv"

	"neutronstar/internal/obs"
)

// Process-wide traffic metrics, registered on the default registry so every
// fabric in the process feeds the same /metrics endpoint. Registration is
// idempotent, so building multiple engines is safe.
var (
	obsSentBytes = obs.Default().CounterVec("ns_comm_sent_bytes_total",
		"Wire bytes sent, by destination worker.", "to")
	obsRecvBytes = obs.Default().CounterVec("ns_comm_recv_bytes_total",
		"Wire bytes received, by receiving worker.", "worker")
	obsSentMsgs = obs.Default().CounterVec("ns_comm_sent_messages_total",
		"Messages sent, by protocol kind.", "kind")
	obsMsgBytes = obs.Default().Histogram("ns_comm_message_bytes",
		"Wire size of sent messages.", obs.SizeBuckets)
)

// Fault-injection metrics, counted at Send (see FaultSpec.fate) and, for
// dedup, at delivery. All zero unless a profile carries a fault spec.
var (
	obsFaultDropped = obs.Default().CounterVec("ns_comm_fault_dropped_total",
		"Transmission attempts lost by fault injection, by protocol kind.", "kind")
	obsFaultDuplicated = obs.Default().CounterVec("ns_comm_fault_duplicated_total",
		"Messages duplicated by fault injection, by protocol kind.", "kind")
	obsFaultRetransmits = obs.Default().Counter("ns_comm_fault_retransmissions_total",
		"Retransmissions after a lost attempt's retry timeout.")
	obsFaultExhausted = obs.Default().Counter("ns_comm_fault_retry_exhausted_total",
		"Messages whose retry budget ran out (delivered anyway to preserve liveness).")
	obsFaultDelaySeconds = obs.Default().Histogram("ns_comm_fault_delay_seconds",
		"Injected per-message delay (fixed + jitter).", obs.TimeBuckets)
	obsDedupDropped = obs.Default().Counter("ns_comm_fault_dedup_dropped_total",
		"Duplicate deliveries absorbed by mailbox dedup.")
)

// recordSend updates the send-side counters for one transmission of msg,
// of the given wire size; both fabrics call it for every non-self send and
// every injected duplicate.
func recordSend(msg *Message, bytes int64) {
	n := float64(bytes)
	obsSentBytes.With(strconv.Itoa(msg.To)).Add(n)
	obsSentMsgs.With(msg.Kind.String()).Inc()
	obsMsgBytes.Observe(n)
}

// recordDelivered updates the receive-side byte counter for worker w.
func recordDelivered(w int, bytes int64) {
	obsRecvBytes.With(strconv.Itoa(w)).Add(float64(bytes))
}
