package comm

import "neutronstar/internal/obs"

// The wire size of every transmission (each injected duplicate included),
// observed in endpoints.decide on the default registry so every fabric in
// the process feeds the distribution nstrain's "message sizes" line reads.
// Per-peer traffic lives in the flight recorder's cells.
var obsMsgBytes = obs.Default().Histogram("ns_comm_message_bytes",
	"Wire size of sent messages.", obs.SizeBuckets)

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
