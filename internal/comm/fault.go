package comm

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"neutronstar/internal/tensor"
)

// Fault injection: a NetworkProfile with a Fault spec subjects every
// non-local message to seeded, deterministic drops, delays and duplicates
// under a bounded retransmit-with-backoff protocol, so training completes
// anyway. The failure model is per transmission attempt: an attempt is
// "lost" with probability drop, the sender detects the loss by
// retransmission timeout and resends with doubled backoff (up to retries
// attempts), and a delivered message may additionally be delayed by
// delay+U(0,jitter) and duplicated with probability dup. The fabric decides
// all of it at Send (FaultSpec.fate): the lost attempts' backoff and the
// injected delay push the message's wire due time back, and a duplicate
// reaches the mailbox right behind the original. Mailboxes of a faulted
// fabric run at-least-once dedup, so the engine above observes exactly-once
// semantics with degraded timing — message *content* is never altered,
// which is what keeps fault-injected runs loss-for-loss identical to clean
// ones.
//
// Every decision derives from a per-message RNG seeded by the message's
// routing identity (from, to, kind, epoch, layer, seq) hashed with the spec
// seed, so the injected fault pattern is a pure function of the spec and the
// protocol — independent of goroutine scheduling, and replayable.
//
// Spec grammar (see ParseFaultSpec):
//
//	spec    := clause ( ',' clause )*
//	clause  := [ kind '.' ] key '=' value
//	kind    := rep | grad | allreduce | sample | slice
//	key     := drop | dup | delay | jitter        (per-kind or baseline)
//	         | seed | retries | timeout           (global only)
//
// Unqualified keys set the baseline rule for every kind; kind-qualified
// keys override that one field for that one kind (order-independent).
// Examples:
//
//	drop=0.05,jitter=2ms,seed=7
//	rep.drop=0.2,grad.dup=0.1,delay=500us
//	drop=0.01,allreduce.drop=0,retries=6,timeout=1ms

// FaultRule is the injected failure behaviour for one message kind.
type FaultRule struct {
	// Drop is the per-transmission-attempt loss probability in [0, 1).
	Drop float64
	// Dup is the probability a delivered message is sent twice, in [0, 1].
	Dup float64
	// Delay is a fixed extra latency applied to every delivery.
	Delay time.Duration
	// Jitter adds a uniform random extra latency in [0, Jitter].
	Jitter time.Duration
}

func (r FaultRule) zero() bool { return r == FaultRule{} }

// FaultSpec is a parsed fault-injection specification.
type FaultSpec struct {
	// Default applies to every kind not overridden in PerKind.
	Default FaultRule
	// PerKind holds fully resolved per-kind rules (baseline + overrides).
	PerKind map[MsgKind]FaultRule
	// Seed keys the deterministic fault pattern.
	Seed uint64
	// MaxRetries bounds transmission attempts per message (default 8).
	// A message still undelivered after the last attempt goes through
	// anyway: liveness is preserved and the exhaustion is counted on
	// ns_comm_fault_retry_exhausted_total.
	MaxRetries int
	// RetryTimeout is the initial retransmission timeout; it doubles per
	// attempt up to maxBackoff (default 2ms).
	RetryTimeout time.Duration
}

// maxBackoff caps the exponential retransmission backoff.
const maxBackoff = 250 * time.Millisecond

// Rule returns the effective rule for a message kind.
func (s *FaultSpec) Rule(k MsgKind) FaultRule {
	if r, ok := s.PerKind[k]; ok {
		return r
	}
	return s.Default
}

var kindByName = map[string]MsgKind{
	"rep": KindRep, "grad": KindGrad, "allreduce": KindAllReduce,
	"sample": KindSample, "slice": KindSlice,
}

// ParseFaultSpec parses the fault grammar documented above. An empty spec
// is an error — callers should treat "no spec" as "no fault injection"
// before calling.
func ParseFaultSpec(spec string) (*FaultSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("comm: empty fault spec")
	}
	out := &FaultSpec{
		PerKind:      make(map[MsgKind]FaultRule),
		MaxRetries:   8,
		RetryTimeout: 2 * time.Millisecond,
	}
	type override struct {
		kind MsgKind
		key  string
		val  string
	}
	var overrides []override
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("comm: fault clause %q is not key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if kindName, field, qualified := strings.Cut(key, "."); qualified {
			kind, ok := kindByName[kindName]
			if !ok {
				return nil, fmt.Errorf("comm: unknown message kind %q in fault clause %q (kinds: rep, grad, allreduce, sample, slice)", kindName, clause)
			}
			overrides = append(overrides, override{kind: kind, key: field, val: val})
			continue
		}
		switch key {
		case "drop", "dup", "delay", "jitter":
			if err := applyRuleField(&out.Default, key, val); err != nil {
				return nil, err
			}
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("comm: fault seed %q: %w", val, err)
			}
			out.Seed = n
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("comm: fault retries %q must be a positive integer", val)
			}
			out.MaxRetries = n
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("comm: fault timeout %q must be a positive duration", val)
			}
			out.RetryTimeout = d
		default:
			return nil, fmt.Errorf("comm: unknown fault key %q (keys: drop, dup, delay, jitter, seed, retries, timeout)", key)
		}
	}
	// Kind overrides start from the fully parsed baseline so clause order
	// never matters.
	for _, o := range overrides {
		rule, ok := out.PerKind[o.kind]
		if !ok {
			rule = out.Default
		}
		if err := applyRuleField(&rule, o.key, o.val); err != nil {
			return nil, err
		}
		out.PerKind[o.kind] = rule
	}
	return out, nil
}

func applyRuleField(r *FaultRule, key, val string) error {
	switch key {
	case "drop", "dup":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("comm: fault %s %q: %w", key, val, err)
		}
		// Written as ranges p is inside, so NaN is out of both.
		if key == "drop" {
			if !(p >= 0 && p < 1) {
				return fmt.Errorf("comm: fault drop %v outside [0, 1)", p)
			}
			r.Drop = p
		} else {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("comm: fault dup %v outside [0, 1]", p)
			}
			r.Dup = p
		}
	case "delay", "jitter":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("comm: fault %s %q must be a non-negative duration", key, val)
		}
		if key == "delay" {
			r.Delay = d
		} else {
			r.Jitter = d
		}
	default:
		return fmt.Errorf("comm: unknown per-kind fault key %q (keys: drop, dup, delay, jitter)", key)
	}
	return nil
}

// String renders the spec back in grammar form (for logs).
func (s *FaultSpec) String() string {
	var parts []string
	add := func(prefix string, r FaultRule) {
		if r.Drop > 0 {
			parts = append(parts, fmt.Sprintf("%sdrop=%g", prefix, r.Drop))
		}
		if r.Dup > 0 {
			parts = append(parts, fmt.Sprintf("%sdup=%g", prefix, r.Dup))
		}
		if r.Delay > 0 {
			parts = append(parts, fmt.Sprintf("%sdelay=%s", prefix, r.Delay))
		}
		if r.Jitter > 0 {
			parts = append(parts, fmt.Sprintf("%sjitter=%s", prefix, r.Jitter))
		}
	}
	add("", s.Default)
	for _, k := range []MsgKind{KindRep, KindGrad, KindAllReduce, KindSample, KindSlice} {
		if r, ok := s.PerKind[k]; ok {
			add(k.String()+".", r)
		}
	}
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed),
		fmt.Sprintf("retries=%d", s.MaxRetries), fmt.Sprintf("timeout=%s", s.RetryTimeout))
	return strings.Join(parts, ",")
}

// fate is what the fault model decides for one message, once, at Send:
// how many attempts were lost and whether that exhausted the retry budget,
// the Σ of their retransmission timeouts, the rule's delay plus its jitter
// draw, and whether a duplicate follows the message.
type fate struct {
	lost              int
	exhausted         bool
	backoff, injected time.Duration
	dup               bool
}

// fate decides msg's fault outcome: a pure function of the spec and the
// message's routing identity. One drop draw per attempt, then the jitter
// draw, then the dup draw, from the message's own RNG.
func (s *FaultSpec) fate(msg *Message) fate {
	rule := s.Rule(msg.Kind)
	if rule.zero() {
		return fate{}
	}
	rng := tensor.NewRNG(s.msgSeed(msg))
	var ft fate
	timeout := s.RetryTimeout
	for ; ft.lost < s.MaxRetries; ft.lost++ {
		if rule.Drop == 0 || rng.Float64() >= rule.Drop {
			break
		}
		// This attempt was lost on the wire: the sender notices via the
		// retransmission timeout and resends.
		ft.backoff += timeout
		timeout = min(2*timeout, maxBackoff)
	}
	// Retry budget exhausted: deliver anyway rather than wedge the epoch
	// barrier forever — a persistent partition is beyond what retransmission
	// can fix, and the counter makes it visible.
	ft.exhausted = ft.lost == s.MaxRetries
	ft.injected = rule.Delay
	if rule.Jitter > 0 {
		ft.injected += time.Duration(rng.Float64() * float64(rule.Jitter))
	}
	ft.dup = rule.Dup > 0 && rng.Float64() < rule.Dup
	return ft
}

// delay is how much later than the wire schedule the message arrives.
func (ft fate) delay() time.Duration { return ft.backoff + ft.injected }

// count adds the fate to the ns_comm_fault_* families.
func (ft fate) count(kind MsgKind) {
	if ft.lost > 0 {
		obsFaultDropped.With(kind.String()).Add(float64(ft.lost))
		obsFaultRetransmits.Add(float64(ft.lost))
	}
	if ft.exhausted {
		obsFaultExhausted.Inc()
	}
	if ft.injected > 0 {
		obsFaultDelaySeconds.Observe(ft.injected.Seconds())
	}
	if ft.dup {
		obsFaultDuplicated.With(kind.String()).Inc()
	}
}

// msgSeed hashes the message's routing identity with the spec seed
// (FNV-1a), giving each message its own deterministic fault stream.
func (s *FaultSpec) msgSeed(msg *Message) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(s.Seed)
	mix(uint64(msg.From))
	mix(uint64(msg.To))
	mix(uint64(msg.Kind))
	mix(uint64(msg.Epoch))
	mix(uint64(msg.Layer))
	mix(uint64(msg.Seq))
	return h
}
