// Vertex-cut replication for the DepRep policy. Where the hybrid planner
// decides per dependency whether to cache or communicate, DepRep replicates
// every boundary vertex's multi-hop closure onto each worker that needs it
// (CoFree-GNN's communication-free vertex cut): once the replica features are
// broadcast at setup, an epoch runs without any per-layer dependency traffic.
// This file materializes those per-worker replica sets and provides the
// optional feature (re)quantization — replicas may store fp16 or int8 copies
// while owners keep full precision, trading a bounded numeric deviation for
// halved or quartered replica memory.
package partition

import (
	"fmt"
	"math"

	"neutronstar/internal/graph"
)

// RepQuant names a replica feature storage format.
type RepQuant string

const (
	// RepQuantOff stores replica features at full float32 precision; DepRep
	// then matches the 1-worker reference exactly (the oracle's 1e-5 bound).
	RepQuantOff RepQuant = "off"
	// RepQuantFP16 stores replica features as IEEE 754 binary16. Round-trip
	// error is at most 2⁻¹¹ relative for values in the half-precision normal
	// range (see RequantizeErrorBound).
	RepQuantFP16 RepQuant = "fp16"
	// RepQuantInt8 stores replica features as symmetric per-row int8 with an
	// absmax scale. Round-trip error is at most max|row|/254 per element.
	RepQuantInt8 RepQuant = "int8"
)

// ParseRepQuant validates a replica quantization name; the empty string means
// off.
func ParseRepQuant(s string) (RepQuant, error) {
	switch RepQuant(s) {
	case "", RepQuantOff:
		return RepQuantOff, nil
	case RepQuantFP16:
		return RepQuantFP16, nil
	case RepQuantInt8:
		return RepQuantInt8, nil
	}
	return "", fmt.Errorf("partition: unknown replica quantization %q (off, fp16, int8)", s)
}

// CompressionFactor returns the replica storage compression a format buys
// relative to float32: off 1×, fp16 2×, int8 4×. The cost model prices
// replica memory and the setup broadcast with this factor.
func CompressionFactor(q RepQuant) float64 {
	switch q {
	case RepQuantFP16:
		return 2
	case RepQuantInt8:
		return 4
	}
	return 1
}

// ReplicaPlan holds the per-worker vertex-cut replica closure of a fully
// replicated (DepRep) execution.
type ReplicaPlan struct {
	// Sets[i][k] lists the non-owned vertices worker i replicates at
	// representation level k (k = 0 holds feature replicas), ascending.
	// Levels run 0..L-1: nothing consumes a replica's h^(L).
	Sets [][][]int32
	// NumVertices is |V| of the underlying graph.
	NumVertices int
}

// BuildReplicas computes every worker's replica closure for levels 0..L-1.
// The closure is the fixpoint the replicated dataflow needs: level L-1 holds
// the worker's remote dependencies (non-owned in-neighbor sources of owned
// vertices), and level k additionally holds the non-owned in-neighbors of
// every level-k+1 replica — exactly the set a worker must recompute locally
// so that no layer ever waits on a peer. Dependencies appear at every level
// (each layer consumes them), which the downward self-chain provides.
func BuildReplicas(g *graph.Graph, p *Partition, levels int) *ReplicaPlan {
	rp := &ReplicaPlan{
		Sets:        make([][][]int32, p.NumParts),
		NumVertices: g.NumVertices(),
	}
	for i := 0; i < p.NumParts; i++ {
		rp.Sets[i] = make([][]int32, levels)
		if levels == 0 {
			continue
		}
		deps := make(map[int32]struct{})
		for _, v := range p.Parts[i] {
			for _, u := range g.InNeighbors(v) {
				if p.Assign[u] != int32(i) {
					deps[u] = struct{}{}
				}
			}
		}
		cur := deps
		for k := levels - 1; k >= 0; k-- {
			rp.Sets[i][k] = graph.SortedKeys(cur)
			if k == 0 {
				break
			}
			next := make(map[int32]struct{}, len(cur))
			for v := range cur {
				next[v] = struct{}{} // self chain: h^(k)_v needs h^(k-1)_v
				for _, w := range g.InNeighbors(v) {
					if p.Assign[w] != int32(i) {
						next[w] = struct{}{}
					}
				}
			}
			cur = next
		}
	}
	return rp
}

// Replicas returns the total level-0 (feature) replica count across workers.
func (rp *ReplicaPlan) Replicas() int {
	n := 0
	for _, sets := range rp.Sets {
		if len(sets) > 0 {
			n += len(sets[0])
		}
	}
	return n
}

// Factor returns the vertex replication factor: (|V| + feature replicas)/|V|.
// 1.0 means no replication (a single worker or a dependency-free cut).
func (rp *ReplicaPlan) Factor() float64 {
	if rp.NumVertices == 0 {
		return 1
	}
	return float64(rp.NumVertices+rp.Replicas()) / float64(rp.NumVertices)
}

// Requantize round-trips row through the format's storage representation in
// place: the row afterwards holds exactly the values a worker would decode
// from a stored replica. The function is deterministic, so every worker
// replicating the same vertex holds bit-identical values.
func Requantize(q RepQuant, row []float32) {
	switch q {
	case RepQuantFP16:
		for i, x := range row {
			row[i] = f16to32(f32to16(x))
		}
	case RepQuantInt8:
		var absmax float32
		for _, x := range row {
			if a := float32(math.Abs(float64(x))); a > absmax {
				absmax = a
			}
		}
		if absmax == 0 {
			return
		}
		scale := absmax / 127
		for i, x := range row {
			step := math.RoundToEven(float64(x / scale))
			if step > 127 {
				step = 127
			} else if step < -127 {
				step = -127
			}
			row[i] = float32(step) * scale
		}
	}
}

// RequantizeErrorBound returns the documented per-element round-trip error
// bound of a format for a row with the given absolute maximum: fp16 is
// 2⁻¹¹·|x| relative (half an ulp of the 10-bit mantissa) plus 2⁻²⁵ absolute
// for the subnormal range; int8 is half a quantization step, absmax/254.
// Off is exact.
func RequantizeErrorBound(q RepQuant, absmax float64) float64 {
	switch q {
	case RepQuantFP16:
		return float64(absmax/2048) + 0x1p-25
	case RepQuantInt8:
		return absmax / 254
	}
	return 0
}

// f32to16 converts a float32 to IEEE 754 binary16 bits with round-to-nearest-
// even; overflow saturates to infinity, NaN stays NaN.
func f32to16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF
	switch {
	case exp >= 31:
		if bits&0x7FFFFFFF > 0x7F800000 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf (incl. overflow)
	case exp <= 0:
		if exp < -10 {
			return sign // underflows to zero
		}
		// Subnormal: shift the implicit leading 1 into the mantissa.
		mant |= 0x800000
		shift := uint32(14 - exp)
		m := mant >> shift
		rem := mant & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++ // may carry into the exponent field, which is correct
		}
		return sign | uint16(m)
	default:
		m := mant >> 13
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
			m++ // mantissa overflow carries into the exponent, which is correct
		}
		return sign | uint16(exp)<<10 + uint16(m)
	}
}

// f16to32 converts IEEE 754 binary16 bits to float32 (exact).
func f16to32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x3FF)<<13)
	case exp == 31:
		return math.Float32frombits(sign | 0x7F800000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
