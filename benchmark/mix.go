package main

import (
	"strconv"

	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// hotSet picks the seeded hot vertices: the first hotVertices of a seeded
// permutation whose in-degree is between half of hotMaxDegree and
// hotMaxDegree, the heaviest vertices whose layer-1 closure (themselves and
// their in-neighbours) still fits hotClosureShare of the embedding cache. A
// hot request's cost follows its vertices' in-degrees — the rows it needs
// from the cache and the edges it aggregates — so a plain random sample made
// hot latency swing 0.4–1.0 ms from seed to seed: with the hubs it caught,
// some closures fitted the LRU and some thrashed it.
func hotSet(seed uint64, g *graph.Graph) []int32 {
	perm := tensor.NewRNG(seed ^ 0x407).Perm(g.NumVertices())
	fits := func(v int32) bool {
		d := g.InDegree(v)
		return d >= hotMaxDegree/2 && d <= hotMaxDegree
	}
	var hot []int32
	for _, p := range perm {
		if fits(int32(p)) {
			hot = append(hot, int32(p))
			if len(hot) == hotVertices {
				return hot
			}
		}
	}
	// A graph with fewer such vertices than that: take whatever comes.
	for _, p := range perm {
		if !fits(int32(p)) && len(hot) < hotVertices {
			hot = append(hot, int32(p))
		}
	}
	return hot
}

// requestStream is one client's deterministic request sequence: each request
// is hot (all vertices from the hot set) with probability hotShare, otherwise
// cold (uniform over the graph). Vertices within a request are distinct.
type requestStream struct {
	rng         *tensor.RNG
	hot         []int32 // private copy, shuffled in place by draws
	numVertices int
	seen        map[int32]struct{}
}

func newRequestStream(seed uint64, hot []int32, numVertices int) *requestStream {
	return &requestStream{
		rng:         tensor.NewRNG(seed),
		hot:         append([]int32(nil), hot...),
		numVertices: numVertices,
		seen:        make(map[int32]struct{}, requestVertices),
	}
}

// next returns the next request's vertices and its class.
func (s *requestStream) next() (verts []int32, hot bool) {
	k := requestVertices
	if k > s.numVertices {
		k = s.numVertices
	}
	verts = make([]int32, k)
	if s.rng.Float64() < hotShare {
		// Partial Fisher–Yates over the hot set: k distinct draws.
		for i := 0; i < k; i++ {
			j := i + s.rng.Intn(len(s.hot)-i)
			s.hot[i], s.hot[j] = s.hot[j], s.hot[i]
			verts[i] = s.hot[i]
		}
		return verts, true
	}
	clear(s.seen)
	for i := 0; i < k; {
		v := int32(s.rng.Intn(s.numVertices))
		if _, dup := s.seen[v]; dup {
			continue
		}
		s.seen[v] = struct{}{}
		verts[i] = v
		i++
	}
	return verts, false
}

// predictBody renders the /predict request body for verts.
func predictBody(verts []int32) []byte {
	b := make([]byte, 0, 16+6*len(verts))
	b = append(b, `{"vertices":[`...)
	for i, v := range verts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, "]}"...)
}
