package serve

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

func testDataset(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	return dataset.Load(dataset.Spec{
		Name: "serve", Vertices: n, AvgDegree: 6, FeatureDim: 10,
		NumClasses: 4, HiddenDim: 8, Gen: dataset.GenSBM, Homophily: 0.8, Seed: seed,
	})
}

func testModel(ds *dataset.Dataset, kind nn.ModelKind, seed uint64) *nn.Model {
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	return nn.MustNewModel(kind, dims, 0, seed)
}

func newTestServer(t testing.TB, ds *dataset.Dataset, src Source, cacheBytes int64) *Server {
	t.Helper()
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: src,
		CacheBytes: cacheBytes, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// withSink returns ds's graph and features plus one vertex n (= the vertex
// count) whose in-neighbors are nbrs and whose feature row is feat: the
// materialised form of an inductive vertex. Appending a sink leaves every
// existing in-degree and in-neighbor list unchanged, so a reference forward
// over the extended graph answers the known vertices exactly as over ds.
func withSink(t *testing.T, ds *dataset.Dataset, feat []float32, nbrs []int32) (*graph.Graph, *tensor.Tensor) {
	t.Helper()
	n := ds.Graph.NumVertices()
	var edges []graph.Edge
	off, srcs := ds.Graph.InOffsets(), ds.Graph.InSources()
	for v := 0; v < n; v++ {
		for e := off[v]; e < off[v+1]; e++ {
			edges = append(edges, graph.Edge{Src: srcs[e], Dst: int32(v)})
		}
	}
	for _, u := range nbrs {
		edges = append(edges, graph.Edge{Src: u, Dst: int32(n)})
	}
	g2, err := graph.FromEdges(n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	f2 := tensor.New(n+1, ds.Spec.FeatureDim)
	for v := 0; v < n; v++ {
		copy(f2.Row(v), ds.Features.Row(v))
	}
	copy(f2.Row(n), feat)
	return g2, f2
}

// TestServeMatchesReferenceAllKinds is the core exactness contract: for every
// architecture, an exact (unsampled) query answers with the same float32 rows
// as the full-graph reference forward restricted to the queried vertices —
// both logits and penultimate-layer embeddings. The cases cover the shapes
// the frontier walk lays out differently: a plain request without a cache,
// vertices repeated inside one request and across requests batched into one
// job, a repeat whose top block the cache serves entirely, and known vertices
// beside an inductive one that draws edges from them; then a third use,
// answered from the cache without the pipeline, whose /predict bytes must be
// the pipeline's.
func TestServeMatchesReferenceAllKinds(t *testing.T) {
	ds := testDataset(t, 120, 11)
	n := int32(ds.Graph.NumVertices())
	feat := make([]float32, ds.Spec.FeatureDim)
	for i := range feat {
		feat[i] = 0.05 * float32(i-3)
	}
	nbrs := []int32{2, 7, 64} // ascending and distinct: the order FromEdges gives vertex n
	g2, f2 := withSink(t, ds, feat, nbrs)
	for _, kind := range nn.ModelKinds() {
		t.Run(string(kind), func(t *testing.T) {
			model := testModel(ds, kind, 21)
			ref := engine.ReferenceForward(g2, model, f2)
			penult := &nn.Model{Name: model.Name, Layers: model.Layers[:len(model.Layers)-1]}
			refEmb := engine.ReferenceForward(g2, penult, f2)
			check := func(what string, res *Result, verts []int32) {
				t.Helper()
				if res.Logits.Rows() != len(verts) || res.Embeds.Rows() != len(verts) {
					t.Fatalf("%s: %d logit rows, %d embedding rows for %d queries",
						what, res.Logits.Rows(), res.Embeds.Rows(), len(verts))
				}
				for i, v := range verts {
					assertRowEqual(t, what+" logits", v, res.Logits.Row(i), ref.Row(int(v)))
					assertRowEqual(t, what+" embeds", v, res.Embeds.Row(i), refEmb.Row(int(v)))
				}
			}
			query := func(s *Server, req *Request) *Result {
				t.Helper()
				res, err := s.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			plain := newTestServer(t, ds, NewStatic(model), 0)
			verts := []int32{0, 3, 17, 55, 119, 64, 7}
			check("plain", query(plain, &Request{Verts: verts}), verts)
			dups := []int32{5, 9, 5, 5, 100, 9, 2}
			check("repeats in one request", query(plain, &Request{Verts: dups}), dups)
			mixed := &Request{Verts: []int32{7, 2, 7, 30}, Inductive: []InductiveVertex{{Features: feat, Neighbors: nbrs}}}
			check("known beside inductive", query(plain, mixed), []int32{7, 2, 7, 30, n})

			// MaxBatch is the three requests' vertex total and MaxWait never
			// fires, so they flush as one job whatever order they arrive in.
			batched, err := New(Config{
				Graph: ds.Graph, Features: ds.Features, Source: NewStatic(model),
				MaxBatch: 8, MaxWait: time.Hour, Registry: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(batched.Close)
			reqs := [][]int32{{1, 2, 3}, {3, 2, 40}, {40, 1}}
			results := make([]*Result, len(reqs))
			var wg sync.WaitGroup
			for i, vs := range reqs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := batched.Query(&Request{Verts: vs})
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = res
				}()
			}
			wg.Wait()
			if st := batched.Stats(); st.Batches != 1 {
				t.Fatalf("%d batches, want the three requests in one", st.Batches)
			}
			for i, vs := range reqs {
				if results[i] == nil {
					t.FailNow()
				}
				check("repeats across a batch", results[i], vs)
			}

			cached := newTestServer(t, ds, NewStatic(model), 1<<20)
			check("cold", query(cached, &Request{Verts: verts}), verts)
			before := cached.Stats().Cache
			check("top block from the cache", query(cached, &Request{Verts: verts}), verts)
			after := cached.Stats().Cache
			if after.Misses != before.Misses || after.Hits == before.Hits {
				t.Fatalf("repeat request: hits %d -> %d, misses %d -> %d; want hits only",
					before.Hits, after.Hits, before.Misses, after.Misses)
			}
			viaPipeline := postPredict(t, plain.Handler(), predictRequest(verts)).Body.String()
			fast := queryFromCache(t, cached, verts)
			check("fully cached", fast, verts)
			rec := postPredict(t, cached.Handler(), predictRequest(verts))
			if got := rec.Body.String(); got != viaPipeline {
				t.Fatalf("/predict from the cache:\n%s\nfrom the pipeline:\n%s", got, viaPipeline)
			}
			if st := ParseServerTiming(rec.Header().Get("Server-Timing")); st[StageCache] != st[StageTotal] {
				t.Fatalf("a cache-answered /predict reports %v", st)
			}
			check("fully cached with repeats", queryFromCache(t, cached, []int32{7, 0, 7}), []int32{7, 0, 7})
		})
	}
}

// predictRequest is the /predict body asking for verts.
func predictRequest(verts []int32) []byte {
	b, _ := json.Marshal(Request{Verts: verts})
	return b
}

// queryFromCache queries verts and fails unless the cache answered without
// the pipeline: no batcher, queue, extract and compute zero, cache the
// total.
func queryFromCache(t *testing.T, s *Server, verts []int32) *Result {
	t.Helper()
	batched := s.Stats().BatchedRequests
	res, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if s.Stats().BatchedRequests != batched || tm.Queue+tm.Extract+tm.Compute != 0 || tm.Cache != tm.Total {
		t.Fatalf("query %v was not answered from the cache: timing %+v", verts, tm)
	}
	return res
}

// TestServeCacheParityAndInvalidation warms the cache, re-queries (must be
// bit-identical with hits recorded), then rolls new parameters through the
// source and asserts the answer tracks the new model — stale cached rows must
// not survive the version bump.
func TestServeCacheParityAndInvalidation(t *testing.T) {
	ds := testDataset(t, 120, 12)
	src := NewStatic(testModel(ds, nn.GCN, 31))
	s := newTestServer(t, ds, src, 1<<20)
	verts := []int32{1, 2, 40, 90}

	cold, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Logits.Equal(warm.Logits) {
		t.Fatal("cached answer differs from cold answer")
	}
	if st := s.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("no cache hits after a repeat query: %+v", st.Cache)
	}
	model, _ := src.Snapshot()
	ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
	hot := queryFromCache(t, s, verts)
	for i, v := range verts {
		assertRowEqual(t, "warm logits", v, warm.Logits.Row(i), ref.Row(int(v)))
		assertRowEqual(t, "cache-answered logits", v, hot.Logits.Row(i), ref.Row(int(v)))
	}

	// After the update every answer, the first and the cache-answered ones
	// after it alike, is the new model's.
	next := testModel(ds, nn.GCN, 77)
	src.Update(next)
	refNext := engine.ReferenceForward(ds.Graph, next, ds.Features)
	for k := 0; k < 3; k++ {
		fresh, err := s.Query(&Request{Verts: verts})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Version == warm.Version {
			t.Fatalf("version did not advance: %d", fresh.Version)
		}
		for i, v := range verts {
			assertRowEqual(t, "post-update logits", v, fresh.Logits.Row(i), refNext.Row(int(v)))
		}
	}
	queryFromCache(t, s, verts)
}

// TestServeAdmitsFinalRowOnSecondQuery pins the admission rule: a vertex's
// final row enters the cache on its second query while its penultimate row
// stays cached, not on the first query that finds that row cached because
// the vertex was another query's in-neighbour.
func TestServeAdmitsFinalRowOnSecondQuery(t *testing.T) {
	ds := testDataset(t, 120, 27)
	s := newTestServer(t, ds, NewStatic(testModel(ds, nn.GCN, 28)), 1<<20)
	var u, v int32 = -1, -1
	for w := int32(0); w < int32(ds.Graph.NumVertices()) && v < 0; w++ {
		for _, x := range ds.Graph.InNeighbors(w) {
			if x != w {
				u, v = w, x
				break
			}
		}
	}
	query := func(verts ...int32) {
		t.Helper()
		if _, err := s.Query(&Request{Verts: verts}); err != nil {
			t.Fatal(err)
		}
	}
	query(u) // caches v's penultimate row as u's in-neighbour
	for k := 1; k <= 2; k++ {
		batched := s.Stats().BatchedRequests
		query(v)
		if s.Stats().BatchedRequests != batched+1 {
			t.Fatalf("query %d of vertex %d was answered from the cache before its final row was admitted", k, v)
		}
	}
	queryFromCache(t, s, []int32{v})
}

// TestServeStaleSnapshotNeverMixesVersions holds a job to the cache
// generation bound to its model snapshot: a job that took its snapshot
// before a version bump sees none of the rows a job under the new version
// cached, not even through the fully cached answer, and the rows it
// computes are dropped rather than cached as the new version's.
func TestServeStaleSnapshotNeverMixesVersions(t *testing.T) {
	ds := testDataset(t, 120, 29)
	old := testModel(ds, nn.GCN, 31)
	src := NewStatic(old)
	s := newTestServer(t, ds, src, 1<<20)
	staleModel, staleVersion, staleGen := s.refresh()

	next := testModel(ds, nn.GCN, 77)
	src.Update(next)
	verts := []int32{1, 2, 40, 90}
	for k := 0; k < 2; k++ {
		if _, err := s.Query(&Request{Verts: verts}); err != nil {
			t.Fatal(err)
		}
	}
	queryFromCache(t, s, verts)
	if es := s.cache.answer(staleGen, staleModel.NumLayers(), verts); es != nil {
		t.Fatal("a stale snapshot's lookup was answered from the new version's rows")
	}

	// The stale job asks for those vertices, whose closures are cached, and
	// for four more, whose are not: it must see none of the cached rows, and
	// none of the rows it computes may enter.
	all := append(verts[:len(verts):len(verts)], 3, 50, 77, 119)
	w := &work{req: &Request{Verts: all}, done: make(chan struct{})}
	asm, err := s.extract(&job{items: []*work{w}}, staleModel, staleVersion, staleGen,
		&walk{slot: make([]int32, ds.Graph.NumVertices())})
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range asm.plan.blocks {
		if b.cached != nil {
			t.Fatalf("the stale job's block %d read the new version's cached rows", l)
		}
	}
	s.compute(asm, staleModel.Clone(), s.scratch.Arena())
	<-w.done
	refOld := engine.ReferenceForward(ds.Graph, old, ds.Features)
	refNext := engine.ReferenceForward(ds.Graph, next, ds.Features)
	for i, v := range all {
		assertRowEqual(t, "stale job's logits", v, w.res.Logits.Row(i), refOld.Row(int(v)))
	}
	for k := 0; k < 3; k++ {
		res, err := s.Query(&Request{Verts: all})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range all {
			assertRowEqual(t, "logits after the stale job", v, res.Logits.Row(i), refNext.Row(int(v)))
		}
	}
	queryFromCache(t, s, all)
}

// TestServeAnswersCarryTheirVersion bumps a Static source in a loop beside
// four querying clients: every answer, from the pipeline or from the cache,
// must be the reference of the model whose version it reports. A server
// that reads the version and the model in two calls labels some answers
// with a version older than the model that computed them.
func TestServeAnswersCarryTheirVersion(t *testing.T) {
	ds := testDataset(t, 120, 37)
	// After k updates the version is 1+k and the model models[k%3].
	models := []*nn.Model{testModel(ds, nn.GCN, 38), testModel(ds, nn.GCN, 39), testModel(ds, nn.GCN, 40)}
	refs := make([]*tensor.Tensor, len(models))
	for i, m := range models {
		refs[i] = engine.ReferenceForward(ds.Graph, m, ds.Features)
	}
	src := NewStatic(models[0])
	s := newTestServer(t, ds, src, 1<<20)

	stop, bumperDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(bumperDone)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
				src.Update(models[k%len(models)])
				runtime.Gosched()
			}
		}
	}()
	const clients, perClient = 4, 150
	var answers, mislabelled atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Half the requests repeat a small hot set, so the cache
				// answers some; the rest spread over the graph.
				verts := []int32{int32(i % 3), int32(5 + i%2)}
				if i%2 == 1 {
					verts = []int32{int32((c*perClient + i*7) % 120), int32((i * 13) % 120)}
				}
				res, err := s.Query(&Request{Verts: verts})
				if err != nil {
					t.Error(err)
					return
				}
				answers.Add(1)
				ref := refs[(res.Version-1)%uint64(len(models))]
				for r, v := range verts {
					if !slices.Equal(res.Logits.Row(r), ref.Row(int(v))) {
						mislabelled.Add(1)
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-bumperDone
	if n := mislabelled.Load(); n > 0 {
		t.Fatalf("%d of %d answers are not the model of the version they report", n, answers.Load())
	}
}

// TestServeEngineSourceTrainingStepInvalidates serves from a live training
// engine with caching on: a training step must advance the served version and
// the post-step answer must match the post-step reference, proving the cache
// invalidated on the parameter-version bump.
func TestServeEngineSourceTrainingStepInvalidates(t *testing.T) {
	ds := testDataset(t, 100, 13)
	eng, err := engine.NewEngine(ds, engine.Options{Workers: 2, Mode: engine.Hybrid, Model: nn.GCN, Seed: 5, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := newTestServer(t, ds, EngineSource(eng), 1<<20)
	verts := []int32{4, 9, 42}

	before, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	refBefore := engine.ReferenceForward(ds.Graph, eng.CloneModel(), ds.Features)
	if _, err := s.Query(&Request{Verts: verts}); err != nil {
		t.Fatal(err)
	}
	hot := queryFromCache(t, s, verts)
	for i, v := range verts {
		assertRowEqual(t, "pre-step logits", v, before.Logits.Row(i), refBefore.Row(int(v)))
		assertRowEqual(t, "pre-step cache-answered logits", v, hot.Logits.Row(i), refBefore.Row(int(v)))
	}

	eng.RunEpoch()

	refAfter := engine.ReferenceForward(ds.Graph, eng.CloneModel(), ds.Features)
	for k := 0; k < 3; k++ {
		after, err := s.Query(&Request{Verts: verts})
		if err != nil {
			t.Fatal(err)
		}
		if after.Version == before.Version {
			t.Fatalf("training step did not advance served version (%d)", after.Version)
		}
		for i, v := range verts {
			assertRowEqual(t, "post-step logits", v, after.Logits.Row(i), refAfter.Row(int(v)))
		}
		if after.Logits.Equal(before.Logits) {
			t.Fatal("served logits unchanged across a training step")
		}
	}
	queryFromCache(t, s, verts)
}

// TestServeOneLayerFromCache serves a one-layer model, whose penultimate
// rows are the features: its first answer admits the final rows, and the
// cache-answered repeat gives the reference logits and the feature rows as
// Embeds.
func TestServeOneLayerFromCache(t *testing.T) {
	ds := testDataset(t, 80, 33)
	for _, kind := range nn.ModelKinds() {
		t.Run(string(kind), func(t *testing.T) {
			model := nn.MustNewModel(kind, []int{ds.Spec.FeatureDim, ds.Spec.NumClasses}, 0, 34)
			s := newTestServer(t, ds, NewStatic(model), 1<<20)
			ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
			verts := []int32{0, 9, 41, 9}
			if _, err := s.Query(&Request{Verts: verts}); err != nil {
				t.Fatal(err)
			}
			res := queryFromCache(t, s, verts)
			for i, v := range verts {
				assertRowEqual(t, "logits", v, res.Logits.Row(i), ref.Row(int(v)))
				assertRowEqual(t, "embeds", v, res.Embeds.Row(i), ds.Features.Row(int(v)))
			}
		})
	}
}

// TestServeInductive checks a never-seen vertex: its served rows must equal a
// reference forward over an extended graph that materialises the vertex for
// real. Appending a sink vertex leaves every existing in-degree unchanged, so
// the extended reference is exactly the overlay semantics.
func TestServeInductive(t *testing.T) {
	ds := testDataset(t, 80, 14)
	model := testModel(ds, nn.GCN, 41)
	s := newTestServer(t, ds, NewStatic(model), 1<<20)

	nbrs := []int32{2, 5, 11, 30}
	feat := make([]float32, ds.Spec.FeatureDim)
	for i := range feat {
		feat[i] = 0.1 * float32(i+1)
	}
	res, err := s.Query(&Request{
		Verts:     []int32{7},
		Inductive: []InductiveVertex{{Features: feat, Neighbors: nbrs}},
	})
	if err != nil {
		t.Fatal(err)
	}

	n := ds.Graph.NumVertices()
	g2, f2 := withSink(t, ds, feat, nbrs)
	ref := engine.ReferenceForward(g2, model, f2)

	assertRowEqual(t, "known-vertex logits", 7, res.Logits.Row(0), ref.Row(7))
	assertRowEqual(t, "inductive logits", int32(n), res.Logits.Row(1), ref.Row(n))
}

// TestServeSampledReproducible pins the sampled path's determinism: the same
// request seed yields the same answer no matter the interleaving, and a
// fanout at least the max in-degree degenerates to the exact answer.
func TestServeSampledReproducible(t *testing.T) {
	ds := testDataset(t, 100, 15)
	model := testModel(ds, nn.GCN, 51)
	s := newTestServer(t, ds, NewStatic(model), 0)
	req := func(seed uint64, fanout int) *Result {
		res, err := s.Query(&Request{Verts: []int32{8, 33}, Fanouts: []int{fanout, fanout}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := req(9, 2), req(9, 2)
	if !a.Logits.Equal(b.Logits) {
		t.Fatal("same seed produced different sampled answers")
	}

	maxDeg := graph.ComputeStats(ds.Graph).MaxInDegree
	full := req(3, maxDeg+1)
	ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
	assertRowEqual(t, "full-fanout logits", 8, full.Logits.Row(0), ref.Row(8))
	assertRowEqual(t, "full-fanout logits", 33, full.Logits.Row(1), ref.Row(33))
}

// TestServeBatchedEqualsSingle answers the same vertices through many
// concurrent singleton queries and through one multi-vertex request: the rows
// must agree bitwise — batching must be equivalence-preserving.
func TestServeBatchedEqualsSingle(t *testing.T) {
	ds := testDataset(t, 90, 16)
	model := testModel(ds, nn.SAGE, 61)
	s := newTestServer(t, ds, NewStatic(model), 0)

	verts := make([]int32, 30)
	for i := range verts {
		verts[i] = int32(i * 3)
	}
	batch, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}

	single := make([]*Result, len(verts))
	var wg sync.WaitGroup
	for i, v := range verts {
		wg.Add(1)
		go func(i int, v int32) {
			defer wg.Done()
			res, err := s.Query(&Request{Verts: []int32{v}})
			if err != nil {
				t.Error(err)
				return
			}
			single[i] = res
		}(i, v)
	}
	wg.Wait()
	for i, v := range verts {
		if single[i] == nil {
			t.Fatal("missing singleton result")
		}
		assertRowEqual(t, "batched vs single", v, batch.Logits.Row(i), single[i].Logits.Row(0))
	}
}

// TestServeValidation rejects malformed requests without touching the
// pipeline.
func TestServeValidation(t *testing.T) {
	ds := testDataset(t, 50, 17)
	s := newTestServer(t, ds, NewStatic(testModel(ds, nn.GCN, 71)), 0)
	bad := []*Request{
		{},
		{Verts: []int32{-1}},
		{Verts: []int32{50}},
		{Verts: []int32{0}, Fanouts: []int{0, 3}},
		{Inductive: []InductiveVertex{{Features: []float32{1}, Neighbors: []int32{0}}}},
		{Inductive: []InductiveVertex{{Features: make([]float32, 10), Neighbors: []int32{99}}}},
		{Verts: []int32{0}, Fanouts: []int{5}}, // wrong fanout arity for a 2-layer model
	}
	for i, req := range bad {
		if _, err := s.Query(req); err == nil {
			t.Errorf("request %d accepted: %+v", i, req)
		}
	}
	if _, err := s.Query(&Request{Verts: []int32{49}}); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// TestServeCloseDrains submits queries, closes, and checks post-close
// submissions fail while pre-close ones completed.
func TestServeCloseDrains(t *testing.T) {
	ds := testDataset(t, 60, 18)
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features,
		Source: NewStatic(testModel(ds, nn.GCN, 81)), Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(&Request{Verts: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Query(&Request{Verts: []int32{1}}); err == nil {
		t.Fatal("query accepted after Close")
	}
}

// TestServeScratchRecycled pins the scratch pool's contract: answers handed
// out never alias recycled storage (a result kept across many later jobs of
// other shapes still equals the reference), every buffer a job borrows is
// back once the server has drained, and later jobs do reuse earlier ones'.
func TestServeScratchRecycled(t *testing.T) {
	ds := testDataset(t, 120, 19)
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
		t.Run(string(kind), func(t *testing.T) {
			model := testModel(ds, kind, 91)
			s, err := New(Config{
				Graph: ds.Graph, Features: ds.Features, Source: NewStatic(model),
				CacheBytes: 1 << 12, Registry: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
			kept, err := s.Query(&Request{Verts: []int32{5, 50, 100}})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						verts := make([]int32, 1+(i+c)%9)
						for k := range verts {
							verts[k] = int32((7*i + 13*k + 31*c) % 120)
						}
						res, err := s.Query(&Request{Verts: verts})
						if err != nil {
							t.Error(err)
							return
						}
						for k, v := range verts {
							if !slices.Equal(res.Logits.Row(k), ref.Row(int(v))) {
								t.Errorf("client %d request %d: logits of vertex %d differ from the reference", c, i, v)
							}
						}
					}
				}(c)
			}
			wg.Wait()
			for k, v := range []int32{5, 50, 100} {
				assertRowEqual(t, "kept logits", v, kept.Logits.Row(k), ref.Row(int(v)))
			}
			s.Close()
			st := s.scratch.Stats()
			if st.BytesInFlight != 0 {
				t.Errorf("%d scratch bytes still checked out after Close", st.BytesInFlight)
			}
			if st.Hits == 0 {
				t.Errorf("no scratch buffer was ever reused (%d misses)", st.Misses)
			}
		})
	}
}

// TestServeConcurrentWalks runs four extraction workers, each on its own
// walk scratch, under concurrent clients that mix exact requests with
// repeated vertices, seeded sampled requests and inductive ones, over a cache
// small enough to evict. Exact answers must equal the reference and the
// others the same request answered alone: a slot entry a walk left set, or
// one another worker wrote, would move them.
func TestServeConcurrentWalks(t *testing.T) {
	ds := testDataset(t, 150, 23)
	model := testModel(ds, nn.GCN, 24)
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: NewStatic(model),
		CacheBytes: 1 << 12, ExtractWorkers: 4, ComputeWorkers: 2, MaxBatch: 16,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
	feat := make([]float32, ds.Spec.FeatureDim)
	for i := range feat {
		feat[i] = 0.1 * float32(i)
	}
	alone := []*Request{
		{Verts: []int32{8, 33, 8}, Fanouts: []int{3, 2}, Seed: 5},
		{Verts: []int32{4, 9}, Inductive: []InductiveVertex{{Features: feat, Neighbors: []int32{4, 20, 140}}}},
	}
	want := make([]*Result, len(alone))
	for i, req := range alone {
		if want[i], err = s.Query(req); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if k := (i + c) % 3; k < len(alone) {
					res, err := s.Query(alone[k])
					if err != nil {
						t.Error(err)
						return
					}
					if !res.Logits.Equal(want[k].Logits) || !res.Embeds.Equal(want[k].Embeds) {
						t.Errorf("client %d request %d: %+v answered differently than alone", c, i, *alone[k])
					}
					continue
				}
				verts := make([]int32, 2+(i+c)%7)
				for q := range verts {
					verts[q] = int32((11*i + 7*q*q + 29*c) % 150)
				}
				res, err := s.Query(&Request{Verts: verts})
				if err != nil {
					t.Error(err)
					return
				}
				for q, v := range verts {
					if !slices.Equal(res.Logits.Row(q), ref.Row(int(v))) {
						t.Errorf("client %d request %d: logits of vertex %d differ from the reference", c, i, v)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func assertRowEqual(t *testing.T, what string, v int32, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s vertex %d: %d cols vs %d", what, v, len(got), len(want))
	}
	for c := range got {
		if got[c] != want[c] {
			t.Fatalf("%s vertex %d col %d: got %v want %v (%s)",
				what, v, c, got[c], want[c], fmt.Sprintf("diff %g", got[c]-want[c]))
		}
	}
}
