package main

import (
	"fmt"
	"time"

	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/serve"
	"neutronstar/internal/tensor"
)

// Model dimensions shared by every workload: F = 64 input features, H = 32
// hidden units, 16 classes, 2 layers.
const (
	featureDim = 64
	hiddenDim  = 32
	numClasses = 16
	numLayers  = 2
	// modelSeed fixes parameter initialisation; the data seed comes from -seed.
	modelSeed = 1
	// ladderWorkers is the cluster size the per-layer ladder partitions for,
	// whatever the workload itself trains on.
	ladderWorkers = 4
)

// workload is one set of inputs plus the configuration it runs under;
// BENCHMARK.json and README.md record why each one exists. The
// three train-* workloads measure training epochs end to end, serve-mix
// measures served requests; a traced run additionally exercises the other
// facet briefly so every per-layer metric exists on every workload.
type workload struct {
	name string
	// locality selects the GenLocality power-law graph instead of RMAT.
	locality bool
	model    nn.ModelKind
	mode     engine.Mode
	workers  int
	profile  comm.NetworkProfile
	// serving marks the workload whose end-to-end window is HTTP requests.
	serving bool
}

var workloads = []workload{
	// The redundant-computation extreme: every remote subtree is replicated
	// and recomputed, so kernels do the work and comm does almost none.
	{
		name:     "train-compute",
		locality: true, model: nn.GCN, mode: engine.DepCache, workers: 4, profile: comm.ProfileLocal,
	},
	// The communication extreme: every remote row is fetched every layer
	// through the paced ECS fabric; the plan and the byte counts repeat exactly.
	{
		name:  "train-comm",
		model: nn.GCN, mode: engine.DepComm, workers: 4, profile: comm.ProfileECS,
	},
	// The paper's headline path: probe, Eq. 1-3, Algorithm 4, a mixed plan,
	// over edge-wise attention kernels where the GCN workloads are GEMM-bound.
	{
		name:  "train-hybrid-gat",
		model: nn.GAT, mode: engine.Hybrid4, workers: 4, profile: comm.ProfileECS,
	},
	// The second user-facing path: hot requests use the embedding cache, cold
	// ones bypass it, version bumps invalidate it. Its model is trained on
	// one worker.
	{
		name:  "serve-mix",
		model: nn.GCN, mode: engine.DepCache, workers: 1, profile: comm.ProfileLocal, serving: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizes holds every count that differs between a full and a -quick run.
type sizes struct {
	// quick marks the test-only sizes: workload-shape assertions are off and
	// ladder rungs run once.
	quick            bool
	localityVertices int
	rmatVertices     int
	// setups is how often set-up is repeated; setup_s is the median.
	setups       int
	warmEpochs   int
	serveEpochs  int // training epochs behind the served model
	warmRequests int
	// maxOps caps the measured window by count as well as by time (0 = time
	// only); -quick uses it so tests finish in seconds.
	maxEpochs   int
	maxRequests int
	// rungTime is the least time one ladder rung is repeated for.
	rungTime time.Duration
	// regretEpochs is the measured epochs per pinned policy behind
	// hybrid.regret.
	regretEpochs int
	bumpEvery    int
	sampleEvery  int // every n-th response is kept for the output check
}

var fullSizes = sizes{
	localityVertices: 12000,
	rmatVertices:     7000,
	setups:           5,
	warmEpochs:       3,
	serveEpochs:      5,
	warmRequests:     1000,
	rungTime:         100 * time.Millisecond,
	regretEpochs:     5,
	bumpEvery:        4000,
	sampleEvery:      500,
}

var quickSizes = sizes{
	quick:            true,
	localityVertices: 1000,
	rmatVertices:     1000,
	setups:           1,
	warmEpochs:       2,
	serveEpochs:      2,
	warmRequests:     20,
	maxEpochs:        3,
	maxRequests:      200,
	rungTime:         time.Millisecond,
	regretEpochs:     1,
	bumpEvery:        60,
	sampleEvery:      20,
}

// spec is the dataset the workload generates from seed. Everything the
// engine or server later sees comes out of dataset.Load(spec).
func (w workload) spec(seed uint64, sz sizes) dataset.Spec {
	s := dataset.Spec{
		FeatureDim: featureDim,
		HiddenDim:  hiddenDim,
		NumClasses: numClasses,
		Seed:       seed,
	}
	if w.locality {
		s.Name, s.Gen = "bench-locality", dataset.GenLocality
		s.Vertices, s.AvgDegree = sz.localityVertices, 14
	} else {
		s.Name, s.Gen = "bench-rmat", dataset.GenRMAT
		s.Vertices, s.AvgDegree, s.Skew = sz.rmatVertices, 18, 0.45
	}
	return s
}

// engineOptions is the workload's training configuration with every
// recorder, collector and history off; a traced run sets Recorder itself.
func (w workload) engineOptions() engine.Options {
	return engine.Options{
		Workers:  w.workers,
		Mode:     w.mode,
		Model:    w.model,
		Layers:   numLayers,
		Profile:  w.profile,
		Ring:     true,
		LockFree: true,
		Overlap:  true,
		Seed:     modelSeed,
		Pool:     tensor.NewPool(),
	}
}

// Serving configuration, the same for every workload's served model.
const (
	serveClients    = 2
	requestVertices = 32 // == MaxBatch, so every request flushes the batcher
	hotShare        = 0.70
	serveCacheBytes = 160 << 10
	// hotVertices is the size of the hot set: two requests' worth, so hot
	// requests overlap heavily but are not all alike.
	hotVertices = 2 * requestVertices
	// hotMaxDegree bounds a hot vertex's in-degree so that the hot set's
	// layer-1 rows (H float32 each, the vertices and their in-neighbours)
	// take at most 35 % of the cache: room is left for the rows of the cold
	// requests that pass between two uses of a hot row.
	hotMaxDegree = serveCacheBytes/(4*hiddenDim)*35/100/hotVertices - 1
)

func serveConfig() serve.Config {
	return serve.Config{
		MaxBatch:       requestVertices,
		MaxWait:        2 * time.Millisecond,
		ExtractWorkers: 2,
		ComputeWorkers: 2,
		CacheBytes:     serveCacheBytes,
	}
}
