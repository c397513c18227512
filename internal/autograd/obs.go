package autograd

import "neutronstar/internal/obs"

// Forward-pass timing of the two graph-operation primitives every GNN layer
// funnels through (§4.1's ScatterToEdge / GatherByDst). Histograms live on
// the default registry for the debug server's /metrics endpoint.
var (
	obsGatherSeconds = obs.Default().Histogram("ns_autograd_gather_seconds",
		"Forward duration of Gather (ScatterToEdge) calls.", obs.TimeBuckets)
	obsAggregateSeconds = obs.Default().Histogram("ns_autograd_scatter_seconds",
		"Forward duration of Aggregate / ScatterAddRows (GatherByDst) calls.", obs.TimeBuckets)
)
