package engine

import "neutronstar/internal/obs"

// Process-wide engine metrics on the default registry, feeding the optional
// debug server's /metrics endpoint. Gauges reflect the most recent epoch of
// whichever engine ran last (registration is idempotent).
var (
	obsEpoch = obs.Default().Gauge("ns_engine_epoch",
		"Epochs completed by the most recently stepped engine.")
	obsLoss = obs.Default().Gauge("ns_engine_loss",
		"Mean training loss of the last completed epoch.")
	obsEpochSeconds = obs.Default().Gauge("ns_engine_epoch_duration_seconds",
		"Wall-clock duration of the last completed epoch.")
	obsCacheRatio = obs.Default().Gauge("ns_engine_cache_ratio",
		"Fraction of remote dependencies the planner chose to cache (0..1).")
)
