//go:build !amd64

package tensor

import "testing"

// inKernelModes runs f once, as the subtest "twins": without assembly the
// kernels are the Go twins.
func inKernelModes(t *testing.T, f func(t *testing.T)) { t.Run("twins", f) }
