package tensor

import "testing"

// inKernelModes runs f once in every binding an amd64 binary can take on
// this host, as a subtest named after it: "avx512" (the 512-bit strips, where
// the host has AVX-512), "avx" (useAVX512 forced off, so the AVX bodies run
// alone) and "twins" (useAVX forced off, so every kernel runs its Go twin).
// The flags are restored when f has run in each.
func inKernelModes(t *testing.T, f func(t *testing.T)) {
	avx, avx512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = avx, avx512 }()
	for _, m := range []struct {
		name        string
		avx, avx512 bool
	}{{"avx512", true, true}, {"avx", true, false}, {"twins", false, false}} {
		if m.avx && !avx || m.avx512 && !avx512 {
			continue
		}
		useAVX, useAVX512 = m.avx, m.avx512
		t.Run(m.name, f)
	}
}
