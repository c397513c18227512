package comm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"neutronstar/internal/tensor"
)

// snoopNet records every cross-worker message sent through it, with a copy of
// its payload as it was at Send.
type snoopNet struct {
	Network
	mu   sync.Mutex
	sent []*Message
	was  [][]float32
}

func (s *snoopNet) Send(msg *Message) {
	s.mu.Lock()
	s.sent = append(s.sent, msg)
	s.was = append(s.was, append([]float32(nil), msg.Rows.Data()...))
	s.mu.Unlock()
	s.Network.Send(msg)
}

// collect runs one collective on every worker over copies of in and returns
// the reduced buffers.
func collect(m int, in [][]float32, reduce func(id int, buf []float32)) [][]float32 {
	out := make([][]float32, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		out[i] = append([]float32(nil), in[i]...)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reduce(i, out[i])
		}(i)
	}
	wg.Wait()
	return out
}

// TestAllReduceBitIdenticalToRing: on every worker, for every cluster size and
// for lengths around the chunking's edge cases, the one-exchange collective
// leaves exactly the bits the ring leaves — over the channel fabric, real
// sockets, and a fabric that drops and duplicates all-reduce messages — and
// no receiver writes to the payload it shares with the others.
func TestAllReduceBitIdenticalToRing(t *testing.T) {
	fabrics := map[string]func(m int) (Network, error){
		"fabric": func(m int) (Network, error) { return NewFabric(m, ProfileLocal, nil), nil },
		"tcp":    func(m int) (Network, error) { return NewTCPFabric(m, ProfileLocal, nil) },
		"faulty": func(m int) (Network, error) {
			return NewFabric(m, faulted(t, "drop=0.3,dup=0.3,jitter=100us,seed=5,timeout=100us"), nil), nil
		},
	}
	for name, build := range fabrics {
		for m := 1; m <= 8; m++ {
			t.Run(fmt.Sprintf("%s/m%d", name, m), func(t *testing.T) {
				inner, err := build(m)
				if err != nil {
					t.Fatal(err)
				}
				defer inner.Close()
				net := &snoopNet{Network: inner}
				rng := tensor.NewRNG(uint64(31*m + len(name)))
				for k, n := range []int{0, 1, m - 1, m, 251, 2608} {
					in := make([][]float32, m)
					for i := range in {
						in[i] = make([]float32, n)
						for j := range in[i] {
							// Mixed magnitudes: the sum depends on its association.
							in[i][j] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(j%7-3)))
						}
					}
					want := collect(m, in, func(id int, buf []float32) {
						RingAllReduce(inner, id, m, 2*k, buf, nil)
					})
					got := collect(m, in, func(id int, buf []float32) {
						AllReduce(net, id, m, 2*k+1, buf)
					})
					for i := 0; i < m; i++ {
						for j := range want[i] {
							if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
								t.Fatalf("len %d worker %d elem %d: exchange %x, ring %x",
									n, i, j, math.Float32bits(got[i][j]), math.Float32bits(want[i][j]))
							}
						}
					}
				}
				if want := 6 * m * (m - 1); len(net.sent) != want {
					t.Fatalf("%d messages for 6 collectives, want %d (m-1 per worker each)", len(net.sent), want)
				}
				payloads := map[*tensor.Tensor]bool{}
				for k, msg := range net.sent {
					payloads[msg.Rows] = true
					for j, v := range msg.Rows.Data() {
						if math.Float32bits(v) != math.Float32bits(net.was[k][j]) {
							t.Fatalf("payload %d->%d tag %d mutated at elem %d", msg.From, msg.To, msg.Epoch, j)
						}
					}
				}
				if m > 1 && len(payloads) != 6*m {
					t.Fatalf("%d distinct payloads, want %d (one shared copy per worker per collective)", len(payloads), 6*m)
				}
			})
		}
	}
}
