package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
)

// planHash is FNV-1a over a plan's R, C and TP, worker by worker and layer
// by layer.
func planHash(plan []*hybrid.Decision) uint64 {
	h := fnv.New64a()
	for _, d := range plan {
		for l := range d.R {
			for _, set := range [][]int32{d.R[l], d.C[l]} {
				binary.Write(h, binary.LittleEndian, int32(len(set)))
				binary.Write(h, binary.LittleEndian, set)
			}
			binary.Write(h, binary.LittleEndian, d.TPAt(l+1))
		}
	}
	return h.Sum64()
}

// TestGridDecisionsGolden holds the greedy's plan in every (cell, Costs) the
// views decide to one planHash, recorded on the planner before Charge split
// into Ledger and Price. A change to Algorithm 4 that moves no priced bound
// still moves these; flipping its tie rule ("tie falls to comm") does. Only
// a change meant to move a Decision re-records them.
func TestGridDecisionsGolden(t *testing.T) {
	for _, g := range goldenDecisions {
		if got := planHash(cellOf(g.cell).greedyAt(g.costs)); got != g.hash {
			t.Errorf("%s W=%d L=%d %s at %+v: plan hash %#016x, want %#016x",
				g.cell.graph.Name, g.cell.workers, g.cell.layers, g.cell.model, g.costs, got, g.hash)
		}
	}
}

var goldenDecisions = []struct {
	cell  cellKey
	costs costmodel.Costs
	hash  uint64
}{
	{key("google", 4, 1, nn.GAT), fig2aCosts(15), 0xc99cd06b86864c24},
	{key("google", 4, 1, nn.GAT), fig2aCosts(150), 0xc99cd06b86864c24},
	{key("google", 4, 1, nn.GAT), fig2aCosts(2), 0xc99cd06b86864c24},
	{key("google", 4, 1, nn.GAT), fig2aCosts(45), 0xc99cd06b86864c24},
	{key("google", 4, 1, nn.GAT), fig2aCosts(8), 0xc99cd06b86864c24},
	{key("google", 4, 2, nn.GAT), fig2aCosts(15), 0x1db8b7450684c4e3},
	{key("google", 4, 2, nn.GAT), fig2aCosts(150), 0x99d2f47f28495c6b},
	{key("google", 4, 2, nn.GAT), fig2aCosts(2), 0xf3f18e789a05ed1b},
	{key("google", 4, 2, nn.GAT), fig2aCosts(45), 0x99d2f47f28495c6b},
	{key("google", 4, 2, nn.GAT), fig2aCosts(8), 0xa5dcf36e4a9b2a7b},
	{key("google", 4, 2, nn.GCN), boundCosts(1e-08), 0xf3f18e789a05ed1b},
	{key("google", 4, 2, nn.GCN), boundCosts(3e-08), 0xf3f18e789a05ed1b},
	{key("google", 4, 2, nn.GCN), boundCosts(9e-08), 0x99d2f47f28495c6b},
	{key("google", 4, 3, nn.GCN), fig2aCosts(15), 0x9ee555674abd6c14},
	{key("google", 4, 3, nn.GCN), fig2aCosts(150), 0x885ef919d58af852},
	{key("google", 4, 3, nn.GCN), fig2aCosts(2), 0x7575bc381e82c6b2},
	{key("google", 4, 3, nn.GCN), fig2aCosts(45), 0x885ef919d58af852},
	{key("google", 4, 3, nn.GCN), fig2aCosts(8), 0xc239c2f8553ea4a3},
	{key("google", 8, 1, nn.GAT), fig2aCosts(15), 0xa8ee3f9fdcb85aa8},
	{key("google", 8, 1, nn.GAT), fig2aCosts(150), 0xa8ee3f9fdcb85aa8},
	{key("google", 8, 1, nn.GAT), fig2aCosts(2), 0xa8ee3f9fdcb85aa8},
	{key("google", 8, 1, nn.GAT), fig2aCosts(45), 0xa8ee3f9fdcb85aa8},
	{key("google", 8, 1, nn.GAT), fig2aCosts(8), 0xa8ee3f9fdcb85aa8},
	{key("google", 8, 2, nn.GAT), fig2aCosts(15), 0xea47296113cf0521},
	{key("google", 8, 2, nn.GAT), fig2aCosts(150), 0x613d2edb6d06c13f},
	{key("google", 8, 2, nn.GAT), fig2aCosts(2), 0x8da7672309ace74f},
	{key("google", 8, 2, nn.GAT), fig2aCosts(45), 0x613d2edb6d06c13f},
	{key("google", 8, 2, nn.GAT), fig2aCosts(8), 0xb82cd78aa335c2f9},
	{key("google", 8, 2, nn.GCN), boundCosts(1e-08), 0x8da7672309ace74f},
	{key("google", 8, 2, nn.GCN), boundCosts(3e-08), 0x8da7672309ace74f},
	{key("google", 8, 2, nn.GCN), boundCosts(9e-08), 0x613d2edb6d06c13f},
	{key("google", 8, 3, nn.GCN), fig2aCosts(15), 0xa66be13377dab16f},
	{key("google", 8, 3, nn.GCN), fig2aCosts(150), 0xbb07e76bf62565ca},
	{key("google", 8, 3, nn.GCN), fig2aCosts(2), 0xc6715100308d556a},
	{key("google", 8, 3, nn.GCN), fig2aCosts(45), 0x13c17ed41ea4d656},
	{key("google", 8, 3, nn.GCN), fig2aCosts(8), 0xb0aefd05ed4c2c0c},
	{key("livejournal", 4, 1, nn.GAT), fig2aCosts(15), 0x36e4ef5e233baec7},
	{key("livejournal", 4, 1, nn.GAT), fig2aCosts(150), 0x36e4ef5e233baec7},
	{key("livejournal", 4, 1, nn.GAT), fig2aCosts(2), 0x36e4ef5e233baec7},
	{key("livejournal", 4, 1, nn.GAT), fig2aCosts(45), 0x36e4ef5e233baec7},
	{key("livejournal", 4, 1, nn.GAT), fig2aCosts(8), 0x36e4ef5e233baec7},
	{key("livejournal", 4, 2, nn.GAT), fig2aCosts(15), 0x97e7786c9d990a62},
	{key("livejournal", 4, 2, nn.GAT), fig2aCosts(150), 0x1364c52635d7f115},
	{key("livejournal", 4, 2, nn.GAT), fig2aCosts(2), 0x9bc3865514562c15},
	{key("livejournal", 4, 2, nn.GAT), fig2aCosts(45), 0x1364c52635d7f115},
	{key("livejournal", 4, 2, nn.GAT), fig2aCosts(8), 0x542055f81f341e71},
	{key("livejournal", 4, 2, nn.GCN), boundCosts(1e-08), 0x9bc3865514562c15},
	{key("livejournal", 4, 2, nn.GCN), boundCosts(3e-08), 0x9bc3865514562c15},
	{key("livejournal", 4, 2, nn.GCN), boundCosts(9e-08), 0x1364c52635d7f115},
	{key("livejournal", 4, 3, nn.GCN), fig2aCosts(15), 0x048a8a5d3921b91b},
	{key("livejournal", 4, 3, nn.GCN), fig2aCosts(150), 0x83d699716f98ed5b},
	{key("livejournal", 4, 3, nn.GCN), fig2aCosts(2), 0xb2b850af9fcb1a9b},
	{key("livejournal", 4, 3, nn.GCN), fig2aCosts(45), 0x83d699716f98ed5b},
	{key("livejournal", 4, 3, nn.GCN), fig2aCosts(8), 0xeb3ca6aa5adaf127},
	{key("livejournal", 8, 1, nn.GAT), fig2aCosts(15), 0x310c14ed425af4ff},
	{key("livejournal", 8, 1, nn.GAT), fig2aCosts(150), 0x310c14ed425af4ff},
	{key("livejournal", 8, 1, nn.GAT), fig2aCosts(2), 0x310c14ed425af4ff},
	{key("livejournal", 8, 1, nn.GAT), fig2aCosts(45), 0x310c14ed425af4ff},
	{key("livejournal", 8, 1, nn.GAT), fig2aCosts(8), 0x310c14ed425af4ff},
	{key("livejournal", 8, 2, nn.GAT), fig2aCosts(15), 0x987e2aa543d8fea4},
	{key("livejournal", 8, 2, nn.GAT), fig2aCosts(150), 0x2c4cc78e4700c22d},
	{key("livejournal", 8, 2, nn.GAT), fig2aCosts(2), 0xeed4fae2fe1bbbed},
	{key("livejournal", 8, 2, nn.GAT), fig2aCosts(45), 0x2c4cc78e4700c22d},
	{key("livejournal", 8, 2, nn.GAT), fig2aCosts(8), 0x705ca6bac07d8eb4},
	{key("livejournal", 8, 2, nn.GCN), boundCosts(1e-08), 0xeed4fae2fe1bbbed},
	{key("livejournal", 8, 2, nn.GCN), boundCosts(3e-08), 0xeed4fae2fe1bbbed},
	{key("livejournal", 8, 2, nn.GCN), boundCosts(9e-08), 0x2c4cc78e4700c22d},
	{key("livejournal", 8, 3, nn.GCN), fig2aCosts(15), 0x12d44014090578fa},
	{key("livejournal", 8, 3, nn.GCN), fig2aCosts(150), 0x3e3187b2915a2973},
	{key("livejournal", 8, 3, nn.GCN), fig2aCosts(2), 0xa43eaa897655bf73},
	{key("livejournal", 8, 3, nn.GCN), fig2aCosts(45), 0x75970bb5703630b3},
	{key("livejournal", 8, 3, nn.GCN), fig2aCosts(8), 0xc9b9030087b669b9},
	{key("pokec", 1, 2, nn.GCN), fig2aCosts(15), 0x77e875b1c7b6a32d},
	{key("pokec", 1, 3, nn.GCN), fig2aCosts(15), 0x74ea84a8806d5a57},
	{key("pokec", 16, 2, nn.GCN), fig2aCosts(15), 0xe85b12d1deeb334f},
	{key("pokec", 16, 3, nn.GCN), fig2aCosts(15), 0xd470dc15f880eaf2},
	{key("pokec", 2, 2, nn.GCN), fig2aCosts(15), 0x73bacce36f0ca597},
	{key("pokec", 2, 3, nn.GCN), fig2aCosts(15), 0xc17bcaca04542ab2},
	{key("pokec", 4, 1, nn.GAT), fig2aCosts(15), 0x03a98f18643ed568},
	{key("pokec", 4, 1, nn.GAT), fig2aCosts(150), 0x03a98f18643ed568},
	{key("pokec", 4, 1, nn.GAT), fig2aCosts(2), 0x03a98f18643ed568},
	{key("pokec", 4, 1, nn.GAT), fig2aCosts(45), 0x03a98f18643ed568},
	{key("pokec", 4, 1, nn.GAT), fig2aCosts(8), 0x03a98f18643ed568},
	{key("pokec", 4, 2, nn.GAT), fig2aCosts(15), 0xd52291551e92e6d1},
	{key("pokec", 4, 2, nn.GAT), fig2aCosts(150), 0xc80670f64247d149},
	{key("pokec", 4, 2, nn.GAT), fig2aCosts(2), 0x59eecaa4d6d289b7},
	{key("pokec", 4, 2, nn.GAT), fig2aCosts(45), 0xc36fee90c13b3eaf},
	{key("pokec", 4, 2, nn.GAT), fig2aCosts(8), 0xb4a4fa026dd8410b},
	{key("pokec", 4, 2, nn.GCN), boundCosts(1e-08), 0x59eecaa4d6d289b7},
	{key("pokec", 4, 2, nn.GCN), boundCosts(3e-08), 0x59eecaa4d6d289b7},
	{key("pokec", 4, 2, nn.GCN), boundCosts(9e-08), 0x51f37f61b113c7c7},
	{key("pokec", 4, 2, nn.GCN), fig2aCosts(15), 0x51f37f61b113c7c7},
	{key("pokec", 4, 3, nn.GCN), fig2aCosts(15), 0x35741878606147fc},
	{key("pokec", 8, 1, nn.GAT), fig2aCosts(15), 0x6fb0eafd3f2df832},
	{key("pokec", 8, 1, nn.GAT), fig2aCosts(150), 0x6fb0eafd3f2df832},
	{key("pokec", 8, 1, nn.GAT), fig2aCosts(2), 0x6fb0eafd3f2df832},
	{key("pokec", 8, 1, nn.GAT), fig2aCosts(45), 0x6fb0eafd3f2df832},
	{key("pokec", 8, 1, nn.GAT), fig2aCosts(8), 0x6fb0eafd3f2df832},
	{key("pokec", 8, 2, nn.GAT), fig2aCosts(15), 0x713fdb2c6bf1a3c5},
	{key("pokec", 8, 2, nn.GAT), fig2aCosts(150), 0x4e40360d800ed351},
	{key("pokec", 8, 2, nn.GAT), fig2aCosts(2), 0x5e936a91e2031003},
	{key("pokec", 8, 2, nn.GAT), fig2aCosts(45), 0x92abcaf29abc5a79},
	{key("pokec", 8, 2, nn.GAT), fig2aCosts(8), 0x4c26739e45d8d598},
	{key("pokec", 8, 2, nn.GCN), boundCosts(1e-08), 0x5e936a91e2031003},
	{key("pokec", 8, 2, nn.GCN), boundCosts(3e-08), 0x5e936a91e2031003},
	{key("pokec", 8, 2, nn.GCN), boundCosts(9e-08), 0x112ed6a5034b3713},
	{key("pokec", 8, 2, nn.GCN), fig2aCosts(15), 0x112ed6a5034b3713},
	{key("pokec", 8, 3, nn.GCN), fig2aCosts(15), 0x298c5d5b7ebca5ca},
	{key("reddit", 1, 2, nn.GCN), fig2aCosts(15), 0x77e875b1c7b6a32d},
	{key("reddit", 1, 3, nn.GCN), fig2aCosts(15), 0x74ea84a8806d5a57},
	{key("reddit", 16, 2, nn.GCN), fig2aCosts(15), 0x0e076798b9c94dab},
	{key("reddit", 16, 3, nn.GCN), fig2aCosts(15), 0xa46f1e611c6dfc7a},
	{key("reddit", 2, 2, nn.GCN), fig2aCosts(15), 0x0aea7bd98d638dc5},
	{key("reddit", 2, 3, nn.GCN), fig2aCosts(15), 0x235c4ad9785047a9},
	{key("reddit", 4, 1, nn.GAT), fig2aCosts(15), 0x4c8db746c1927145},
	{key("reddit", 4, 1, nn.GAT), fig2aCosts(150), 0x4c8db746c1927145},
	{key("reddit", 4, 1, nn.GAT), fig2aCosts(2), 0x4c8db746c1927145},
	{key("reddit", 4, 1, nn.GAT), fig2aCosts(45), 0x4c8db746c1927145},
	{key("reddit", 4, 1, nn.GAT), fig2aCosts(8), 0x4c8db746c1927145},
	{key("reddit", 4, 2, nn.GAT), fig2aCosts(15), 0x0c42e8bb55c175f1},
	{key("reddit", 4, 2, nn.GAT), fig2aCosts(150), 0x47155fb79b89d2d9},
	{key("reddit", 4, 2, nn.GAT), fig2aCosts(2), 0x0c42e8bb55c175f1},
	{key("reddit", 4, 2, nn.GAT), fig2aCosts(45), 0x7bdec9295130ecad},
	{key("reddit", 4, 2, nn.GAT), fig2aCosts(8), 0x0c42e8bb55c175f1},
	{key("reddit", 4, 2, nn.GCN), boundCosts(1e-08), 0x0c42e8bb55c175f1},
	{key("reddit", 4, 2, nn.GCN), boundCosts(3e-08), 0x0c42e8bb55c175f1},
	{key("reddit", 4, 2, nn.GCN), boundCosts(9e-08), 0x1693b5db73ef0431},
	{key("reddit", 4, 2, nn.GCN), fig2aCosts(15), 0x1693b5db73ef0431},
	{key("reddit", 4, 3, nn.GAT), fig2aCosts(45), 0x1b35a9c04116ca39},
	{key("reddit", 4, 3, nn.GCN), fig2aCosts(15), 0xe0429b91d9f892b5},
	{key("reddit", 4, 3, nn.GCN), fig2aCosts(150), 0x06200eac322b51c3},
	{key("reddit", 4, 3, nn.GCN), fig2aCosts(2), 0x91bfc7d61e143415},
	{key("reddit", 4, 3, nn.GCN), fig2aCosts(45), 0xd2c6a73990a12fc1},
	{key("reddit", 4, 3, nn.GCN), fig2aCosts(8), 0xe0429b91d9f892b5},
	{key("reddit", 8, 1, nn.GAT), fig2aCosts(15), 0x49e83473ad0ec7c0},
	{key("reddit", 8, 1, nn.GAT), fig2aCosts(150), 0x49e83473ad0ec7c0},
	{key("reddit", 8, 1, nn.GAT), fig2aCosts(2), 0x49e83473ad0ec7c0},
	{key("reddit", 8, 1, nn.GAT), fig2aCosts(45), 0x49e83473ad0ec7c0},
	{key("reddit", 8, 1, nn.GAT), fig2aCosts(8), 0x49e83473ad0ec7c0},
	{key("reddit", 8, 2, nn.GAT), fig2aCosts(15), 0x09792ab7943fef2f},
	{key("reddit", 8, 2, nn.GAT), fig2aCosts(150), 0x3fe071681464a463},
	{key("reddit", 8, 2, nn.GAT), fig2aCosts(2), 0x09792ab7943fef2f},
	{key("reddit", 8, 2, nn.GAT), fig2aCosts(45), 0xe65313045fdd43f8},
	{key("reddit", 8, 2, nn.GAT), fig2aCosts(8), 0x09792ab7943fef2f},
	{key("reddit", 8, 2, nn.GCN), boundCosts(1e-08), 0x09792ab7943fef2f},
	{key("reddit", 8, 2, nn.GCN), boundCosts(3e-08), 0x09792ab7943fef2f},
	{key("reddit", 8, 2, nn.GCN), boundCosts(9e-08), 0xcf7d14b3333e971f},
	{key("reddit", 8, 2, nn.GCN), fig2aCosts(15), 0xcf7d14b3333e971f},
	{key("reddit", 8, 3, nn.GAT), fig2aCosts(45), 0x49d6cc296b562bc9},
	{key("reddit", 8, 3, nn.GCN), fig2aCosts(15), 0x27e488f3d1d5cd6a},
	{key("reddit", 8, 3, nn.GCN), fig2aCosts(150), 0x701227d24ccd6510},
	{key("reddit", 8, 3, nn.GCN), fig2aCosts(2), 0xda4921b134ac52fa},
	{key("reddit", 8, 3, nn.GCN), fig2aCosts(45), 0xfe82c8a5357ca397},
	{key("reddit", 8, 3, nn.GCN), fig2aCosts(8), 0x27e488f3d1d5cd6a},
	{cellKey{benchRMAT, 4, 1, nn.GAT}, fig2aCosts(15), 0x7733ee1ccf20377e},
	{cellKey{benchRMAT, 4, 1, nn.GAT}, fig2aCosts(150), 0x7733ee1ccf20377e},
	{cellKey{benchRMAT, 4, 1, nn.GAT}, fig2aCosts(2), 0x7733ee1ccf20377e},
	{cellKey{benchRMAT, 4, 1, nn.GAT}, fig2aCosts(45), 0x7733ee1ccf20377e},
	{cellKey{benchRMAT, 4, 1, nn.GAT}, fig2aCosts(8), 0x7733ee1ccf20377e},
}
