package privcount

import (
	"encoding/binary"
	"sync"
)

// sumAccum is the round's single modular accumulator: every completed
// report and blinding-sum vector folds into it chunk-wise, under the
// chunk's stripe lock, so concurrent DC streams combine without a
// global bottleneck and the TS holds one schema-sized sum instead of
// one vector per party.
type sumAccum struct {
	sum   []uint64
	strps []sync.Mutex
}

func newSumAccum(n int) *sumAccum {
	return &sumAccum{
		sum:   make([]uint64, n),
		strps: make([]sync.Mutex, (n+ChunkSlots-1)/ChunkSlots+1),
	}
}

// fold adds raw — slots as they travel and spill, eight little-endian
// bytes apiece — into the accumulator mod 2⁶⁴ at slot offset off,
// locking the covering stripes in ascending order.
func (a *sumAccum) fold(off int, raw []byte) {
	n := len(raw) / 8
	if n == 0 {
		return
	}
	lo, hi := off/ChunkSlots, (off+n-1)/ChunkSlots
	for s := lo; s <= hi; s++ {
		a.strps[s].Lock()
	}
	for i := range n {
		a.sum[off+i] += binary.LittleEndian.Uint64(raw[8*i:])
	}
	for s := lo; s <= hi; s++ {
		a.strps[s].Unlock()
	}
}
