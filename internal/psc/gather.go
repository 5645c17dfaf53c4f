package psc

import (
	"fmt"
	"sync"

	"repro/internal/elgamal"
)

// gatherStore holds the running homomorphic combination of DC tables on
// spill storage: the last whole-vector heap structure the TS had. Bins
// live as encoded ciphertexts in a spill store plus one coverage bit
// each, partitioned into chunk-aligned stripes so concurrent DC streams
// merge disjoint chunks in parallel — each merge is a read-modify-write
// of one encoded range under that range's stripe lock, and the TS's
// parsed-ciphertext residency during the gather is O(chunk) per
// in-flight merge rather than O(bins).
type gatherStore struct {
	bins  int
	chunk int
	sp    *ctSpill
	seen  []bool // per-bin coverage, guarded by the covering stripe
	strps []gatherStripe
}

type gatherStripe struct {
	mu      sync.Mutex
	scratch []byte // per-stripe read buffer; the spill's shared one is not concurrency-safe
}

// newGatherStore creates a spilled combination table of bins elements
// striped on chunk boundaries.
func newGatherStore(bins, chunk int) (*gatherStore, error) {
	chunk = chunkOf(chunk)
	sp, err := newSpill(bins)
	if err != nil {
		return nil, err
	}
	return &gatherStore{
		bins:  bins,
		chunk: chunk,
		sp:    sp,
		seen:  make([]bool, bins),
		strps: make([]gatherStripe, (bins+chunk-1)/chunk),
	}, nil
}

// merge folds cts into the combination at element offset off: per-bin
// ciphertext sums turn into OR in the exponent. Chunks from well-formed
// senders are chunk-aligned and take one stripe; ragged ranges lock
// their covering stripes in ascending order, so merges never deadlock.
func (g *gatherStore) merge(off int, cts []elgamal.Ciphertext) error {
	if off < 0 || off+len(cts) > g.bins {
		return fmt.Errorf("psc: merge [%d,%d) out of range %d", off, off+len(cts), g.bins)
	}
	if len(cts) == 0 {
		return nil
	}
	lo, hi := off/g.chunk, (off+len(cts)-1)/g.chunk
	for s := lo; s <= hi; s++ {
		g.strps[s].mu.Lock()
	}
	defer func() {
		for s := lo; s <= hi; s++ {
			g.strps[s].mu.Unlock()
		}
	}()

	fresh, have := true, true
	for i := range cts {
		if g.seen[off+i] {
			fresh = false
		} else {
			have = false
		}
	}
	switch {
	case fresh:
		if err := g.sp.write(off, cts); err != nil {
			return err
		}
	case have:
		// All positions populated: one batch add normalizes the whole
		// chunk with a single inversion.
		cur, scratch, err := g.sp.readRangeScratch(off, len(cts), g.strps[lo].scratch)
		g.strps[lo].scratch = scratch
		if err != nil {
			return err
		}
		if err := g.sp.write(off, elgamal.BatchAddCiphertexts(cur, cts)); err != nil {
			return err
		}
	default:
		cur, scratch, err := g.sp.readRangeScratch(off, len(cts), g.strps[lo].scratch)
		g.strps[lo].scratch = scratch
		if err != nil {
			return err
		}
		for i, ct := range cts {
			if g.seen[off+i] {
				cur[i] = cur[i].Add(ct)
			} else {
				cur[i] = ct
			}
		}
		if err := g.sp.write(off, cur); err != nil {
			return err
		}
	}
	for i := range cts {
		g.seen[off+i] = true
	}
	return nil
}

// uncovered returns the first bin with no contribution, or -1 when
// every bin is populated — the degraded-round coverage check.
func (g *gatherStore) uncovered() int {
	for i, s := range g.seen {
		if !s {
			return i
		}
	}
	return -1
}

// readRange decodes count combined elements at off. Single-reader only
// (the mix feeder, after the gather barrier): it uses the spill's
// shared read buffer.
func (g *gatherStore) readRange(off, count int) ([]elgamal.Ciphertext, error) {
	return g.sp.readRange(off, count)
}

// Close releases the backing storage. Safe to call more than once. A
// failed gather closes the store while other DCs may still be merging,
// so Close takes every stripe (ascending, like merge): an in-flight
// merge finishes first and a later one gets the spill's closed error.
func (g *gatherStore) Close() error {
	for s := range g.strps {
		g.strps[s].mu.Lock()
		defer g.strps[s].mu.Unlock()
	}
	return g.sp.Close()
}
