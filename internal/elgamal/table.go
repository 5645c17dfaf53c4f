package elgamal

// Precomputed windowed tables for fixed-base scalar multiplication
// (Yao's method). A scalar is cut into d = ceil(256/w) windows of w
// bits; table window j holds every odd-and-even multiple m·2^(wj)·B for
// m = 1..2^w−1 in affine form, so one multiplication is d table lookups
// and at most d additions — no doublings at all. A single
// multiplication (mul) makes them mixed Jacobian additions and leaves
// the result projective for the caller to normalize; a vector of them
// (accumulate, behind every Batch* entry point) makes them affine
// additions, one window step across the whole chunk — and across both
// tables of a re-randomization — at a time under one shared inversion,
// and its results need no normalization.
//
// Two kinds of table exist:
//
//   - one static table for the generator G (width 12, ~5.8 MB, built
//     lazily once per process): every encryption, re-randomization,
//     proof commitment, and verification does at least one BaseMul;
//   - cached per-base tables (width 8, ~0.5 MB) for hot shared bases.
//     A PSC round multiplies thousands of scalars against the *same*
//     joint public key, so the build cost amortizes to noise. Tables
//     are built explicitly via Precompute, or by the batch APIs when a
//     batch is large enough to repay an on-the-spot build.

import "sync"

type fixedTable struct {
	w       uint
	windows [][]Point // windows[j][m-1] = m·2^(wj)·B
}

// buildTable precomputes a width-w table for base (must not be the
// identity). All entries are accumulated in Jacobian coordinates and
// normalized to affine with a single shared inversion.
func buildTable(base Point, w uint) *fixedTable {
	d := (256 + int(w) - 1) / int(w)
	size := 1<<w - 1
	entries := make([]jacPoint, d*size)
	windowBase := base.jacobian()
	for j := 0; j < d; j++ {
		win := entries[j*size : (j+1)*size]
		win[0] = windowBase
		for m := 2; m <= size; m++ {
			if m%2 == 0 {
				win[m-1].double(&win[m/2-1])
			} else {
				win[m-1].add(&win[m-2], &windowBase)
			}
		}
		if j+1 < d {
			// Next window base: 2^w·windowBase = double of the 2^(w-1)
			// entry.
			windowBase.double(&win[1<<(w-1)-1])
		}
	}
	aff := batchToAffine(entries)
	t := &fixedTable{w: w, windows: make([][]Point, d)}
	for j := 0; j < d; j++ {
		t.windows[j] = aff[j*size : (j+1)*size]
	}
	return t
}

// digit returns window j of a scalar in limb form.
func (t *fixedTable) digit(limbs *[4]uint64, j int) uint64 {
	bit := j * int(t.w)
	limb := bit >> 6
	off := uint(bit & 63)
	d := limbs[limb] >> off
	if off+t.w > 64 && limb+1 < 4 {
		d |= limbs[limb+1] << (64 - off)
	}
	return d & (uint64(1)<<t.w - 1)
}

// mul computes k·B into dst for the limbs of a scalar reduced mod the
// group order. This is the single-element primitive; vectors go
// through accumulate.
func (t *fixedTable) mul(dst *jacPoint, limbs *[4]uint64) {
	dst.setInfinity()
	for j, win := range t.windows {
		if d := t.digit(limbs, j); d != 0 {
			dst.addMixed(dst, &win[d-1])
		}
	}
}

// mulAffine returns k·B as a Point.
func (t *fixedTable) mulAffine(limbs *[4]uint64) Point {
	var jp jacPoint
	t.mul(&jp, limbs)
	return jp.toAffine()
}

// accumulate adds kᵢ·Bₜ to acc[t·n + i] for a whole chunk of n scalars
// at once and each base Bₜ = tables[t], the scalars given as limbs of
// values reduced mod the group order. It walks the tables window by
// window across the chunk: step j adds each element's window-j entry of
// every table to its accumulator in affine coordinates, all of the
// step's additions sharing one field inversion (see affine.go), so the
// sums come out normalized and a re-randomization's two tables cost one
// inversion per step, not one each. Seed acc with the points the
// products are to be added to, or with infinity for the bare products.
func accumulate(tables []*fixedTable, acc []Point, limbs [][4]uint64, s *affineScratch) {
	steps := 0
	for _, t := range tables {
		steps = max(steps, len(t.windows))
	}
	n := len(limbs)
	for j := 0; j < steps; j++ {
		for k, t := range tables {
			for i := range limbs {
				s.addend[k*n+i] = nil
				if j < len(t.windows) {
					if d := t.digit(&limbs[i], j); d != 0 {
						s.addend[k*n+i] = &t.windows[j][d-1]
					}
				}
			}
		}
		s.add(acc)
	}
}

// --- Static generator table ---

const baseTableWidth = 12

var (
	baseTableOnce sync.Once
	baseTableVal  *fixedTable
)

func baseTable() *fixedTable {
	baseTableOnce.Do(func() {
		baseTableVal = buildTable(generator, baseTableWidth)
	})
	return baseTableVal
}

// --- Cached tables for hot shared bases ---

const (
	sharedTableWidth = 8
	maxCachedTables  = 32
)

// tableCache maps a base to its table; a Point is comparable, so the
// base itself is the key.
var tableCache = struct {
	sync.RWMutex
	tables map[Point]*fixedTable
	order  []Point // insertion order, for FIFO eviction
}{
	tables: make(map[Point]*fixedTable),
}

// cachedTable returns the table for base if one has been precomputed,
// taking only a read lock so concurrent workers never serialize on the
// lookup. Tables are created by Precompute (protocol setup knows which
// bases are hot) or by the batch APIs when a batch is large enough to
// repay an on-the-spot build.
func cachedTable(base Point) *fixedTable {
	tableCache.RLock()
	t := tableCache.tables[base]
	tableCache.RUnlock()
	return t
}

// Precompute builds and caches a fixed-base table for p, accelerating
// every subsequent Mul/BatchMul and proof verification against that
// base. PSC parties call it on the round's joint key: one build (a few
// milliseconds) is repaid across the thousands of per-bin operations of
// the round. It is a no-op for the identity, the generator (which has a
// larger static table), and already-cached bases. When the cache is
// full the oldest table is evicted — round keys are ephemeral, so a
// long-lived party keeps accelerating new rounds instead of pinning
// tables for dead keys.
func Precompute(p Point) {
	if !p.IsValid() || p.IsIdentity() || p == generator {
		return
	}
	tableCache.RLock()
	_, ok := tableCache.tables[p]
	tableCache.RUnlock()
	if ok {
		return
	}
	t := buildTable(p, sharedTableWidth)
	tableCache.Lock()
	if _, ok := tableCache.tables[p]; !ok {
		for len(tableCache.tables) >= maxCachedTables {
			oldest := tableCache.order[0]
			tableCache.order = tableCache.order[1:]
			delete(tableCache.tables, oldest)
		}
		tableCache.tables[p] = t
		tableCache.order = append(tableCache.order, p)
	}
	tableCache.Unlock()
}
