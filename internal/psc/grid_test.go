package psc

import (
	"math/rand"
	"testing"

	"repro/internal/elgamal"
)

func pkForTest() elgamal.Point { return elgamal.GenerateKey().PK }

func encryptBits(pk elgamal.Point, n int) []elgamal.Ciphertext {
	cts, _ := elgamal.BatchEncryptBits(pk, make([]bool, n))
	return cts
}

// TestGridGeometry checks the blocking invariants every shape must
// satisfy in both passes: blocks tile the vector exactly, every input
// index is read once, and emission offsets are consistent with block
// lengths.
func TestGridGeometry(t *testing.T) {
	shapes := []struct{ n, block int }{
		{1, 4}, {4, 4}, {5, 4}, {16, 4}, {17, 4}, {19, 4}, {100, 7}, {1024, 64}, {65792, 1024},
	}
	for _, s := range shapes {
		g := newGrid(s.n, s.block)
		for p := 1; p <= g.passes(); p++ {
			seen := make([]bool, s.n)
			emitted := 0
			for b := 0; b < g.blocks(p); b++ {
				if got := g.outStart(p, b); got != emitted {
					t.Fatalf("n=%d block=%d pass %d: outStart(%d)=%d, want %d", s.n, s.block, p, b, got, emitted)
				}
				for j := 0; j < g.blockLen(p, b); j++ {
					idx := g.inIndex(p, b, j)
					if idx < 0 || idx >= s.n || seen[idx] {
						t.Fatalf("n=%d block=%d pass %d: index %d repeated or out of range", s.n, s.block, p, idx)
					}
					seen[idx] = true
				}
				emitted += g.blockLen(p, b)
			}
			if emitted != s.n {
				t.Fatalf("n=%d block=%d pass %d: blocks tile %d elements", s.n, s.block, p, emitted)
			}
		}
	}
}

// applyPasses runs the composed grid shuffle on an index vector with
// the given per-block permutation source, returning the composite
// mapping src index -> dst position.
func applyPasses(g grid, passes int, rng *rand.Rand) []int {
	vec := make([]int, g.n)
	for i := range vec {
		vec[i] = i
	}
	for p := 1; p <= passes; p++ {
		next := make([]int, 0, g.n)
		for b := 0; b < g.blocks(p); b++ {
			n := g.blockLen(p, b)
			blk := make([]int, n)
			for j := 0; j < n; j++ {
				blk[j] = vec[g.inIndex(p, b, j)]
			}
			rng.Shuffle(n, func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
			next = append(next, blk...)
		}
		vec = next
	}
	pos := make([]int, g.n)
	for dst, src := range vec {
		pos[src] = dst
	}
	return pos
}

// TestComposedPassesPermutationEquivalence is the whole-vector
// permutation-equivalence property test: composing per-block row and
// column passes must (a) always yield a permutation of the full
// vector, (b) give every element full positional support, and (c)
// produce per-(src,dst) marginals statistically close to the uniform
// 1/n — the "uniform-enough" requirement the round's privacy argument
// rests on, at the same soundness bound as the per-block arguments
// (each pass is exactly the permutation its block proofs attest).
func TestComposedPassesPermutationEquivalence(t *testing.T) {
	const trials = 6000
	shapes := []struct{ n, block int }{
		{24, 6},  // single-column groups (gcols = 1)
		{40, 10}, // grouped columns (gcols = 2)
	}
	rng := rand.New(rand.NewSource(20180901))
	for _, shape := range shapes {
		n := shape.n
		g := newGrid(n, shape.block)
		passes := g.passes()
		if passes < 2 {
			t.Fatalf("grid %dx%d collapsed to one pass", n, shape.block)
		}
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
		}
		for trial := 0; trial < trials; trial++ {
			pos := applyPasses(g, passes, rng)
			seen := make([]bool, n)
			for src, dst := range pos {
				if dst < 0 || dst >= n || seen[dst] {
					t.Fatalf("trial %d: not a permutation", trial)
				}
				seen[dst] = true
				counts[src][dst]++
			}
		}
		want := float64(trials) / float64(n)
		for src := range counts {
			for dst, c := range counts[src] {
				if c == 0 {
					t.Fatalf("n=%d: position (%d -> %d) unreachable: composed passes lack full support", n, src, dst)
				}
				// Binomial sd ≈ sqrt(want); ±40% is over 6 sd, far past
				// flake territory while still catching any systematic
				// bias (a one-pass shuffle concentrates whole rows and
				// fails this immediately).
				if ratio := float64(c) / want; ratio < 0.6 || ratio > 1.4 {
					t.Errorf("n=%d: position (%d -> %d) frequency %d is %.2f× uniform", n, src, dst, c, ratio)
				}
			}
		}
	}
	// A ragged grid must keep the same guarantees.
	g2 := newGrid(19, 6)
	for trial := 0; trial < 64; trial++ {
		pos := applyPasses(g2, g2.passes(), rng)
		seen := make([]bool, g2.n)
		for _, dst := range pos {
			if seen[dst] {
				t.Fatalf("ragged trial %d: not a permutation", trial)
			}
			seen[dst] = true
		}
	}
}

func TestSpillRoundTrip(t *testing.T) {
	joint := pkForTest()
	const n = 37
	sp, err := newSpill(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cts := encryptBits(joint, n)
	if err := sp.write(0, cts[:20]); err != nil {
		t.Fatal(err)
	}
	if err := sp.write(20, cts[20:]); err != nil {
		t.Fatal(err)
	}
	got, err := sp.readRange(5, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if !c.Equal(cts[5+i]) {
			t.Fatalf("readRange element %d differs", i)
		}
	}
	g := newGrid(n, 8) // a ragged 5-row grid
	for b := 0; b < g.blocks(2); b++ {
		group, err := sp.readColumnGroup(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(group) != g.blockLen(2, b) {
			t.Fatalf("column group %d has %d elements, want %d", b, len(group), g.blockLen(2, b))
		}
		for j, c := range group {
			if !c.Equal(cts[g.inIndex(2, b, j)]) {
				t.Fatalf("column group %d element %d differs", b, j)
			}
		}
	}
	if _, err := sp.readRange(30, 10); err == nil {
		t.Fatal("out-of-range read must fail")
	}
	if err := sp.write(30, cts[:10]); err == nil {
		t.Fatal("out-of-range write must fail")
	}
}

// TestSpillSlotRejectsCorruption: a spill slot is the fixed-width
// ciphertext encoding. A ciphertext with an identity half round-trips,
// and a slot that is not an encoding — an off-curve coordinate, an
// identity with non-zero padding, an unknown tag — fails the read, by
// range and by column group.
func TestSpillSlotRejectsCorruption(t *testing.T) {
	ct := encryptBits(pkForTest(), 1)[0]
	trivial := elgamal.Ciphertext{C1: elgamal.Identity(), C2: ct.C2}
	sp, err := newSpill(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.write(0, []elgamal.Ciphertext{trivial, ct}); err != nil {
		t.Fatal(err)
	}
	got, err := sp.readRange(0, 2)
	if err != nil || !got[0].Equal(trivial) || !got[1].Equal(ct) {
		t.Fatalf("identity-bearing slot round trip: %v", err)
	}
	good := trivial.AppendFixed(nil)
	flip := func(at int, mask byte) []byte {
		slot := append([]byte(nil), good...)
		slot[at] ^= mask
		return slot
	}
	for name, slot := range map[string][]byte{
		"off-curve coordinate": flip(65+20, 1), // a byte of C2's x
		"identity padding":     flip(30, 1),    // inside C1's 65 zero bytes
		"bad tag":              flip(65, 4^2),  // C2's tag 4 becomes 2
	} {
		if err := sp.st.WriteAt(1, slot); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.readRange(0, 2); err == nil {
			t.Errorf("%s: readRange accepted the slot", name)
		}
		// One column of two rows: the only group reads both slots.
		if _, err := sp.readColumnGroup(newGrid(2, 1), 0); err == nil {
			t.Errorf("%s: readColumnGroup accepted the slot", name)
		}
	}
}
