package psc

import (
	"context"
	"math/big"
	"slices"
	"testing"

	"repro/internal/elgamal"
)

// TestBlockSourceWindowStaysBounded takes a whole pass of blocks from a
// blockSource fed uneven chunks (a run of small ones first, where
// append's doubling would overshoot) and then a noise tail longer than
// any chunk: every block is the next run of the input in order, the
// window's capacity never exceeds one block plus the largest feed
// chunk, and the window is reallocated only while it grows to that
// size, not once per block.
const testBlock, testMaxChunk = 1024, 1024

// blockSourceInput is a pass of distinct ciphertexts, cut into uneven
// feed chunks (a run of small ones first, where append's doubling
// would overshoot) and a noise tail longer than any chunk.
func blockSourceInput() (all []elgamal.Ciphertext, chunks []int) {
	const tail = 2500
	chunks = []int{100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 300, testMaxChunk, 7, testMaxChunk, 513, 1000, 1, testMaxChunk, 900}
	for range 8 {
		chunks = append(chunks, 700, testMaxChunk, 330)
	}
	total := tail
	for _, c := range chunks {
		total += c
	}
	ks := make([]*big.Int, total)
	for i := range ks {
		ks[i] = big.NewInt(int64(i + 1))
	}
	all = make([]elgamal.Ciphertext, total)
	for i, p := range elgamal.BatchBaseMul(ks) {
		all[i] = elgamal.Ciphertext{C1: p, C2: elgamal.Identity()}
	}
	return all, chunks
}

// newTestBlockSource feeds all through chunks, the rest as the tail.
func newTestBlockSource(all []elgamal.Ciphertext, chunks []int) *blockSource {
	feed := make(chan []elgamal.Ciphertext, len(chunks))
	off := 0
	for _, c := range chunks {
		feed <- all[off : off+c]
		off += c
	}
	close(feed)
	return &blockSource{feed: feed, tail: all[off:]}
}

func TestBlockSourceWindowStaysBounded(t *testing.T) {
	const block, maxChunk = testBlock, testMaxChunk
	all, chunks := blockSourceInput()
	total := len(all)
	src := newTestBlockSource(all, chunks)
	var window *elgamal.Ciphertext
	reallocs := 0
	for got := 0; got < total; {
		n := min(block, total-got)
		blk, err := src.next(context.Background(), n)
		if err != nil {
			t.Fatalf("block at %d: %v", got, err)
		}
		if !slices.Equal(blk, all[got:got+n]) {
			t.Fatalf("block at %d is not the next %d input elements", got, n)
		}
		if c := cap(src.pending); c > block+maxChunk {
			t.Fatalf("after the block at %d the window holds %d elements, want at most %d", got, c, block+maxChunk)
		}
		if w := &src.pending[:1][0]; w != window {
			window = w
			reallocs++
		}
		got += n
	}
	if reallocs > 8 {
		t.Fatalf("the window was reallocated %d times in %d blocks", reallocs, (total+block-1)/block)
	}
	if _, err := src.next(context.Background(), 1); err == nil {
		t.Fatal("a block past the end of the input was returned")
	}
}

// TestBlockSourceReusesWindow: a released window serves the next
// round's source, which takes its whole pass in it — the second round
// never regrows the window.
func TestBlockSourceReusesWindow(t *testing.T) {
	all, chunks := blockSourceInput()
	// pass takes every block and returns the window each one came from.
	pass := func(src *blockSource) []*elgamal.Ciphertext {
		defer src.release()
		var windows []*elgamal.Ciphertext
		for got := 0; got < len(all); got += testBlock {
			if _, err := src.next(context.Background(), min(testBlock, len(all)-got)); err != nil {
				t.Fatalf("block at %d: %v", got, err)
			}
			windows = append(windows, &src.pending[:1][0])
		}
		return windows
	}
	first := pass(newTestBlockSource(all, chunks))
	grown := first[len(first)-1]
	for b, w := range pass(newTestBlockSource(all, chunks)) {
		if w != grown {
			t.Fatalf("block %d of the second round came from a new window, not the one the first round grew", b)
		}
	}
}
