package psc

// Shuffle-grid geometry. The streaming shuffle arranges an n-element
// vector as rows of shuffleBlock elements and runs alternating passes:
// odd passes permute contiguous row blocks, even passes permute column
// groups — ~block-sized bundles of adjacent columns, so the per-block
// proof overhead stays amortized whatever the grid's aspect ratio.
// Each pass re-emits the vector as the concatenation of its shuffled
// blocks (an even pass therefore transposes the layout), so every
// pass's output is a fresh contiguous vector and the next pass
// re-partitions it. A row pass reaches every column and a column-group
// pass reaches every row (and every slot of the group), so after one
// of each every input index can reach every output index with a
// near-uniform marginal (grid_test.go measures the marginals).

// The round geometry is fixed: every party derives the same grid from
// these constants, so no configure frame carries it. At ~66 bytes per
// compressed ciphertext a block's wire frames stay near 66 KiB, and a
// 2¹⁶-bin table becomes 64 row blocks. Two passes — rows, then column
// groups — are the minimum giving every element full positional
// support.
const (
	shuffleBlock  = 1024
	shufflePasses = 2
)

// maxBlockElems bounds the column length (ceil(n/shuffleBlock)) so any
// block — the largest frames of the shuffle stage are the block itself
// and its blind frame; there is no shadow frame to size for — fits the
// wire frame budget, and any index into a block fits the uint16 an
// opening frame gives it (codec.go).
const maxBlockElems = 2048

// maxVectorElems is the longest mixed vector the frame budget admits:
// 2²¹ elements, maxBlockElems rows of shuffleBlock.
const maxVectorElems = maxBlockElems * shuffleBlock

// grid is the blocking of one n-element vector.
type grid struct {
	n     int // vector length
	block int // row length
	rows  int // ceil(n/block)
	last  int // length of the ragged last row, in (0, block]
	gcols int // columns per even-pass group
}

func newGrid(n, block int) grid {
	if block > n {
		block = n
	}
	rows := (n + block - 1) / block
	g := grid{n: n, block: block, rows: rows, last: n - (rows-1)*block}
	g.gcols = block / rows
	if g.gcols < 1 {
		g.gcols = 1
	}
	return g
}

// passes returns the effective pass count: a vector that fits one block
// is fully shuffled by a single pass, and extra passes over a single
// row would add cost without mixing.
func (g grid) passes() int {
	if g.rows == 1 {
		return 1
	}
	return shufflePasses
}

// rowPass reports whether pass p (1-based) partitions contiguously.
func rowPass(p int) bool { return p%2 == 1 }

// elemsBefore returns how many elements the columns [0, c) hold.
func (g grid) elemsBefore(c int) int {
	if c <= g.last {
		return c * g.rows
	}
	return g.last*g.rows + (c-g.last)*(g.rows-1)
}

// blocks returns the number of blocks in pass p.
func (g grid) blocks(p int) int {
	if rowPass(p) {
		return g.rows
	}
	return (g.block + g.gcols - 1) / g.gcols
}

// groupCols returns the column range [cstart, cend) of even-pass block b.
func (g grid) groupCols(b int) (int, int) {
	cstart := b * g.gcols
	cend := cstart + g.gcols
	if cend > g.block {
		cend = g.block
	}
	return cstart, cend
}

// blockLen returns the element count of block b of pass p.
func (g grid) blockLen(p, b int) int {
	if rowPass(p) {
		if b == g.rows-1 {
			return g.last
		}
		return g.block
	}
	cstart, cend := g.groupCols(b)
	return g.elemsBefore(cend) - g.elemsBefore(cstart)
}

// outStart returns the emission offset of block b's output in pass p's
// output vector (blocks are emitted in order and concatenated).
func (g grid) outStart(p, b int) int {
	if rowPass(p) {
		return b * g.block
	}
	cstart, _ := g.groupCols(b)
	return g.elemsBefore(cstart)
}

// inIndex returns the input-vector index of element j of block b in
// pass p: contiguous for row passes; for even passes the group is
// walked column by column (ascending column, ascending row).
func (g grid) inIndex(p, b, j int) int {
	if rowPass(p) {
		return b*g.block + j
	}
	cstart, cend := g.groupCols(b)
	fullCols := 0
	if cstart < g.last {
		fullCols = g.last - cstart
		if cend < g.last {
			fullCols = cend - cstart
		}
	}
	if j < fullCols*g.rows {
		return (j % g.rows * g.block) + cstart + j/g.rows
	}
	j -= fullCols * g.rows
	c := cstart + fullCols + j/(g.rows-1)
	return (j % (g.rows - 1) * g.block) + c
}
