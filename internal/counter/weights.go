package counter

import (
	"fmt"
	"math/bits"
)

// WeightRows is the perceptron weight table: rows of signed 8-bit weights
// saturating at [-128, 127]. A weight w is stored offset-binary as the byte
// w+128, eight to a uint64 (weight j of a row in byte j%8 of word j/8), and
// each row is padded to a whole number of words with zero weights (0x80)
// that no operation ever changes. The layout lets a row's dot product and
// its training step work on eight weights per machine word (SWAR): the
// byte-wise arithmetic below never carries or borrows across a byte
// boundary, so every weight behaves exactly as an independent saturating
// 8-bit integer.
type WeightRows struct {
	words  []uint64
	rows   int
	perRow int    // weights per row, 1..64
	stride int    // words per row
	last   uint64 // byteOnes restricted to the real weights of a row's last word
}

const (
	byteOnes = 0x0101010101010101 // 0x01 in every byte
	byteLow7 = 0x7F7F7F7F7F7F7F7F // the low seven bits of every byte
	byteZero = 0x8080808080808080 // eight zero weights
)

// NewWeightRows returns a table of rows rows of perRow weights, all zero.
// perRow must be in [1, 64]: a row's inputs are one 64-bit sign vector.
func NewWeightRows(rows, perRow int) *WeightRows {
	if rows <= 0 {
		panic(fmt.Sprintf("counter: invalid weight row count %d", rows))
	}
	if perRow < 1 || perRow > 64 {
		panic(fmt.Sprintf("counter: invalid weights per row %d", perRow))
	}
	stride := (perRow + 7) / 8
	w := &WeightRows{
		words:  make([]uint64, rows*stride),
		rows:   rows,
		perRow: perRow,
		stride: stride,
		last:   byteOnes >> (8 * uint(stride*8-perRow)),
	}
	for i := range w.words {
		w.words[i] = byteZero
	}
	return w
}

// SizeBytes returns the hardware state size: one byte per weight. The
// padding is a software layout choice and is not counted.
func (w *WeightRows) SizeBytes() int { return w.rows * w.perRow }

// Get returns weight j of row r.
func (w *WeightRows) Get(r, j int) int {
	if j < 0 || j >= w.perRow {
		panic(fmt.Sprintf("counter: weight %d out of row of %d", j, w.perRow))
	}
	b := w.words[r*w.stride+j>>3] >> (8 * uint(j&7)) & 0xFF
	return int(b) - 128
}

// Dot returns Σ_j (s_j ? w_j : -w_j) over the weights of row r, where s_j
// is bit j of the sign vector s; s must have no bit at or above the row
// length. Complementing a byte maps w+128 to 127-w, so with the bytes whose
// sign bit is clear complemented, the row's byte sum is the signed dot
// product plus 127 per byte plus one per set sign bit.
//
//bplint:hotpath perceptron dot product, once per branch in every perceptron lane
func (w *WeightRows) Dot(r int, s uint64) int {
	row := w.words[r*w.stride : (r+1)*w.stride]
	sum := 0
	for k, x := range row {
		sum += byteSum(x ^ ^(byteLanes(s>>(8*uint(k))) * 0xFF))
	}
	return sum - 127*8*len(row) - bits.OnesCount64(s)
}

// Train steps every weight of row r by one toward agreement, saturating:
// weight j gains one where bit j of agree is set and loses one where it is
// clear. A weight already at 127 (or -128) is left where it is.
//
//bplint:hotpath perceptron training step, once per trained branch
func (w *WeightRows) Train(r int, agree uint64) {
	row := w.words[r*w.stride : (r+1)*w.stride]
	for k := range row {
		valid := uint64(byteOnes)
		if k == len(row)-1 {
			valid = w.last
		}
		up := byteLanes(agree>>(8*uint(k))) & valid
		row[k] = stepBytes(row[k], up, valid&^up)
	}
}

// byteLanes spreads the low eight bits of b into a byte-lane mask: byte j
// of the result is 0x01 if bit j of b is set and 0x00 otherwise.
func byteLanes(b uint64) uint64 {
	return nonZeroBytes((b & 0xFF) * byteOnes & 0x8040201008040201)
}

// nonZeroBytes returns 0x01 in each byte of v that is nonzero and 0x00 in
// each byte that is zero. Adding 0x7F to a byte's low seven bits sets its
// top bit exactly when those bits are nonzero and never carries out.
func nonZeroBytes(v uint64) uint64 {
	return ((v&byteLow7 + byteLow7) | v) >> 7 & byteOnes
}

// byteSum returns the sum of the eight bytes of x, pairing them into four
// 16-bit lanes first so no partial sum overflows its lane.
func byteSum(x uint64) int {
	x = x&0x00FF00FF00FF00FF + x>>8&0x00FF00FF00FF00FF
	return int(x * 0x0001000100010001 >> 48)
}

// stepBytes adds one to each byte of x selected by up and subtracts one
// from each byte selected by down (up and down are disjoint byte-lane
// masks of 0x01s), leaving bytes at 0xFF (for +1) or 0x00 (for -1)
// unchanged. The excluded bytes are exactly the ones that would carry or
// borrow, so the whole-word add and subtract stay byte-local.
func stepBytes(x, up, down uint64) uint64 {
	up &= nonZeroBytes(^x)
	down &= nonZeroBytes(x)
	return x + up - down
}
