package counter

import (
	"testing"
	"testing/quick"
)

func TestSaturatingBounds(t *testing.T) {
	c := NewSaturating(2, 0)
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Fatalf("Dec below zero: %d", c.Value())
	}
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Fatalf("Inc above max: %d", c.Value())
	}
	if c.Max() != 3 {
		t.Fatalf("Max = %d", c.Max())
	}
}

func TestSaturatingTakenThreshold(t *testing.T) {
	// 2-bit counter: 0,1 predict not-taken; 2,3 predict taken.
	for v, want := range map[uint32]bool{0: false, 1: false, 2: true, 3: true} {
		c := NewSaturating(2, v)
		if c.Taken() != want {
			t.Errorf("value %d Taken = %v, want %v", v, c.Taken(), want)
		}
	}
}

func TestSaturatingStrong(t *testing.T) {
	for v, want := range map[uint32]bool{0: true, 1: false, 2: false, 3: true} {
		c := NewSaturating(2, v)
		if c.Strong() != want {
			t.Errorf("value %d Strong = %v, want %v", v, c.Strong(), want)
		}
	}
}

func TestSaturatingUpdate(t *testing.T) {
	c := NewSaturating(3, 4)
	c.Update(true)
	if c.Value() != 5 {
		t.Fatalf("Update(true): %d", c.Value())
	}
	c.Update(false)
	c.Update(false)
	if c.Value() != 3 {
		t.Fatalf("Update(false) twice: %d", c.Value())
	}
}

func TestSaturatingInvalidConfig(t *testing.T) {
	for _, tc := range []struct{ bits, init uint32 }{{0, 0}, {32, 0}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSaturating(%d,%d) did not panic", tc.bits, tc.init)
				}
			}()
			NewSaturating(uint(tc.bits), tc.init)
		}()
	}
}

// referenceArray2 is a plain-slice model of Array2 for property testing.
type referenceArray2 []uint32

func TestArray2MatchesReference(t *testing.T) {
	const n = 257 // deliberately not a multiple of 32
	a := NewArray2(n, WeaklyNotTaken)
	ref := make(referenceArray2, n)
	for i := range ref {
		ref[i] = WeaklyNotTaken
	}
	f := func(idxRaw uint16, taken bool) bool {
		i := int(idxRaw) % n
		a.Update(i, taken)
		if taken {
			if ref[i] < 3 {
				ref[i]++
			}
		} else if ref[i] > 0 {
			ref[i]--
		}
		return a.Get(i) == ref[i] && a.Taken(i) == (ref[i] >= 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// The untouched neighbours must be unchanged.
	for i := 0; i < n; i++ {
		if a.Get(i) != ref[i] {
			t.Fatalf("entry %d drifted: %d vs %d", i, a.Get(i), ref[i])
		}
	}
}

func TestArray2SetGetRoundTrip(t *testing.T) {
	a := NewArray2(100, 0)
	f := func(idxRaw uint8, v uint8) bool {
		i := int(idxRaw) % 100
		a.Set(i, uint32(v%4))
		return a.Get(i) == uint32(v%4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArray2SizeBytes(t *testing.T) {
	if got := NewArray2(4096, 0).SizeBytes(); got != 1024 {
		t.Fatalf("4096 2-bit counters = %d bytes, want 1024", got)
	}
	if got := NewArray2(3, 0).SizeBytes(); got != 1 {
		t.Fatalf("3 counters = %d bytes, want 1", got)
	}
}

func TestArray2InitValue(t *testing.T) {
	a := NewArray2(67, WeaklyTaken)
	for i := 0; i < 67; i++ {
		if a.Get(i) != WeaklyTaken {
			t.Fatalf("entry %d initialized to %d", i, a.Get(i))
		}
	}
}

func TestArray2UpdateStrengthen(t *testing.T) {
	a := NewArray2(4, WeaklyTaken) // predicts taken
	a.UpdateStrengthen(0, true)    // agrees: strengthen
	if a.Get(0) != StronglyTaken {
		t.Fatalf("strengthen agreeing: %d", a.Get(0))
	}
	a.UpdateStrengthen(1, false) // disagrees: untouched
	if a.Get(1) != WeaklyTaken {
		t.Fatalf("strengthen disagreeing moved counter: %d", a.Get(1))
	}
}

func TestArray2CloneRange(t *testing.T) {
	a := NewArray2(64, 0)
	for i := 0; i < 64; i++ {
		a.Set(i, uint32(i%4))
	}
	dst := make([]uint32, 8)
	a.CloneRange(16, 8, dst)
	for i, v := range dst {
		if v != uint32((16+i)%4) {
			t.Fatalf("clone[%d] = %d", i, v)
		}
	}
}

func TestArrayNBounds(t *testing.T) {
	a := NewArrayN(10, 3, 3)
	for i := 0; i < 20; i++ {
		a.Update(0, true)
	}
	if a.Get(0) != 7 {
		t.Fatalf("3-bit counter max: %d", a.Get(0))
	}
	for i := 0; i < 20; i++ {
		a.Update(0, false)
	}
	if a.Get(0) != 0 {
		t.Fatalf("3-bit counter min: %d", a.Get(0))
	}
}

func TestArrayNTakenThreshold(t *testing.T) {
	a := NewArrayN(8, 3, 0)
	a.Set(0, 3)
	a.Set(1, 4)
	if a.Taken(0) {
		t.Fatal("3-bit value 3 should predict not taken")
	}
	if !a.Taken(1) {
		t.Fatal("3-bit value 4 should predict taken")
	}
}

func TestArrayNSizeBytes(t *testing.T) {
	if got := NewArrayN(1024, 3, 0).SizeBytes(); got != 384 {
		t.Fatalf("1024 3-bit counters = %d bytes, want 384", got)
	}
}

func TestWeightRowsSaturation(t *testing.T) {
	w := NewWeightRows(2, 9)
	for i := 0; i < 1000; i++ {
		w.Train(0, 1<<9-1) // every weight up
	}
	for j := 0; j < 9; j++ {
		if w.Get(0, j) != 127 {
			t.Fatalf("saturate high: weight %d = %d", j, w.Get(0, j))
		}
	}
	for i := 0; i < 1000; i++ {
		w.Train(0, 0) // every weight down
	}
	for j := 0; j < 9; j++ {
		if w.Get(0, j) != -128 {
			t.Fatalf("saturate low: weight %d = %d", j, w.Get(0, j))
		}
		if w.Get(1, j) != 0 {
			t.Fatalf("training row 0 moved row 1 weight %d to %d", j, w.Get(1, j))
		}
	}
}

// TestWeightRowsTrainMatchesReference drives one row of every width
// through random training steps and checks each weight against a plain
// clamped integer, and the row's dot product against the textbook sum.
// The row's padding must stay at zero weight throughout.
func TestWeightRowsTrainMatchesReference(t *testing.T) {
	for _, perRow := range []int{1, 7, 8, 9, 33, 63, 64} {
		w := NewWeightRows(3, perRow)
		ref := make([]int, perRow)
		mask := ^uint64(0) >> (64 - uint(perRow))
		f := func(agree, s uint64, reps uint8) bool {
			for n := 0; n < int(reps%8)+1; n++ {
				w.Train(1, agree)
				for j := range ref {
					if agree>>uint(j)&1 == 1 {
						ref[j] = min(ref[j]+1, 127)
					} else {
						ref[j] = max(ref[j]-1, -128)
					}
				}
			}
			dot := 0
			for j, v := range ref {
				if w.Get(1, j) != v {
					return false
				}
				if s>>uint(j)&1 == 1 {
					dot += v
				} else {
					dot -= v
				}
			}
			row := w.words[w.stride : 2*w.stride]
			for k := perRow; k < 8*w.stride; k++ {
				if row[k/8]>>(8*uint(k%8))&0xFF != 0x80 {
					return false
				}
			}
			return w.Dot(1, s&mask) == dot && w.Dot(0, s&mask) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%d weights per row: %v", perRow, err)
		}
	}
}

func TestWeightRowsSizeBytes(t *testing.T) {
	if got := NewWeightRows(4, 25).SizeBytes(); got != 100 {
		t.Fatalf("100 8-bit weights = %d bytes", got)
	}
	if got := NewWeightRows(3, 63).SizeBytes(); got != 189 {
		t.Fatalf("189 8-bit weights = %d bytes", got)
	}
}

// TestSWARHelpersMatchBytewise checks the packed-byte helpers behind
// WeightRows against byte-at-a-time loops.
func TestSWARHelpersMatchBytewise(t *testing.T) {
	byteOf := func(x uint64, j int) uint64 { return x >> (8 * uint(j)) & 0xFF }
	lanes := func(b uint64) bool {
		got := byteLanes(b)
		for j := 0; j < 8; j++ {
			if byteOf(got, j) != b>>uint(j)&1 {
				return false
			}
		}
		return true
	}
	sum := func(x uint64) bool {
		want := 0
		for j := 0; j < 8; j++ {
			want += int(byteOf(x, j))
		}
		return byteSum(x) == want
	}
	step := func(x, upBits, downBits uint64) bool {
		up := byteLanes(upBits)
		down := byteLanes(downBits) &^ up
		got := stepBytes(x, up, down)
		for j := 0; j < 8; j++ {
			b := byteOf(x, j)
			switch {
			case byteOf(up, j) == 1 && b < 0xFF:
				b++
			case byteOf(down, j) == 1 && b > 0:
				b--
			}
			if byteOf(got, j) != b {
				return false
			}
		}
		return true
	}
	// Saturated bytes are rare among random words; force some.
	saturated := func(x, sel uint64) uint64 {
		return x&^(byteLanes(sel)*0xFF) | byteLanes(sel>>8)*0xFF&byteLanes(sel)*0xFF
	}
	stepSat := func(x, sel, upBits, downBits uint64) bool { return step(saturated(x, sel), upBits, downBits) }
	for name, f := range map[string]any{"byteLanes": lanes, "byteSum": sum, "stepBytes": step, "stepBytes-saturated": stepSat} {
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if byteSum(^uint64(0)) != 8*255 {
		t.Errorf("byteSum(all 0xFF) = %d", byteSum(^uint64(0)))
	}
}

// TestPredictUpdate pins the fused read-modify-write against the scalar
// Taken-then-Update pair across every counter state, outcome, and packing
// position (first, middle, and last counter of a word).
func TestPredictUpdate(t *testing.T) {
	for _, i := range []int{0, 17, 31, 32, 63} {
		for init := uint32(0); init <= 3; init++ {
			for _, taken := range []bool{false, true} {
				fused := NewArray2(64, 0)
				scalar := NewArray2(64, 0)
				// Surround counter i with saturated neighbours to catch
				// cross-counter word corruption.
				for j := 0; j < 64; j++ {
					fused.Set(j, 3)
					scalar.Set(j, 3)
				}
				fused.Set(i, init)
				scalar.Set(i, init)
				wantPred := scalar.Taken(i)
				scalar.Update(i, taken)
				if gotPred := fused.PredictUpdate(i, taken); gotPred != wantPred {
					t.Fatalf("i=%d init=%d taken=%v: pred %v, want %v", i, init, taken, gotPred, wantPred)
				}
				for j := 0; j < 64; j++ {
					if fused.Get(j) != scalar.Get(j) {
						t.Fatalf("i=%d init=%d taken=%v: counter %d is %d, want %d",
							i, init, taken, j, fused.Get(j), scalar.Get(j))
					}
				}
			}
		}
	}
}
