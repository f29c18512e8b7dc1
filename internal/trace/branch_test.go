package trace

import (
	"bytes"
	"sync"
	"testing"
)

// drainBranches collects the whole branch stream of a BranchSource using the
// given batch size.
func drainBranches(bs BranchSource, batchLen int) []BranchRec {
	var out []BranchRec
	batch := make([]BranchRec, batchLen)
	for {
		n := bs.NextBranches(batch)
		if n == 0 {
			return out
		}
		out = append(out, batch[:n]...)
	}
}

// expectedBranches filters a drained instruction stream down to the
// BranchRecs the fast path should serve.
func expectedBranches(insts []Inst) []BranchRec {
	var out []BranchRec
	for i := range insts {
		if insts[i].IsBranch() {
			out = append(out, BranchRec{
				InstIndex: int64(i),
				PC:        insts[i].PC,
				Taken:     insts[i].Taken,
			})
		}
	}
	return out
}

func TestBranchIndexMatchesStream(t *testing.T) {
	// Cross two chunk boundaries so chunk-base arithmetic is exercised.
	const n = 2*chunkLen + 321
	insts := drain(&lcgSource{state: 11, n: n}, n)
	rec := Record(&lcgSource{state: 11, n: n}, n)
	want := expectedBranches(insts)
	if rec.Branches() != int64(len(want)) {
		t.Fatalf("Branches() = %d, want %d", rec.Branches(), len(want))
	}
	// Batch sizes around and away from the index granularity: a ragged
	// size, a single-record size, and the recommended one.
	for _, batchLen := range []int{1, 7, BatchLen} {
		cur := rec.ReplayBranches()
		got := drainBranches(cur, batchLen)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d branches, want %d", batchLen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: branch %d = %+v, want %+v", batchLen, i, got[i], want[i])
			}
		}
		if cur.InstsScanned() != n {
			t.Fatalf("batch %d: InstsScanned = %d after exhaustion, want %d",
				batchLen, cur.InstsScanned(), n)
		}
	}
}

func TestBranchCursorScannedTracksServed(t *testing.T) {
	const n = chunkLen + 99
	rec := Record(&lcgSource{state: 2, n: n}, n)
	want := expectedBranches(drain(&lcgSource{state: 2, n: n}, n))
	cur := rec.ReplayBranches()
	var batch [13]BranchRec
	served := 0
	for {
		k := cur.NextBranches(batch[:])
		if k == 0 {
			break
		}
		served += k
		// Mid-stream, scanned covers exactly through the last branch
		// served: its InstIndex plus one.
		if got, want := cur.InstsScanned(), want[served-1].InstIndex+1; got != want {
			t.Fatalf("after %d branches: InstsScanned = %d, want %d", served, got, want)
		}
	}
	if cur.InstsScanned() != n {
		t.Fatalf("exhausted: InstsScanned = %d, want %d", cur.InstsScanned(), n)
	}
}

func TestBranchStats(t *testing.T) {
	const n = chunkLen + 1234
	insts := drain(&lcgSource{state: 9, n: n}, n)
	rec := Record(&lcgSource{state: 9, n: n}, n)
	var wantBranches, wantTaken int64
	for i := range insts {
		if insts[i].IsBranch() {
			wantBranches++
			if insts[i].Taken {
				wantTaken++
			}
		}
	}
	branches, taken := rec.BranchStats()
	if branches != wantBranches || taken != wantTaken {
		t.Fatalf("BranchStats = (%d, %d), want (%d, %d)",
			branches, taken, wantBranches, wantTaken)
	}
}

func TestCountBranchesBatchedMatchesScan(t *testing.T) {
	const n = chunkLen + 777
	rec := Record(&lcgSource{state: 4, n: n}, n)
	// Budgets: beyond the stream, exactly the stream, mid-stream (likely
	// landing between branches), and a tiny prefix.
	for _, max := range []int64{n + 5000, n, n / 2, 37} {
		// The opaque wrapper hides the branch index, forcing the scan.
		wantInsts, wantBranches := CountBranches(opaque{rec.Replay()}, max)
		gotInsts, gotBranches := CountBranches(rec.Replay(), max)
		if gotInsts != wantInsts || gotBranches != wantBranches {
			t.Fatalf("max %d: batched CountBranches = (%d, %d), scan = (%d, %d)",
				max, gotInsts, gotBranches, wantInsts, wantBranches)
		}
	}
}

// opaque hides every protocol but Source, forcing consumers down the
// instruction-at-a-time path.
type opaque struct{ src Source }

func (o opaque) Next(inst *Inst) bool { return o.src.Next(inst) }
func (o opaque) Name() string         { return o.src.Name() }

func TestCodecPreservesBranchIndex(t *testing.T) {
	const n = chunkLen + 555
	rec := Record(&lcgSource{state: 6, n: n}, n)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	dec, err := ReadRecording(&buf)
	if err != nil {
		t.Fatalf("ReadRecording: %v", err)
	}
	b1, t1 := rec.BranchStats()
	b2, t2 := dec.BranchStats()
	if b1 != b2 || t1 != t2 {
		t.Fatalf("decoded BranchStats = (%d, %d), want (%d, %d)", b2, t2, b1, t1)
	}
	want := drainBranches(rec.ReplayBranches(), BatchLen)
	got := drainBranches(dec.ReplayBranches(), BatchLen)
	if len(got) != len(want) {
		t.Fatalf("decoded branch stream has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decoded branch %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestConcurrentBranchCursors replays one recording from many cursors at
// once; under -race this proves the read-only sharing is clean.
func TestConcurrentBranchCursors(t *testing.T) {
	const n = chunkLen + 444
	rec := Record(&lcgSource{state: 8, n: n}, n)
	want := drainBranches(rec.ReplayBranches(), BatchLen)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(batchLen int) {
			defer wg.Done()
			got := drainBranches(rec.ReplayBranches(), batchLen)
			if len(got) != len(want) {
				t.Errorf("batch %d: %d branches, want %d", batchLen, len(got), len(want))
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("batch %d: branch %d differs", batchLen, i)
					return
				}
			}
		}(16 + g)
	}
	wg.Wait()
}

func TestBranchCursorReset(t *testing.T) {
	const n = chunkLen + 50
	rec := Record(&lcgSource{state: 13, n: n}, n)
	cur := rec.ReplayBranches()
	first := append([]BranchRec(nil), drainBranches(cur, 31)...)
	cur.Reset()
	if cur.InstsScanned() != 0 {
		t.Fatalf("InstsScanned = %d after Reset", cur.InstsScanned())
	}
	second := drainBranches(cur, 31)
	if len(first) != len(second) {
		t.Fatalf("replay after Reset served %d branches, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("branch %d differs after Reset", i)
		}
	}
}

func TestCursorResetCoversBothProtocols(t *testing.T) {
	rec := Record(&lcgSource{state: 21, n: 4000}, 4000)
	cur := rec.Replay()
	var batch [64]BranchRec
	cur.NextBranches(batch[:])
	cur.Reset()
	// After Reset the cursor is fresh: the instruction protocol must work
	// and produce the stream head.
	var inst Inst
	if !cur.Next(&inst) {
		t.Fatal("Next failed after Reset")
	}
	head := drain(rec.Replay(), 1)[0]
	if inst != head {
		t.Fatalf("post-Reset Next = %+v, want stream head %+v", inst, head)
	}
}

func TestCursorProtocolMixPanics(t *testing.T) {
	rec := Record(&lcgSource{state: 17, n: 2000}, 2000)

	mustPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on protocol mix")
				}
			}()
			f()
		})
	}
	mustPanic("next-then-branches", func() {
		cur := rec.Replay()
		var inst Inst
		cur.Next(&inst)
		var batch [8]BranchRec
		cur.NextBranches(batch[:])
	})
	mustPanic("branches-then-next", func() {
		cur := rec.Replay()
		var batch [8]BranchRec
		cur.NextBranches(batch[:])
		var inst Inst
		cur.Next(&inst)
	})
}

func TestNextBranchesEmptyDst(t *testing.T) {
	rec := Record(&lcgSource{state: 3, n: 1000}, 1000)
	cur := rec.ReplayBranches()
	if n := cur.NextBranches(nil); n != 0 {
		t.Fatalf("NextBranches(nil) = %d", n)
	}
	// An empty dst must not disturb the position: the full stream still
	// replays.
	got := drainBranches(cur, BatchLen)
	want := expectedBranches(drain(&lcgSource{state: 3, n: 1000}, 1000))
	if len(got) != len(want) {
		t.Fatalf("after empty dst: %d branches, want %d", len(got), len(want))
	}
}

// TestFilterBranchesMatchesIndex pins the plain-Source adapter against a
// recording's precomputed branch index: the same records in the same
// order, an exact InstsScanned at end of stream, and a limit that cuts the
// stream short and bounds the scan.
func TestFilterBranchesMatchesIndex(t *testing.T) {
	const n = 2*chunkLen + 321
	rec := Record(&lcgSource{state: 11, n: n}, n)
	want := drainBranches(rec.ReplayBranches(), BatchLen)
	for _, batchLen := range []int{1, 7, BatchLen} {
		f := FilterBranches(&lcgSource{state: 11, n: n}, n+10)
		got := drainBranches(f, batchLen)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d branches, want %d", batchLen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: branch %d = %+v, want %+v", batchLen, i, got[i], want[i])
			}
		}
		if f.InstsScanned() != n {
			t.Fatalf("batch %d: InstsScanned = %d at end of stream, want %d", batchLen, f.InstsScanned(), n)
		}
	}

	const limit = chunkLen + 5
	f := FilterBranches(&lcgSource{state: 11, n: n}, limit)
	got := drainBranches(f, BatchLen)
	var cut []BranchRec
	for _, r := range want {
		if r.InstIndex < limit {
			cut = append(cut, r)
		}
	}
	if len(got) != len(cut) || (len(cut) > 0 && got[len(got)-1] != cut[len(cut)-1]) {
		t.Fatalf("limit %d: %d branches, want %d", limit, len(got), len(cut))
	}
	if f.InstsScanned() != limit {
		t.Fatalf("limit %d: InstsScanned = %d", limit, f.InstsScanned())
	}
	if name := f.(interface{ Name() string }).Name(); name != (&lcgSource{}).Name() {
		t.Fatalf("filter name = %q", name)
	}
}
