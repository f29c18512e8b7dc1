package pipeline

import "testing"

// refRing is the obviously-correct reference for a slot ring: an unbounded
// per-cycle occupancy map.
type refRing struct {
	count map[uint64]int
	limit int
}

// takeInBoth is laneRings.takeInBoth on two map rings: the first cycle at
// or after t with a free slot in both, reserved in both.
func refTakeInBoth(a, b *refRing, t uint64) uint64 {
	for a.count[t] >= a.limit || b.count[t] >= b.limit {
		t++
	}
	a.count[t]++
	b.count[t]++
	return t
}

// TestSlotRingWraparound is a property test of the engine's byte rings
// (laneRings.takeInBoth over byteRing) against the map reference, driving
// the query point far past ringSize so every index wraps several times
// and the zeroed horizon (extend) is crossed again and again.
//
// The ring is exact under the simulator's window invariant: all queries
// live within a sliding window narrower than ringSize. The scoreboard
// guarantees this structurally — issue and commit cycles trail the fetch
// point by bounded latencies (ROB occupancy, execution latencies, redirect
// bubbles), all far smaller than ringSize — so a cycle a full lap old can
// never be queried again, and forgetting it is exactly what the unbounded
// map would do.
func TestSlotRingWraparound(t *testing.T) {
	for _, limit := range []int{1, 2, 8, 127} {
		// The issue ring is shared by every port; pair it with one port
		// ring of the limit under test and a second, narrower one.
		cfg := DefaultConfig()
		cfg.IssueWidth = 127
		cfg.IntPorts = limit
		cfg.MulPorts = 1 + limit/3
		rg := newLaneRings(cfg)
		issue := refRing{count: map[uint64]int{}, limit: cfg.IssueWidth}
		ports := map[uint8]*refRing{
			portInt: {count: map[uint64]int{}, limit: cfg.IntPorts},
			portMul: {count: map[uint64]int{}, limit: cfg.MulPorts},
		}

		// A deterministic LCG drives a front that advances past 4×ringSize
		// with jittered queries trailing it — the shape of the simulator's
		// issue-port searches.
		rnd := uint64(0x9e3779b97f4a7c15)
		next := func(n uint64) uint64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return (rnd >> 33) % n
		}
		var front uint64
		steps := 0
		for front < 4*ringSize {
			front += next(64)
			// Queries sit in a window behind the front far narrower
			// than ringSize, per the invariant above.
			q := front + next(256)
			if front > 1024 {
				q = front - 1024 + next(1280)
			}
			p := uint8(portInt)
			if next(3) == 0 {
				p = portMul
			}
			got, want := rg.takeInBoth(p, q), refTakeInBoth(&issue, ports[p], q)
			if got != want {
				t.Fatalf("limit %d, step %d: takeInBoth(%d, %d) = %d, want %d", limit, steps, p, q, got, want)
			}
			steps++
		}
	}
}
