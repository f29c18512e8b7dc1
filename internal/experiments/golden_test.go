package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestGoldenDigests pins the rendered output of a timing-heavy slice of
// cmd/reproduce — ideal vs overriding IPC (figure2) and two grids over
// varied pipeline shapes (figure8, depthsweep) — at a small window. Each
// experiment's section, exactly as reproduce prints it (the rendered
// outcome and a blank line), must hash to the digest committed in
// testdata/golden_digests.txt; any change to a simulated number shows up
// as a digest mismatch naming the experiment.
func TestGoldenDigests(t *testing.T) {
	f, err := os.Open("testdata/golden_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	opts := Options{Insts: 200_000, Warmup: 50_000}
	checked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want, id, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		runner, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(runner(opts).Render() + "\n"))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: section digest %s, want %s", id, got, want)
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no golden digests checked")
	}
}
