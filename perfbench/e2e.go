package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench runs reproduce children for one workload, one at a time, each
// against its own temporary store under work, and counts every child's
// outcome.
type bench struct {
	reproduce string // the built cmd/reproduce binary
	work      string // scratch directory; every store is created under it
	w         workloadSpec
	timings   bool // pass -timings, so stderr carries reproduce's work counts
	attempted int
	failed    int
}

// child is one finished reproduce run.
type child struct {
	wall, cpu time.Duration
	rssMB     float64
	storeMB   float64
	stdout    []byte
	stderr    []byte
	err       error
}

// newStore returns a fresh, empty store directory under b.work.
func (b *bench) newStore() (string, error) {
	return os.MkdirTemp(b.work, "store-")
}

// run executes the workload's reproduce command against store, waits for
// it, and checks its stdout against the committed digests. A nonzero exit
// or a mismatch counts as a failed run and is reported on stderr with the
// workload and experiment it concerns.
func (b *bench) run(store string) child {
	b.attempted++
	c := b.exec(store)
	if c.err == nil {
		c.err = b.w.check(c.stdout)
	}
	if c.err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", c.err)
	}
	return c
}

func (b *bench) exec(store string) child {
	var stdout, stderr bytes.Buffer
	args := b.w.args(store)
	if b.timings {
		args = append(args, "-timings")
	}
	cmd := exec.Command(b.reproduce, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	if err != nil {
		c.err = fmt.Errorf("%s: reproduce %s: %v: %s", b.w.name,
			strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
		return c
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	size, err := dirBytes(store)
	if err != nil {
		c.err = fmt.Errorf("%s: sizing store: %w", b.w.name, err)
	}
	c.storeMB = float64(size) / (1 << 20)
	return c
}

// check compares each experiment's section of stdout with its committed
// SHA-256 and names the first experiment that differs or is missing.
func (w workloadSpec) check(stdout []byte) error {
	if w.expect == nil {
		return nil
	}
	got := sectionDigests(stdout)
	for _, id := range w.experiments {
		d, ok := got[id]
		if !ok {
			return fmt.Errorf("%s: experiment %s missing from reproduce stdout", w.name, id)
		}
		if d != w.expect[id] {
			return fmt.Errorf("%s: experiment %s stdout sha256 %s, want %s", w.name, id, d, w.expect[id])
		}
	}
	if len(got) != len(w.experiments) {
		return fmt.Errorf("%s: reproduce printed %d experiments, want %d", w.name, len(got), len(w.experiments))
	}
	return nil
}

// sectionDigests splits reproduce's stdout at each experiment's
// "### <id> — <title>" header and returns every section's SHA-256 by id.
func sectionDigests(stdout []byte) map[string]string {
	out := map[string]string{}
	id, start := "", 0
	flush := func(end int) {
		if id != "" {
			sum := sha256.Sum256(stdout[start:end])
			out[id] = hex.EncodeToString(sum[:])
		}
	}
	for off := 0; off < len(stdout); {
		line := stdout[off:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i+1]
		}
		if rest, ok := bytes.CutPrefix(line, []byte("### ")); ok {
			flush(off)
			id, _, _ = strings.Cut(string(rest), " ")
			start = off
		}
		off += len(line)
	}
	flush(len(stdout))
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// runFresh runs one child against a fresh, empty store and removes the
// store once the child has ended.
func (b *bench) runFresh() (child, error) {
	store, err := b.newStore()
	if err != nil {
		return child{}, err
	}
	c := b.run(store)
	return c, os.RemoveAll(store)
}

// maxMeasureSeconds stops a run from starting new timed children however
// long --seconds asks for, so a run always ends inside its time limit.
const maxMeasureSeconds = 90

// measure is the untraced run: setupReps untimed warm-up children, then
// timed children until seconds have passed and at least minReps have run,
// each against its own empty store. A warm-up child is the workload's
// set-up: the first child after a build pays the binary's and the file
// system's cold start, and a change that moves work out of every child
// into a fill the first one pays shows as setup_s staying put while wall_s
// drops. Every end-to-end metric but ok_frac is the median over the timed
// children, setup_s over the warm-ups; ok_frac is the share of all
// children, warm-ups included, that exited cleanly with the expected
// stdout.
func (b *bench) measure(seconds float64) (map[string]metric, info, error) {
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := b.runFresh(); err != nil {
			return nil, info{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	var wall, cpu, rss, storeMB []float64
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if (i >= minReps && elapsed >= seconds) || elapsed >= maxMeasureSeconds {
			break
		}
		c, err := b.runFresh()
		if err != nil {
			return nil, info{}, err
		}
		if c.err != nil {
			continue
		}
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		rss = append(rss, c.rssMB)
		storeMB = append(storeMB, c.storeMB)
	}
	m := map[string]metric{
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"store_mb":    {median(storeMB), "MB"},
		"setup_s":     {median(setupS), "s"},
		"ok_frac":     {float64(b.attempted-b.failed) / float64(b.attempted), "frac"},
	}
	return m, info{Samples: map[string][]float64{"setup_s": setupS, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}}, nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}
