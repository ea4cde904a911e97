package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/hbfile"
	"repro/hbshm"
	"repro/heartbeat"
)

var reportLine = regexp.MustCompile(`beats +5  \+\d+  rate +[0-9.]+ beats/s  target \[4\.00, 400\.00\]  health `)

// The one report loop, end to end: the built binary over a ring file and a
// log file, with and without -follow, prints -count report lines — each
// carrying the beat count, delta, rate, goal and health — and exits 0.
func TestReportLoopSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildHbmon(t, dir)

	ring, err := hbfile.Create(filepath.Join(dir, "app.hb"), 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	log, err := hbfile.CreateLog(filepath.Join(dir, "app.hblog"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	base := time.Now().Add(-time.Second)
	for _, w := range []heartbeat.TargetSink{ring, log} {
		if err := w.WriteTarget(4, 400); err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 5; seq++ {
			rec := heartbeat.Record{Seq: seq, Time: base.Add(time.Duration(seq) * 25 * time.Millisecond)}
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, file := range []string{"app.hb", "app.hblog"} {
		for _, follow := range []bool{false, true} {
			args := []string{"-file", filepath.Join(dir, file), "-count", "2", "-interval", "20ms"}
			if follow {
				args = append(args, "-follow")
			}
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("hbmon %v: %v\n%s", args, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if len(lines) != 3 || !strings.HasPrefix(lines[0], "watching ") {
				t.Fatalf("hbmon %v printed %d lines, want a banner and 2 reports:\n%s", args, len(lines), out)
			}
			for _, line := range lines[1:] {
				if !reportLine.MatchString(line) {
					t.Errorf("hbmon %v: report line %q does not match %v", args, line, reportLine)
				}
			}
		}
	}
}

// A stream that has ended keeps the report cadence: over a closed
// shared-memory region every report but the first still waits out its
// interval, instead of the loop printing them back to back.
func TestReportLoopKeepsCadenceAfterStreamEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildHbmon(t, dir)
	path := filepath.Join(dir, "app.shm")
	w, err := hbshm.Create(path, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTarget(4, 400); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Second)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: seq, Time: base.Add(time.Duration(seq) * 25 * time.Millisecond)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const count, interval = 5, 100 * time.Millisecond
	start := time.Now()
	out, err := exec.Command(bin, "-shm", path, "-count", strconv.Itoa(count), "-interval", interval.String()).CombinedOutput()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hbmon: %v\n%s", err, out)
	}
	if lines := strings.Split(strings.TrimSpace(string(out)), "\n"); len(lines) != count+1 {
		t.Fatalf("printed %d lines, want a banner and %d reports:\n%s", len(lines), count, out)
	}
	if min := (count - 1) * interval; elapsed < min {
		t.Fatalf("%d reports took %v, want at least %v: the loop spins once the stream ends", count, elapsed, min)
	}
}

// buildHbmon builds the command into dir and returns the binary's path.
func buildHbmon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hbmon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
