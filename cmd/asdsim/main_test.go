package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// asdsim runs the command in process with args and returns its exit
// code and standard output.
func asdsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// sha256File returns the hex sha256 of the file at path.
func sha256File(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// goldenBundle is the GemsFDTD/MS 400k bundle that the flight recorder
// captured inline before bundles were built by replay: its report, and
// the sha256 of its JSON.
var goldenBundle = filepath.Join("..", "..", "internal", "obs", "flightrec", "testdata", "GemsFDTD_MS_b1")

// TestFlightrecWritesThePinnedBundle: asdsim -flightrec detects
// GemsFDTD/MS 400k's late-prefetch spike on the live run, replays the
// mode up to it, and writes the pinned bundle byte for byte. With the
// other recorders attached too, the replay feeds none of them: their
// output prints once, and the bundle does not move.
func TestFlightrecWritesThePinnedBundle(t *testing.T) {
	report, err := os.ReadFile(goldenBundle + ".txt")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(goldenBundle + ".json.sha256")
	if err != nil {
		t.Fatal(err)
	}
	const trigger = "     flightrec: late-prefetch-spike at window 5 (cycle 250000): late/(timely+late) = 0.28 (46 late, 118 timely) in one window\n"
	for _, extra := range [][]string{nil, {"-obs", "-explain", "last"}} {
		prefix := filepath.Join(t.TempDir(), "gems")
		args := append([]string{"-bench", "GemsFDTD", "-budget", "400000", "-modes", "MS", "-flightrec", prefix}, extra...)
		code, out := asdsim(t, args...)
		if code != 0 {
			t.Fatalf("asdsim %v exited %d:\n%s", args, code, out)
		}
		if strings.Count(out, trigger) != 1 || !strings.Contains(out, "flightrec: bundle "+prefix+"-MS-b1.json (+.txt report)\n") {
			t.Errorf("asdsim %v printed no trigger and bundle lines:\n%s", args, out)
		}
		if extra != nil && (strings.Count(out, "     obs: ") != 1 || strings.Count(out, "lineage for line") != 1) {
			t.Errorf("asdsim %v printed the other recorders' output other than once:\n%s", args, out)
		}
		if got, err := os.ReadFile(prefix + "-MS-b1.txt"); err != nil || !bytes.Equal(got, report) {
			t.Errorf("asdsim %v: the report differs from the pinned one (%v):\n%s", args, err, got)
		}
		if got := sha256File(t, prefix+"-MS-b1.json"); got != strings.TrimSpace(string(sum)) {
			t.Errorf("asdsim %v: the bundle JSON has sha256 %s, not the pinned one", args, got)
		}
		if _, err := os.Stat(prefix + "-MS-b2.json"); !os.IsNotExist(err) {
			t.Errorf("asdsim %v wrote a second bundle (%v)", args, err)
		}
	}
}

// A sampled run's bundle is replayed through the same sampled schedule:
// tpcc/MS at 5M writes the bundle the inline capture wrote.
func TestFlightrecSampledBundle(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "tpcc")
	code, out := asdsim(t, "-bench", "tpcc", "-budget", "5000000", "-modes", "MS", "-sample", "-flightrec", prefix)
	if code != 0 || !strings.Contains(out, "flightrec: late-prefetch-spike at window 2 (cycle 100000)") {
		t.Fatalf("asdsim exited %d:\n%s", code, out)
	}
	if got, want := sha256File(t, prefix+"-MS-b1.json"), "bed7b6b9134f8c06f83d0ac4b21e13c9ac9a39108f6600b354b981073696c2cf"; got != want {
		t.Errorf("the sampled bundle JSON has sha256 %s, want %s", got, want)
	}
	if got, want := sha256File(t, prefix+"-MS-b1.txt"), "18b980b2cfd837870278cfbfe2a12aa3f091aaf0605aee77fd76b121ef872e48"; got != want {
		t.Errorf("the sampled bundle report has sha256 %s, want %s", got, want)
	}
}

// A mode whose live recorder trips nothing replays nothing and writes
// no bundle.
func TestFlightrecHealthyRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "milc")
	code, out := asdsim(t, "-bench", "milc", "-budget", "400000", "-modes", "MS", "-flightrec", prefix)
	if code != 0 || !strings.HasSuffix(out, "\n     flightrec: no anomalies\n") {
		t.Fatalf("asdsim exited %d:\n%s", code, out)
	}
	if matches, _ := filepath.Glob(prefix + "*"); len(matches) != 0 {
		t.Errorf("a healthy run wrote %v", matches)
	}
}
