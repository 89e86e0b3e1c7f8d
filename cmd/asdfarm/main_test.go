package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// mainEnv makes the test binary run main instead of the tests, so a
// test can drive the command as a subprocess.
const mainEnv = "ASDFARM_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asdfarm runs the command with args and returns its exit code and
// standard error.
func asdfarm(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("asdfarm %v: %v", args, err)
	return 0, ""
}

// TestClusterRunRefusesLocalOnlyFlags: a -cluster run cannot honour
// -out or -prov, so it refuses them before it contacts the
// coordinator, and says where a cluster run's results are kept.
func TestClusterRunRefusesLocalOnlyFlags(t *testing.T) {
	var requests atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "not a coordinator", http.StatusInternalServerError)
	}))
	defer coord.Close()
	dir := t.TempDir()
	run := []string{"run", "-benchmarks", "mg", "-modes", "NP", "-budget", "10000", "-quiet", "-cluster", coord.URL}
	out, prov := filepath.Join(dir, "store"), filepath.Join(dir, "prov")

	for _, flags := range [][]string{{"-out", out}, {"-prov", prov}, {"-out", out, "-prov", prov}} {
		code, stderr := asdfarm(t, append(run, flags...)...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1; stderr:\n%s", flags, code, stderr)
		}
		for _, want := range []string{"-out and -prov do not apply with -cluster", "'serve -out'", "-outcomes"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%v: stderr does not name %q:\n%s", flags, want, stderr)
			}
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the refused runs sent the coordinator %d requests, want 0", n)
	}
	for _, path := range []string{out, prov} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a refused run left %s behind (%v)", path, err)
		}
	}

	// Without them the same run goes to the coordinator.
	if code, stderr := asdfarm(t, run...); code != 1 || requests.Load() == 0 {
		t.Errorf("plain -cluster run: exit %d after %d requests, want a submit the stub refuses; stderr:\n%s",
			code, requests.Load(), stderr)
	}
}
