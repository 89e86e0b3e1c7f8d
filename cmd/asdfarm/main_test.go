package main

import (
	"bytes"
	"errors"
	"fmt"
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
// -out, so it refuses it before it contacts the coordinator, and says
// where a cluster run's results are kept.
func TestClusterRunRefusesLocalOnlyFlags(t *testing.T) {
	var requests atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "not a coordinator", http.StatusInternalServerError)
	}))
	defer coord.Close()
	dir := t.TempDir()
	run := []string{"run", "-benchmarks", "mg", "-modes", "NP", "-budget", "10000", "-quiet", "-cluster", coord.URL}
	out := filepath.Join(dir, "store")

	code, stderr := asdfarm(t, append(run, "-out", out)...)
	if code != 1 {
		t.Errorf("-out: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"-out does not apply with -cluster", "'serve -out'", "-outcomes"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-out: stderr does not name %q:\n%s", want, stderr)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the refused run sent the coordinator %d requests, want 0", n)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run left %s behind (%v)", out, err)
	}

	// Without it the same run goes to the coordinator, and the refusal
	// names the URL, the status and the reply.
	code, stderr = asdfarm(t, run...)
	if code != 1 || requests.Load() == 0 {
		t.Errorf("plain -cluster run: exit %d after %d requests, want a submit the stub refuses; stderr:\n%s",
			code, requests.Load(), stderr)
	}
	for _, want := range []string{"HTTP 500", coord.URL + "/jobs", "not a coordinator"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("plain -cluster run: stderr does not name %q:\n%s", want, stderr)
		}
	}
}

// TestClusterRunRefusesErrorOutcomes: when the coordinator reports the
// job done but answers the outcome fetch with an error, the run fails
// and writes no outcomes file.
func TestClusterRunRefusesErrorOutcomes(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1","runs":1}`)
		case r.URL.Query().Get("format") == "outcomes":
			http.Error(w, "no such job", http.StatusNotFound)
		default:
			fmt.Fprint(w, `{"job":{"state":"done","done":1,"total":1}}`)
		}
	}))
	defer coord.Close()
	outcomes := filepath.Join(t.TempDir(), "outcomes.json")
	code, stderr := asdfarm(t, "run", "-benchmarks", "mg", "-modes", "NP", "-budget", "10000", "-quiet",
		"-cluster", coord.URL, "-outcomes", outcomes)
	if code != 1 {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"HTTP 404", "?format=outcomes", "no such job"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not name %q:\n%s", want, stderr)
		}
	}
	if _, err := os.Stat(outcomes); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("an error reply reached the outcomes file (%v)", err)
	}
}
