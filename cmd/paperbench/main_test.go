package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lazyrc/internal/api"
)

// paperbench runs the command in process and returns what it printed and
// its exit code.
func paperbench(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestFlagCount pins the option surface: 16 flags, none of them the
// deleted perf pass's.
func TestFlagCount(t *testing.T) {
	_, usage, code := paperbench("-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	n := 0
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			n++
			if strings.HasPrefix(line, "  -perf-") {
				t.Errorf("the perf pass is back: %s", line)
			}
		}
	}
	if n != 16 {
		t.Errorf("%d flags registered, want 16: adding an option needs a reason (ROADMAP aim 2)\n%s", n, usage)
	}
}

// TestLocalAndRemoteShareOneTail: the same invocation evaluated locally
// and by a daemon prints the same tables, writes the same baseline, and
// reaches the same gate verdict — everything after "obtain a report" is
// one code path.
func TestLocalAndRemoteShareOneTail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := api.NewService(2, nil, nil)
	defer svc.Close(context.Background())
	ts := httptest.NewServer(api.NewServer(svc))
	defer ts.Close()

	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(file(name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	common := []string{"-scale", "tiny", "-procs", "4", "-q"}
	targets := []string{"table1", "fig4", "table3", "sweep", "mp3dquality", "dsm", "chaos", "claims", "default/gauss/sc", "line=256/gauss/lrc"}
	invoke := func(remote bool, extra ...string) (string, string, int) {
		args := append([]string{}, common...)
		if remote {
			args = append(args, "-remote", ts.URL)
		}
		return paperbench(append(append(args, extra...), targets...)...)
	}

	localOut, localErr, code := invoke(false, "-write-baseline", file("local.json"), "-report", file("local.html"))
	if code != 0 {
		t.Fatalf("local run exited %d: %s", code, localErr)
	}
	remoteOut, remoteErr, code := invoke(true, "-write-baseline", file("remote.json"), "-report", file("remote.html"), "-json", file("remote.full.json"))
	if code != 0 {
		t.Fatalf("remote run exited %d: %s", code, remoteErr)
	}
	for _, heading := range []string{"Table 1:", "Table 3:", "Figure 4:", "Sensitivity: cache line size", "mp3d quality of solution", "DSM contrast:",
		"all 126 faulted runs matched", "| claim (tiny inputs, 4 procs) |", "Cells: tiny inputs, 4 procs", "line=256  gauss       lrc"} {
		if !strings.Contains(localOut, heading) {
			t.Fatalf("local run did not print %q:\n%s", heading, localOut)
		}
	}
	for _, cfg := range []string{"line=256", "storm", "stale-density"} {
		if !bytes.Contains(read("local.json"), []byte(`"config": "`+cfg+`"`)) {
			t.Fatalf("the baseline lacks the %s cells", cfg)
		}
	}
	if localOut != remoteOut {
		t.Fatalf("-remote prints differently from local:\n--- local\n%s--- remote\n%s", localOut, remoteOut)
	}
	if !bytes.Equal(read("local.json"), read("remote.json")) {
		t.Fatal("-write-baseline differs between local and -remote")
	}
	if !bytes.Equal(read("local.html"), read("remote.html")) {
		t.Fatal("-report differs between local and -remote")
	}
	// A daemon's report is already the stable form: -json is the baseline.
	if !bytes.Equal(read("remote.json"), read("remote.full.json")) {
		t.Fatal("-remote -json differs from the stable report")
	}

	// The gate: both pass against the baseline just written at -tol 0,
	// both fail — with the same violation — against a doctored one.
	doctored := bytes.Replace(read("local.json"), []byte(`"exec_cycles": `), []byte(`"exec_cycles": 1`), 1)
	if err := os.WriteFile(file("doctored.json"), doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, remote := range []bool{false, true} {
		if _, stderr, code := invoke(remote, "-baseline", file("local.json"), "-tol", "0"); code != 0 {
			t.Fatalf("remote=%v: gate against its own baseline exited %d: %s", remote, code, stderr)
		}
		_, stderr, code := invoke(remote, "-baseline", file("doctored.json"), "-tol", "0")
		if code != 1 || !strings.Contains(stderr, "gate: FAILED") || !strings.Contains(stderr, "exec_cycles") {
			t.Fatalf("remote=%v: gate against a doctored baseline exited %d: %s", remote, code, stderr)
		}
	}
}

// TestRemoteRefusesCriticalPath: -critical-path needs span-traced runs in
// this process, so -remote refuses it before anything is submitted; every
// target — Table 1, the §4.2 check, the soak and a cell key included — is
// the daemon's.
func TestRemoteRefusesCriticalPath(t *testing.T) {
	const nobody = "http://127.0.0.1:1" // refused connections, were anything submitted
	stdout, stderr, code := paperbench("-remote", nobody, "-scale", "tiny", "-q", "-critical-path", "fig4")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-critical-path") || strings.Contains(stderr, "submit:") {
		t.Errorf("-remote -critical-path exited %d, printed %q: %s", code, stdout, stderr)
	}
	for _, target := range []string{"table1", "mp3dquality", "ablate", "scaling", "chaos", "future/fft/erc", "all"} {
		_, stderr, code := paperbench("-remote", nobody, "-scale", "tiny", "-q", target)
		if code != 1 || !strings.Contains(stderr, "submit:") {
			t.Errorf("-remote %s was not submitted (exit %d): %s", target, code, stderr)
		}
	}
}

// TestUnknownTargetIsRefused: a mistyped target exits 2 naming the valid
// ones before anything runs, locally and under -remote alike.
func TestUnknownTargetIsRefused(t *testing.T) {
	for _, mode := range [][]string{nil, {"-remote", "http://127.0.0.1:1"}} {
		stdout, stderr, code := paperbench(append(mode, "-scale", "tiny", "-q", "fig4", "fig44")...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, `unknown target "fig44"`) || !strings.Contains(stderr, "scaling") {
			t.Errorf("%v fig44 exited %d, printed %q: %s", mode, code, stdout, stderr)
		}
		// A cell key is checked element by element.
		stdout, stderr, code = paperbench(append(mode, "-scale", "tiny", "-q", "default/gauss/warp")...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, `"default/gauss/warp"`) || !strings.Contains(stderr, `unknown protocol "warp"`) {
			t.Errorf("%v default/gauss/warp exited %d, printed %q: %s", mode, code, stdout, stderr)
		}
	}
}

// TestLocalTargetsAloneEvaluateNothing: table1 by itself reads no cell
// and is not the spec's default of "all" — locally nothing is simulated,
// and a daemon runs a sweep of no cells.
func TestLocalTargetsAloneEvaluateNothing(t *testing.T) {
	stdout, stderr, code := paperbench("-scale", "tiny", "-procs", "4", "table1")
	if code != 0 || !strings.Contains(stdout, "Table 1:") || !strings.Contains(stderr, "0 simulated, 0 cache hits") {
		t.Errorf("table1 alone exited %d, printed %q: %s", code, stdout, stderr)
	}
	svc := api.NewService(1, nil, nil)
	defer svc.Close(context.Background())
	ts := httptest.NewServer(api.NewServer(svc))
	defer ts.Close()
	remoteOut, stderr, code := paperbench("-remote", ts.URL, "-scale", "tiny", "-procs", "4", "table1")
	if code != 0 || remoteOut != stdout || !strings.Contains(stderr, "0 cell(s)") || !strings.Contains(stderr, "(0 executed, 0 from cache") {
		t.Errorf("-remote table1 alone exited %d, printed %q: %s", code, remoteOut, stderr)
	}
}
