package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// lrccheck runs the command in process and returns what it printed and
// its exit code.
func lrccheck(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestHugeDelayIsAUsageError: a menu delay that would wrap the simulated
// clock exits 2 naming the bound, before any pair is reported — not as a
// counterexample blamed on the protocol.
func TestHugeDelayIsAUsageError(t *testing.T) {
	stdout, stderr, code := lrccheck("-proto", "lrc", "-test", "mp-flag", "-menu", "0,9223372036854775808")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "exceeds the 4294967296-cycle bound") {
		t.Errorf("exited %d, printed %q: %s", code, stdout, stderr)
	}
}

// TestOutcomesPrintSorted: -v lists a pair's outcome histogram in sorted
// order, so the output of two runs compares byte for byte. lock-handoff
// with a 300-cycle delay is a pair that sees two outcomes; map order
// would list them sorted half the time, so the pair runs ten times.
func TestOutcomesPrintSorted(t *testing.T) {
	for i := 0; i < 10; i++ {
		stdout, stderr, code := lrccheck("-v", "-proto", "lrc", "-test", "lock-handoff", "-menu", "0,300")
		if code != 0 {
			t.Fatalf("exited %d: %s", code, stderr)
		}
		var outcomes []string
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "    outcome ") {
				outcomes = append(outcomes, line)
			}
		}
		if len(outcomes) < 2 || !sort.StringsAreSorted(outcomes) {
			t.Fatalf("outcome lines not sorted, or fewer than two:\n%s", stdout)
		}
	}
}
