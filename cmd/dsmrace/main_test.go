package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dsmrace"
)

// TestMain lets the test binary stand in for the command: re-executed with
// DSMRACE_TEST_AS_CLI set, it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DSMRACE_TEST_AS_CLI") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (output string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DSMRACE_TEST_AS_CLI=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestIncompatibleOptionsExitCleanly pins the misconfiguration contract: an
// option pair rdma.Config.Validate rejects ends the command with status 2
// and one explanatory line — never a panic's goroutine dump.
func TestIncompatibleOptionsExitCleanly(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "literal", "-detector", "lockset"},
		{"-protocol", "literal", "-detector", "epoch"},
		{"-protocol", "literal", "-coherence", "mesi"},
	} {
		out, exit := runCLI(t, args...)
		if exit != 2 {
			t.Errorf("%v: exit status %d, want 2\n%s", args, exit, out)
		}
		if !strings.HasPrefix(out, "dsmrace: ") || strings.Count(out, "\n") != 1 {
			t.Errorf("%v: want a single \"dsmrace: …\" line, got:\n%s", args, out)
		}
	}
}

// TestHelpListsEveryName checks the -coherence and -detector help strings
// are built from the facade's name lists rather than hand-copied.
func TestHelpListsEveryName(t *testing.T) {
	out, _ := runCLI(t, "-h")
	for _, names := range [][]string{dsmrace.CoherenceNames(), dsmrace.DetectorNames()} {
		if list := strings.Join(names, ", "); !strings.Contains(out, list) {
			t.Errorf("-h does not list %q:\n%s", list, out)
		}
	}
}
