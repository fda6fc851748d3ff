package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when re-executed by a test.
func TestMain(m *testing.M) {
	if os.Getenv("CKPT_EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command runs ckpt-experiments with args and returns its stdout,
// stderr and exit code.
func command(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CKPT_EXPERIMENTS_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// acceptedRunNames are the -run values the command has always taken.
var acceptedRunNames = []string{"all", "table1", "table2", "table3", "table4", "table5",
	"figure3", "figure4", "validate", "censoring", "sensitivity", "chaos", "predict", "delta"}

func TestUnknownRunNameExits1(t *testing.T) {
	stdout, stderr, code := command(t, "-run", "tabel1")
	if code != 1 || stdout != "" {
		t.Fatalf("-run tabel1: exit %d, stdout %q; want exit 1 and no output", code, stdout)
	}
	for _, name := range acceptedRunNames {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr does not list accepted name %q:\n%s", name, stderr)
		}
	}
}

func TestRunSingleStage(t *testing.T) {
	stdout, stderr, code := command(t, "-run", "sensitivity", "-seed", "7")
	if code != 0 || !strings.HasPrefix(stdout, "Parameter sensitivity") {
		t.Fatalf("-run sensitivity: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
