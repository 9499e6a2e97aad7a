package main

import (
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary re-exec itself as the real CLI (the same
// pattern as cmd/gbexp).
func TestMain(m *testing.M) {
	if os.Getenv("BENCHDIFF_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHDIFF_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
