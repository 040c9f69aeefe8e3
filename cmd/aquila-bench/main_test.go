package main

import (
	"os"
	"testing"
)

// TestUnknownExperiment: a name outside the registration list is a usage
// error, not a silent run of nothing.
func TestUnknownExperiment(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"aquila-bench", "-exp", "churn"}
	if code := mainRun(); code != 2 {
		t.Fatalf("aquila-bench -exp churn exited %d, want 2", code)
	}
}
