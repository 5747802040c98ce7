package main

import "testing"

// TestRun runs the example end to end; run fails on any step whose outcome
// the example prints a ✓ for.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
