package main

import "testing"

// TestRun replays a short trace end to end through the public API.
func TestRun(t *testing.T) {
	if err := run(400, 50, 32); err != nil {
		t.Fatal(err)
	}
}
