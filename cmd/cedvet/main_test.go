package main

import (
	"strings"
	"testing"
)

// TestSuiteCleanOnRepo runs the full analyzer suite in-process over the
// whole module, pinning the invariant CI enforces: the tree is cedvet-clean.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	t.Chdir("../..")
	var stdout, stderr strings.Builder
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("cedvet exit %d on the repo\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); out != "" {
		t.Fatalf("unexpected findings:\n%s", out)
	}
}

// TestList pins the -list inventory so adding an analyzer updates it
// deliberately.
func TestList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("cedvet -list exit %d\nstderr:\n%s", code, stderr.String())
	}
	names := []string{"atomicsnap", "ctxflow", "poolleak", "rawhttp", "sessionshare", "stagecount"}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != len(names) {
		t.Errorf("-list names %d analyzers, want %d:\n%s", lines, len(names), stdout.String())
	}
}

// TestUnknownAnalyzer pins the usage error path.
func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("cedvet -run nosuch: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnostic: %s", stderr.String())
	}
}
