package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the driver contract: 0 clean, 1 findings, 2 for
// usage errors and load/type-check failures — never 1 for a broken
// package, so CI can tell "code has findings" from "tool could not run".
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // required substring of stderr, "" for none
	}{
		{"clean package", []string{"../../internal/sim"}, 0, ""},
		{"findings", []string{"../../internal/analysis/testdata/src/simtime"}, 1, "finding(s)"},
		{"broken package exits 2 and names it", []string{"../../internal/analysis/testdata/src/broken"}, 2, "testdata/src/broken"},
		{"unknown format", []string{"-format", "xml", "./..."}, 2, "unknown format"},
		{"unknown analyzer", []string{"-only", "nosuch", "./..."}, 2, "unknown analyzer"},
		{"audit with only", []string{"-audit", "-only", "wallclock", "./..."}, 2, "-audit needs the full suite"},
		{"malformed directives fail -audit", []string{"-audit", "../../internal/analysis/testdata/src/malformed"}, 1, "finding(s)"},
		{"malformed directives pass without -audit", []string{"../../internal/analysis/testdata/src/malformed"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestRootsOutput pins the -roots contract the committed baseline
// relies on: "root <name>" lines for each declared //taq:hotpath function,
// per-package closure counts, a total line, exit 0 even though the
// fixture has findings, and byte-identical output across runs.
func TestRootsOutput(t *testing.T) {
	const fixture = "../../internal/analysis/testdata/src/hotpath"
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-roots", fixture}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Fatalf("-roots output not byte-stable:\n%s\nvs\n%s", first, stdout.String())
		}
	}
	for _, want := range []string{"root ", "hotpath.Root", "package ", "total ", "from 1 roots"} {
		if !strings.Contains(first, want) {
			t.Errorf("-roots output missing %q:\n%s", want, first)
		}
	}
}

// TestAnnotationsOutput pins the -annotations contract the committed
// baseline relies on: one line per contract annotation in fixed order, a
// total line, exit 0 regardless of findings, and byte-identical output
// across runs.
func TestAnnotationsOutput(t *testing.T) {
	fixtures := []string{
		"-annotations",
		"../../internal/analysis/testdata/src/shardown",
		"../../internal/analysis/testdata/src/shardown/shardsub",
	}
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if code := run(fixtures, &stdout, &stderr); code != 0 {
			t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Fatalf("-annotations output not byte-stable:\n%s\nvs\n%s", first, stdout.String())
		}
	}
	for _, want := range []string{
		"shardowned taq/internal/analysis/testdata/src/shardown.Owned",
		"crossshard taq/internal/analysis/testdata/src/shardown.Handoff",
		"total 2 shardowned, 2 crossshard",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("-annotations output missing %q:\n%s", want, first)
		}
	}
}

// TestGitHubFormat checks the workflow-command annotation grammar.
func TestGitHubFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "github", "../../internal/analysis/testdata/src/simtime"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, "title=taqvet/") {
			t.Errorf("not a workflow annotation: %q", line)
		}
	}
}
