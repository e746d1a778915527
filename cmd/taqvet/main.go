// Command taqvet runs the repo-specific determinism, concurrency, and
// hot-path analyzers over the module (see docs/static-analysis.md):
//
//	go run ./cmd/taqvet ./...
//	go run ./cmd/taqvet -audit -format github ./...
//	go run ./cmd/taqvet -roots ./...
//	go run ./cmd/taqvet -annotations ./...
//
// The default format prints "file:line:col: message [analyzer]" per
// finding; -format github emits GitHub workflow annotations instead.
// -audit additionally reports stale //taq:allow directives and
// malformed //taq: directives (unknown directive word, missing or
// unknown analyzer names, //taq:hotpath on anything but a function
// declaration with a body). -roots prints the declared //taq:hotpath
// roots and the per-package closure sizes, compared against the
// committed docs/hotpath-closure.txt baseline. -annotations prints the
// //taq:shardowned and //taq:crossshard inventory the same way, against
// docs/taq-annotations.txt. TestRepoIsClean makes both comparisons, and
// the -audit run, part of `go test ./...`.
//
// Exit status: 0 clean, 1 findings, 2 on usage errors or when any
// package fails to load or type-check (the failing package is named).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"taq/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taqvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	format := fs.String("format", "text", "output format: text or github")
	audit := fs.Bool("audit", false, "also report stale //taq:allow and malformed //taq: directives (requires the full suite)")
	roots := fs.Bool("roots", false, "print the //taq:hotpath roots and closure size per package, then exit")
	annotations := fs.Bool("annotations", false, "print the shardowned/crossshard annotation inventory, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: taqvet [-list] [-roots] [-annotations] [-only a,b] [-format text|github] [-audit] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs TAQ's determinism & concurrency analyzers (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := analysis.DefaultConfig()
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "github":
	default:
		fmt.Fprintf(stderr, "taqvet: unknown format %q (want text or github)\n", *format)
		return 2
	}
	if *only != "" {
		if *audit {
			fmt.Fprintf(stderr, "taqvet: -audit needs the full suite; drop -only\n")
			return 2
		}
		var sel []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			found := false
			for _, a := range analysis.All() {
				if a.Name == name {
					sel = append(sel, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(stderr, "taqvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
		}
		cfg.Analyzers = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		// Load and type-check failures are always exit 2 — never 1,
		// which is reserved for findings — and name the package.
		var le *analysis.LoadError
		if errors.As(err, &le) && le.Pkg != "" {
			fmt.Fprintf(stderr, "taqvet: load: %v\n", le)
		} else {
			fmt.Fprintf(stderr, "taqvet: load: %v\n", err)
		}
		return 2
	}

	if *roots {
		if err := analysis.WriteRoots(stdout, pkgs); err != nil {
			fmt.Fprintf(stderr, "taqvet: writing roots: %v\n", err)
			return 2
		}
		return 0
	}
	if *annotations {
		if err := analysis.WriteAnnotations(stdout, pkgs); err != nil {
			fmt.Fprintf(stderr, "taqvet: writing annotations: %v\n", err)
			return 2
		}
		return 0
	}

	diags, stale := analysis.RunAudit(pkgs, cfg)
	if *audit {
		diags = append(diags, stale...)
	}
	cwd, _ := os.Getwd()
	for i := range diags {
		diags[i].Pos.Filename = relativize(cwd, diags[i].Pos.Filename)
	}
	// Re-sort after merging the audit findings and relativizing paths:
	// the merged list is otherwise only sorted per source.
	analysis.SortDiagnostics(diags)

	for _, d := range diags {
		if *format == "github" {
			// A workflow annotation command: GitHub renders it as an
			// inline error on the PR diff. The grammar reserves %, \r
			// and \n; escape per the workflow-command spec.
			msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=taqvet/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, msg)
		} else {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "taqvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// relativize rewrites an absolute filename under cwd to a relative
// one, the form GitHub annotations map back onto the tree.
func relativize(cwd, filename string) string {
	if cwd == "" {
		return filename
	}
	rel, err := filepath.Rel(cwd, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return rel
}
