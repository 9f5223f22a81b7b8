// Command nicwarp-vet is the driver for the repo's determinism analyzers
// (see internal/analysis and DESIGN.md "Determinism invariants"):
//
//	go run ./cmd/nicwarp-vet ./...
//	go run ./cmd/nicwarp-vet -list
//	go run ./cmd/nicwarp-vet -only=poolown,hotalloc ./internal/timewarp
//
// It loads and type-checks packages itself (no go command, no network; see
// internal/analysis/framework.Loader), walks the module in dependency order
// so exported facts (ownership, allocation purity) exist before their
// importers are analyzed, prints each finding as file:line:col: msg
// (analyzer), and exits nonzero iff there is any finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nicwarp/internal/analysis"
	"nicwarp/internal/analysis/framework"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers with their docs, then exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all; unknown names are an error)")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", framework.AnnotationAnalyzer,
			"(always on) malformed //nicwarp: annotations: unknown verbs or missing reasons")
		return
	}
	os.Exit(vet(os.Stderr, ".", *only, flag.Args()))
}

// vet runs the selected analyzers over patterns in the module enclosing
// dir, prints the findings to w and returns the process exit status.
func vet(w io.Writer, dir, only string, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := framework.SelectAnalyzers(analysis.All(), only)
	if err != nil {
		fmt.Fprintln(w, "nicwarp-vet:", err)
		return 1
	}
	findings, err := framework.RunVet(dir, selected, patterns...)
	if err != nil {
		fmt.Fprintln(w, "nicwarp-vet:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n",
			f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(w, "nicwarp-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
