package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicwarp/internal/analysis"
	"nicwarp/internal/analysis/framework"
)

// writeModule lays out a one-package module in a temp dir.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string]string{
		"go.mod":     "module vetprobe\n\ngo 1.21\n",
		"sim/sim.go": src,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunVetReportsAndFails: the driver is the build gate, so one violation
// must surface as one located finding and a nonzero exit, a clean module as
// none and zero, and a mistyped -only as an error rather than a silent pass.
func TestRunVetReportsAndFails(t *testing.T) {
	bad := writeModule(t, "package sim\n\nimport \"time\"\n\nfunc Stamp() time.Time {\n\treturn time.Now()\n}\n")
	findings, err := framework.RunVet(bad, analysis.All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "walltime" || f.Pos.Line != 6 || f.Pos.Column != 9 ||
		f.Pos.Filename != filepath.Join(bad, "sim", "sim.go") || !strings.Contains(f.Message, "time.Now") {
		t.Errorf("finding = %+v, want walltime time.Now at sim/sim.go:6:9", f)
	}
	var out bytes.Buffer
	if code := vet(&out, bad, "", nil); code != 1 {
		t.Errorf("exit %d on a violation, want 1", code)
	}
	if want := "sim.go:6:9: wall-clock access time.Now"; !strings.Contains(out.String(), want) ||
		!strings.Contains(out.String(), "(walltime)") {
		t.Errorf("output %q lacks %q (walltime)", out.String(), want)
	}

	// Deselecting the only analyzer that fires leaves nothing to report.
	out.Reset()
	if code := vet(&out, bad, "maprange", nil); code != 0 || out.Len() != 0 {
		t.Errorf("-only=maprange: exit %d, output %q; want 0 and silence", code, out.String())
	}

	clean := writeModule(t, "package sim\n\nfunc Two() int { return 2 }\n")
	out.Reset()
	if code := vet(&out, clean, "", nil); code != 0 || out.Len() != 0 {
		t.Errorf("clean module: exit %d, output %q; want 0 and silence", code, out.String())
	}

	out.Reset()
	if code := vet(&out, clean, "waltime", nil); code != 1 || !strings.Contains(out.String(), `unknown analyzer "waltime"`) {
		t.Errorf("-only=waltime: exit %d, output %q; want 1 and an unknown-analyzer error", code, out.String())
	}
}
