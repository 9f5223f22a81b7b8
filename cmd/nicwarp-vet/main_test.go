package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nicwarp/internal/analysis"
	"nicwarp/internal/analysis/framework"
)

// writeModule lays out a module in a temp dir: go.mod for module vetprobe
// unless files names its own, then each file at its slash path.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module vetprobe\n\ngo 1.21\n"
	}
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// simModule is a module whose one package, sim, is src.
func simModule(t *testing.T, src string) string {
	return writeModule(t, map[string]string{"sim/sim.go": src})
}

// TestRunVetReportsAndFails: the driver is the build gate, so one violation
// must surface as one located finding and a nonzero exit, a clean module as
// none and zero, and a mistyped -only as an error rather than a silent pass.
func TestRunVetReportsAndFails(t *testing.T) {
	bad := simModule(t, "package sim\n\nimport \"time\"\n\nfunc Stamp() time.Time {\n\treturn time.Now()\n}\n")
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

	clean := simModule(t, "package sim\n\nfunc Two() int { return 2 }\n")
	out.Reset()
	if code := vet(&out, clean, "", nil); code != 0 || out.Len() != 0 {
		t.Errorf("clean module: exit %d, output %q; want 0 and silence", code, out.String())
	}

	out.Reset()
	if code := vet(&out, clean, "waltime", nil); code != 1 || !strings.Contains(out.String(), `unknown analyzer "waltime"`) {
		t.Errorf("-only=waltime: exit %d, output %q; want 1 and an unknown-analyzer error", code, out.String())
	}
}

// TestRunVetOnASubset: vetting one package of a module, the usage the
// command's doc comment shows, still reads the facts of the packages it
// imports, so a hot path calling an allocating dependency is found the
// same way as under ./...
func TestRunVetOnASubset(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"dep/dep.go": "package dep\n\nfunc Mk() []int { return make([]int, 8) }\n",
		"user/user.go": "package user\n\nimport \"vetprobe/dep\"\n\n" +
			"//nicwarp:hotpath per-event step\nfunc Hot() int { return len(dep.Mk()) }\n",
	})
	for _, pattern := range []string{"./user", "./..."} {
		findings, err := framework.RunVet(dir, analysis.All(), pattern)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if len(findings) != 1 || findings[0].Analyzer != "hotalloc" ||
			findings[0].Pos.Filename != filepath.Join(dir, "user", "user.go") ||
			!strings.Contains(findings[0].Message, "call to vetprobe/dep.Mk in hot path Hot may allocate: make") {
			t.Errorf("%s: findings = %+v, want the one hotalloc call to dep.Mk in user.Hot", pattern, findings)
		}
	}
}

// TestRunVetOrdersFindings: findings come in file, line and column order
// whichever analyzer and package reported them.
func TestRunVetOrdersFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nvar Seen = map[int]bool{}\n\nfunc Any() int {\n\tfor k := range Seen {\n\t\treturn k\n\t}\n\treturn 0\n}\n",
		"b/b.go": "package b\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n",
	})
	findings, err := framework.RunVet(dir, analysis.All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer))
	}
	want := []string{"a.go:3:5 shardsafe", "a.go:6:2 maprange", "b.go:5:33 walltime"}
	if !slices.Equal(got, want) {
		t.Errorf("findings %v, want %v", got, want)
	}
}

// TestRunVetRejectsBadInput: a module or package the loader cannot load is
// an error and exit status 1, never a clean run over fewer packages.
func TestRunVetRejectsBadInput(t *testing.T) {
	cases := []struct {
		name     string
		files    map[string]string // nil: a directory with no go.mod above it
		patterns []string
		want     string
	}{
		{"no module", nil, nil, "no go.mod found"},
		{"no module directive", map[string]string{"go.mod": "go 1.21\n", "sim/sim.go": "package sim\n"},
			nil, "no module directive"},
		{"unknown package", map[string]string{"sim/sim.go": "package sim\n"},
			[]string{"./nosuch"}, `cannot resolve package "vetprobe/nosuch"`},
		{"unknown tree", map[string]string{"sim/sim.go": "package sim\n"},
			[]string{"./nosuch/..."}, "no such file or directory"},
		{"syntax error", map[string]string{"sim/sim.go": "package sim\n\nfunc {\n"},
			nil, "expected"},
		{"type error in a dependency", map[string]string{
			"dep/dep.go":   "package dep\n\nvar X int = \"s\"\n",
			"user/user.go": "package user\n\nimport \"vetprobe/dep\"\n\nvar Y = dep.X\n",
		}, []string{"./user"}, "cannot use"},
		{"import cycle", map[string]string{
			"a/a.go": "package a\n\nimport \"vetprobe/b\"\n\nvar X = b.Y\n",
			"b/b.go": "package b\n\nimport \"vetprobe/a\"\n\nvar Y = a.X\n",
		}, nil, "import cycle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.files != nil {
				dir = writeModule(t, c.files)
			}
			var out bytes.Buffer
			if code := vet(&out, dir, "", c.patterns); code != 1 || !strings.Contains(out.String(), c.want) {
				t.Errorf("exit %d, output %q; want 1 and %q", code, out.String(), c.want)
			}
		})
	}
}
