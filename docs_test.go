package nicwarp

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the results blocks EXPERIMENTS.md quotes from results/")

// quoteOpen matches the line that opens a quoted results block and captures
// the file it names; "<!-- /results/F.txt -->" closes it.
var quoteOpen = regexp.MustCompile(`(?m)^<!-- (results/[\w.-]+\.txt) -->\n`)

// TestExperimentsQuoteResults keeps the prose honest about the numbers:
// every table EXPERIMENTS.md shows from results/ sits between
// "<!-- results/F.txt -->" and "<!-- /results/F.txt -->" and equals F byte
// for byte, every registry entry's table is quoted, and no marker names a
// missing file. `go test -run TestExperimentsQuoteResults -update`
// rewrites the blocks from results/; nothing else writes them.
func TestExperimentsQuoteResults(t *testing.T) {
	const doc = "EXPERIMENTS.md"
	src, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	seen := make(map[string]bool)
	rest := src
	for {
		loc := quoteOpen.FindSubmatchIndex(rest)
		if loc == nil {
			out.Write(rest)
			break
		}
		name := string(rest[loc[2]:loc[3]])
		out.Write(rest[:loc[1]])
		rest = rest[loc[1]:]
		end := bytes.Index(rest, []byte("<!-- /"+name+" -->\n"))
		if end < 0 {
			t.Fatalf("%s: block <!-- %s --> is never closed by <!-- /%s -->", doc, name, name)
		}
		body := string(rest[:end])
		rest = rest[end:]
		seen[name] = true
		table, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("%s: a marker names a file that does not exist: %v", doc, err)
			out.WriteString(body)
			continue
		}
		// A quoted table is fenced and verbatim.
		if want := "```\n" + string(table) + "```\n"; body != want {
			if !*update {
				t.Errorf("%s: the block for %s differs from the file (go test -run TestExperimentsQuoteResults -update rewrites it)\n"+
					"--- quoted ---\n%s--- %s ---\n%s", doc, name, body, name, want)
			}
			body = want
		}
		out.WriteString(body)
	}
	for _, e := range Experiments() {
		if name := "results/" + e.Output + ".txt"; !seen[name] {
			t.Errorf("%s quotes no block for %s (registry entry %s)", doc, name, e.Name)
		}
	}
	if *update && !bytes.Equal(out.Bytes(), src) {
		if err := os.WriteFile(doc, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
