package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Verbs is the registry of legal `//nicwarp:<verb>` annotation verbs and
// their one-line meanings (see DESIGN.md §8). An annotation with a verb
// outside this table is a grammar error: a typo in a suppression is worse
// than no suppression, because the author believes the invariant is
// sanctioned while the analyzer silently keeps flagging (or, for a
// misspelled owning field, silently stops checking a transfer the author
// meant to declare).
var Verbs = map[string]string{
	"wallclock": "sanctioned wall-clock read (progress meters, log stamps)",
	"ordered":   "order-insensitive map iteration (commutative fold, pure deletion)",
	"finite":    "VTime operands provably below Infinity at this site",
	"deepcopy":  "SaveState snapshot shares no mutable storage with live state",
	"owns":      "field/function takes ownership of pooled objects stored or passed in",
	"grows":     "call may grow a //nicwarp:owns arena; interior pointers die here",
	"hotpath":   "function (and everything it calls) must be allocation-free",
	"sharded":   "package-level state reviewed for the deterministic-sharding plan",
	"alloc":     "sanctioned allocation on a hot path (amortized growth, pool miss)",
}

// AnnotationSet holds every well-formed annotation of one package, indexed
// for the same-line-or-line-above lookup the grammar defines, plus the
// grammar errors encountered while parsing.
type AnnotationSet struct {
	// byLine maps file name and line to the verbs anchored there.
	byLine map[string]map[int][]string
	errs   []Diagnostic
}

// CollectAnnotations parses every `//nicwarp:` comment in files. Malformed
// annotations (empty or unknown verb, missing reason) are recorded as
// diagnostics retrievable via Errors; they do not suppress anything.
func CollectAnnotations(fset *token.FileSet, files []*ast.File) *AnnotationSet {
	s := &AnnotationSet{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, "//nicwarp:")
				if !ok {
					continue
				}
				verb, err := parseAnnotation(rest)
				if err != nil {
					s.errs = append(s.errs, Diagnostic{Pos: c.Slash, Message: err.Error()})
					continue
				}
				pos := fset.Position(c.Slash)
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], verb)
			}
		}
	}
	return s
}

// parseAnnotation parses the text after "//nicwarp:" and returns its verb.
// The grammar is `<verb> <reason>`: a known verb followed by a non-empty
// free-text reason.
func parseAnnotation(text string) (string, error) {
	verb, reason, _ := strings.Cut(text, " ")
	verb = strings.TrimSpace(verb)
	reason = strings.TrimSpace(reason)
	if verb == "" {
		return "", fmt.Errorf("//nicwarp: annotation without a verb; grammar is //nicwarp:<verb> <reason>")
	}
	if _, known := Verbs[verb]; !known {
		return "", fmt.Errorf("unknown //nicwarp:%s annotation verb (known: %s); "+
			"a misspelled verb suppresses nothing", verb, strings.Join(VerbNames(), ", "))
	}
	if reason == "" {
		return "", fmt.Errorf("//nicwarp:%s without a reason; the reason is the "+
			"reviewable justification and is required", verb)
	}
	return verb, nil
}

// VerbNames returns the registered verbs in sorted order.
func VerbNames() []string {
	names := make([]string, 0, len(Verbs))
	for v := range Verbs {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}

// At reports whether the construct at pos carries a well-formed annotation
// with the given verb: on the same source line or the line immediately
// above, the lookup rule the grammar has always used.
func (s *AnnotationSet) At(fset *token.FileSet, pos token.Pos, verb string) bool {
	p := fset.Position(pos)
	lines := s.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, v := range lines[line] {
			if v == verb {
				return true
			}
		}
	}
	return false
}

// Errors returns the grammar errors found while parsing, as diagnostics at
// the offending comments.
func (s *AnnotationSet) Errors() []Diagnostic { return s.errs }

// CheckAnnotations returns the annotation-grammar diagnostics for one
// package. Drivers report them under the pseudo-analyzer name "annotation"
// so a typoed verb fails vet instead of silently suppressing nothing.
func CheckAnnotations(pkg *Package) []Diagnostic {
	return CollectAnnotations(pkg.Fset, pkg.Files).Errors()
}
