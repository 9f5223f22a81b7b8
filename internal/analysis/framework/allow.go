package framework

import "strings"

// MatchPackage reports whether pkgPath matches the comma-separated
// allowlist patterns: each pattern is an exact import path or a `p/...`
// prefix pattern (which also matches p itself) — the go command's pattern
// convention, shared by the analyzers with a package allowlist.
func MatchPackage(allowlist, pkgPath string) bool {
	for _, pat := range strings.Split(allowlist, ",") {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if pkgPath == base || strings.HasPrefix(pkgPath, base+"/") {
				return true
			}
		} else if pkgPath == pat {
			return true
		}
	}
	return false
}
