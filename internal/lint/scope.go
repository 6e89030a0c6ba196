package lint

import (
	"path/filepath"
	"strings"

	"skyloft/internal/det"
)

// Scope configuration: which packages each analyzer patrols, and the few
// files whose whole purpose exempts them from a specific check. Everything
// here is deliberately narrow — the default is "in scope", and one-off
// exceptions belong in //simlint:allow directives next to the code they
// excuse, where reviewers can see the reason.

// moduleScope reports pkgPath is inside this module (fixtures are loaded
// under synthetic skyloft/... paths so they land in scope too).
func moduleScope(pkgPath string) bool {
	return pkgPath == "skyloft" || strings.HasPrefix(pkgPath, "skyloft/")
}

// realConcurrencyScope is moduleScope minus the packages whose job is real
// host concurrency: internal/proc's coroutine pool is the blessed home of
// goroutine spawning and channel handoff, so gospawn and selectorder do not
// apply there.
func realConcurrencyScope(pkgPath string) bool {
	return moduleScope(pkgPath) && pkgPath != "skyloft/internal/proc"
}

// notSimtimeScope is moduleScope minus internal/simtime itself, which
// defines the typed constants durationlit forces everyone else to use.
func notSimtimeScope(pkgPath string) bool {
	return moduleScope(pkgPath) && pkgPath != "skyloft/internal/simtime"
}

// observerGrade reports pkgPath is an observability layer (internal/obs
// subtree): attach-only readers of sim state, patrolled by attachonly.
// Fixtures load under synthetic skyloft/internal/obs/... paths to opt in.
func observerGrade(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "skyloft/internal/obs/") ||
		pkgPath == "skyloft/internal/obs"
}

// fileAllowlist maps analyzer name -> module-relative files (slash paths)
// where findings are suppressed wholesale, with the reason reviewers see.
var fileAllowlist = map[string]map[string]string{
	"gospawn": {
		// The bounded sweep pool is the one sanctioned fan-out: each job is
		// a self-contained simulation, and results are returned in input
		// order, so host interleaving cannot reach any sim state.
		"internal/bench/sweep.go": "bench.Sweep is the sanctioned parallel-trial pool",
	},
}

func allowlisted(analyzer, filename string) (reason string, ok bool) {
	files := fileAllowlist[analyzer]
	if files == nil {
		return "", false
	}
	slash := filepath.ToSlash(filename)
	for _, suffix := range det.SortedKeys(files) {
		if slash == suffix || strings.HasSuffix(slash, "/"+suffix) {
			return files[suffix], true
		}
	}
	return "", false
}
