// Package annotations exercises simlint's annotation hygiene: malformed
// ownership annotations and //simlint: comments with an unknown word are
// findings of the pseudo-analyzer "simlint" in every package, whichever
// analyzers run. A misspelt annotation must never silently drop the
// protection it was meant to declare.
package annotations

//simlint:owner stack // want `simlint:owner needs the owner class "sim"`
type stack struct{ n int }

// typo meant to be owned sim state; the misspelling leaves it unprotected,
// so the directive itself is the finding.
//
//simlint:ownr sim // want `unknown directive "//simlint:ownr"`
type typo struct{ n int }

// dispatch carries a retired phase annotation. Prose that mentions
// //simlint:allowed mid-comment is not a directive and is not flagged.
//
//simlint:phase dispatch // want `unknown directive "//simlint:phase"`
func dispatch() {}

//simlint:attachpoint // want `simlint:attachpoint has no reason`
func (s *stack) attach() { s.n++ }

func floating(t *typo) {
	//simlint:owner sim // want `simlint:owner directive is not attached to a top-level type, field or function declaration`
	t.n++
}

//simlint:allowed wallclock an old spelling // want `unknown directive "//simlint:allowed"`
var _ = dispatch
