package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"skyloft/internal/det"
)

// Suppression directives. A finding is excused by writing
//
//	//simlint:allow <analyzer> <reason>
//
// at the end of the offending line, on its own line immediately above it,
// or in the doc comment of a function or declaration group to cover the
// whole declaration. The reason is mandatory: an allow with no reason, or
// naming an analyzer that does not exist, is itself reported — annotation
// hygiene is part of the repo-wide zero-findings invariant.

const directivePrefix = "//simlint:"

type directive struct {
	analyzer string
	reason   string
}

// lineRange is an inclusive line interval within one file.
type lineRange struct {
	start, end int
	directive
	pos  token.Position
	used bool // matched at least one finding this run
}

// suppressor indexes every directive in a package by file and line span.
type suppressor struct {
	byFile map[string][]*lineRange
	// issues are directive-hygiene findings (missing reason, unknown
	// analyzer); they are never themselves suppressible.
	issues []Diagnostic
}

func collectDirectives(pkg *Package, known map[string]bool) *suppressor {
	s := &suppressor{byFile: map[string][]*lineRange{}}
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename

		// Doc-comment directives cover their whole declaration.
		docSpan := map[*ast.CommentGroup]lineRange{}
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				docSpan[doc] = lineRange{
					start: pkg.Fset.Position(decl.Pos()).Line,
					end:   pkg.Fset.Position(decl.End()).Line,
				}
			}
		}

		for _, group := range f.Comments {
			for _, c := range group.List {
				dir, hygiene, ok := parseDirective(c.Text, known)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if hygiene != "" {
					s.issues = append(s.issues, Diagnostic{
						Analyzer: "simlint",
						Pos:      pos,
						Message:  hygiene,
					})
					continue
				}
				span := &lineRange{start: pos.Line, end: pos.Line + 1, directive: dir, pos: pos}
				if ds, isDoc := docSpan[group]; isDoc {
					span.start, span.end = ds.start, ds.end
				}
				s.byFile[filename] = append(s.byFile[filename], span)
			}
		}
	}
	return s
}

// parseDirective decodes one comment. ok reports it is a simlint directive
// at all; hygiene is non-empty when the directive is malformed. Every line
// comment that starts with //simlint: is one; the ownership words are
// decoded by collectAnnots, and any other word is a hygiene finding.
func parseDirective(text string, known map[string]bool) (directive, string, bool) {
	// Fixture files pair a directive with a "// want" expectation on the
	// same comment; everything from that marker on belongs to the harness.
	if i := strings.Index(text, "// want"); i > 0 {
		text = strings.TrimSpace(text[:i])
	}
	rest, found := strings.CutPrefix(text, directivePrefix)
	if !found {
		return directive{}, "", false
	}
	fields := strings.Fields(rest)
	word := ""
	if len(fields) > 0 && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		word, fields = fields[0], fields[1:]
	}
	switch word {
	case "allow":
	case "owner", "attachpoint", "readonly":
		return directive{}, "", false // ownership annotation (annot.go)
	default:
		// A misspelt word must not silently drop the protection it was
		// meant to declare: //simlint:ownr on a type fails open.
		return directive{}, `unknown directive "` + directivePrefix + word +
			`"; simlint knows allow, owner, attachpoint and readonly`, true
	}
	if len(fields) == 0 {
		return directive{}, "simlint:allow directive names no analyzer", true
	}
	name := fields[0]
	if !known[name] {
		return directive{}, `simlint:allow names unknown analyzer "` + name + `"`, true
	}
	if len(fields) < 2 {
		return directive{}, "simlint:allow " + name + " has no reason; explain why the finding is safe", true
	}
	return directive{analyzer: name, reason: strings.Join(fields[1:], " ")}, "", true
}

// match reports whether a finding by analyzer at pos is covered by a
// directive, and the recorded reason.
func (s *suppressor) match(analyzer string, pos token.Position) (string, bool) {
	for _, span := range s.byFile[pos.Filename] {
		if span.analyzer == analyzer && pos.Line >= span.start && pos.Line <= span.end {
			span.used = true
			return span.reason, true
		}
	}
	return "", false
}

// stale returns a hygiene finding for every well-formed directive that
// matched zero diagnostics this run. Only analyzers in the active set —
// those that ran on this package — are audited: a partial run (fixture
// harness, a filtered driver invocation) or an out-of-scope package never
// flags directives belonging to analyzers that did not patrol it.
func (s *suppressor) stale(active map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, file := range det.SortedKeys(s.byFile) {
		for _, span := range s.byFile[file] {
			if span.used || !active[span.analyzer] {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: "simlint",
				Pos:      span.pos,
				Message: "simlint:allow " + span.analyzer +
					" matched no finding; the exception is stale — remove it or move it to the code it excuses",
			})
		}
	}
	return out
}
