package lint

import (
	"go/ast"
	"go/types"
)

// AttachOnly turns TestObservabilityDoesNotPerturb's dynamic proof into a
// compile-time one: observer-grade packages (internal/obs/...) are
// attach-only readers of sim state. They may not write owner-annotated
// fields, and they may not call (or take a method value of) a mutating
// method of an owner-annotated type. The sanctioned mutation surface is
// exactly the methods declared //simlint:attachpoint — tap registration
// and the like — which report as suppressed findings so the accounting
// stays visible. Interface methods of owned interfaces have no body to
// analyze, so they count as mutating unless asserted //simlint:readonly.
var AttachOnly = &Analyzer{
	Name: "attachonly",
	Doc: "observer-grade package mutating sim state: an owner-field write, or a " +
		"call to a non-attachpoint mutating method of an owned type",
	InScope: observerGrade,
	Run:     runAttachOnly,
}

func runAttachOnly(pass *Pass) {
	pkg := pass.Lpkg
	if pkg == nil || pkg.loader == nil {
		return
	}
	l := pkg.loader
	checkWrite := func(lhs ast.Expr) {
		if sel := ownedLValue(pass.Info, l, lhs); sel != nil {
			pass.Reportf(sel.Pos(),
				"observer-grade package writes sim-owned field %s; observability layers hold no sim state",
				sel.Sel.Name)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkWrite(lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(st.X)
			case *ast.SelectorExpr:
				checkMethodUse(pass, l, st)
			}
			return true
		})
	}
}

// checkMethodUse classifies one method selection (call or method value —
// both are reached through MethodVal selections) against the ownership
// annotations of the receiver's declaring package.
func checkMethodUse(pass *Pass, l *Loader, sel *ast.SelectorExpr) {
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return
	}
	tn := namedTypeName(s.Recv())
	if tn == nil {
		return
	}
	ann := l.annotsOfObj(tn)
	if ann == nil {
		return
	}
	if !ann.ownerType[tn] {
		return
	}
	if reason := l.attachReasonOf(fn); reason != "" {
		pass.ReportSuppressedf(sel.Sel.Pos(), reason,
			"observer uses attach point %s.%s", tn.Name(), fn.Name())
		return
	}
	if types.IsInterface(tn.Type().Underlying()) {
		if !l.readonlyIface(fn) {
			pass.Reportf(sel.Sel.Pos(),
				"observer calls %s.%s: method of an owned interface not asserted //simlint:readonly",
				tn.Name(), fn.Name())
		}
		return
	}
	if l.mutates(fn) {
		pass.Reportf(sel.Sel.Pos(),
			"observer calls mutating method %s.%s of an owned type",
			tn.Name(), fn.Name())
	}
}

// ownedLValue walks an lvalue chain (selectors, indexes, derefs, parens)
// from the written expression down to its root and returns the outermost
// field selection that reaches owned state, or nil. Ownership is looked up
// through the loader, so annotations of imported packages count.
func ownedLValue(info *types.Info, l *Loader, lhs ast.Expr) *ast.SelectorExpr {
	e := lhs
	for {
		switch x := unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal && l.ownedAt(s) {
				return x
			}
			e = x.X
		default:
			return nil
		}
	}
}
