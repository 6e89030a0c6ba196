package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` over a map when the loop body can publish the
// iteration order: Go randomizes map order per run, so any order the body
// lets escape — an append to an outer slice, a write to outer state, a
// trace/print/emit call, an early return — lands in sim state, JSON
// output, or a determinism hash in a different order each run. The
// byte-determinism tests only cover the default seed and config; ordering
// bugs lurk on every other path until they flip a golden hash.
//
// The analyzer permits bodies whose visible effects are order-independent
// by construction: commutative-associative accumulation into integers
// (`n++`, `total += d`, `bits |= m`) commutes exactly, unlike float or
// string accumulation. So do writes `m[k] = …` keyed by the range key k
// into a map the body reads only at [k]: each iteration touches its own
// entry, and distinct keys never collide. Everything else must iterate
// det.SortedKeys(m), or carry a //simlint:allow maporder with a reason.
var MapOrder = &Analyzer{
	Name:    "maporder",
	Doc:     "forbid map ranges whose body publishes iteration order; iterate det.SortedKeys instead",
	InScope: moduleScope,
	Run:     runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(rs.X); t == nil || !isMapType(t) {
				return true
			}
			if why, pos := orderEscape(pass, rs); why != "" {
				pass.Reportf(pos,
					"map iteration order escapes (%s); map order is randomized per run — iterate det.SortedKeys(m) or justify with //simlint:allow maporder", why)
			}
			return true
		})
	}
}

// isMapType reports whether ranging a value of type t iterates a map. A
// plain map underlying is the common case; a generic type parameter ranges
// a map exactly when every structural term of its constraint is a map
// (e.g. det.SortedKeys's own M ~map[K]V — found stale-allow audit, PR 9:
// the type-param case used to slip through, leaving generic map ranges
// unpatrolled and the det.go directive dead).
func isMapType(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Map); ok {
		return true
	}
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return false
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	found := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		u, ok := iface.EmbeddedType(i).(*types.Union)
		if !ok {
			continue
		}
		for j := 0; j < u.Len(); j++ {
			if _, ok := u.Term(j).Type().Underlying().(*types.Map); !ok {
				return false
			}
			found = true
		}
	}
	return found
}

// orderEscape scans a map-range body for the first construct that lets
// iteration order escape, returning a human-readable reason ("" when the
// body is order-safe). One finding per loop, anchored at the range
// statement — where the det.SortedKeys fix goes.
func orderEscape(pass *Pass, rs *ast.RangeStmt) (why string, pos token.Pos) {
	pos = rs.Pos()
	keyed := keyedMaps(pass, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			why = "the body returns mid-iteration"
		case *ast.SendStmt:
			why = "the body sends on a channel"
		case *ast.GoStmt:
			why = "the body spawns a goroutine"
		case *ast.DeferStmt:
			why = "the body defers a call"
		case *ast.BranchStmt:
			// break/continue choose *which* iterations run — only breaks
			// that abandon the loop are order-sensitive on their own, and
			// they matter exactly when paired with an escape the other
			// cases already catch. Let them pass.
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, escapes := callEscapes(pass, rs, call); escapes {
					why = "the body calls " + name + " for effect"
				}
			}
		case *ast.IncDecStmt:
			if r := escapingWrite(pass, rs, st.X, true); r != "" {
				why = r
			}
		case *ast.AssignStmt:
			commutative := isCommutativeAssign(st.Tok)
			for _, lhs := range st.Lhs {
				if keyed.write(lhs, st.Rhs) {
					continue
				}
				if r := escapingWrite(pass, rs, lhs, commutative); r != "" {
					why = r
					break
				}
			}
		}
		return why == ""
	})
	return why, pos
}

// keyedWrites holds, for one map range, the uses of maps indexed exactly
// by the range key (m[k]) and the maps the body also uses any other way.
type keyedWrites struct {
	pass  *Pass
	atKey map[*ast.Ident]bool   // m in some m[k]
	other map[types.Object]bool // maps used other than as m[k]
}

// keyedMaps collects the range statement's m[k] uses, where k is the key
// the range statement declares. It returns nil, accepting no keyed write,
// when the range has no declared key or the body assigns k or takes its
// address: a rewritten k can make two iterations collide.
func keyedMaps(pass *Pass, rs *ast.RangeStmt) *keyedWrites {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Tok != token.DEFINE {
		return nil
	}
	k := pass.Info.Defs[key]
	if k == nil {
		return nil
	}
	kw := &keyedWrites{pass: pass, atKey: map[*ast.Ident]bool{}, other: map[types.Object]bool{}}
	isKey := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && pass.Info.Uses[id] == k
	}
	reassigned := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if m, ok := x.X.(*ast.Ident); ok && isKey(x.Index) && isMapType(pass.Info.TypeOf(m)) {
				kw.atKey[m] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				reassigned = reassigned || isKey(lhs)
			}
		case *ast.IncDecStmt:
			reassigned = reassigned || isKey(x.X)
		case *ast.UnaryExpr:
			reassigned = reassigned || (x.Op == token.AND && isKey(x.X))
		case *ast.RangeStmt:
			reassigned = reassigned || (x.Tok == token.ASSIGN && (isKey(x.Key) || isKey(x.Value)))
		}
		return true
	})
	if reassigned {
		return nil
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !kw.atKey[id] {
			if obj := pass.Info.Uses[id]; obj != nil && isMapType(obj.Type()) {
				kw.other[obj] = true
			}
		}
		return true
	})
	return kw
}

// write reports whether assigning lhs (from rhs) is an order-safe keyed
// write: lhs is exactly m[k] for a map m the body uses only at [k], and no
// right-hand side appends — values of distinct keys may share a backing
// array.
func (kw *keyedWrites) write(lhs ast.Expr, rhs []ast.Expr) bool {
	if kw == nil {
		return false
	}
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	m, ok := ix.X.(*ast.Ident)
	if !ok || !kw.atKey[m] || kw.other[kw.pass.Info.Uses[m]] {
		return false
	}
	for _, e := range rhs {
		appends := false
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := kw.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						appends = true
					}
				}
			}
			return !appends
		})
		if appends {
			return false
		}
	}
	return true
}

// isCommutativeAssign reports whether the assignment operator folds the old
// value with a commutative-associative operation, making the final result
// order-independent *for integer operands* (float addition is not
// associative; string += is concatenation).
func isCommutativeAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN, token.MUL_ASSIGN:
		return true
	}
	return false
}

// escapingWrite reports why writing through lhs publishes iteration order,
// or "" when it does not: writes to objects declared inside the range
// statement are invisible outside an iteration, and commutative integer
// accumulation into outer state is order-independent.
func escapingWrite(pass *Pass, rs *ast.RangeStmt, lhs ast.Expr, commutative bool) string {
	base := baseIdent(lhs)
	if base == nil {
		return "the body writes through a computed expression"
	}
	if base.Name == "_" {
		return ""
	}
	obj := pass.Info.Uses[base]
	if obj == nil {
		obj = pass.Info.Defs[base]
	}
	if obj == nil {
		return ""
	}
	if p := obj.Pos(); rs.Pos() <= p && p < rs.End() {
		return "" // loop-local
	}
	if commutative {
		if t := pass.Info.TypeOf(lhs); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return "" // commutative integer accumulation
			}
		}
	}
	return "the body writes to " + quoteName(base.Name) + " declared outside the loop"
}

// callEscapes decides whether a statement-position call can publish order.
// A call whose receiver chain roots at a loop-local object mutates private
// state; everything else (package functions like fmt.Fprintf or
// trace.Emit, methods on outer objects, builtins like delete on an outer
// map) is assumed to have an order-sensitive effect — a discarded result
// with no effect would be dead code.
func callEscapes(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) (string, bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		// Builtins: panic aborts everything (no order to publish beyond
		// the message, but flagging panics in cleanup loops is noise);
		// delete/clear/close on loop-local targets is private.
		switch fun.Name {
		case "panic", "print", "println":
			return fun.Name, fun.Name != "panic"
		case "delete", "clear", "close", "copy":
			if len(call.Args) > 0 {
				if base := baseIdent(call.Args[0]); base != nil {
					if obj := pass.Info.Uses[base]; obj != nil {
						if p := obj.Pos(); rs.Pos() <= p && p < rs.End() {
							return "", false
						}
					}
				}
			}
			return fun.Name, true
		}
		return fun.Name, true
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if path := pkgPathOfSelector(pass, fun); path != "" {
			return path + "." + name, true
		}
		if base := baseIdent(fun.X); base != nil {
			if obj := pass.Info.Uses[base]; obj != nil {
				if p := obj.Pos(); rs.Pos() <= p && p < rs.End() {
					return "", false // method on a loop-local value
				}
			}
			return base.Name + "." + name, true
		}
		return name, true
	}
	return "a computed function", true
}

// baseIdent unwraps parens, stars, selectors and indexes down to the root
// identifier of an lvalue or receiver chain (nil when the root is not an
// identifier, e.g. a call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func quoteName(s string) string { return `"` + s + `"` }

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
