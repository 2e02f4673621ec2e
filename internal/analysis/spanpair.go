package analysis

import (
	"go/ast"
	"go/types"
)

// SpanPair returns the analyzer that pairs span begins with ends:
// every call producing a Span from one of the given packages
// (telemetry's Registry.Start and Span.Child, the trace root
// Registry.StartTrace, and anything added later with that result
// type) must either have its End called — directly or deferred —
// somewhere in the enclosing declaration, or visibly escape (returned,
// passed to another function, stored in a struct), in which case the
// receiver owns the End. A span whose result is discarded on the spot
// can never be ended and always leaks an open stage timer. Calls
// returning a span inside a tuple, like Registry.Start's (ctx, span),
// are checked on the span element.
//
// telemetry.FromContext, which borrows the context's already-open span
// rather than starting one, is exempt: its caller observes a span
// someone else owns and must NOT end it.
//
// spanPkgs are the package paths defining a Span type
// (fillvoid/internal/telemetry for the real suite; fixtures substitute
// their own).
func SpanPair(spanPkgs ...string) *Analyzer {
	return &Analyzer{
		Name: "spanpair",
		Doc:  "every span begin has a matching End (or visibly escapes to an owner)",
		Run: func(pass *Pass) {
			// The defining packages themselves construct spans internally.
			for _, p := range spanPkgs {
				if pass.Pkg.Path == p {
					return
				}
			}
			for _, f := range pass.Pkg.Files {
				funcBodies(f, func(name string, body *ast.BlockStmt) {
					checkSpansInBody(pass, spanPkgs, name, body)
				})
			}
		},
	}
}

// checkSpansInBody inspects one declaration body (closures included)
// for span-producing calls and verifies each is ended or escapes.
func checkSpansInBody(pass *Pass, spanPkgs []string, funcName string, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	isSpanType := func(t types.Type) bool {
		for _, p := range spanPkgs {
			if isNamedType(t, p, "Span") {
				return true
			}
		}
		return false
	}

	// borrowsSpan reports whether the call merely retrieves an existing
	// span (owned and ended elsewhere) instead of starting a new one.
	borrowsSpan := func(call *ast.CallExpr) bool {
		var name string
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		return name == "FromContext"
	}

	// spanResultIndex locates the span element in a call's results:
	// (index, result count), index -1 when the call produces no span.
	spanResultIndex := func(call *ast.CallExpr) (idx, nres int) {
		if borrowsSpan(call) {
			return -1, 0
		}
		t := pass.TypeOf(call)
		if t == nil {
			return -1, 0
		}
		if tup, ok := t.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				if isSpanType(tup.At(i).Type()) {
					return i, tup.Len()
				}
			}
			return -1, tup.Len()
		}
		if isSpanType(t) {
			return 0, 1
		}
		return -1, 1
	}

	// First pass: collect objects that have End called on them and
	// objects that escape (used outside a start/End/Child position).
	ended := make(map[types.Object]bool)
	escaped := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SelectorExpr:
			id, ok := ast.Unparen(node.X).(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || !isSpanType(obj.Type()) {
				return true
			}
			switch node.Sel.Name {
			case "End":
				ended[obj] = true
			case "Child", "Path", "SetAttr", "SetError", "TraceID", "ID", "Traceparent":
				// Reading from or annotating the span keeps it open;
				// neither ends nor transfers ownership. (Child's
				// result is itself a span the second pass checks.)
			default:
				escaped[obj] = true
			}
		case *ast.Ident:
			// A bare (non-selector) use of a span variable — argument,
			// return value, composite literal, assignment RHS — hands
			// it to someone else; that owner is responsible for End.
			obj := info.Uses[node]
			if obj != nil && isSpanType(obj.Type()) {
				if !partOfSelector(body, node) {
					escaped[obj] = true
				}
			}
		}
		return true
	})

	// Second pass: every span-producing call must land in an ended or
	// escaped variable, or be ended/consumed directly.
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(node.X).(*ast.CallExpr); ok {
				if idx, _ := spanResultIndex(call); idx >= 0 {
					pass.Reportf(call.Pos(), "span result discarded in %s; it can never be ended — assign it and call End (or defer it)", funcName)
					return false // the call itself needs no further inspection
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				idx, nres := spanResultIndex(call)
				if idx < 0 {
					continue
				}
				// Resolve which LHS expression receives the span: 1:1
				// assignment, or the span element of a tuple-returning
				// call like Registry.Start's (ctx, span).
				var lhs ast.Expr
				switch {
				case len(node.Lhs) == len(node.Rhs):
					if nres != 1 {
						continue
					}
					lhs = node.Lhs[i]
				case len(node.Rhs) == 1 && len(node.Lhs) == nres:
					lhs = node.Lhs[idx]
				default:
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue // stored into a field/index: escapes
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "span assigned to _ in %s; it can never be ended", funcName)
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if !ended[obj] && !escaped[obj] {
					pass.Reportf(call.Pos(), "span %s started in %s but never ended; call %s.End() on every path (defer works)", id.Name, funcName, id.Name)
				}
			}
		}
		return true
	})
}

// partOfSelector reports whether id occurs as the X of a selector
// expression somewhere in body (sp.End, sp.Child, ...), in which case
// the selector case above already classified the use.
func partOfSelector(body *ast.BlockStmt, id *ast.Ident) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if inner, ok := ast.Unparen(sel.X).(*ast.Ident); ok && inner == id {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
