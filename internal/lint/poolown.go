package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolOwnAnalyzer enforces the ownership contracts of the pooled hot path:
//
//   - grab/release pairing: a value obtained from a Get/Put-shaped pool
//     helper (a method whose name pairs with a release-shaped sibling on the
//     same receiver taking exactly that value back) must be released, stored,
//     returned, or handed to another function before the grabbing function
//     falls off the end. A pooled struct that is grabbed, used locally and
//     then dropped leaks from the pool — the bug class the runtime
//     PoolBalance audit catches only after the fact.
//   - nothing after release: once a value has gone back through a
//     release-shaped helper, the statements that follow in the same block
//     may not touch it again — a second release (the pool would hand the
//     struct to two owners; a reference-counted one such as the merged
//     barrier clock would lose a reader's share) or any other use. The same
//     goes for a local view of a field or method marked //dsmlint:payload: a
//     payload buffer stays with its pooled struct across release and is
//     overwritten by the struct's next user, so whoever needs the words
//     later copies them out first.
//   - borrowed reports: a *Report returned by an OnAccess-shaped detector
//     method borrows its clock fields from per-state scratch buffers, valid
//     only until the next OnAccess call. Storing one — into a field, slice,
//     map, channel or composite literal — without .Clone() publishes memory
//     the detector is about to overwrite.
var PoolOwnAnalyzer = &Analyzer{
	Name: "poolown",
	Doc: "flag pooled structs that are grabbed but never released or handed off, " +
		"pooled structs and views of their payload buffers used after release, " +
		"and borrowed detector reports stored without Clone",
	Run: runPoolOwn,
}

var (
	grabPrefixes    = []string{"grab", "acquire", "get"}
	releasePrefixes = []string{"release", "put", "free", "recycle"}
)

func prefixSuffix(name string, prefixes []string) (string, bool) {
	lower := strings.ToLower(name)
	for _, pre := range prefixes {
		if strings.HasPrefix(lower, pre) {
			return name[len(pre):], true
		}
	}
	return "", false
}

func runPoolOwn(p *Pass) error {
	// The runtime above the core handles pooled records too (barrier
	// arrivals and releases), so the pass covers it as well.
	if !p.InCore() && !strings.HasSuffix(p.Pkg.Path(), "internal/dsm") {
		return nil
	}
	for _, f := range p.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkPoolPairing(fd)
			p.checkUseAfterRelease(fd)
			p.checkBorrowedReports(fd)
		}
	}
	return nil
}

// --- grab/release pairing ---

// poolGrab reports whether the call is to a pool-grab helper: its name is
// grab-shaped, it returns a value, and the receiver's method set contains a
// release-shaped method with the same name suffix taking exactly one
// parameter of the grabbed type. The suffix match is what keeps ordinary
// protocol methods (Get/Put data operations with unrelated signatures) out.
func (p *Pass) poolGrab(call *ast.CallExpr) (*types.Func, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
		return nil, false
	}
	suffix, ok := prefixSuffix(fn.Name(), grabPrefixes)
	if !ok {
		return nil, false
	}
	grabbed := sig.Results().At(0).Type()
	recv := recvNamed(sig.Recv().Type())
	if recv == nil {
		return nil, false
	}
	for i := 0; i < recv.NumMethods(); i++ {
		m := recv.Method(i)
		msuf, ok := prefixSuffix(m.Name(), releasePrefixes)
		if !ok || !strings.EqualFold(msuf, suffix) {
			continue
		}
		msig := m.Type().(*types.Signature)
		if msig.Params().Len() == 1 && types.Identical(msig.Params().At(0).Type(), grabbed) {
			return fn, true
		}
	}
	return nil, false
}

// poolRelease is poolGrab's mirror: the call hands its one argument back to
// a pool — a release-shaped method whose receiver also has a grab-shaped
// sibling, same name suffix, returning exactly the argument's type.
func (p *Pass) poolRelease(call *ast.CallExpr) (*types.Func, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return nil, false
	}
	suffix, ok := prefixSuffix(fn.Name(), releasePrefixes)
	if !ok {
		return nil, false
	}
	recv := recvNamed(sig.Recv().Type())
	if recv == nil {
		return nil, false
	}
	for i := 0; i < recv.NumMethods(); i++ {
		m := recv.Method(i)
		msuf, ok := prefixSuffix(m.Name(), grabPrefixes)
		if !ok || !strings.EqualFold(msuf, suffix) {
			continue
		}
		msig := m.Type().(*types.Signature)
		if msig.Results().Len() > 0 && types.Identical(msig.Results().At(0).Type(), sig.Params().At(0).Type()) {
			return fn, true
		}
	}
	return nil, false
}

func recvNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// checkPoolPairing flags pool grabs whose result is discarded or bound to a
// variable that is never consumed (released, passed whole to any call,
// stored, returned, sent, or captured by a closure) anywhere in the
// function.
func (p *Pass) checkPoolPairing(fd *ast.FuncDecl) {
	// grabVars maps the local object bound to a grab result to the grab call.
	grabVars := map[types.Object]*ast.CallExpr{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if fn, ok := p.poolGrab(call); ok {
					p.Reportf(call.Pos(), "pool leak: result of %s is discarded; the pooled struct can never be released", fn.Name())
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := p.poolGrab(call); !ok {
				return true
			}
			if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj := p.objOf(id); obj != nil {
					grabVars[obj] = call
				}
			}
		}
		return true
	})
	if len(grabVars) == 0 {
		return
	}
	consumed := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if obj := p.wholeIdent(arg); obj != nil {
					consumed[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if obj := p.wholeIdent(r); obj != nil {
					consumed[obj] = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if obj := p.wholeIdent(r); obj != nil {
					// Any re-assignment (alias, store into a field, slice or
					// global) transfers ownership as far as this local check
					// is concerned.
					if _, isGrabDef := r.(*ast.CallExpr); !isGrabDef {
						consumed[obj] = true
					}
				}
			}
		case *ast.SendStmt:
			if obj := p.wholeIdent(n.Value); obj != nil {
				consumed[obj] = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if obj := p.wholeIdent(e); obj != nil {
					consumed[obj] = true
				}
			}
		case *ast.FuncLit:
			// Anything a closure captures has unbounded lifetime; the
			// closure takes over the release obligation.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := p.objOf(id); obj != nil {
						consumed[obj] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
	for obj, call := range grabVars { //dsmlint:ordered diagnostics are position-sorted by the runner
		if !consumed[obj] {
			p.Reportf(call.Pos(), "pool leak: %s is grabbed from a pool but never released, returned, stored or handed off on any path", obj.Name())
		}
	}
}

// --- nothing after release ---

// checkUseAfterRelease flags, block by block, any mention of a released
// value — or of a local view of its payload buffer — in the statements that
// follow the release. The check is local to one statement list on purpose:
// a release on an early-return branch says nothing about the code after the
// branch.
func (p *Pass) checkUseAfterRelease(fd *ast.FuncDecl) {
	views := p.payloadViews(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			p.checkReleasedInList(n.List, views)
		case *ast.CaseClause:
			p.checkReleasedInList(n.Body, views)
		case *ast.CommClause:
			p.checkReleasedInList(n.Body, views)
		}
		return true
	})
}

// payloadViews maps each local bound to a payload view — `d := v.data`,
// `d := v.data[a:b]`, `d := v.payload(n)` where the field or method carries
// //dsmlint:payload — to the variable v whose struct owns the buffer.
func (p *Pass) payloadViews(fd *ast.FuncDecl) map[types.Object]types.Object {
	views := map[types.Object]types.Object{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, r := range asg.Rhs {
			id, ok := asg.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if owner := p.payloadOwner(r); owner != nil {
				if obj := p.objOf(id); obj != nil {
					views[obj] = owner
				}
			}
		}
		return true
	})
	return views
}

// payloadOwner returns the variable whose pooled struct owns the buffer the
// expression views, or nil when the expression is not a payload view.
func (p *Pass) payloadOwner(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			e = x.Fun
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	member := p.Info.Uses[sel.Sel]
	if member == nil || member.Pkg() != p.Pkg || !p.Annotated(member.Pos(), DirPayload) {
		return nil
	}
	return p.wholeIdent(sel.X)
}

func (p *Pass) checkReleasedInList(list []ast.Stmt, views map[types.Object]types.Object) {
	for i, st := range list {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := p.poolRelease(call)
		if !ok {
			continue
		}
		released := p.wholeIdent(call.Args[0])
		if released == nil {
			continue
		}
		p.flagUsesAfter(list[i+1:], released, fn, views)
	}
}

// flagUsesAfter reports the first mention of released (or of a view of its
// payload) in rest, stopping where the variable is bound to a new value.
func (p *Pass) flagUsesAfter(rest []ast.Stmt, released types.Object, by *types.Func, views map[types.Object]types.Object) {
	for _, st := range rest {
		scan := []ast.Node{st}
		rebound := false
		if asg, ok := st.(*ast.AssignStmt); ok {
			for _, l := range asg.Lhs {
				rebound = rebound || p.wholeIdent(l) == released
			}
			if rebound { // only the right-hand side still reads the old value
				scan = scan[:0]
				for _, r := range asg.Rhs {
					scan = append(scan, r)
				}
			}
		}
		for _, root := range scan {
			found := false
			ast.Inspect(root, func(n ast.Node) bool {
				found = found || p.flagUse(n, released, by, views)
				return !found
			})
			if found {
				return
			}
		}
		if rebound {
			return
		}
	}
}

// flagUse reports n if it mentions released or a view of its payload.
func (p *Pass) flagUse(n ast.Node, released types.Object, by *types.Func, views map[types.Object]types.Object) bool {
	if call, ok := n.(*ast.CallExpr); ok {
		if _, ok := p.poolRelease(call); ok && p.wholeIdent(call.Args[0]) == released {
			p.Reportf(call.Pos(), "double release: %s already went back to its pool through %s", released.Name(), by.Name())
			return true
		}
	}
	id, ok := n.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.objOf(id)
	switch {
	case obj == nil:
		return false
	case obj == released:
		p.Reportf(id.Pos(), "use after release: %s went back to its pool through %s and may already belong to someone else", released.Name(), by.Name())
		return true
	case views[obj] == released:
		p.Reportf(id.Pos(), "use after release: %s views the payload buffer of %s, which went back to its pool through %s — copy the words out first", obj.Name(), released.Name(), by.Name())
		return true
	}
	return false
}

// wholeIdent returns the object of an expression that denotes a tracked
// variable as a whole: `v` or `*v` (not `v.field`).
func (p *Pass) wholeIdent(e ast.Expr) types.Object {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return p.objOf(id)
}

func (p *Pass) objOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// --- borrowed reports ---

// onAccessCall reports whether the call is OnAccess-shaped: a method named
// OnAccess whose first result is a pointer to a struct type named Report.
// Matching by shape (rather than by the concrete core.AreaState type) keeps
// the check applicable to every detector implementation and to fixtures.
func (p *Pass) onAccessCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "OnAccess" {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Results().Len() == 0 {
		return false
	}
	ptr, ok := sig.Results().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Report" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// checkBorrowedReports flags stores of borrowed OnAccess reports that are
// not mediated by Clone.
func (p *Pass) checkBorrowedReports(fd *ast.FuncDecl) {
	// borrowed collects the objects bound to OnAccess's first result, plus
	// plain aliases of those (r2 := r).
	borrowed := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		if call, ok := asg.Rhs[0].(*ast.CallExpr); ok && p.onAccessCall(call) && len(asg.Lhs) >= 1 {
			if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj := p.objOf(id); obj != nil {
					borrowed[obj] = true
				}
			}
		}
		return true
	})
	// One alias sweep (aliases of aliases are rare enough to ignore; the
	// fixpoint would cost a loop for no observed benefit in this tree).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != len(asg.Lhs) {
			return true
		}
		for i, r := range asg.Rhs {
			if obj := p.wholeIdent(r); obj != nil && borrowed[obj] {
				if id, ok := asg.Lhs[i].(*ast.Ident); ok {
					if lobj := p.objOf(id); lobj != nil && !isHeapObj(lobj) {
						borrowed[lobj] = true
					}
				}
			}
		}
		return true
	})
	if len(borrowed) == 0 {
		return
	}
	flag := func(e ast.Expr, how string) {
		if obj := p.wholeIdent(e); obj != nil && borrowed[obj] {
			p.Reportf(e.Pos(), "borrowed report: %s aliases detector scratch buffers valid only until the next OnAccess; "+
				"%s it only via Clone()", obj.Name(), how)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, l := range n.Lhs {
				switch l := l.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					flag(n.Rhs[i], "store")
				case *ast.Ident:
					if obj := p.objOf(l); obj != nil && isHeapObj(obj) {
						flag(n.Rhs[i], "store")
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				for _, arg := range n.Args[min(1, len(n.Args)):] {
					flag(arg, "append")
				}
			}
		case *ast.SendStmt:
			flag(n.Value, "send")
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				flag(e, "store")
			}
		}
		return true
	})
}

// isHeapObj reports whether the object is a package-level variable (a store
// to it publishes the value).
func isHeapObj(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() != nil && v.Parent() == v.Pkg().Scope()
}
