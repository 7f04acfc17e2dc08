package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufDiscipline enforces the pooled-buffer ownership protocol module-wide:
// a buffer acquired from a pool (compress.GetBuf, the vector pool's
// tensor.GetVec, or a raw (*sync.Pool).Get) must, within the acquiring
// function, either be released back (PutBuf/PutVec/(*sync.Pool).Put —
// directly or via defer) on every path, or visibly
// transfer ownership (returned, stored into a struct/map/channel, passed to
// another function, captured by a closure). After a release the buffer must
// never be referenced again.
//
// One transfer is checked rather than assumed: a reply literal (a struct
// with Vec and FreeVec fields, the rpc.Response shape) takes ownership of a
// vector placed in Vec only when it also sets FreeVec — that mark is what
// makes the dispatcher release it. Without the mark the vector is still the
// function's to release, and the return is reported as a leak.
//
// The analysis is intraprocedural and flow-sensitive over structured control
// flow: an early `return err` between acquisition and release is reported as
// a leak on that path — the bug class the zero-alloc steady-state benchmarks
// only surface as a slow drift in allocation counts. It is deliberately
// conservative about aliasing: any use that could communicate the buffer to
// code outside the function counts as an ownership transfer and ends
// tracking, so diagnostics are high-confidence.
var BufDiscipline = &Analyzer{
	Name: "bufdiscipline",
	Doc: "pooled buffers (GetBuf/sync.Pool) must be released on every " +
		"non-escaping path and never used after release " +
		"(escape hatch: //lint:allow bufdiscipline(reason))",
	Run: runBufDiscipline,
}

func runBufDiscipline(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			bd := &bufCheck{pass: pass, parents: buildParents(body)}
			bd.scanBlock(body.List)
			return true
		})
	}
	return nil
}

// bufCheck runs the per-function analysis. parents maps every node in the
// function body to its syntactic parent, which the escape classifier climbs.
type bufCheck struct {
	pass    *Pass
	parents map[ast.Node]ast.Node
}

func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// scanBlock finds acquisitions in a statement list and tracks each through
// the remainder of the list. Nested blocks are scanned through the recursive
// walk in runBufDiscipline? No — nested acquisitions are found here too, by
// recursing into compound statements.
func (bd *bufCheck) scanBlock(stmts []ast.Stmt) {
	for i, s := range stmts {
		if obj, id := bd.acquisition(s); obj != nil {
			st := bd.track(stmts[i+1:], obj, id.Pos(), stHeld)
			if st == stHeld {
				bd.pass.Reportf(id.Pos(),
					"pool buffer %q is never released (PutBuf/Put) and never escapes this function", id.Name)
			}
		}
		// Recurse into compound statements so acquisitions at any nesting
		// depth are tracked within their own scope. Function literals are
		// handled by the top-level Inspect.
		switch s := s.(type) {
		case *ast.BlockStmt:
			bd.scanBlock(s.List)
		case *ast.IfStmt:
			bd.scanBlock(s.Body.List)
			if els, ok := s.Else.(*ast.BlockStmt); ok {
				bd.scanBlock(els.List)
			} else if els, ok := s.Else.(*ast.IfStmt); ok {
				bd.scanBlock([]ast.Stmt{els})
			}
		case *ast.ForStmt:
			bd.scanBlock(s.Body.List)
		case *ast.RangeStmt:
			bd.scanBlock(s.Body.List)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				bd.scanBlock(c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				bd.scanBlock(c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				bd.scanBlock(c.(*ast.CommClause).Body)
			}
		case *ast.LabeledStmt:
			bd.scanBlock([]ast.Stmt{s.Stmt})
		}
	}
}

// tracking status of one acquisition through one path.
type bufStatus int

const (
	stHeld     bufStatus = iota // buffer owned, release still due
	stReleased                  // released on the straight-line path
	stMaybe                     // released on some but not all joined paths
	stDone                      // escaped, deferred-released, or reassigned: no further obligations
)

// track walks the statements following an acquisition and returns the status
// at fall-through. Leaks at return statements are reported as they are found.
func (bd *bufCheck) track(stmts []ast.Stmt, obj types.Object, acq token.Pos, st bufStatus) bufStatus {
	for _, s := range stmts {
		if st == stDone {
			return st
		}
		st = bd.trackStmt(s, obj, acq, st)
	}
	return st
}

func (bd *bufCheck) trackStmt(s ast.Stmt, obj types.Object, acq token.Pos, st bufStatus) bufStatus {
	// Use-after-release: on the straight-line released path, any further
	// mention of the buffer — including a second release — is a bug. A plain
	// reassignment (`buf = GetBuf(n)` after the release) rebinds the name to
	// a fresh buffer and is exempt; scanBlock tracks it as its own
	// acquisition.
	if st == stReleased && bd.mentions(s, obj) && !bd.reassignsOnly(s, obj) {
		if _, ok := s.(*ast.DeferStmt); !ok {
			bd.pass.Reportf(firstMention(bd.pass.TypesInfo, s, obj),
				"pool buffer %q used after release: the pool may have re-issued it", obj.Name())
			return stDone // one report per acquisition; avoid cascades
		}
	}

	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && bd.isRelease(call, obj) {
			return stReleased
		}
	case *ast.DeferStmt:
		if bd.isRelease(s.Call, obj) {
			return stDone // deferred release covers every path from here on
		}
	case *ast.AssignStmt:
		// Reassignment of the tracked variable itself: `buf = append(buf,..)`
		// and `buf = buf[:n]` keep ownership; anything else rebinds the name
		// and ends tracking (a held buffer dropped this way is beyond an
		// intraprocedural checker's certainty).
		for i, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && bd.pass.TypesInfo.Uses[id] == obj {
				if st == stHeld && i < len(s.Rhs) && selfDerived(bd.pass.TypesInfo, s.Rhs[i], obj) {
					return st
				}
				return stDone
			}
		}
	case *ast.ReturnStmt:
		if st == stHeld {
			if bd.escapes(s, obj) {
				return stDone // ownership returned to the caller
			}
			bd.pass.Reportf(s.Return,
				"pool buffer %q (acquired at line %d) is not released on this return path",
				obj.Name(), bd.pass.Fset.Position(acq).Line)
		}
		return stDone
	case *ast.BlockStmt:
		return bd.track(s.List, obj, acq, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = bd.trackStmt(s.Init, obj, acq, st)
		}
		if st == stHeld && bd.escapes(s.Cond, obj) {
			return stDone
		}
		thenSt := bd.track(s.Body.List, obj, acq, st)
		elseSt := st
		if s.Else != nil {
			elseSt = bd.trackStmt(s.Else, obj, acq, st)
		}
		return joinStatus(thenSt, elseSt)
	case *ast.ForStmt:
		for _, h := range []ast.Node{nodeOrNil(s.Init), nodeOrNil(s.Cond), nodeOrNil(s.Post)} {
			if h != nil && st == stHeld && bd.escapes(h, obj) {
				return stDone // escaping use in the loop header
			}
		}
		after := bd.track(s.Body.List, obj, acq, st)
		// The body may run zero times, so a release (or escape) inside it is
		// conditional.
		return joinStatus(st, after)
	case *ast.RangeStmt:
		if st == stHeld && bd.escapes(s.X, obj) {
			return stDone // escaping use in the loop header
		}
		after := bd.track(s.Body.List, obj, acq, st)
		// The body may run zero times, so a release (or escape) inside it is
		// conditional.
		return joinStatus(st, after)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		hasDefault := false
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		out := stDone
		first := true
		for _, c := range clauses {
			var body []ast.Stmt
			switch c := c.(type) {
			case *ast.CaseClause:
				body = c.Body
				if c.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				body = c.Body
				if c.Comm == nil {
					hasDefault = true
				}
			}
			cs := bd.track(body, obj, acq, st)
			if first {
				out, first = cs, false
			} else {
				out = joinStatus(out, cs)
			}
		}
		if first { // no clauses at all
			return st
		}
		if !hasDefault {
			out = joinStatus(out, st) // the no-case-matched fall-through
		}
		return out
	case *ast.LabeledStmt:
		return bd.trackStmt(s.Stmt, obj, acq, st)
	case *ast.GoStmt:
		if st == stHeld && bd.mentions(s, obj) {
			return stDone // handed to a goroutine: ownership transferred
		}
	}
	if st == stHeld && bd.escapes(s, obj) {
		return stDone
	}
	return st
}

// joinStatus merges the fall-through statuses of sibling branches. A path
// that terminated (returned) contributes stDone and must not mask the other
// branch, so stDone joins transparently.
func joinStatus(a, b bufStatus) bufStatus {
	if a == stDone {
		return b
	}
	if b == stDone {
		return a
	}
	if a == b {
		return a
	}
	return stMaybe
}

// acquisition recognizes the `v := GetBuf(n)` and `v := pool.Get().(*T)` forms and returns the defined/assigned variable.
func (bd *bufCheck) acquisition(s ast.Stmt) (types.Object, *ast.Ident) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil
	}
	rhs := ast.Unparen(as.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	f := funcOf(bd.pass.TypesInfo, call)
	if f == nil {
		return nil, nil
	}
	if !isAcquireFunc(f) {
		return nil, nil
	}
	obj := bd.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = bd.pass.TypesInfo.Uses[id]
	}
	return obj, id
}

func isAcquireFunc(f *types.Func) bool {
	if f.FullName() == "(*sync.Pool).Get" {
		return true
	}
	switch f.Name() {
	case "GetBuf", "GetVec":
		return f.Type().(*types.Signature).Recv() == nil
	}
	return false
}

func isReleaseFunc(f *types.Func) bool {
	if f.FullName() == "(*sync.Pool).Put" {
		return true
	}
	switch f.Name() {
	case "PutBuf", "PutVec":
		return f.Type().(*types.Signature).Recv() == nil
	}
	return false
}

// isRelease reports whether call releases obj: a release function with the
// buffer (or its address) among the arguments.
func (bd *bufCheck) isRelease(call *ast.CallExpr, obj types.Object) bool {
	f := funcOf(bd.pass.TypesInfo, call)
	if f == nil || !isReleaseFunc(f) {
		return false
	}
	for _, arg := range call.Args {
		if bd.mentions(arg, obj) {
			return true
		}
	}
	return false
}

// mentions reports whether any identifier under n resolves to obj.
func (bd *bufCheck) mentions(n ast.Node, obj types.Object) bool {
	return firstMention(bd.pass.TypesInfo, n, obj) != token.NoPos
}

func firstMention(info *types.Info, n ast.Node, obj types.Object) token.Pos {
	found := token.NoPos
	ast.Inspect(n, func(x ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
			found = id.Pos()
			return false
		}
		return true
	})
	return found
}

// escapes reports whether n contains a use of obj that may communicate the
// buffer outside the function: an argument to a non-builtin, non-release
// call; a value returned, sent, stored into a composite literal, assigned to
// another variable or location; its address taken into such a context; or a
// capture by a function literal. Element reads/writes (buf[i]), len/cap/copy,
// self-append and re-slicing do not escape.
func (bd *bufCheck) escapes(n ast.Node, obj types.Object) bool {
	escaped := false
	ast.Inspect(n, func(x ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok || bd.pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if bd.identEscapes(id, obj) {
			escaped = true
		}
		return true
	})
	return escaped
}

// identEscapes climbs from one mention of the buffer to classify its context.
func (bd *bufCheck) identEscapes(id *ast.Ident, obj types.Object) bool {
	// A mention anywhere inside a nested function literal is a capture:
	// ownership is shared with the closure regardless of what the closure
	// does with it (even a release — the closure may run much later).
	for n := bd.parents[ast.Node(id)]; n != nil; n = bd.parents[n] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	var cur ast.Node = id
	for {
		parent := bd.parents[cur]
		if parent == nil {
			return false
		}
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.IndexExpr:
			if p.X == cur {
				return false // element access: bytes copy by value
			}
			return false // used as an index: no aliasing
		case *ast.SliceExpr:
			if p.X == cur {
				cur = p // the sub-slice aliases the buffer; its fate decides
				continue
			}
			return false // used as a bound
		case *ast.StarExpr:
			cur = p // *p of a *[]byte box: the slice aliases the pool box
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				cur = p // &buf: the pointer's fate decides
				continue
			}
			return false
		case *ast.BinaryExpr:
			return false // only nil-comparisons type-check for slices
		case *ast.CallExpr:
			if cur == p.Fun {
				return false
			}
			return bd.callArgEscapes(p, cur)
		case *ast.KeyValueExpr:
			if p.Value == cur {
				cur = p
				continue
			}
			return false
		case *ast.CompositeLit:
			// Stored into a value that outlives the expression — except a
			// reply's Vec without the FreeVec mark, which nobody will release.
			return !bd.unmarkedReplyVec(p, cur)
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return p.Value == cur
		case *ast.FuncLit:
			return true // captured by a closure
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return false // buf[i] = x / buf = ... handled at stmt level
				}
			}
			// On the RHS: aliased into another variable or location unless it
			// is the tracked variable's own reassignment (handled by the
			// statement walk before escapes is consulted).
			return true
		case *ast.RangeStmt:
			return false // for i := range buf
		case *ast.IncDecStmt, *ast.ExprStmt, *ast.IfStmt, *ast.ForStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause, *ast.BlockStmt,
			*ast.DeferStmt, *ast.GoStmt, *ast.LabeledStmt, *ast.SelectStmt,
			*ast.CommClause, *ast.DeclStmt:
			return false // expression consumed by a statement: no aliasing left
		case *ast.TypeAssertExpr:
			cur = p
		default:
			// Unknown context: assume the worst so tracking ends rather than
			// misreporting downstream.
			return true
		}
	}
}

// unmarkedReplyVec reports whether elt is the Vec field of a keyed struct
// literal whose type has a FreeVec field and which does not set it (or sets
// it to the literal false): the rpc.Response shape, where Vec changes hands
// only under that mark.
func (bd *bufCheck) unmarkedReplyVec(lit *ast.CompositeLit, elt ast.Node) bool {
	kv, ok := elt.(*ast.KeyValueExpr)
	if !ok {
		return false
	}
	if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Vec" {
		return false
	}
	for _, e := range lit.Elts {
		if other, ok := e.(*ast.KeyValueExpr); ok {
			if key, ok := other.Key.(*ast.Ident); ok && key.Name == "FreeVec" {
				v, isIdent := other.Value.(*ast.Ident)
				return isIdent && v.Name == "false"
			}
		}
	}
	t := bd.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "FreeVec" {
			return true
		}
	}
	return false
}

// nodeOrNil lifts a possibly-nil concrete AST node into a comparable ast.Node.
func nodeOrNil[T ast.Node](n T) ast.Node {
	var zero T
	if any(n) == any(zero) {
		return nil
	}
	return n
}

// reassignsOnly reports whether every mention of obj in s sits in a plain
// assignment-target position (the name is being rebound, not the buffer
// used).
func (bd *bufCheck) reassignsOnly(s ast.Stmt, obj types.Object) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	lhsIdents := map[*ast.Ident]bool{}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			lhsIdents[id] = true
		}
	}
	only := true
	ast.Inspect(as, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && bd.pass.TypesInfo.Uses[id] == obj && !lhsIdents[id] {
			only = false
		}
		return only
	})
	return only
}

// callArgEscapes classifies the buffer appearing as argument arg of call.
func (bd *bufCheck) callArgEscapes(call *ast.CallExpr, arg ast.Node) bool {
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isUniverse(bd.pass.TypesInfo, fun) {
		switch fun.Name {
		case "len", "cap", "copy", "clear", "min", "max", "string":
			return false // reads or copies element bytes; no aliasing
		case "append":
			// append(buf, ...) re-derives buf (handled as reassignment);
			// append(dst, buf...) copies elements out. Only append(dst, buf)
			// — storing the slice header itself — aliases.
			if len(call.Args) > 0 && call.Args[0] == arg {
				return false
			}
			return !(call.Ellipsis != token.NoPos && len(call.Args) > 0 && call.Args[len(call.Args)-1] == arg)
		}
	}
	if f := funcOf(bd.pass.TypesInfo, call); f != nil && isReleaseFunc(f) {
		return false // releases are recognized by the statement walk
	}
	return true
}

func isUniverse(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	return obj.Parent() == types.Universe
}

// selfDerived reports whether expr derives from obj alone through
// append/re-slice/index — the idioms that keep ownership with the same
// variable (`buf = append(buf, b)`, `buf = buf[:n]`).
func selfDerived(info *types.Info, expr ast.Expr, obj types.Object) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e] == obj
	case *ast.SliceExpr:
		return selfDerived(info, e.X, obj)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && isUniverse(info, id) {
			return len(e.Args) > 0 && selfDerived(info, e.Args[0], obj)
		}
	}
	return false
}
