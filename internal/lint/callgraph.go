package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// callgraph.go builds the static call graph the interprocedural checks
// (taint.go, ctxflow.go) walk. One graph is built per Run over the whole
// module; nodes are the module's declared functions and methods, edges are
// the call sites that can be resolved statically:
//
//   - direct calls to package functions and concrete methods resolve
//     through go/types object identity (the same *types.Func pointer is
//     shared across packages because the loader serves already-checked
//     packages to importers);
//   - calls through interface methods resolve CHA-style: conservatively, to
//     every module-declared concrete method that implements the interface
//     method (class-hierarchy analysis — sound for module-internal
//     dispatch, over-approximate by design);
//   - calls through function-typed variables resolve intraprocedurally: a
//     local assigned from named functions anywhere in the enclosing
//     declaration calls all of them. Function values that cross a function
//     boundary (stored in struct fields, or passed as arguments like
//     bufferdp's q func) are NOT tracked — a documented soundness limit
//     (see DESIGN.md "Static analysis").
//
// Function literals do not get their own nodes: a literal's body is
// attributed to the enclosing declared function, which matches how the
// checks reason ("what can running f reach?") and covers closures handed to
// par.ForEach and friends. Calls to functions outside the module are kept
// as qualified external facts ("time.Now", "context.Background") — the
// taint seeds — rather than edges.
type CallGraph struct {
	mod *Module
	// Nodes indexes every module-declared function with a body.
	Nodes map[*types.Func]*FuncNode
	// nodeList is Nodes in deterministic (source position) order.
	nodeList []*FuncNode
	// named holds every module-declared non-interface named type, for CHA.
	named []*types.Named
	// chaCache memoizes interface-method resolution.
	chaCache map[chaKey][]*types.Func
}

// FuncNode is one call-graph node: a declared function or method.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// Calls are resolved call sites targeting module functions, in source
	// order (one site may appear once per CHA target).
	Calls []CallSite
	// Exts are calls to functions outside the module, recorded by
	// qualified name ("time.Now", "math/rand.Intn", "context.Background").
	Exts []ExtCall
	// MapRanges are the positions of raw (non-sorted-idiom) map range
	// statements in the body — the maprange taint sources.
	MapRanges []token.Pos
}

// CallSite is one resolved module-internal call edge.
type CallSite struct {
	Pos    token.Pos
	Callee *types.Func
}

// ExtCall is a call to a function outside the module.
type ExtCall struct {
	Pos  token.Pos
	Name string
}

type chaKey struct {
	iface  *types.Interface
	method string
}

// inModule reports whether fn is declared in one of the module's packages.
func (m *Module) inModule(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == m.Path || strings.HasPrefix(p, m.Path+"/")
}

// BuildCallGraph constructs the module's call graph. Deterministic: nodes
// and edges are discovered in file/source order.
func BuildCallGraph(mod *Module) *CallGraph {
	cg := &CallGraph{
		mod:      mod,
		Nodes:    map[*types.Func]*FuncNode{},
		chaCache: map[chaKey][]*types.Func{},
	}
	// Enumerate named types once for CHA.
	for _, pkg := range mod.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			cg.named = append(cg.named, named)
		}
	}
	// Create nodes, then edges (two passes so every callee node exists).
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Fn: fn, Pkg: pkg, Decl: fd}
				cg.Nodes[fn] = n
				cg.nodeList = append(cg.nodeList, n)
			}
		}
	}
	for _, n := range cg.nodeList {
		cg.buildEdges(n)
	}
	cg.collectMapRanges()
	return cg
}

// ForEachNode visits the nodes in deterministic source order.
func (cg *CallGraph) ForEachNode(fn func(n *FuncNode)) {
	for _, n := range cg.nodeList {
		fn(n)
	}
}

// buildEdges resolves every call expression in n's body (including nested
// function literals, attributed to n).
func (cg *CallGraph) buildEdges(n *FuncNode) {
	info := n.Pkg.Info
	// Pass 1: intraprocedural function-value tracking — every local
	// variable assigned from one or more named functions.
	funcVars := map[types.Object][]*types.Func{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		if fn := cg.staticFunc(n.Pkg, rhs); fn != nil {
			funcVars[obj] = append(funcVars[obj], fn)
		}
	}
	ast.Inspect(n.Decl, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			if len(nd.Lhs) == len(nd.Rhs) {
				for i := range nd.Lhs {
					record(nd.Lhs[i], nd.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(nd.Names) == len(nd.Values) {
				for i := range nd.Names {
					record(nd.Names[i], nd.Values[i])
				}
			}
		}
		return true
	})

	// Pass 2: resolve calls.
	ast.Inspect(n.Decl, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		cg.resolveCall(n, call, funcVars)
		return true
	})
}

// staticFunc resolves an expression to the single named function it
// denotes, when it does (identifier or selector referencing a func).
func (cg *CallGraph) staticFunc(pkg *Package, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[e.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T]
		return cg.staticFunc(pkg, e.X)
	case *ast.IndexListExpr:
		return cg.staticFunc(pkg, e.X)
	}
	return nil
}

// resolveCall classifies one call expression and appends edges/externals.
func (cg *CallGraph) resolveCall(n *FuncNode, call *ast.CallExpr, funcVars map[types.Object][]*types.Func) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)
	// Conversions look like calls; skip them.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	// Generic instantiations wrap the callee.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if fn := cg.staticFunc(n.Pkg, ix.X); fn != nil {
			cg.addTarget(n, call.Pos(), fn)
			return
		}
	case *ast.IndexListExpr:
		if fn := cg.staticFunc(n.Pkg, ix.X); fn != nil {
			cg.addTarget(n, call.Pos(), fn)
			return
		}
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			cg.addTarget(n, call.Pos(), obj)
		case *types.Var:
			// Call through a function value: intraprocedural targets.
			for _, fn := range funcVars[obj] {
				cg.addTarget(n, call.Pos(), fn)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				// Interface dispatch: CHA over module impls.
				for _, impl := range cg.ifaceImpls(iface, fun.Sel.Name) {
					cg.addTarget(n, call.Pos(), impl)
				}
				return
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				cg.addTarget(n, call.Pos(), fn)
			}
			return
		}
		// Qualified package function (pkg.Fn) or method expression (T.M).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			cg.addTarget(n, call.Pos(), fn)
		}
	}
}

// addTarget appends a module edge or an external fact for one resolved
// callee.
func (cg *CallGraph) addTarget(n *FuncNode, pos token.Pos, fn *types.Func) {
	if cg.mod.inModule(fn) {
		n.Calls = append(n.Calls, CallSite{Pos: pos, Callee: fn})
		return
	}
	if fn.Pkg() == nil {
		return // builtins (error.Error has Pkg nil too; externals we track are package funcs)
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // external methods are not taint sources we track
	}
	n.Exts = append(n.Exts, ExtCall{Pos: pos, Name: fn.Pkg().Path() + "." + fn.Name()})
}

// ifaceImpls resolves an interface method CHA-style to every module-declared
// concrete method implementing it, sorted by position for determinism.
func (cg *CallGraph) ifaceImpls(iface *types.Interface, method string) []*types.Func {
	key := chaKey{iface, method}
	if impls, ok := cg.chaCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	seen := map[*types.Func]bool{}
	for _, named := range cg.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		mset := types.NewMethodSet(ptr)
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i)
			fn, ok := m.Obj().(*types.Func)
			if !ok || fn.Name() != method {
				continue
			}
			if cg.mod.inModule(fn) && cg.Nodes[fn] != nil && !seen[fn] {
				seen[fn] = true
				impls = append(impls, fn)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return cg.mod.posLess(impls[i].Pos(), impls[j].Pos()) })
	cg.chaCache[key] = impls
	return impls
}

// collectMapRanges records the raw map range statements of every function:
// ranges over map-typed expressions that are not the recognized
// collect-then-sort idiom. These are the maprange taint sources; whether
// they are also direct findings depends on the package (checkMapRange).
func (cg *CallGraph) collectMapRanges() {
	for _, pkg := range cg.mod.Pkgs {
		p := &pass{mod: cg.mod, pkg: pkg}
		var raws []token.Pos
		p.eachStmtList(func(list []ast.Stmt) {
			for i, st := range list {
				rs, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := p.pkg.Info.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				if p.isSortedKeyCollection(rs, list[i+1:]) {
					continue
				}
				raws = append(raws, rs.Pos())
			}
		})
		if len(raws) == 0 {
			continue
		}
		// Attribute each range to its enclosing declared function.
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := cg.Nodes[fn]
				if node == nil {
					continue
				}
				for _, pos := range raws {
					if fd.Pos() <= pos && pos < fd.End() {
						node.MapRanges = append(node.MapRanges, pos)
					}
				}
			}
		}
	}
}

// shortFunc renders a module function compactly for call-path messages:
// "route.Reroute", "(*route.Workspace).pushPQ", or the full name for
// functions outside the module.
func (cg *CallGraph) shortFunc(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, cg.mod.Path+"/internal/", "")
	name = strings.ReplaceAll(name, cg.mod.Path+"/", "")
	// The facade package itself ("repro.Run") keeps its module path element.
	name = strings.ReplaceAll(name, cg.mod.Path+".", pathBase(cg.mod.Path)+".")
	return name
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
