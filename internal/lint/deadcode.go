package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Deadcode keeps code that no shipped binary runs out of the production
// build. It computes reachability over the loaded program from the roots
// every binary executes:
//
//   - main and init of every package main,
//   - every package's init functions and package-level variable
//     initialisers,
//
// following every function a reached body references — calls, method
// values (the pre-bound eventq callbacks), method expressions and
// function values alike. Dynamic dispatch through an interface is
// resolved conservatively: a method counts as reached once its receiver
// type is used in reached code and the method belongs to an interface
// that type implements. The interfaces considered are every interface
// type in the loaded program and every package-level interface of the
// packages it imports, so methods the standard library calls on our
// behalf (rand.Source, json.Marshaler, types.ImporterFrom, fmt.Stringer,
// error) stay reached.
//
// Every function and method declared in the loaded program's non-test
// files that is not reached is reported: delete it, or move it into a
// _test.go file when only tests need it. With no package main loaded
// (a subset run such as `acclint ./internal/netsim`) there is nothing to
// root the walk at, so the checker is inert.
type Deadcode struct{}

// Name implements Checker.
func (Deadcode) Name() string { return "deadcode" }

// Rev is the audit revision for //acclint:ignore deadcode@rev pins.
func (Deadcode) Rev() int { return 1 }

// Check implements Checker.
func (Deadcode) Check(prog *Program, cfg *Config) []Diagnostic {
	local := map[*types.Package]bool{}
	hasMain := false
	for _, pkg := range prog.Pkgs {
		local[pkg.Types] = true
		hasMain = hasMain || pkg.Types.Name() == "main"
	}
	if !hasMain {
		return nil
	}
	order := declFuncs(prog)
	r := &reacher{
		index:   make(map[*types.Func]*funcNode, len(order)),
		reached: map[*types.Func]bool{},
		used:    map[*types.TypeName]bool{},
		local:   local,
		ifaces:  interfaceMethods(prog),
	}
	for _, n := range order {
		r.index[n.fn] = n
	}
	for _, pkg := range prog.Pkgs {
		isMain := pkg.Types.Name() == "main"
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main") {
						if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
							r.reach(fn)
						}
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.scan(pkg.Info, d)
					}
				}
			}
		}
	}
	for len(r.queue) > 0 {
		n := r.queue[0]
		r.queue = r.queue[1:]
		r.scan(n.pkg.Info, n.decl)
	}

	var diags []Diagnostic
	for _, n := range order {
		if r.reached[n.fn] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   prog.Fset.Position(n.decl.Pos()),
			Check: "deadcode",
			Msg: fmt.Sprintf("%s is not reachable from any main or init: delete it, or move it into a _test.go file if only tests need it",
				shortFuncName(n.fn)),
		})
	}
	return diags
}

// reacher is the deadcode worklist: reached functions whose bodies are
// still to be scanned, and the program types reached code uses.
type reacher struct {
	index   map[*types.Func]*funcNode
	reached map[*types.Func]bool
	used    map[*types.TypeName]bool
	local   map[*types.Package]bool
	ifaces  map[string][]*types.Interface
	queue   []*funcNode
}

// reach marks fn reached and queues its body, if the program declares one.
func (r *reacher) reach(fn *types.Func) {
	fn = fn.Origin()
	if r.reached[fn] {
		return
	}
	r.reached[fn] = true
	if n := r.index[fn]; n != nil {
		r.queue = append(r.queue, n)
	}
}

// scan follows every function referenced under root and records the type
// of every expression as used.
func (r *reacher) scan(info *types.Info, root ast.Node) {
	ast.Inspect(root, func(node ast.Node) bool {
		e, ok := node.(ast.Expr)
		if !ok {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				r.reach(fn)
			}
		}
		if tv, ok := info.Types[e]; ok {
			r.use(tv.Type)
		}
		return true
	})
}

// use records the program types a value of type t carries — through
// pointers, containers, struct fields and type arguments — and reaches
// the methods through which an interface could call them.
func (r *reacher) use(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		args := t.TypeArgs()
		for i := 0; i < args.Len(); i++ {
			r.use(args.At(i))
		}
		obj := t.Origin().Obj()
		if !r.local[obj.Pkg()] || r.used[obj] {
			return
		}
		r.used[obj] = true
		r.use(t.Underlying())
		r.dispatch(t)
	case *types.Pointer:
		r.use(t.Elem())
	case *types.Slice:
		r.use(t.Elem())
	case *types.Array:
		r.use(t.Elem())
	case *types.Chan:
		r.use(t.Elem())
	case *types.Map:
		r.use(t.Key())
		r.use(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.use(t.Field(i).Type())
		}
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.use(t.At(i).Type())
		}
	}
}

// dispatch reaches each method of a used named type that an interface
// the type implements declares: a call through that interface may land
// on it.
func (r *reacher) dispatch(t *types.Named) {
	if types.IsInterface(t) {
		return
	}
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || r.reached[fn.Origin()] {
			continue
		}
		for _, iface := range r.ifaces[fn.Name()] {
			if types.Implements(ptr, iface) {
				r.reach(fn)
				break
			}
		}
	}
}

// interfaceMethods indexes, by method name, every method-set interface
// the program can dispatch through: the interface types its expressions
// mention, the package-level interfaces of every package it imports
// (directly or not), and the predeclared error.
func interfaceMethods(prog *Program) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || !iface.IsMethodSet() {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}
